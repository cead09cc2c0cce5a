import sys
from itertools import permutations
from pathlib import Path
from random import Random

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from kauffman.corpus import bundled
from kauffman.diagram import from_slot_tuples, parse_pd, DiagramError
from kauffman.laurent import LaurentPoly


def power(p, k):
    """``p`` to the ``k >= 0``, by repeated multiplication: the package
    has no power operator."""
    result = LaurentPoly({0: 1})
    for _ in range(k):
        result = result * p
    return result


@pytest.fixture(scope="session")
def corpus_diagrams():
    """Name -> parsed diagram for every bundled entry."""
    return {e.name: parse_pd(e.pd) for e in bundled()}


def _enumerate_small():
    """Every valid diagram on one or two crossings, deduplicated."""
    seen = {}
    for labels in set(permutations((1, 1, 2, 2))):
        try:
            d = from_slot_tuples([tuple(labels)])
        except DiagramError:
            continue
        seen.setdefault(tuple(x.slots for x in d.crossings), d)
    for labels in set(permutations((1, 1, 2, 2, 3, 3, 4, 4))):
        try:
            d = from_slot_tuples([tuple(labels[:4]), tuple(labels[4:])])
        except DiagramError:
            continue
        seen.setdefault(tuple(x.slots for x in d.crossings), d)
    return tuple(seen.values())


_SMALL_POOL = None


def small_pool():
    global _SMALL_POOL
    if _SMALL_POOL is None:
        _SMALL_POOL = _enumerate_small()
    return _SMALL_POOL


@pytest.fixture(scope="session")
def small_diagrams():
    """Exhaustive pool of valid one- and two-crossing diagrams."""
    return small_pool()


def braid_closure(strands, word):
    """The closure of a braid word, letters ``±1 .. ±(strands - 1)``.

    Strands run upward; at letter ``i`` the strand entering bottom-left
    leaves top-right, over the other one when the letter is positive.
    Arcs are relabelled consecutively along each component.
    """
    pos = list(range(strands))
    fresh = strands
    succ = {}
    raw = []
    for g in word:
        i = abs(g) - 1
        bl, br = pos[i], pos[i + 1]
        tr, tl = fresh, fresh + 1
        fresh += 2
        succ[bl], succ[br] = tr, tl
        raw.append((br, tr, tl, bl) if g > 0 else (bl, br, tr, tl))
        pos[i], pos[i + 1] = tl, tr
    top = {pos[j]: j for j in range(strands)}  # closing strand j
    succ = {top.get(a, a): top.get(b, b) for a, b in succ.items()}
    label = {}
    for start in sorted(succ):
        arc = start
        while arc not in label:
            label[arc] = len(label) + 1
            arc = succ[arc]
    return from_slot_tuples(
        [tuple(label[top.get(a, a)] for a in t) for t in raw]
    )


def seeded_words(seed, count, crossings=range(4, 11)):
    """``count`` random ``(strands, word)`` braids on 3-5 strands, each
    word using every generator so that its closure is connected."""
    rng = Random(seed)
    out = []
    while len(out) < count:
        strands = rng.choice((3, 4, 5))
        word = [rng.choice((1, -1)) * rng.randint(1, strands - 1)
                for _ in range(rng.choice(crossings))]
        if len({abs(g) for g in word}) == strands - 1:
            out.append((strands, word))
    return out


def seeded_closures(seed, count, crossings=range(4, 11)):
    """The closures of ``seeded_words(seed, count, crossings)``."""
    return [braid_closure(*b) for b in seeded_words(seed, count, crossings)]
