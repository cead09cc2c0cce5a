"""Reidemeister moves: R1 kinks and R2 bigons, put in and taken out.

The insertions below are written from the PD and braid conventions
alone and share no code with :func:`kauffman.diagram.simplify`.  The
bracket, the reduced colored Jones value and ``simplify`` are held to
what the moves are known to do (Kauffman, Topology 26, 1987): a kink of
writhe ``e`` multiplies the bracket by ``-A**(3*e)``, a bigon leaves it
as it is, and neither changes the reduced value.  ``reduced`` on the
diagram as given is the reference for ``reduced`` on its simplification.
"""

from random import Random

import pytest

from kauffman.bracket import bracket
from kauffman.diagram import (
    LinkDiagram,
    from_slot_tuples,
    mirror,
    simplify,
)
from kauffman.jones import reduced
from kauffman.laurent import LaurentPoly

from conftest import braid_closure, seeded_closures, seeded_words

CORPUS_KNOTS = (
    "kink-positive", "kink-negative", "double-kink-positive",
    "cancelling-kinks", "trefoil-left", "trefoil-right", "loopy-unknot",
    "figure-eight",
)

# A kink spliced into an arc cut into pieces (a1, a2, a3), a2 the loop,
# keyed by its writhe and by which of its two passages comes first.
KINKS = {
    (1, "under"): lambda a1, a2, a3: (a1, a3, a2, a2),
    (1, "over"): lambda a1, a2, a3: (a2, a2, a3, a1),
    (-1, "under"): lambda a1, a2, a3: (a1, a2, a2, a3),
    (-1, "over"): lambda a1, a2, a3: (a2, a1, a3, a2),
}


def kink_factor(e):
    return LaurentPoly({3 * e: -1})


def _heads(x):
    """Slots where the crossing's two passages are entered."""
    return (0, 3 if x.sign > 0 else 1)


def _splice(knot, pieces):
    """The knot's slot tuples with each arc ``a`` in ``pieces`` cut into
    ``pieces[a]`` consecutive arcs, relabelled along the orientation,
    and ``piece(a, i)``, the label of piece ``i`` of old arc ``a``."""
    following = {}
    for x in knot.crossings:
        for h in _heads(x):
            following[x.slots[h]] = x.slots[h ^ 2]
    first, label = {}, 1
    arc = knot.crossings[0].slots[0]
    while arc not in first:
        first[arc] = label
        label += pieces.get(arc, 1)
        arc = following[arc]

    def piece(a, i):
        return first[a] + i

    tuples = [
        tuple(
            piece(a, pieces.get(a, 1) - 1) if s in _heads(x) else first[a]
            for s, a in enumerate(x.slots)
        )
        for x in knot.crossings
    ]
    return tuples, piece


def add_kink(knot, rng):
    """A kink of random writhe on a random arc; returns the new diagram
    and the writhe."""
    e = rng.choice((1, -1))
    a = rng.randint(1, 2 * knot.crossing_count)
    tuples, piece = _splice(knot, {a: 3})
    tuples.append(KINKS[e, rng.choice(("under", "over"))](
        *(piece(a, i) for i in range(3))
    ))
    return from_slot_tuples(tuples), e


def add_bigon(knot, rng):
    """Push a finger of the arc entering a random crossing across the
    arc at the next slot counterclockwise, over it or under it."""
    while True:
        x = rng.choice(knot.crossings)
        h = rng.choice(_heads(x))
        a, b = x.slots[h], x.slots[(h + 1) % 4]
        if a != b:
            break
    # b "down": b leaves the crossing there, so its piece next to the
    # crossing is its first one
    down = (h + 1) % 4 not in _heads(x)
    tuples, piece = _splice(knot, {a: 3, b: 3})
    a1, a2, a3 = (piece(a, i) for i in range(3))
    b1, b2, b3 = (piece(b, i) for i in range(3))
    if rng.random() < 0.5:  # a under b twice
        below, above = (b3, b1) if down else (b1, b3)
        tuples += [(a1, below, a2, b2), (a2, above, a3, b2)]
    elif down:  # a over b twice, b running away from the crossing
        tuples += [(b2, a1, b3, a2), (b1, a3, b2, a2)]
    else:
        tuples += [(b1, a2, b2, a1), (b2, a2, b3, a3)]
    return from_slot_tuples(tuples)


def braid_moves(strands, word, rng):
    """A stabilization of random sign on an added strand and a
    cancelling pair inside the word; returns the new braid and the
    stabilization's writhe."""
    e = rng.choice((1, -1))
    g = rng.choice((1, -1)) * rng.randint(1, strands - 1)
    at = rng.randint(0, len(word))
    return strands + 1, word[:at] + [g, -g] + word[at:] + [e * strands], e


def seeded_knots(seed, count, crossings):
    """The first ``count`` seeded closures with one component."""
    words = [
        b for b in seeded_words(seed, 10 * count, crossings)
        if len(braid_closure(*b).components) == 1
    ]
    assert len(words) >= count
    return words[:count]


def _widths(diagram):
    return (1, 2, 3) if diagram.crossing_count <= 6 else (1, 2)


def _check_moves(base, moved, factor):
    assert bracket(moved) == bracket(base) * factor
    for n in (1, 2, 3):
        assert reduced(moved, n) == reduced(base, n)
    assert simplify(moved).crossing_count <= base.crossing_count


class TestInsertedMoves:
    @pytest.mark.parametrize("name", CORPUS_KNOTS)
    @pytest.mark.parametrize("side", ["given", "mirror"])
    def test_corpus_knots(self, corpus_diagrams, name, side):
        base = corpus_diagrams[name]
        if side == "mirror":
            base = mirror(base)
        rng = Random(f"{name}-{side}")
        moved, factor = base, LaurentPoly({0: 1})
        for _ in range(2):
            moved, e = add_kink(moved, rng)
            factor = factor * kink_factor(e)
            assert bracket(moved) == bracket(base) * factor
            moved = add_bigon(moved, rng)
            assert bracket(moved) == bracket(base) * factor
        _check_moves(base, moved, factor)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_seeded_closures_in_pd(self, seed):
        rng = Random(seed)
        for strands, word in seeded_knots(seed, 6, range(3, 7)):
            base = braid_closure(strands, word)
            moved, e = add_kink(base, rng)
            moved = add_bigon(moved, rng)
            _check_moves(base, moved, kink_factor(e))

    @pytest.mark.parametrize("seed", [5, 6])
    def test_seeded_closures_in_braids(self, seed):
        rng = Random(seed)
        for strands, word in seeded_knots(seed, 6, range(3, 7)):
            base = braid_closure(strands, word)
            wider, padded, e = braid_moves(strands, word, rng)
            moved = braid_closure(wider, padded)
            _check_moves(base, moved, kink_factor(e))

    def test_every_kink_has_its_writhe(self, corpus_diagrams):
        # every entry of KINKS is a valid kink of the writhe it is
        # keyed by, on the trefoil and on a one-crossing knot
        for knot in (corpus_diagrams["trefoil-left"],
                     corpus_diagrams["kink-negative"]):
            for (e, _), make in KINKS.items():
                tuples, piece = _splice(knot, {1: 3})
                tuples.append(make(*(piece(1, i) for i in range(3))))
                moved = from_slot_tuples(tuples)
                assert moved.crossings[-1].sign == e
                assert bracket(moved) == bracket(knot) * kink_factor(e)


class TestSimplify:
    """``simplify`` against the diagram as given."""

    def _knots(self, corpus_diagrams):
        corpus = [corpus_diagrams[name] for name in CORPUS_KNOTS]
        closures = [
            d for d in seeded_closures(1, 300, range(3, 13))
            if len(d.components) == 1
        ][:70]
        return corpus + [mirror(d) for d in corpus] + closures

    def test_reduced_value_is_kept(self, corpus_diagrams):
        knots = self._knots(corpus_diagrams)
        assert len(knots) >= 16 + 60
        for d in knots:
            s = simplify(d)
            assert s.crossing_count <= d.crossing_count
            for n in _widths(d):
                assert reduced(s, n) == reduced(d, n), (d, n)

    def test_fixed_point(self, corpus_diagrams):
        for d in self._knots(corpus_diagrams):
            once = simplify(d)
            assert simplify(once).crossing_count == once.crossing_count

    def test_most_seeded_closures_shrink(self, corpus_diagrams):
        knots = self._knots(corpus_diagrams)[16:]
        shrunk = sum(simplify(d).crossing_count < d.crossing_count
                     for d in knots)
        assert shrunk > len(knots) // 2

    @pytest.mark.parametrize("name", [
        "kink-positive", "kink-negative", "double-kink-positive",
        "cancelling-kinks", "loopy-unknot",
    ])
    def test_unknots_reduce_fully(self, corpus_diagrams, name):
        for d in (corpus_diagrams[name], mirror(corpus_diagrams[name])):
            assert simplify(d) == LinkDiagram.crossingless(1)

    def test_minimal_links_and_crossingless_come_back(self, corpus_diagrams):
        same = [
            corpus_diagrams[name] for name in (
                "trefoil-left", "trefoil-right", "figure-eight",
                "hopf-positive", "overlap-unlink", "unknot-0", "empty",
            )
        ]
        same += [mirror(d) for d in same]
        same += [d for d in seeded_closures(1, 40)
                 if len(d.components) > 1]
        same += [LinkDiagram.crossingless(2)]
        assert len(same) > 20
        for d in same:
            assert simplify(d) is d

    def test_clasps_are_kept(self):
        # the bigons of sigma_1^3 are clasps, that of sigma_1 sigma_1^-1
        # is not
        clasp = braid_closure(3, [1, 1, 1, 2])
        assert simplify(clasp).crossing_count == 3
        bigon = braid_closure(3, [1, -1, 1, 2])
        assert simplify(bigon) == LinkDiagram.crossingless(1)
