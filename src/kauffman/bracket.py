"""Three independent engines for the Kauffman bracket.

All engines return the bracket normalized so the unknot's value is 1,
computed exactly over the integers.  The crossingless diagram with m
loops evaluates to delta^(m-1); the empty diagram evaluates to 1 by
convention.

Engines:

* ``bracket_statesum``: direct sum over all 2^c resolutions, counting
  circles by walking port pairings.  The reference implementation.
* ``bracket_subgraph``: sum over spanning subgraphs of the all-A state
  ribbon graph, using boundary-component counts.  Exercises completely
  different machinery (nesting-aware rotations), so agreement with the
  state sum is strong evidence for both.
* ``bracket_fast``: a sweep that processes one crossing at a time and
  merges partial diagrams with identical open-strand matchings.  The
  number of live states stays small for cabled diagrams, which is where
  the exponential engines give out.
"""

from __future__ import annotations

from collections import Counter

from kauffman.diagram import LinkDiagram
from kauffman.laurent import LaurentPoly
from kauffman.states import KauffmanState, ribbon_graph

__all__ = [
    "BRACKET_ENGINES",
    "CapExceeded",
    "DELTA",
    "bracket",
    "bracket_fast",
    "bracket_statesum",
    "bracket_subgraph",
]

# Value of a closed circle: -A^2 - A^-2.
DELTA = LaurentPoly({2: -1, -2: -1})


class CapExceeded(RuntimeError):
    """Raised when an engine would exceed its resource cap.

    ``detail`` records how far the computation got.
    """

    def __init__(self, message: str, detail: dict | None = None) -> None:
        super().__init__(message)
        self.detail = detail or {}


def _crossingless_value(diagram: LinkDiagram) -> LaurentPoly:
    if diagram.free_loops == 0:
        return LaurentPoly.one()
    return DELTA ** (diagram.free_loops - 1)


def _delta_powers(top: int) -> list[LaurentPoly]:
    powers = [LaurentPoly.one()]
    for _ in range(top):
        powers.append(powers[-1] * DELTA)
    return powers


def _assemble(histogram: Counter, crossing_count: int) -> LaurentPoly:
    """Sum count * A^(c - 2b) * delta^(f - 1) over histogram entries
    keyed by (b, f)."""
    max_f = max(f for _, f in histogram)
    powers = _delta_powers(max_f - 1)
    acc: dict[int, int] = {}
    for (b, f), count in histogram.items():
        shift = crossing_count - 2 * b
        for exp, coeff in powers[f - 1].terms():
            key = exp + shift
            acc[key] = acc.get(key, 0) + coeff * count
    return LaurentPoly(acc)


def bracket_statesum(diagram: LinkDiagram, *, cap: int = 28) -> LaurentPoly:
    """Bracket by brute-force enumeration of all 2^c states."""
    c = diagram.crossing_count
    if c == 0:
        return _crossingless_value(diagram)
    if c > cap:
        raise CapExceeded(
            f"state sum over 2^{c} resolutions exceeds cap {cap}",
            {"crossings": c, "cap": cap},
        )
    # Flat port ids 4*ci + si.  Within a crossing the A join pairs port
    # p with p ^ 1 and the B join pairs p with p ^ 3.
    arc_partner = diagram.partner
    histogram: Counter = Counter()
    seen = [0] * (4 * c)
    stamp = 0
    for mask in range(1 << c):
        stamp += 1
        circles = 0
        for start in range(4 * c):
            if seen[start] == stamp:
                continue
            circles += 1
            p = start
            while seen[p] != stamp:
                seen[p] = stamp
                q = p ^ (3 if mask >> (p >> 2) & 1 else 1)
                seen[q] = stamp
                p = arc_partner[q]
        histogram[(bin(mask).count("1"), circles)] += 1
    return _assemble(histogram, c)


def bracket_subgraph(diagram: LinkDiagram, *, cap: int = 20) -> LaurentPoly:
    """Bracket as a sum over spanning subgraphs of the all-A ribbon
    graph, one term A^(c - 2e(H)) * delta^(f(H) - 1) per edge subset H."""
    c = diagram.crossing_count
    if c == 0:
        return _crossingless_value(diagram)
    if c > cap:
        raise CapExceeded(
            f"subgraph sum over 2^{c} edge subsets exceeds cap {cap}",
            {"crossings": c, "cap": cap},
        )
    graph = ribbon_graph(diagram, KauffmanState.all_A(c))
    histogram: Counter = Counter()
    for mask in range(1 << c):
        histogram[(bin(mask).count("1"), graph.faces(mask))] += 1
    return _assemble(histogram, c)


def _sweep_order(diagram: LinkDiagram) -> list[int]:
    """Process crossings so the open boundary stays small: repeatedly
    take the crossing with the most arcs into the processed region."""
    c = diagram.crossing_count
    neighbors: list[Counter] = [Counter() for _ in range(c)]
    for p, q in enumerate(diagram.partner):
        neighbors[p >> 2][q >> 2] += 1
    order: list[int] = []
    done = [False] * c
    attached = [0] * c
    for _ in range(c):
        best = -1
        best_key = None
        for ci in range(c):
            if done[ci]:
                continue
            key = (-attached[ci], ci)
            if best_key is None or key < best_key:
                best_key = key
                best = ci
        order.append(best)
        done[best] = True
        for other, count in neighbors[best].items():
            if not done[other]:
                attached[other] += count
    return order


def bracket_fast(
    diagram: LinkDiagram, *, max_states: int = 200_000
) -> LaurentPoly:
    """Bracket via a crossing-by-crossing sweep.

    A partial computation is a pairing of the still-open ports plus a
    polynomial weight; branches with the same pairing merge.  Memory is
    bounded by ``max_states`` live pairings; exceeding it raises
    :class:`CapExceeded`.
    """
    c = diagram.crossing_count
    if c == 0:
        return _crossingless_value(diagram)
    order = _sweep_order(diagram)

    def canonical(link: dict[int, int]) -> tuple:
        return tuple(sorted((p, q) for p, q in link.items() if p < q))

    start = dict(enumerate(diagram.partner))
    states: dict[tuple, dict[int, int]] = {canonical(start): {0: 1}}
    links: dict[tuple, dict[int, int]] = {canonical(start): start}

    for step, ci in enumerate(order):
        base = 4 * ci
        new_states: dict[tuple, dict[int, int]] = {}
        new_links: dict[tuple, dict[int, int]] = {}
        for key, poly in states.items():
            link = links[key]
            for shift, pairs in (
                (1, ((base, base + 1), (base + 2, base + 3))),
                (-1, ((base, base + 3), (base + 1, base + 2))),
            ):
                branch = dict(link)
                loops = 0
                for p, q in pairs:
                    a, b = branch.pop(p), branch.pop(q)
                    if a == q:
                        loops += 1
                    else:
                        branch[a] = b
                        branch[b] = a
                # weight: A^shift times delta^loops
                weighted: dict[int, int] = {}
                for exp, coeff in poly.items():
                    weighted[exp + shift] = (
                        weighted.get(exp + shift, 0) + coeff
                    )
                for _ in range(loops):
                    bumped: dict[int, int] = {}
                    for exp, coeff in weighted.items():
                        bumped[exp + 2] = bumped.get(exp + 2, 0) - coeff
                        bumped[exp - 2] = bumped.get(exp - 2, 0) - coeff
                    weighted = bumped
                bkey = canonical(branch)
                slot = new_states.get(bkey)
                if slot is None:
                    new_states[bkey] = weighted
                    new_links[bkey] = branch
                else:
                    for exp, coeff in weighted.items():
                        slot[exp] = slot.get(exp, 0) + coeff
        if len(new_states) > max_states:
            raise CapExceeded(
                f"open-boundary pairings exceed max_states={max_states}",
                {
                    "crossings_done": step + 1,
                    "crossings_total": c,
                    "states": len(new_states),
                },
            )
        states = new_states
        links = new_links

    if list(states.keys()) != [()]:
        raise AssertionError("sweep left open strands")
    total = LaurentPoly(states[()])
    # Every closed circle contributed a delta, so this is delta times
    # the normalized bracket.
    return total.exact_div(DELTA)


BRACKET_ENGINES = {
    "fast": bracket_fast,
    "statesum": bracket_statesum,
    "subgraph": bracket_subgraph,
}


def bracket(
    diagram: LinkDiagram, *, engine: str = "fast", **limits
) -> LaurentPoly:
    """Dispatch to a bracket engine by name.

    The value is computed once per diagram object, engine and limits,
    so the cable brackets of a diagram (its memoized cables' brackets)
    are shared by every computation that reads them.  A call that
    raises :class:`CapExceeded` stores nothing.
    """
    try:
        fn = BRACKET_ENGINES[engine]
    except KeyError:
        raise ValueError(
            f"unknown engine {engine!r}; choose from {sorted(BRACKET_ENGINES)}"
        ) from None
    key = ("bracket", engine, tuple(sorted(limits.items())))
    return diagram._memoize(key, lambda: fn(diagram, **limits))
