"""The all-A and all-B Kauffman states: their circles and loops, and
the rotations of the all-A ribbon graph.

Resolving every crossing of a diagram the same way, A or B, leaves a
disjoint union of circles in the plane.  The battery and the sweep read
only each extreme state's circle count and loops, the crossings whose
two joins lie on one circle (:func:`circles`), with no orientation.
Recording which circles each crossing touched gives a ribbon graph, one
vertex per circle and one edge per crossing.  ``bracket_subgraph`` sums
over the spanning subgraphs of the all-A one, whose faces are the mixed
states' circles (Dasbach, Futer, Kalfagianni, Lin and Stoltzfus, JCTB
2008), reading its rotations straight from :func:`resolve`;
:class:`RibbonGraph` wraps them for the tests' per-mask face count.
The all-B state's ribbon graph is the mirror's all-A one.

A rotation at a circle is the cyclic order of its chord ends read along
the circle: counterclockwise for circles at even depth below the region
taken as outer, clockwise for odd depth, since a chord reaching a circle
from the inside attaches through a fold and clearing the twists flips
exactly the odd-depth circles.  That puts the odd side of the circles'
checkerboard colouring on the left of every circle.  Both ends of a
chord lie in one region, so each chord fixes the orientation of the
circle at one end from the circle at the other, and one walk over the
chords orients them all.
"""

from __future__ import annotations

from kauffman.diagram import LinkDiagram

__all__ = [
    "RibbonGraph",
    "circles",
    "resolve",
]


def circles(diagram: LinkDiagram, side: str) -> tuple[int, int]:
    """The circle count of the all-``side`` state, ``"A"`` or ``"B"``,
    and its loop mask, bit i set when crossing i's two joins lie on one
    circle; once per diagram object and side.  A join pairs port ``p``
    with ``p ^ 1`` on the A side and ``p ^ 3`` on the B side, so slots 0
    and 2 lie on different joins on both."""
    if side not in ("A", "B"):
        raise ValueError(f"side must be 'A' or 'B', not {side!r}")
    join = 1 if side == "A" else 3
    return diagram._memoize(("circles", side), lambda: _trace(diagram, join))


def _trace(diagram: LinkDiagram, join: int) -> tuple[int, int]:
    partner = diagram.partner
    circle = [0] * len(partner)  # per port, its circle's number from 1
    count = 0
    for start in range(len(partner)):
        if circle[start]:
            continue
        count += 1
        p = start
        while True:
            q = p ^ join
            circle[p] = circle[q] = count
            p = partner[q]
            if circle[p]:
                break
    loops = 0
    for i in range(len(partner) // 4):
        if circle[4 * i] == circle[4 * i + 2]:
            loops |= 1 << i
    return count + diagram.free_loops, loops


def resolve(diagram: LinkDiagram) -> tuple[tuple[int, ...], ...]:
    """Resolve every crossing the A way and orient the circles across
    the chords.

    Returns one entry per circle: the flat join indices ``2*ci + j`` in
    the order met along the circle's ribbon orientation, the one that
    puts the odd side of the checkerboard colouring of the circles on
    its left.  Join 0 of a crossing pairs slots 0 and 1, join 1 slots 2
    and 3.  Every join lies on exactly one circle, and a crossingless
    loop is a circle with no joins.
    """
    n = diagram.crossing_count
    if n == 0:
        return ((),) * diagram.free_loops

    partner = diagram.partner
    # Trace circles through alternating join and arc hops, starting each
    # circle at the even port of its first join; join j pairs ports 2j
    # and 2j + 1.  A join traced from slot s to slot s + 1, from an even
    # port, has its crossing, and so its chord, on the left.
    orders: list[list[int]] = []
    circle_of_join = [-1] * (2 * n)
    chord_on_left = [False] * (2 * n)
    for first in range(2 * n):
        if circle_of_join[first] >= 0:
            continue
        joins: list[int] = []
        port = 2 * first
        while circle_of_join[port >> 1] < 0:
            flat = port >> 1
            joins.append(flat)
            circle_of_join[flat] = len(orders)
            chord_on_left[flat] = not port & 1
            port = partner[port ^ 1]
        orders.append(joins)

    # A chord lies in one region of the circles, so the circles at its
    # two ends see it on the same side of their ribbon orientation: one
    # end's orientation fixes the other's.  The circle through port 0
    # is anchored with crossing 0's chord on its left.
    reverse: list[bool | None] = [None] * len(orders)
    reverse[0] = not chord_on_left[0]
    stack = [0]
    while stack:
        c = stack.pop()
        for flat in orders[c]:
            other = circle_of_join[flat ^ 1]
            want = reverse[c] ^ chord_on_left[flat] ^ chord_on_left[flat ^ 1]
            if reverse[other] is None:
                reverse[other] = want
                stack.append(other)
            elif reverse[other] != want:
                raise AssertionError("chords disagree on a circle's orientation")

    return tuple(
        tuple(joins[::-1] if rev else joins)
        for joins, rev in zip(orders, reverse)
    )


class RibbonGraph:
    """An oriented ribbon graph: a rotation (cyclic dart order) at each
    vertex.  Edge i owns darts 2i and 2i + 1.

    ``bracket_subgraph`` counts faces from the rotations itself;
    :meth:`faces` is the per-mask reference the tests hold it to.
    """

    __slots__ = ("rotations", "_vertex_of")

    def __init__(self, rotations: tuple[tuple[int, ...], ...]) -> None:
        rotations = tuple(tuple(r) for r in rotations)
        darts = sorted(d for rot in rotations for d in rot)
        if darts != list(range(len(darts))):
            raise ValueError("rotations must use darts 0..2e-1 exactly once")
        if len(darts) % 2:
            raise ValueError("odd number of darts")
        object.__setattr__(self, "rotations", rotations)
        vertex_of = [-1] * len(darts)
        for v, rot in enumerate(rotations):
            for d in rot:
                vertex_of[d] = v
        object.__setattr__(self, "_vertex_of", vertex_of)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("RibbonGraph is immutable")

    def __repr__(self) -> str:
        return f"RibbonGraph({self.rotations!r})"

    @property
    def vertex_count(self) -> int:
        return len(self.rotations)

    @property
    def edge_count(self) -> int:
        return len(self._vertex_of) // 2

    def faces(self, edge_mask: int) -> int:
        """Boundary components of the spanning subgraph with the given
        edges.  Vertices with no incident present edge contribute one
        face each.  The per-mask reference for ``bracket_subgraph``."""
        rot_next = [-1] * len(self._vertex_of)
        for rot in self.rotations:
            for i, d in enumerate(rot):
                rot_next[d] = rot[(i + 1) % len(rot)]
        present = [False] * len(self._vertex_of)
        for e in range(self.edge_count):
            if edge_mask >> e & 1:
                present[2 * e] = present[2 * e + 1] = True
        visited = [False] * len(self._vertex_of)
        count = 0
        for d0, p in enumerate(present):
            if not p or visited[d0]:
                continue
            count += 1
            d = d0
            while not visited[d]:
                visited[d] = True
                nxt = rot_next[d ^ 1]
                while not present[nxt]:
                    nxt = rot_next[nxt]
                d = nxt
        touched = [False] * self.vertex_count
        for d, p in enumerate(present):
            if p:
                touched[self._vertex_of[d]] = True
        count += sum(1 for t in touched if not t)
        return count

