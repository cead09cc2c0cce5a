"""The all-A and all-B Kauffman states, their circles, and their
ribbon graphs.

Resolving every crossing of a diagram the same way, A or B, leaves a
disjoint union of circles in the plane; recording which pairs of
circles each crossing used to touch gives a ribbon graph with one
vertex per circle and one edge per crossing.  These two extreme states,
named by their side ``"A"`` or ``"B"``, are the only ones the package
resolves: a mixed state is a spanning subgraph of the all-A ribbon
graph, whose faces are that state's circles (Dasbach, Futer,
Kalfagianni, Lin and Stoltzfus, JCTB 2008).

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
    "resolve",
    "ribbon_graph",
]


def resolve(diagram: LinkDiagram, side: str) -> tuple[tuple[int, ...], ...]:
    """Resolve every crossing the ``side`` way, ``"A"`` or ``"B"``, and
    orient the circles across the chords.

    Returns one entry per circle: the flat join indices ``2*ci + j`` in
    the order met along the circle's ribbon orientation, the one that
    puts the odd side of the checkerboard colouring of the circles on
    its left.  Join 0 of a crossing is the one at slot 0 (slots run
    counterclockwise from the incoming understrand).  Every join lies on
    exactly one circle, and a crossingless loop is a circle with no
    joins.
    """
    if side not in ("A", "B"):
        raise ValueError(f"side must be 'A' or 'B', not {side!r}")
    n = diagram.crossing_count
    if n == 0:
        return ((),) * diagram.free_loops

    partner = diagram.partner
    # The A joins pair slots (0, 1) and (2, 3), so port p with p ^ 1;
    # the B joins pair (3, 0) and (1, 2), so p with p ^ 3.  Adding t = 1
    # to a B slot turns its pairs into A's, so halving the shifted slot
    # gives the join index on both sides, with slot 0 in join 0.
    t = 1 if side == "B" else 0
    flip = 1 + 2 * t

    # Trace circles through alternating join and arc hops, starting each
    # circle with a join hop.  A join traced from slot s to slot s + 1
    # (mod 4) has its crossing, and so its chord, on the left.
    seen = [False] * (4 * n)
    orders: list[list[int]] = []
    circle_of_join = [0] * (2 * n)
    chord_on_left = [False] * (2 * n)
    for start in range(4 * n):
        if seen[start]:
            continue
        joins: list[int] = []
        port = start
        while True:
            hop = port ^ flip
            seen[port] = seen[hop] = True
            flat = 2 * (port >> 2) + (((port + t) & 3) >> 1)
            joins.append(flat)
            circle_of_join[flat] = len(orders)
            chord_on_left[flat] = (hop - port) & 3 == 1
            port = partner[hop]
            if port == start:
                break
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

    The adequacy battery reads the counts and the loops, and
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

    def loop_mask(self) -> int:
        """Bit i set when edge i joins a vertex to itself."""
        vertex_of = self._vertex_of
        mask = 0
        for i in range(self.edge_count):
            if vertex_of[2 * i] == vertex_of[2 * i + 1]:
                mask |= 1 << i
        return mask

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


def ribbon_graph(diagram: LinkDiagram, side: str) -> RibbonGraph:
    """The ribbon graph of the all-``side`` state: one vertex per
    circle, one edge per crossing, edge i joining the circles at
    crossing i's two joins.  Built once per diagram object and side."""
    # Ribbon dart ids: crossing ci's chord owns darts 2ci (at join 0)
    # and 2ci + 1 (at join 1); flat join index 2ci + j is the dart id.
    return diagram._memoize(
        ("graph", side), lambda: RibbonGraph(resolve(diagram, side))
    )
