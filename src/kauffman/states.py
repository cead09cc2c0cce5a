"""Kauffman states, their circles, and state ribbon graphs.

Resolving every crossing of a diagram (each one joined the A way or the
B way) leaves a disjoint union of circles in the plane; recording which
pairs of circles each crossing used to touch gives a ribbon graph with
one vertex per circle and one edge per crossing.

The ribbon structure needs care with nesting.  Each circle's rotation
is the cyclic order of its chord ends read counterclockwise in the
plane, except that circles nested at odd depth are read clockwise: a
chord reaching a circle from the inside attaches through a fold, and
clearing the resulting twists flips exactly the odd-depth circles.
Nesting depths are found from the face structure of the resolved
diagram, which is itself validated by an Euler-characteristic count.
"""

from __future__ import annotations

from dataclasses import dataclass

from kauffman.diagram import LinkDiagram

__all__ = [
    "A_JOINS",
    "B_JOINS",
    "KauffmanState",
    "RibbonGraph",
    "StateResolution",
    "resolve",
    "ribbon_graph",
]

# Slot pairs joined by each resolution choice, with slots numbered
# counterclockwise from the incoming understrand.
A_JOINS = ((0, 1), (2, 3))
B_JOINS = ((3, 0), (1, 2))


@dataclass(frozen=True)
class KauffmanState:
    """One resolution choice ("A" or "B") per crossing."""

    choices: tuple[str, ...]

    def __post_init__(self) -> None:
        if any(ch not in ("A", "B") for ch in self.choices):
            raise ValueError(f"state choices must be 'A' or 'B': {self.choices}")

    @classmethod
    def all_A(cls, crossing_count: int) -> "KauffmanState":
        return cls(("A",) * crossing_count)

    @classmethod
    def all_B(cls, crossing_count: int) -> "KauffmanState":
        return cls(("B",) * crossing_count)


# (join index, position within the join's port pair) of each slot,
# per resolution choice.
_JOIN_OF_SLOT = {
    choice: tuple(
        next((j, pair.index(si)) for j, pair in enumerate(joins) if si in pair)
        for si in range(4)
    )
    for choice, joins in (("A", A_JOINS), ("B", B_JOINS))
}


@dataclass(frozen=True)
class StateResolution:
    """The circles of a resolved diagram plus their planar nesting data.

    ``circles`` lists each circle as the ports ``4*ci + si`` it passes
    through, in trace order normalized so that consecutive ports 2i,
    2i+1 are joined at a crossing.  ``depths`` counts the circles
    strictly enclosing each circle.  ``chord_orders`` gives,
    per circle, the flat join indices in the circle's effective rotation
    order (counterclockwise for even depth, clockwise for odd).
    """

    circles: tuple[tuple[int, ...], ...]
    depths: tuple[int, ...]
    chord_orders: tuple[tuple[int, ...], ...]

    @property
    def circle_count(self) -> int:
        return len(self.circles)


def resolve(diagram: LinkDiagram, state: KauffmanState) -> StateResolution:
    """Resolve every crossing and work out circles and nesting."""
    n = diagram.crossing_count
    if len(state.choices) != n:
        raise ValueError("state length does not match crossing count")
    if n == 0:
        loops = diagram.free_loops
        return StateResolution(
            circles=((),) * loops,
            depths=(0,) * loops,
            chord_orders=((),) * loops,
        )

    partner = diagram.partner
    choices = state.choices

    # Dart encoding for the resolved diagram seen as a planar map: every
    # join is a trivalent vertex carrying its two ports and one chord
    # end, darts 6*ci + 3*j + k with k = 0, 1 the ports in join order
    # and k = 2 the chord end.
    dart_of_port = [0] * (4 * n)
    port_of_dart = [-1] * (6 * n)
    for p in range(4 * n):
        j, k = _JOIN_OF_SLOT[choices[p >> 2]][p & 3]
        d = 6 * (p >> 2) + 3 * j + k
        dart_of_port[p] = d
        port_of_dart[d] = p

    def alpha(d: int) -> int:
        if d % 3 == 2:
            return d + 3 if d % 6 == 2 else d - 3
        return dart_of_port[partner[port_of_dart[d]]]

    def sigma(d: int) -> int:
        return d - d % 3 + (d % 3 + 1) % 3

    total_darts = 6 * n
    face_of = [-1] * total_darts
    face_id = 0
    for d0 in range(total_darts):
        if face_of[d0] != -1:
            continue
        d = d0
        while face_of[d] == -1:
            face_of[d] = face_id
            d = sigma(alpha(d))
        face_id += 1
    if face_id != n + 2:
        raise AssertionError(
            f"resolved diagram has {face_id} faces, expected {n + 2}"
        )

    # Trace circles through alternating join and arc hops, starting each
    # circle with a join hop.  Within a crossing the A join pairs port p
    # with p ^ 1 and the B join pairs p with p ^ 3.
    seen = [False] * (4 * n)
    circles: list[tuple[int, ...]] = []
    for start in range(4 * n):
        if seen[start]:
            continue
        ports: list[int] = []
        port = start
        while True:
            hop = port ^ (1 if choices[port >> 2] == "A" else 3)
            ports += (port, hop)
            seen[port] = seen[hop] = True
            port = partner[hop]
            if port == start:
                break
        circles.append(tuple(ports))

    circle_of_port = [0] * (4 * n)
    circle_of_join = [-1] * (2 * n)
    for idx, ports in enumerate(circles):
        for p in ports:
            circle_of_port[p] = idx
            j, _ = _JOIN_OF_SLOT[choices[p >> 2]][p & 3]
            flat = 2 * (p >> 2) + j
            if circle_of_join[flat] not in (-1, idx):
                raise AssertionError("join spans two circles")
            circle_of_join[flat] = idx

    # Enclosure masks: breadth-first search over face adjacency from a
    # canonical outer face.  Crossing an arc edge of circle C toggles
    # C's bit; crossing a chord edge toggles nothing.  On the sphere the
    # outer-face choice shifts all masks consistently and no derived
    # quantity depends on it.
    adjacency: list[list[tuple[int, int]]] = [[] for _ in range(face_id)]
    for d in range(total_darts):
        ad = alpha(d)
        if d > ad:
            continue
        f1, f2 = face_of[d], face_of[ad]
        if d % 3 == 2:
            toggle = 0
        else:
            toggle = 1 << circle_of_port[port_of_dart[d]]
        adjacency[f1].append((f2, toggle))
        adjacency[f2].append((f1, toggle))
    masks = [-1] * face_id
    outer = face_of[0]
    masks[outer] = 0
    queue = [outer]
    while queue:
        f = queue.pop()
        for f2, toggle in adjacency[f]:
            m = masks[f] ^ toggle
            if masks[f2] == -1:
                masks[f2] = m
                queue.append(f2)
            elif masks[f2] != m:
                raise AssertionError("inconsistent enclosure masks")
    if any(m == -1 for m in masks):
        raise AssertionError("face adjacency is disconnected")

    depths: list[int] = []
    trace_ccw: list[bool] = []
    for idx, ports in enumerate(circles):
        bit = 1 << idx
        d = dart_of_port[ports[0]]
        m_right = masks[face_of[d]]
        m_left = masks[face_of[alpha(d)]]
        if (m_left ^ m_right) != bit:
            raise AssertionError("arc edge does not separate its circle")
        outside = m_left if not m_left & bit else m_right
        depths.append(bin(outside).count("1"))
        trace_ccw.append(bool(m_left & bit))

    chord_orders: list[tuple[int, ...]] = []
    for idx, ports in enumerate(circles):
        joins: list[int] = []
        for p in ports[::2]:
            j, _ = _JOIN_OF_SLOT[choices[p >> 2]][p & 3]
            joins.append(2 * (p >> 2) + j)
        want_ccw = depths[idx] % 2 == 0
        if trace_ccw[idx] != want_ccw:
            joins.reverse()
        chord_orders.append(tuple(joins))

    return StateResolution(
        circles=tuple(circles),
        depths=tuple(depths),
        chord_orders=tuple(chord_orders),
    )


class RibbonGraph:
    """An oriented ribbon graph: a rotation (cyclic dart order) at each
    vertex.  Edge i owns darts 2i and 2i + 1.

    ``bracket_subgraph`` counts faces from the rotations itself; the
    per-mask walks below are the references the tests hold it to.
    """

    __slots__ = ("rotations", "_vertex_of", "_rot_next")

    def __init__(self, rotations: tuple[tuple[int, ...], ...]) -> None:
        rotations = tuple(tuple(r) for r in rotations)
        darts = sorted(d for rot in rotations for d in rot)
        if darts != list(range(len(darts))):
            raise ValueError("rotations must use darts 0..2e-1 exactly once")
        if len(darts) % 2:
            raise ValueError("odd number of darts")
        object.__setattr__(self, "rotations", rotations)
        vertex_of = [-1] * len(darts)
        rot_next = [-1] * len(darts)
        for v, rot in enumerate(rotations):
            for i, d in enumerate(rot):
                vertex_of[d] = v
                rot_next[d] = rot[(i + 1) % len(rot)]
        object.__setattr__(self, "_vertex_of", vertex_of)
        object.__setattr__(self, "_rot_next", rot_next)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("RibbonGraph is immutable")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RibbonGraph):
            return NotImplemented
        return self.rotations == other.rotations

    def __hash__(self) -> int:
        return hash(self.rotations)

    def __repr__(self) -> str:
        return f"RibbonGraph({self.rotations!r})"

    @property
    def vertex_count(self) -> int:
        return len(self.rotations)

    @property
    def edge_count(self) -> int:
        return len(self._vertex_of) // 2

    def is_loop(self, edge: int) -> bool:
        return self._vertex_of[2 * edge] == self._vertex_of[2 * edge + 1]

    def loop_mask(self) -> int:
        mask = 0
        for i in range(self.edge_count):
            if self.is_loop(i):
                mask |= 1 << i
        return mask

    @property
    def full_mask(self) -> int:
        return (1 << self.edge_count) - 1

    def component_count(self, edge_mask: int | None = None) -> int:
        """Connected components of the spanning subgraph (isolated
        vertices count).  Used by :meth:`genus`."""
        if edge_mask is None:
            edge_mask = self.full_mask
        parent = list(range(self.vertex_count))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for e in range(self.edge_count):
            if edge_mask >> e & 1:
                a, b = find(self._vertex_of[2 * e]), find(self._vertex_of[2 * e + 1])
                if a != b:
                    parent[a] = b
        return len({find(i) for i in range(self.vertex_count)})

    def faces(self, edge_mask: int | None = None) -> int:
        """Boundary components of the spanning subgraph with the given
        edges.  Vertices with no incident present edge contribute one
        face each.  The per-mask reference for ``bracket_subgraph``."""
        if edge_mask is None:
            edge_mask = self.full_mask
        rot_next = self._rot_next
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

    def genus(self, edge_mask: int | None = None) -> int:
        """Genus of the spanning subgraph from its Euler characteristic.
        Tests check :meth:`faces` against it by the Euler relation."""
        if edge_mask is None:
            edge_mask = self.full_mask
        e = bin(edge_mask).count("1")
        v = self.vertex_count
        k = self.component_count(edge_mask)
        f = self.faces(edge_mask)
        doubled = 2 * k - v + e - f
        if doubled < 0 or doubled % 2:
            raise AssertionError(
                f"impossible Euler data: k={k} v={v} e={e} f={f}"
            )
        return doubled // 2


def ribbon_graph(
    diagram: LinkDiagram, state: KauffmanState
) -> RibbonGraph:
    """The state's ribbon graph: one vertex per circle, one edge per
    crossing, edge i joining the circles at crossing i's two joins."""
    res = resolve(diagram, state)
    if diagram.crossing_count == 0:
        return RibbonGraph(((),) * diagram.free_loops)
    # Ribbon dart ids: crossing ci's chord owns darts 2ci (at join 0)
    # and 2ci + 1 (at join 1); flat join index 2ci + j is the dart id.
    rotations = tuple(res.chord_orders)
    return RibbonGraph(rotations)
