"""Planar link diagrams given by PD codes.

A diagram is a list of crossings.  Each crossing is written
``X[a,b,c,d]``: the four incident arc labels in counterclockwise order
starting at the incoming understrand, so the understrand runs from slot
0 to slot 2 and the overstrand occupies slots 1 and 3.  Arc labels are
numbered consecutively along the orientation of each component.

The sign convention follows from the slot geometry: a crossing is
positive exactly when the overstrand enters at slot 3 and leaves at
slot 1.  Orientations are recovered by tracing components, which also
works for short components where "label plus one" alone is ambiguous.

Validation rejects codes that do not describe a planar diagram: the
counterclockwise slot order at every crossing makes the code a map on a
closed oriented surface, and an Euler-characteristic count detects any
virtual (positive genus) input.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, TypeVar

T = TypeVar("T")

__all__ = [
    "Crossing",
    "DiagramError",
    "InvalidDiagramError",
    "LinkDiagram",
    "PDSyntaxError",
    "cable",
    "mirror",
    "parse_pd",
    "serialize",
    "writhe",
]


class DiagramError(ValueError):
    """Base class for diagram construction failures."""


class PDSyntaxError(DiagramError):
    """Raised when PD text cannot be tokenized."""


class InvalidDiagramError(DiagramError):
    """Raised when a well-formed PD code violates a diagram invariant."""


@dataclass(frozen=True)
class Crossing:
    """One crossing: slot labels counterclockwise from the incoming
    understrand, plus the derived orientation sign."""

    slots: tuple[int, int, int, int]
    sign: int

    @property
    def over_in_slot(self) -> int:
        """Slot where the overstrand enters: 3 for positive, 1 for negative."""
        return 3 if self.sign > 0 else 1


@dataclass(frozen=True)
class LinkDiagram:
    """An oriented link diagram.

    ``components`` lists each link component as its arc labels in
    orientation order, starting at the component's smallest label.
    ``free_loops`` counts closed components with no crossings at all;
    such loops only occur in crossingless diagrams (cables of the
    zero-crossing unknot).

    ``partner`` is the port table: port ``4*ci + si`` is slot ``si`` of
    crossing ``ci``, and ``partner[p]`` is the port at the other end of
    the arc leaving ``p``.  It is derived data, built once by
    validation, and left out of equality, hashing and ``repr``, as is
    the private memo that :meth:`_memoize` fills.
    """

    crossings: tuple[Crossing, ...]
    arc_count: int
    components: tuple[tuple[int, ...], ...]
    free_loops: int = 0
    partner: tuple[int, ...] = field(default=(), compare=False, repr=False)
    _memo: dict = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    def _memoize(self, key: tuple, build: Callable[[], T]) -> T:
        """``build()``, computed once per diagram object under ``key``.

        Holds the cables by width, their brackets by engine and limits,
        and the extreme state graphs by side.  The memo lives and dies
        with this object: two parses of one code share nothing.
        """
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    @classmethod
    def empty(cls) -> "LinkDiagram":
        return cls(crossings=(), arc_count=0, components=(), free_loops=0)

    @classmethod
    def unknot(cls) -> "LinkDiagram":
        """The zero-crossing unknot, distinct from the empty diagram."""
        return cls.crossingless(1)

    @classmethod
    def crossingless(cls, loops: int) -> "LinkDiagram":
        if loops < 0:
            raise InvalidDiagramError("free loop count cannot be negative")
        return cls(
            crossings=(),
            arc_count=0,
            components=((),) * loops,
            free_loops=loops,
        )

    @property
    def crossing_count(self) -> int:
        return len(self.crossings)

    @property
    def negative_count(self) -> int:
        return sum(1 for x in self.crossings if x.sign < 0)

    @property
    def is_empty(self) -> bool:
        return not self.crossings and not self.free_loops


def parse_pd(text: str) -> LinkDiagram:
    """Parse PD text such as ``X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]``.

    Empty input yields the empty diagram.  A bare ``O`` token stands
    for one crossingless loop, so ``"O"`` is the 0-crossing unknot and
    ``"O O"`` a crossingless 2-unlink; loops cannot be mixed with
    crossings since the result would be disconnected.  Raises
    :class:`PDSyntaxError` for malformed tokens and
    :class:`InvalidDiagramError` for codes that fail validation.
    """
    tuples: list[tuple[int, int, int, int]] = []
    loops = 0
    for token in text.replace("\n", " ").split():
        if token == "O":
            loops += 1
            continue
        if not (token.startswith("X[") and token.endswith("]")):
            raise PDSyntaxError(f"malformed crossing token: {token!r}")
        body = token[2:-1]
        parts = body.split(",")
        if len(parts) != 4:
            raise PDSyntaxError(f"crossing needs four arc labels: {token!r}")
        try:
            labels = tuple(int(p) for p in parts)
        except ValueError as err:
            raise PDSyntaxError(f"non-integer arc label in {token!r}") from err
        if any(a < 1 for a in labels):
            raise PDSyntaxError(f"arc labels must be positive: {token!r}")
        tuples.append(labels)  # type: ignore[arg-type]
    if not tuples and not loops:
        return LinkDiagram.empty()
    return from_slot_tuples(tuples, free_loops=loops)


def from_slot_tuples(
    tuples: list[tuple[int, int, int, int]], free_loops: int = 0
) -> LinkDiagram:
    """Build and fully validate a diagram from raw slot tuples."""
    if free_loops and tuples:
        raise InvalidDiagramError(
            "free loops beside crossings would make the diagram disconnected"
        )
    if not tuples:
        return LinkDiagram.crossingless(free_loops)

    n_cross = len(tuples)
    arc_count = 2 * n_cross
    partner = _port_table(tuples, arc_count)
    _check_connected(partner)
    _check_planar(partner)
    components, entry_slots = _trace_components(tuples, partner)
    signs = _signs_from_entries(tuples, entry_slots)
    crossings = tuple(
        Crossing(slots=tuple(t), sign=s) for t, s in zip(tuples, signs)
    )
    return LinkDiagram(
        crossings=crossings,
        arc_count=arc_count,
        components=components,
        free_loops=0,
        partner=tuple(partner),
    )


def _occurrences(
    tuples: list[tuple[int, int, int, int]]
) -> dict[int, list[int]]:
    """Label -> the flat ports ``4*ci + si`` carrying it, in port order."""
    occurrences: dict[int, list[int]] = {}
    for ci, slots in enumerate(tuples):
        for si, label in enumerate(slots):
            occurrences.setdefault(label, []).append(4 * ci + si)
    return occurrences


def _port_table(
    tuples: list[tuple[int, int, int, int]], arc_count: int
) -> list[int]:
    """The flat partner table of :class:`LinkDiagram`, after checking
    that the labels are exactly ``1..arc_count``, each used twice."""
    occurrences = _occurrences(tuples)
    expected = set(range(1, arc_count + 1))
    if set(occurrences) != expected:
        missing = sorted(expected - set(occurrences))
        extra = sorted(set(occurrences) - expected)
        raise InvalidDiagramError(
            f"arc labels must be exactly 1..{arc_count}; "
            f"missing {missing}, unexpected {extra}"
        )
    bad = sorted(a for a, occ in occurrences.items() if len(occ) != 2)
    if bad:
        raise InvalidDiagramError(
            f"each arc label must appear exactly twice; offending labels {bad}"
        )
    partner = [0] * (4 * len(tuples))
    for p, q in occurrences.values():
        partner[p] = q
        partner[q] = p
    return partner


def _check_connected(partner: list[int]) -> None:
    n = len(partner) // 4
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for p, q in enumerate(partner):
        a, b = find(p >> 2), find(q >> 2)
        if a != b:
            parent[a] = b
    roots = {find(i) for i in range(n)}
    if len(roots) > 1:
        raise InvalidDiagramError(
            f"diagram is disconnected ({len(roots)} pieces); "
            "only connected diagrams are supported"
        )


def _passage_exit(port: int) -> int:
    """Exit port of the passage entered at ``port``: slots 0<->2, 1<->3."""
    return port ^ 2


def _trace_components(
    tuples: list[tuple[int, int, int, int]], partner: list[int]
) -> tuple[tuple[tuple[int, ...], ...], dict[int, dict[str, int]]]:
    """Trace link components and recover passage directions.

    Returns the components (arc labels in orientation order, starting at
    each component's smallest label) and, per crossing, the entry slots
    of the under and over passages in the recovered orientation.
    """
    # each label's first port: the trace of a component starts there
    first_port: dict[int, int] = {}
    for p in reversed(range(len(partner))):
        first_port[tuples[p >> 2][p & 3]] = p
    seen: set[int] = set()
    components: list[tuple[int, ...]] = []
    consumed_port: dict[int, int] = {}

    for start in sorted(first_port):
        if start in seen:
            continue
        arcs: list[int] = []
        ports: list[int] = []
        arc = start
        port = first_port[start]
        while True:
            arcs.append(arc)
            ports.append(port)
            exit_port = _passage_exit(port)
            arc = tuples[exit_port >> 2][exit_port & 3]
            port = partner[exit_port]
            if arc == start and port == first_port[start]:
                break
        labels = sorted(arcs)
        lo, hi = labels[0], labels[-1]
        if labels != list(range(lo, hi + 1)):
            raise InvalidDiagramError(
                f"component arcs {labels} do not form a consecutive block"
            )

        def succ(a: int) -> int:
            return lo if a == hi else a + 1

        size = len(arcs)
        candidates: list[tuple[list[int], list[int]]] = []
        if all(arcs[(i + 1) % size] == succ(arcs[i]) for i in range(size)):
            candidates.append((arcs, ports))
        if all(arcs[i] == succ(arcs[(i + 1) % size]) for i in range(size)):
            # Reversed reading: arc[i+1] is really consumed where the
            # trace emitted it, at the opposite slot of the passage.
            candidates.append((
                [arcs[(i + 1) % size] for i in range(size)][::-1],
                [_passage_exit(ports[i]) for i in range(size)][::-1],
            ))
        if not candidates:
            raise InvalidDiagramError(
                f"arc numbering is not consecutive along a component: {arcs}"
            )
        # Understrands must enter at slot 0.  For components of one or
        # two arcs both label readings are consecutive and only this
        # rule picks the orientation.
        valid = [
            (al, pl)
            for al, pl in candidates
            if all(p & 3 == 0 for p in pl if p & 1 == 0)
        ]
        if not valid:
            raise InvalidDiagramError(
                f"component {labels}: an understrand would enter at slot 2, "
                "which contradicts the slot convention"
            )
        if len(valid) == 2:
            # Both orientations are consistent, which happens only for a
            # short component crossing nothing but overstrands.  Break
            # the tie by the smallest port of the smallest arc.
            valid.sort(key=lambda cand: cand[1][cand[0].index(lo)])
        oriented_arcs, oriented_ports = valid[0]
        seen.update(arcs)
        pivot = oriented_arcs.index(lo)
        oriented_arcs = oriented_arcs[pivot:] + oriented_arcs[:pivot]
        oriented_ports = oriented_ports[pivot:] + oriented_ports[:pivot]
        components.append(tuple(oriented_arcs))
        for a, p in zip(oriented_arcs, oriented_ports):
            consumed_port[a] = p

    entry_slots: dict[int, dict[str, int]] = {}
    for arc, port in consumed_port.items():
        ci, si = port >> 2, port & 3
        kind = "under" if si in (0, 2) else "over"
        record = entry_slots.setdefault(ci, {})
        if kind in record:
            raise InvalidDiagramError(
                f"crossing {ci} has two {kind} entries; inconsistent code"
            )
        record[kind] = si
    for ci, record in entry_slots.items():
        if record.get("under") != 0:
            raise InvalidDiagramError(
                f"crossing {ci}: slot 0 is not the incoming understrand"
            )
    return tuple(components), entry_slots


def _signs_from_entries(
    tuples: list[tuple[int, int, int, int]],
    entry_slots: dict[int, dict[str, int]],
) -> list[int]:
    signs: list[int] = []
    for ci in range(len(tuples)):
        over_in = entry_slots[ci]["over"]
        signs.append(1 if over_in == 3 else -1)
    return signs


def _check_planar(partner: list[int]) -> None:
    """Euler check: a connected planar code has exactly c + 2 faces."""
    n = len(partner) // 4
    faces = _map_face_count(partner)
    if faces != n + 2:
        genus = (n + 2 - faces) // 2
        raise InvalidDiagramError(
            f"PD code describes a genus-{genus} (virtual) diagram, "
            "not a planar one"
        )


def _map_face_count(partner: list[int]) -> int:
    """Faces of the code read as a map: leave a port along its arc, then
    turn to the next slot counterclockwise at the crossing reached."""
    visited = [False] * len(partner)
    faces = 0
    for dart in range(len(partner)):
        if visited[dart]:
            continue
        faces += 1
        cursor = dart
        while not visited[cursor]:
            visited[cursor] = True
            q = partner[cursor]
            cursor = (q & ~3) | ((q + 1) & 3)
    return faces


def serialize(diagram: LinkDiagram) -> str:
    """Render the PD code, inverse of :func:`parse_pd` for nonempty input."""
    if diagram.free_loops:
        return " ".join(["O"] * diagram.free_loops)
    return " ".join(
        "X[{},{},{},{}]".format(*x.slots) for x in diagram.crossings
    )


def writhe(diagram: LinkDiagram) -> int:
    return sum(x.sign for x in diagram.crossings)


def mirror(diagram: LinkDiagram) -> LinkDiagram:
    """Switch every crossing, keeping the projection.

    The old overstrand becomes the understrand, so the slot tuple is
    rotated to start at the old overstrand's entry slot.
    """
    if not diagram.crossings:
        return diagram
    tuples = []
    for x in diagram.crossings:
        k = x.over_in_slot
        tuples.append(tuple(x.slots[(k + i) % 4] for i in range(4)))
    return from_slot_tuples(tuples)


def cable(diagram: LinkDiagram, n: int) -> LinkDiagram:
    """The blackboard-framed n-cable: n parallel copies of every strand.

    Each crossing becomes an n-by-n grid of crossings of the same sign;
    parallel copies of an arc never interleave.  Arc labels of the result
    are renumbered canonically, so the width-1 cable of valid input
    equals the diagram: ``cable(d, 1)`` returns ``d`` itself, memo and
    all.  A wider cable is built once per diagram object and width.
    """
    if n < 1:
        raise InvalidDiagramError("cable width must be at least 1")
    if n == 1:
        return diagram
    return diagram._memoize(("cable", n), lambda: _build_cable(diagram, n))


def _build_cable(diagram: LinkDiagram, n: int) -> LinkDiagram:
    if not diagram.crossings:
        return LinkDiagram.crossingless(diagram.free_loops * n)

    base_arcs = diagram.arc_count

    def copy_label(arc: int, i: int) -> int:
        """Copy i (1-based, left to right along the arc) of a base arc."""
        return (arc - 1) * n + i

    next_internal = base_arcs * n + 1
    raw: list[tuple[int, int, int, int]] = []
    over_entry_slot: list[int] = []

    for x in diagram.crossings:
        a, b, c, d = x.slots
        if x.sign > 0:
            o_in, o_out = d, b
        else:
            o_in, o_out = b, d

        under: list[list[int]] = []
        for k in range(1, n + 1):
            row = [copy_label(a, k)]
            for _ in range(n - 1):
                row.append(next_internal)
                next_internal += 1
            row.append(copy_label(c, k))
            under.append(row)
        over: list[list[int]] = []
        for j in range(1, n + 1):
            row = [copy_label(o_in, j)]
            for _ in range(n - 1):
                row.append(next_internal)
                next_internal += 1
            row.append(copy_label(o_out, j))
            over.append(row)

        for y in range(1, n + 1):
            for k in range(1, n + 1):
                if x.sign > 0:
                    j = n + 1 - y
                    slots = (
                        under[k - 1][y - 1],
                        over[j - 1][k],
                        under[k - 1][y],
                        over[j - 1][k - 1],
                    )
                else:
                    j = y
                    slots = (
                        under[k - 1][y - 1],
                        over[j - 1][n - k],
                        under[k - 1][y],
                        over[j - 1][n - k + 1],
                    )
                raw.append(slots)
                over_entry_slot.append(3 if x.sign > 0 else 1)

    relabeled = _canonical_relabel(raw, over_entry_slot)
    result = from_slot_tuples(relabeled)
    expected_signs = [
        x.sign for x in diagram.crossings for _ in range(n * n)
    ]
    if [c_.sign for c_ in result.crossings] != expected_signs:
        raise AssertionError("cabling changed a crossing sign")
    return result


def _canonical_relabel(
    raw: list[tuple[int, int, int, int]], over_entry_slot: list[int]
) -> list[tuple[int, int, int, int]]:
    """Renumber arbitrary arc labels consecutively along each component.

    Entry slots are known from construction, so components can be traced
    without relying on label order.
    """
    consumed_of: dict[int, int] = {}
    for label, occ in _occurrences(raw).items():
        entries = [
            p for p in occ if p & 3 in (0, over_entry_slot[p >> 2])
        ]
        if len(entries) != 1:
            raise AssertionError(f"arc {label} has {len(entries)} entry ports")
        consumed_of[label] = entries[0]

    seen: set[int] = set()
    new_label: dict[int, int] = {}
    offset = 0
    for start in sorted(consumed_of):
        if start in seen:
            continue
        arc = start
        cycle: list[int] = []
        while True:
            cycle.append(arc)
            seen.add(arc)
            exit_port = _passage_exit(consumed_of[arc])
            arc = raw[exit_port >> 2][exit_port & 3]
            if arc == start:
                break
        for step, label in enumerate(cycle):
            new_label[label] = offset + 1 + step
        offset += len(cycle)
    return [
        (new_label[s[0]], new_label[s[1]], new_label[s[2]], new_label[s[3]])
        for s in raw
    ]
