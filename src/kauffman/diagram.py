"""Planar link diagrams given by PD codes.

A diagram is a list of crossings.  Each crossing is written
``X[a,b,c,d]``: the four incident arc labels in counterclockwise order
starting at the incoming understrand, so the understrand runs from slot
0 to slot 2 and the overstrand occupies slots 1 and 3.  Arc labels are
numbered consecutively along the orientation of each component.

The sign convention follows from the slot geometry: a crossing is
positive exactly when the overstrand enters at slot 3 and leaves at
slot 1.  Validation traces each component once from its smallest label,
orients it by whether its labels read forward or backward along it, the
slot convention settling short components, and reads every sign off it.
Only parsed input is validated: mirrors, cables and simplifications
take their components and signs in closed form from the diagram they
derive from, and the tests hold each to a validation of its own slot
tuples.  :func:`simplify` removes the R1 kinks and R2 bigons of a knot
before ``cjones`` cables it; every other command, and
:func:`kauffman.jones.reduced` on the diagram as given, the reference
the tests hold it to, keep the input.

Validation rejects codes that do not describe a planar diagram: the
counterclockwise slot order at every crossing makes the code a map on a
closed oriented surface, and an Euler-characteristic count detects any
virtual (positive genus) input.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, NamedTuple, TypeVar

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
    "simplify",
    "writhe",
]


class DiagramError(ValueError):
    """Base class for diagram construction failures."""


class PDSyntaxError(DiagramError):
    """Raised when PD text cannot be tokenized."""


class InvalidDiagramError(DiagramError):
    """Raised when a well-formed PD code violates a diagram invariant."""


class Crossing(NamedTuple):
    """One crossing: slot labels counterclockwise from the incoming
    understrand, plus the derived orientation sign."""

    slots: tuple[int, int, int, int]
    sign: int


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
    the arc leaving ``p``.  It is derived data, built once with the
    diagram, and left out of equality, hashing and ``repr``, as is
    the private memo that :meth:`_memoize` fills.
    """

    crossings: tuple[Crossing, ...]
    components: tuple[tuple[int, ...], ...]
    free_loops: int = 0
    partner: tuple[int, ...] = field(default=(), compare=False, repr=False)
    _memo: dict = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    def _memoize(self, key: tuple, build: Callable[[], T]) -> T:
        """``build()``, computed once per diagram object under ``key``.

        Holds the cables by width, their brackets by engine and cap and
        the extreme states' circles by side.  The memo lives and dies
        with this object: two parses of one code share nothing.
        """
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    @classmethod
    def crossingless(cls, loops: int) -> "LinkDiagram":
        if loops < 0:
            raise InvalidDiagramError("free loop count cannot be negative")
        return cls(crossings=(), components=((),) * loops, free_loops=loops)

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

    Labels are ASCII decimal numerals.  Empty input is the empty diagram,
    ``crossingless(0)``.  A bare ``O`` token stands for one crossingless
    loop, so ``"O"`` is the 0-crossing unknot and ``"O O"`` a
    crossingless 2-unlink; loops cannot be mixed with crossings since the
    result would be disconnected.  Raises :class:`PDSyntaxError` for
    malformed tokens and :class:`InvalidDiagramError` for codes that fail
    validation.
    """
    tuples: list[tuple[int, int, int, int]] = []
    loops = 0
    for token in text.split():
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
            # int() would also take "+3", "0_3" and non-ASCII digits
            if not body.isascii() or "+" in body or "_" in body:
                raise ValueError(body)
            labels = tuple(map(int, parts))
        except ValueError as err:
            raise PDSyntaxError(f"non-integer arc label in {token!r}") from err
        if min(labels) < 1:
            raise PDSyntaxError(f"arc labels must be positive: {token!r}")
        tuples.append(labels)  # type: ignore[arg-type]
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

    partner = _port_table(tuples)
    _check_connected(partner)
    _check_planar(partner)
    components, signs = _trace_components(tuples, partner)
    return _assemble(tuples, signs, components, partner)


def _assemble(tuples: list, signs: list[int], components: list | tuple,
              partner: list[int]) -> LinkDiagram:
    """The diagram with these slot tuples, signs, components and port
    table, taken as given: every caller has validated or derived them."""
    return LinkDiagram(
        crossings=tuple(map(Crossing, map(tuple, tuples), signs)),
        components=tuple(components),
        partner=tuple(partner),
    )


def _port_table(tuples: list[tuple[int, int, int, int]]) -> list[int]:
    """The flat partner table of :class:`LinkDiagram`, after checking
    that the labels are exactly ``1..2c``, each used twice.

    One pass pairs each label's two ports through a list indexed by
    label.  With no label out of range or used a third time, the ``4c``
    ports fill the ``2c`` labels exactly twice each."""
    arc_count = 2 * len(tuples)
    first = [-1] * (arc_count + 1)  # a label's first port, -2 once paired
    partner = [0] * (2 * arc_count)
    p = 0
    for slots in tuples:
        for label in slots:
            q = first[label] if 0 < label <= arc_count else -2
            if q == -1:
                first[label] = p
            elif q < 0:
                raise _label_error(tuples)
            else:
                partner[p] = q
                partner[q] = p
                first[label] = -2
            p += 1
    return partner


def _label_error(tuples: list) -> InvalidDiagramError:
    """Why the labels are not exactly ``1..2c``, each used twice."""
    arc_count = 2 * len(tuples)
    uses = dict.fromkeys(range(1, arc_count + 1), 0)
    extra = set()
    for slots in tuples:
        for label in slots:
            if label in uses:
                uses[label] += 1
            else:
                extra.add(label)
    missing = [a for a, n in uses.items() if not n]
    if missing or extra:
        return InvalidDiagramError(
            f"arc labels must be exactly 1..{arc_count}; "
            f"missing {missing}, unexpected {sorted(extra)}"
        )
    bad = [a for a, n in uses.items() if n != 2]
    return InvalidDiagramError(
        f"each arc label must appear exactly twice; offending labels {bad}"
    )


def _check_connected(partner: list[int]) -> None:
    unseen = set(range(len(partner) // 4))
    pieces = 0
    while unseen:  # walk one more piece
        pieces += 1
        stack = [unseen.pop()]
        while stack:
            ci = stack.pop()
            for q in partner[4 * ci:4 * ci + 4]:
                if q >> 2 in unseen:
                    unseen.remove(q >> 2)
                    stack.append(q >> 2)
    if pieces > 1:
        raise InvalidDiagramError(
            f"diagram is disconnected ({pieces} pieces); "
            "only connected diagrams are supported"
        )


def _trace_components(
    tuples: list[tuple[int, int, int, int]], partner: list[int]
) -> tuple[tuple[tuple[int, ...], ...], list[int]]:
    """Trace and orient the link components, reading off crossing signs.

    Returns the components (arc labels in orientation order, starting at
    each component's smallest label) and each crossing's sign: +1 when
    the chosen orientation enters its over passage at slot 3, -1 at
    slot 1.
    """
    label = list(chain.from_iterable(tuples))  # by port
    components: list[tuple[int, ...]] = []
    signs = [0] * len(tuples)

    # Every label below ``start`` lies on an earlier component, so
    # ``start`` is the smallest label of its own, which is the block
    # ``start .. start + size - 1`` once checked.
    start = 1
    while start <= len(tuples) * 2:
        # the port where each arc of the trace enters a passage, from
        # the first port of label ``start``
        ports = [label.index(start)]
        # a passage entered at slot s exits at s ^ 2: slots 0<->2, 1<->3
        while (port := partner[ports[-1] ^ 2]) != ports[0]:
            ports.append(port)
        arcs = [label[p] for p in ports]
        size = len(arcs)
        # The trace starts at ``start``, so its labels number the block
        # forward or backward only as ``start, start + 1, ..`` or
        # ``start, start + size - 1, ..``.  A reading lists the port where
        # arc i of the trace enters a passage; reversed, that is where
        # the trace left arc i - 1, at the other slot of the passage.
        block = list(range(start, start + size))
        readings = [ports] if arcs == block else []
        if arcs[1:] == block[:0:-1]:
            readings.append([p ^ 2 for p in ports[-1:] + ports[:-1]])
        if not readings:
            labels = sorted(arcs)
            if labels != block:
                raise InvalidDiagramError(
                    f"component arcs {labels} do not form a consecutive block"
                )
            raise InvalidDiagramError(
                f"arc numbering is not consecutive along a component: {arcs}"
            )
        # Understrands must enter at slot 0.  For components of one or
        # two arcs both label readings are consecutive and only this
        # rule picks the orientation.
        valid = [
            r for r in readings if all(p & 3 == 0 for p in r if p & 1 == 0)
        ]
        if not valid:
            raise InvalidDiagramError(
                f"component {block}: an understrand would enter at slot 2, "
                "which contradicts the slot convention"
            )
        # Both orientations are consistent only for a short component
        # crossing nothing but overstrands.  Break the tie by the
        # smallest port of the smallest arc, arc 0.
        for p in min(valid, key=lambda r: r[0]):
            if p & 1:
                signs[p >> 2] = 1 if p & 3 == 3 else -1
        components.append(tuple(block))
        start += size
    return tuple(components), signs


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
    """Switch every crossing, keeping the projection and orientation.

    The old overstrand becomes the understrand, so each slot tuple is
    rotated to start at the old overstrand's entry slot ``k``, and port
    ``4*ci + s`` becomes ``4*ci + (s - k) % 4``.  Arcs, components and
    their orientations stay, so every sign flips and ``mirror`` is an
    involution.  Validating the rotated tuples afresh gives the same
    diagram except on a link with a component of one or two arcs that
    passes only under other strands: the PD code leaves that
    component's orientation open, and validation may pick the reverse.
    """
    if not diagram.crossings:
        return diagram
    # the overstrand enters at slot 2 + sign: 3 if positive, 1 if negative
    rotated = [x.slots[2 + x.sign:] + x.slots[:2 + x.sign]
               for x in diagram.crossings]
    signs = [-x.sign for x in diagram.crossings]
    return _assemble(rotated, signs, diagram.components, _port_table(rotated))


def simplify(diagram: LinkDiagram) -> LinkDiagram:
    """A knot diagram with every R1 kink and R2 bigon removed.

    An R1 kink is an arc joining two cyclically adjacent ports of one
    crossing.  An R2 bigon is a two-edged face, walked as in
    :func:`_map_face_count`, whose one strand is over at both of its
    crossings; a clasp, over at one and under at the other, is kept, as
    is a bigon whose outer ports lead back to its own crossings.  Both
    moves preserve the knot type and the bracket up to ``-A**(3*e)``
    per kink of writhe ``e``, which the writhe correction of
    :func:`kauffman.jones.reduced` cancels, so the reduced value is
    unchanged.  The kept crossings are relabelled ``1..2k`` along the
    knot, one component, and keep their signs.  Links, crossingless
    diagrams and knots with nothing to remove come back as the same
    object; a knot that reduces fully becomes ``crossingless(1)``.
    """
    if len(diagram.components) != 1 or not diagram.crossings:
        return diagram
    partner = list(diagram.partner)
    alive = [True] * diagram.crossing_count

    def join(p: int, q: int) -> None:
        partner[p], partner[q] = q, p

    def turn(p: int) -> int:
        return (p & ~3) | ((p + 1) & 3)

    while True:
        for p, q in enumerate(partner):
            x, y = p >> 2, q >> 2
            if not alive[x]:
                continue
            if x == y and q == turn(p):
                r, s = partner[p ^ 2], partner[q ^ 2]
                alive[x] = False
                if r >> 2 == x:  # the crossing was the whole knot
                    return LinkDiagram.crossingless(1)
                join(r, s)
                break
            back = partner[turn(q)]
            if (x == y or back >> 2 != x or turn(back) != p
                    or (p ^ q) & 1):
                continue
            outer = [partner[v ^ 2] for v in (p, q, turn(q), back)]
            if any(v >> 2 in (x, y) for v in outer):
                continue
            join(outer[0], outer[1])
            join(outer[2], outer[3])
            alive[x] = alive[y] = False
            break
        else:
            break
    kept = [ci for ci, keep in enumerate(alive) if keep]
    if len(kept) == len(alive):
        return diagram
    index = {ci: i for i, ci in enumerate(kept)}
    slots = [[0] * 4 for _ in kept]
    entry = 4 * kept[0]  # slot 0 is entered along the orientation
    for label in range(1, 2 * len(kept) + 1):
        leave = entry ^ 2
        entry = partner[leave]
        for v in (leave, entry):
            slots[index[v >> 2]][v & 3] = label
    signs = [diagram.crossings[ci].sign for ci in kept]
    knot = [tuple(range(1, 2 * len(kept) + 1))]
    return _assemble(slots, signs, knot, _port_table(slots))


def cable(diagram: LinkDiagram, n: int) -> LinkDiagram:
    """The blackboard-framed n-cable: n parallel copies of every strand.

    Each crossing becomes an n-by-n grid of crossings of the same sign;
    parallel copies of an arc never interleave.  Arc labels of the result
    run along each copy of each component in turn, in the diagram's
    component order, so the width-1 labels would be the diagram's own
    and every copy is one component of consecutive labels:
    ``cable(d, 1)`` returns ``d`` itself, memo and all.  A wider cable is
    built once per diagram object and width.
    """
    if n < 1:
        raise InvalidDiagramError("cable width must be at least 1")
    if n == 1:
        return diagram
    return diagram._memoize(("cable", n), lambda: _build_cable(diagram, n))


def _build_cable(diagram: LinkDiagram, n: int) -> LinkDiagram:
    if not diagram.crossings:
        return LinkDiagram.crossingless(diagram.free_loops * n)

    # Copy k (from 0) of a component with first arc lo and L arcs passes
    # n labels per base arc a: the copy of a, then the n - 1 arcs inside
    # the grid at its head.  Copies follow one another, components in
    # order, so step s after a is n*n*(lo-1) + k*n*L + (a-lo)*n + 1 + s,
    # and copy k is the component of the n*L labels from first[lo] +
    # k*stride[lo].
    first = [0] * (2 * diagram.crossing_count + 1)
    stride = [0] * (2 * diagram.crossing_count + 1)
    components: list[tuple[int, ...]] = []
    for comp in diagram.components:
        lo = comp[0]
        for a in comp:
            first[a] = n * n * (lo - 1) + (a - lo) * n + 1
            stride[a] = n * len(comp)
        heads = range(first[lo], first[lo] + n * stride[lo], stride[lo])
        components += [tuple(range(h, h + stride[lo])) for h in heads]

    def strand(arc_in: int, arc_out: int, k: int) -> list[int]:
        """Copy k through the grid at the head of ``arc_in``."""
        head = first[arc_in] + k * stride[arc_in]
        return [*range(head, head + n), first[arc_out] + k * stride[arc_out]]

    raw: list[tuple[int, int, int, int]] = []
    for x in diagram.crossings:
        a, b, c, d = x.slots
        o_in, o_out = (d, b) if x.sign > 0 else (b, d)
        under = [strand(a, c, k) for k in range(n)]
        over = [strand(o_in, o_out, j) for j in range(n)]
        for y in range(n):
            for k in range(n):
                u = under[k]
                if x.sign > 0:
                    o = over[n - 1 - y]
                    raw.append((u[y], o[k + 1], u[y + 1], o[k]))
                else:
                    o = over[y]
                    raw.append((u[y], o[n - 1 - k], u[y + 1], o[n - k]))

    signs = [x.sign for x in diagram.crossings for _ in range(n * n)]
    return _assemble(raw, signs, components, _port_table(raw))
