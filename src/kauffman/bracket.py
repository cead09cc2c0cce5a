"""Three engines for the Kauffman bracket.

All engines return the bracket normalized so the unknot's value is 1,
computed exactly over the integers.  The crossingless diagram with m
loops evaluates to delta^(m-1); the empty diagram evaluates to 1 by
convention.

Engines:

* ``bracket_statesum`` and ``bracket_subgraph``, the checkers: the sums
  over all 2^c resolutions, counting circles as the crossings' joins
  splice the diagram's arcs, and over the spanning subgraphs of the
  all-A ribbon graph, counting its faces.  They share
  :func:`_loop_histogram` and :func:`_assemble` and differ only in the
  end table they start from.  Both resolve one crossing per step in
  the sweep's order and count the crossings done once per pairing of
  their open ends, so their cost, and their ``max_states`` budget, is
  the sweep's: pairings per step, not 2^c.
* ``bracket_fast``, the path independent of both, which shares with
  them only the crossing order, which sets their cost and not their
  values, and the digit decoder of
  :class:`~kauffman.laurent.LaurentPoly`: a sweep that processes one
  crossing at a time and merges partial diagrams with identical
  open-strand matchings, the gluing of Bar-Natan's "Fast Khovanov
  homology computations" (JKTR 2007).  A state is keyed by its open
  boundary, one integer of fields that name each open port's partner,
  and one bit for the parity of its weight's degrees in ``u = A**2``,
  which the pairing fixes; a branch's key is its parent's XOR one
  integer, built once per step and distinct read fields.  So a weight
  is ``u**parity`` times a polynomial in ``x = u**2``, packed into one
  integer, in slots sized by the final bracket, whose coefficients
  Thistlethwaite's spanning-tree expansion (Topology 26, 1987) bounds,
  not by the partial sums: packing is a ring homomorphism, so
  intermediate digits may overflow.  Below ``x**0`` it keeps one slot
  per two circles of the all-B state, the paper's bound on the lowest
  degree (:func:`_weight_slots`).  A merge whose weights cancel deletes
  its key, so the cancelled terms of reducible parts of a diagram are
  not carried.  One exact integer division by ``x + 1`` turns the last
  weight, ``delta`` times the bracket, into the bracket's digits.  A
  value that fails the check at ``A = 1`` is never returned.
  Its cost is set by the crossing order (:func:`_sweep_order`): a greedy
  one that keeps the open boundary small, and where the sweep promises
  to be expensive, the best by score of greedy orders from several start
  crossings, the score being the sum of 2**(open ports) over the steps.
"""

from __future__ import annotations

from array import array
from functools import cache
from heapq import heappop, heappush
from math import comb

from kauffman.diagram import LinkDiagram
from kauffman.laurent import InexactDivisionError, LaurentPoly
from kauffman.states import circles, resolve

__all__ = [
    "BRACKET_ENGINES",
    "CapExceeded",
    "DELTA",
    "InvariantViolation",
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


class InvariantViolation(RuntimeError):
    """A certified identity failed on concrete data.

    Raised instead of returning a report whose fields contradict each
    other; ``check`` names the identity for the command-line layer.
    Defined here, beside :class:`CapExceeded`, so that the command line
    maps both without loading the adequacy battery.
    """

    def __init__(self, check: str, message: str):
        super().__init__(f"{check}: {message}")
        self.check = check


def _crossingless_value(diagram: LinkDiagram) -> LaurentPoly:
    # delta**k = (-1)**k * sum_j C(k, j) * A**(2k - 4j), 1 with no loops
    k = max(diagram.free_loops - 1, 0)
    return LaurentPoly({2 * k - 4 * j: (-1) ** k * comb(k, j)
                        for j in range(k + 1)})


def _assemble(packed: int, c: int) -> LaurentPoly:
    """The sum of count * A^(c - 2b) * delta^(f - 1) over the entries
    (b, f) of a histogram of :func:`_loop_histogram`, read by Horner's
    rule on one integer.

    In ``v = A**-2`` the sum is ``A**c * v**(1 - top) * V(v)`` with
    ``V = sum of count * v**(b + top - f) * (v * delta)**(f - 1)``,
    ``top`` the highest loop row, and ``v * delta = -(1 + v**2)`` has no
    negative power.  So ``V`` is evaluated at ``v = 2**width`` on one
    integer: from the top row down, the value so far is multiplied by
    ``v * delta`` and row ``f``, its counts moved into ``width``-bit
    slots, is added ``top - f`` slots up.  Its balanced digits are read
    once, at the end.  They fit without a theorem: a count is at most
    ``2**c``, no resolution closes more than ``c + 1`` loops (loops and
    crossings form a connected graph with ``c`` edges), and
    ``(v * delta)**(f - 1)`` has ``2**(f - 1)`` as the sum of its
    coefficients' sizes, so no coefficient of ``V`` exceeds
    ``2**c * 2**c`` in size, inside ``2c + 3``-bit digits.

    Every resolution of c >= 1 crossings closes a loop, so row 0 is
    empty; a count there raises instead of being dropped.
    """
    slot = c + 1
    row = (c + 1) * slot
    mask = (1 << slot) - 1
    row_mask = (1 << row) - 1
    if packed & row_mask:
        raise AssertionError("a resolution closed no loop")
    width = 2 * c + 3
    two = 2 * width
    top = (packed.bit_length() - 1) // row
    value = 0
    for loops in range(top, 0, -1):
        value = -(value + (value << two))  # times v * delta
        counts = packed >> (loops * row) & row_mask
        shift = (top - loops) * width
        while counts:
            value += (counts & mask) << shift
            counts >>= slot
            shift += width
    return LaurentPoly.from_digits(value, width, c + 2 * top - 2, -2)


_HISTOGRAM_BITS = 1 << 31  # a run's computed histograms: 256 MiB of bits


def _loop_histogram(link: tuple | list, order: list[int],
                    max_states: float = float("inf"), opens=()) -> int:
    """Count the resolutions of the crossings by (B joins, closed loops).

    ``link`` pairs the ends of the open strands, four per crossing:
    ``link[p]`` is the other end of the strand that ends at ``p``, and
    crossing ``i`` owns ends ``4i .. 4i+3``.  The crossings are resolved
    one step at a time in ``order``, on a copy of ``link`` renumbered so
    that crossing ``order[k]`` owns ends ``4k .. 4k+3``: its A join
    (bit 0) joins ``(4k, 4k+1)`` and ``(4k+2, 4k+3)``, its B join (bit 1)
    ``(4k, 4k+3)`` and ``(4k+1, 4k+2)``.  Joining ``p`` and ``q`` closes
    a loop if they end one strand and otherwise splices two strands.

    Once ``k`` crossings are resolved, the rest read and splice the
    table only from end ``4k`` on, a suffix that pairs the open ports as
    the sweep's key does after step ``k``.  So step ``k`` maps each
    suffix to the histogram of the resolutions of the first ``k``
    crossings that leave it, and branches it by both joins, each on a
    copy; children with the same suffix add.  That is two joins per
    pairing, not 2^c resolutions, and every order counts the same
    resolutions.  A step whose table passes ``max_states`` suffixes
    raises the sweep's error, ``opens`` being the order's open-port
    counts, and so does a run once its steps have computed
    ``_HISTOGRAM_BITS`` histogram bits.  Only two steps' tables live.

    A histogram is one integer of ``c + 1``-bit slots, enough since no
    count exceeds ``2**c``, laid out loops-major: slot
    ``loops * (c + 1) + bits`` holds the count of resolutions with that
    many B joins and loops.  Shifting it adds to the bits or loops of
    every entry, and histograms add as integers.  Returns the
    histogram of all ``c`` crossings, which :func:`_assemble` reads.
    """
    c = len(link) // 4
    at = sorted(range(c), key=order.__getitem__)  # crossing -> its place
    link = [4 * at[q >> 2] | q & 3
            for ci in order for q in link[4 * ci:4 * ci + 4]]
    # A row holds the counts of one loop count, one slot per bit count
    # 0..c; rows stack upward, so the loops (a resolution's circles, a
    # subgraph's faces) need no bound.  A B join adds a slot, a closed
    # loop a row.
    slot = c + 1
    row = (c + 1) * slot
    # key -> [suffix, histogram]: a suffix holds the partners of ends
    # 4k.. as end numbers, one byte each while they fit, four beyond,
    # and its key is those bytes
    states = {b"": [array("B" if len(link) <= 256 else "I", link), 1]}
    computed = 0  # histogram bits of the steps so far
    for k in range(c):
        base = 4 * k  # the end at index 0 of this step's suffixes
        table: dict[bytes, list] = {}
        for suffix, histogram in states.values():
            # each join's two pairs, as indices, and the shift it adds
            for p, q, r, s, shift in (0, 1, 2, 3, 0), (0, 3, 1, 2, slot):
                ends = suffix[:]
                a = ends[p]
                b = ends[q]
                if a == base + q:
                    shift += row
                else:
                    ends[a - base] = b
                    ends[b - base] = a
                x = ends[r]
                y = ends[s]
                if x == base + s:
                    shift += row
                else:
                    ends[x - base] = y
                    ends[y - base] = x
                ends = ends[4:]
                key = ends.tobytes()
                if (entry := table.get(key)) is None:
                    table[key] = [ends, histogram << shift]
                else:
                    entry[1] += histogram << shift
        if len(table) > max_states:
            raise _cap_exceeded(max_states, k + 1, c, opens)
        computed += sum(h.bit_length() for _, h in table.values())
        if computed > _HISTOGRAM_BITS:
            raise CapExceeded(
                f"state sum exceeds {_HISTOGRAM_BITS} histogram bits",
                {"crossings_done": k + 1, "crossings_total": c})
        states = table
    (_, histogram), = states.values()
    return histogram


def _checker_bracket(diagram, max_states, table) -> LaurentPoly:
    """A checker's bracket, from the histogram of its end table
    ``table()`` in the sweep's order, under ``max_states`` per step."""
    c = diagram.crossing_count
    if c == 0:
        return _crossingless_value(diagram)
    order, opens = diagram._memoize(("order",), lambda: _sweep_order(diagram))
    return _assemble(_loop_histogram(table(), order, max_states, opens), c)


def bracket_statesum(
    diagram: LinkDiagram, *, max_states: int = 200_000
) -> LaurentPoly:
    """Bracket as the sum over all 2^c states, one crossing per step
    in the sweep's order: the open strands start as the diagram's arcs,
    and each crossing's A or B join splices them (bit 1 is B).  Each
    step counts the crossings done once per pairing of their open ends
    (:func:`_loop_histogram`)."""
    return _checker_bracket(diagram, max_states, lambda: diagram.partner)


def bracket_subgraph(
    diagram: LinkDiagram, *, max_states: int = 200_000
) -> LaurentPoly:
    """Bracket as a sum over spanning subgraphs of the all-A ribbon
    graph, one term A^(c - 2e(H)) * delta^(f(H) - 1) per edge subset H.

    The faces are counted by the boundary walk, one edge per step, over
    the edges in the sweep's order.  End ``2d`` is the
    corner arriving at dart ``d`` and ``2d + 1`` the corner leaving it;
    the rotations link ``2d + 1`` to ``2 * next(d)``.  An absent edge
    with darts ``x, y`` joins ``(2x, 2x + 1)`` and ``(2y, 2y + 1)``, a
    present one ``(2x, 2y + 1)`` and ``(2y, 2x + 1)``.  Edge ``e`` owns
    darts ``2e, 2e + 1``, so these are the pairs of ends ``4e .. 4e + 3``
    that crossing ``e``'s A and B joins connect.  The rotations are
    :func:`kauffman.states.resolve`'s circles, read as they come; the
    tests hold each subset's face count to
    :meth:`kauffman.states.RibbonGraph.faces`.
    """
    def corners() -> list[int]:
        table = [0] * (4 * diagram.crossing_count)
        for rot in resolve(diagram):
            for d, nxt in zip(rot, rot[1:] + rot[:1]):
                table[2 * d + 1] = 2 * nxt
                table[2 * nxt] = 2 * d + 1
        return table

    return _checker_bracket(diagram, max_states, corners)


# Start crossings an order search tries.
_STARTS = 16

# Catalan(o / 2) by open-port count o; one step past the table costs
# more than a search of any diagram under 10**14 crossings.
_CATALAN = [comb(o, o // 2) // (o // 2 + 1) for o in range(64)]


def _greedy_order(ends, start, bound):
    """From ``start``, repeatedly take the crossing with the most arcs
    into the processed region, the lowest index first among ties.
    ``ends[ci]`` lists the crossings at the far ends of ``ci``'s four
    arcs.  Returns the order, the open-port count after each step and
    the score, the sum of 2**open over the steps; or None as soon as
    the score reaches ``bound``.

    Only frontier crossings are candidates: they sit in a heap keyed
    ``ci - attached * c``, pushed again whenever another arc attaches
    them, and a popped key that is no longer current is dropped.
    """
    c = len(ends)
    attached = [0] * c
    done = [False] * c
    heap = [start]
    order: list[int] = []
    opens: list[int] = []
    open_ports = score = 0
    while heap:
        key = heappop(heap)
        ci = key % c
        if done[ci] or key != ci - attached[ci] * c:
            continue
        done[ci] = True
        order.append(ci)
        # the attached ports close; the others open unless their arc
        # returns to ``ci``
        here = ends[ci]
        open_ports += 4 - 2 * attached[ci] - here.count(ci)
        opens.append(open_ports)
        score += 1 << open_ports
        if score >= bound:
            return None
        for other in here:
            if not done[other]:
                attached[other] += 1
                heappush(heap, other - attached[other] * c)
    return order, opens, score


def _sweep_order(diagram: LinkDiagram) -> tuple[list[int], list[int]]:
    """A crossing order that keeps the sweep's open boundary small, and
    the open-port count after each of its steps.

    The default is the greedy of :func:`_greedy_order` from crossing 0.
    The sweep's work along it is estimated as the sum over its steps of
    Catalan(open / 2), the number of planar pairings of the open ports.
    Only when that estimate exceeds a search's own cost, about
    ``_STARTS * c``, is the greedy run again from ``_STARTS`` starts
    spaced evenly over the crossings ranked by their arc labels, with
    ties also going to the lower rank, and the order of least score
    (the sum over steps of 2**open) kept.  Labels run along the
    components, so these candidates do not depend on the order in which
    the code lists its crossings.  A candidate replaces the default only
    by scoring less.
    """
    c = diagram.crossing_count
    far = iter([q >> 2 for q in diagram.partner])
    ends = list(zip(far, far, far, far))
    best, opens, bound = _greedy_order(ends, 0, float("inf"))
    starts = min(_STARTS, c)
    if max(opens) < 64 and sum(map(_CATALAN.__getitem__, opens)) <= starts * c:
        return best, opens
    rank = sorted(range(c), key=lambda ci: sorted(diagram.crossings[ci].slots))
    pos = sorted(range(c), key=rank.__getitem__)  # crossing -> its rank
    ranked = [[pos[x] for x in ends[ci]] for ci in rank]
    for i in range(starts):
        found = _greedy_order(ranked, i * c // starts, bound)
        if found is not None:
            order, opens, bound = found
            best = [rank[r] for r in order]
    return best, opens


def _frontier_plan(diagram: LinkDiagram, order: list[int], width: int):
    """The open boundary of every step, built in one pass, and the bits
    of a key field, for an order with at most ``width`` open ports
    after any step (:func:`_sweep_order`'s counts).

    A port holds a key slot from the step that processes its arc
    partner's crossing to the step that processes its own.  A step frees
    its read slots before it opens ports, so ``width`` slots suffice;
    the last freed is reused first, and fresh slots go lowest first.
    The field of slot ``s`` in a key holds the slot of the open port's
    partner plus one, and 0 while no port holds ``s``.  Per step, with
    the crossing's ports named 0..3: the mask of the fields it reads;
    per read port its name, its field's shift and its slot plus one;
    the read ports by slot plus one; per port the slot plus one of the
    opened port at the other end of its arc, 0 if none; and the bits
    ``4i + j`` and ``4j + i`` of each arc from port ``i`` back to port
    ``j``.
    """
    partner = diagram.partner
    bits = width.bit_length()  # a field holds 0..width
    field = (1 << bits) - 1
    held = [0] * len(partner)  # per port, its slot plus one once open
    free = list(range(width, 0, -1))  # free slots plus one
    steps = []
    for ci in order:
        base = 4 * ci
        own = held[base:base + 4]
        read_mask = arcs = 0
        reads = ()
        local = {}
        ends = [0, 0, 0, 0]
        for i in 0, 1, 2, 3:
            if t := own[i]:
                free.append(t)
                shift = bits * t - bits
                read_mask |= field << shift
                reads += (i, shift, t),
                local[t] = i
        for i in 0, 1, 2, 3:  # opened once every read slot is free
            if not own[i]:
                if (q := partner[base + i]) >> 2 == ci:
                    arcs |= 1 << 4 * i + (q & 3)
                else:
                    ends[i] = held[q] = free.pop()
        steps.append((read_mask, reads, local, ends, arcs))
    return steps, bits


@cache
def _joins(strands: int) -> tuple:
    """Per join, the circles it closes, whether it flips the parity of
    the weight's u-degrees, and the pairs of ports whose outside ends it
    links, where bit ``4i + j`` of ``strands`` is set for each strand
    that runs from port ``i`` of the crossing back to port ``j``: the
    join's two pairs are spliced into the strands: ports 0, 1 and 2, 3
    for the A join, 0, 3 and 1, 2 for the B join.  The A join's ``u``
    and each circle's ``u**+-1`` flip the parity."""
    ends = [4, 5, 6, 7]  # port i's outside end is named i + 4
    for b in range(16):
        if strands >> b & 1:
            ends[b >> 2] = b & 3
    out = []
    for flip, pairs in (1, ((0, 1), (2, 3))), (0, ((0, 3), (1, 2))):
        link = dict(enumerate(ends))
        loops = 0
        for p, q in pairs:
            a, b = link.pop(p), link.pop(q)
            if a == q:
                loops += 1
            else:
                link[a] = b
                link[b] = a
        out.append((loops, (flip + loops) & 1, tuple(
            (x - 4, y - 4) for x, y in link.items() if x < y
        )))
    return tuple(out)


def _weight_slots(c: int, all_b: int) -> tuple[int, int]:
    """Bits per slot and the slot of ``x**0`` of a packed weight, for
    a diagram of ``c`` crossings whose all-B state has ``all_b``
    circles.

    A weight, a Laurent polynomial in ``u = A**2``, is ``u**e * P`` with
    ``P`` in ``x = u**2`` and ``e``, 0 or 1, the parity bit of its key
    (:func:`bracket_fast`).  ``P`` is packed as ``x**offset`` times it,
    evaluated at ``x = X = 2**bits``.  That is a ring homomorphism, so
    ``<< bits``, ``+`` and ``-`` act on packed weights as multiplication
    by ``x``, addition and subtraction act on polynomials, however large
    the coefficients grow: a digit may overflow its slot, and nothing
    reads the digits until the end.  ``>> bits`` divides by ``X``
    exactly when the packed polynomial lies in ``x * Z[x]``.

    A weight is a sum of terms ``u**#A * delta**L`` of partial states
    ``S``, ``#A`` their A joins and ``L`` their closed circles, with
    ``delta = -(u + u**-1)``, so it has no term below ``u**(#A - L)``.
    The closed circles of the all-B partial state are circles of the
    all-B state, so there ``L - #A <= all_b``.  Switching one crossing
    from B to A is a saddle, which changes the number of closed circles
    by at most one while it adds an A join, so ``L - #A`` never grows
    along the switches that reach ``S`` from the all-B partial state.
    So ``P`` has no term below x-degree ``(-all_b - e) / 2``, an integer
    at least ``-floor((all_b + e) / 2) >= -ceil(all_b / 2)``, the
    offset, for either parity.  At the end this is the paper's bound:
    the lowest degree of the unnormalized bracket is at least
    ``-c - 2 * all_b + 2``, so ``u**c * delta * <D>``, the final weight,
    has no term below ``u**-all_b``, and on a chain of negative curls
    it reaches that term, in slot 0.

    A join multiplies a weight by ``u`` (A) or 1 (B), and one or two
    closed circles by ``-u**-1 * (x + 1)`` or ``u**-2 * (x + 1)**2``; a
    factor ``u**2`` moves into ``P`` as ``x``.  By join and circles, the
    new ``P`` and parity from ``e = 0`` and from ``e = 1``::

        A, 0:  P, 1                    x * P, 0
        A, 1:  -(x + 1) * P, 0         -(x + 1) * P, 1
        A, 2:  (x + 2 + 1/x) * P, 1    (x + 1)**2 * P, 0
        B, 0:  P, 0                    P, 1
        B, 1:  -(1 + 1/x) * P, 1       -(x + 1) * P, 0
        B, 2:  (x + 2 + 1/x) * P, 0    (x + 2 + 1/x) * P, 1

    Only the three products with ``1/x`` shift right, and each has its
    lowest term ``1/x`` times that of ``P``.  The product is a branch's
    weight, a sum of terms of partial states, so its lowest term lies
    at ``x**-offset`` or above, ``P``'s one slot higher: every shift is
    exact.

    So only the bracket, the final weight divided by ``-(x + 1)``, must
    fit its slots, as balanced digits.  Thistlethwaite's spanning-tree
    expansion (Topology 26, 1987) writes ``<D>`` as a sum of one signed
    monomial per spanning tree of the checkerboard graph ``G`` of ``D``,
    which has ``c`` edges, so ``||<D>||_1 <= tau(G) < 2**c`` for a
    connected diagram (:func:`kauffman.diagram.parse_pd` rejects
    disconnected ones), inside balanced ``c + 3``-bit digits.
    """
    return c + 3, (all_b + 1) // 2


def _cap_exceeded(max_states, done, c, opens) -> CapExceeded:
    """The error of a table that outgrew ``max_states`` at step
    ``done`` of an order with open-port counts ``opens``, for the sweep
    and the checkers alike; it holds one key more."""
    return CapExceeded(
        f"open-boundary pairings exceed max_states={max_states}",
        {"crossings_done": done, "crossings_total": c,
         "states": max_states + 1, "open_ports": opens[done - 1]},
    )


def bracket_fast(
    diagram: LinkDiagram, *, max_states: int = 200_000
) -> LaurentPoly:
    """Bracket via a crossing-by-crossing sweep, in the order of
    :func:`_sweep_order`.

    A partial computation is a pairing of the open ports (ports of
    unprocessed crossings whose arcs run into the processed region) and
    a weight; branches with the same pairing merge.  The open ports
    depend only on the step and each holds a slot
    (:func:`_frontier_plan`), so a state's key is one integer of fields,
    each the slot of its port's partner plus one, and above them one
    bit, the parity of the weight's u-degrees.  The weight, in
    ``x = u**2`` with room below ``x**0`` for half the all-B state's
    circles, is packed into one integer (:func:`_weight_slots`).

    The parity bit never splits a pairing.  Switching one crossing is a
    saddle, which in the plane changes the number of circles by exactly
    one, so ``#A + circles`` has one parity over all states.  Partial
    states with the same pairing share every completion, which adds the
    same A joins and closes the same circles on each, so ``#A + L`` has
    one parity over them, ``#A`` their A joins and ``L`` their closed
    circles, and so do the u-degrees of their terms ``u**#A * delta**L``.
    So the keys are at most as many as the pairings: a merge whose
    weights sum to 0 deletes its key.  That is exact on the packed
    integers, overflowed digits and all, because every later operation
    on a weight (whole-slot shifts, the exact right shifts of
    :func:`_weight_slots`, sums and negation) is linear, so a zero
    weight adds 0 to the final integer.  Only merges make a 0: with
    ``X`` the slot base, a transition multiplies by 1, ``X``,
    ``-(X + 1)`` or ``(X + 1)**2``, or divides such a product exactly
    by ``X``.  A step raises :class:`CapExceeded` as soon as its table
    holds more than ``max_states``, never earlier than with every key
    kept, and the closed table's one key is 0 or the parity bit.

    A state meets a step only through the fields the step reads, so a
    step builds a move once per distinct read fields: per join, one
    integer to XOR into the key, and the circles it closes.  It empties
    the read fields and the fields that name the read ports, which the
    read fields locate, and writes the partners that the join links.  A
    read port whose partner is read too returns to the crossing.

    At ``A = 1`` the bracket of a diagram of ``mu`` components is
    ``+-2**(mu - 1)``; a value that fails this, as one from overflowed
    weights might, raises instead of being returned.
    """
    c = diagram.crossing_count
    if c == 0:
        return _crossingless_value(diagram)
    order, opens = diagram._memoize(("order",), lambda: _sweep_order(diagram))
    width = max(opens)
    steps, field_bits = _frontier_plan(diagram, order, width)
    bits, offset = _weight_slots(c, circles(diagram, "B")[0])
    field = (1 << field_bits) - 1
    # by field value t, the shift of slot t - 1
    slot_shift = [0] + [field_bits * s for s in range(width)]
    odd = 1 << field_bits * width
    states = {0: 1 << (bits * offset)}

    for done, (read_mask, reads, local, ends, arcs) in enumerate(steps, 1):
        moves: dict[int, tuple] = {}  # read fields -> move
        new_states: dict[int, int] = {}
        get = new_states.get
        for key, weight in states.items():
            far = key & read_mask
            move = moves.get(far)
            if move is None:
                outer = ends.copy()  # per port, its outside end's field
                strands = arcs
                vals = far  # empties the read fields
                for i, shift, own in reads:
                    t = far >> shift & field
                    j = local.get(t)
                    if j is None:  # and the partner's, which holds own
                        outer[i] = t
                        vals ^= own << slot_shift[t]
                    else:
                        strands |= 1 << 4 * i + j
                (loops_a, flip_a, pairs_a), (loops_b, flip_b, pairs_b) = (
                    _joins(strands))
                vals_a = vals ^ odd if flip_a else vals
                for i, k in pairs_a:
                    a, b = outer[i], outer[k]
                    vals_a ^= b << slot_shift[a] ^ a << slot_shift[b]
                vals_b = vals ^ odd if flip_b else vals
                for i, k in pairs_b:
                    a, b = outer[i], outer[k]
                    vals_b ^= b << slot_shift[a] ^ a << slot_shift[b]
                moves[far] = vals_a, loops_a, vals_b, loops_b
            else:
                vals_a, loops_a, vals_b, loops_b = move
            parity = key & odd
            # The A join multiplies by A = u * A^-1 and the B join by
            # A^-1; the A^-1 of every crossing is put back at the end.
            # The products are the table of _weight_slots.
            bkey = key ^ vals_a
            if not loops_a:
                w = weight << bits if parity else weight
            elif loops_a == 1:
                w = -((weight << bits) + weight)
            elif parity:
                w = (weight << 2 * bits) + (weight << (bits + 1)) + weight
            else:
                w = (weight << bits) + (weight << 1) + (weight >> bits)
            prior = get(bkey)
            if prior is None:
                new_states[bkey] = w
                if len(new_states) > max_states:
                    raise _cap_exceeded(max_states, done, c, opens)
            elif w := prior + w:
                new_states[bkey] = w
            else:  # the branches cancel: the key is dead
                del new_states[bkey]
            bkey = key ^ vals_b
            if not loops_b:
                w = weight
            elif loops_b == 2:
                w = (weight << bits) + (weight << 1) + (weight >> bits)
            elif parity:
                w = -((weight << bits) + weight)
            else:
                w = -(weight + (weight >> bits))
            prior = get(bkey)
            if prior is None:
                new_states[bkey] = w
                if len(new_states) > max_states:
                    raise _cap_exceeded(max_states, done, c, opens)
            elif w := prior + w:
                new_states[bkey] = w
            else:  # the branches cancel: the key is dead
                del new_states[bkey]
        states = new_states

    if len(states) != 1 or not states.keys() <= {0, odd}:
        raise AssertionError("sweep left open strands")
    # Every closed circle contributed a delta = -A^-2 * (x + 1), so
    # this is the normalized bracket times -(X + 1), one A^2 lower;
    # slot j holds A^(2e + 4j - 4 offset - c).
    (key, weight), = states.items()
    quotient, remainder = divmod(weight, (1 << bits) + 1)
    if remainder:
        raise InexactDivisionError("last weight is not a multiple of delta")
    value = LaurentPoly.from_digits(
        -quotient, bits, 2 * (key == odd) - 4 * offset - c + 2, 4)
    at_one = sum(k for _, k in value.terms())
    if abs(at_one) != 2 ** (len(diagram.components) - 1):
        raise AssertionError("sweep value fails the check at A = 1")
    return value


BRACKET_ENGINES = {
    "fast": bracket_fast,
    "statesum": bracket_statesum,
    "subgraph": bracket_subgraph,
}


def bracket(
    diagram: LinkDiagram, *, engine: str = "fast", cap: int | None = None
) -> LaurentPoly:
    """Dispatch to a bracket engine by name, under one resource cap, its
    ``max_states``: the pairings of open ports any engine may hold per
    step; None keeps the default.

    The value is computed once per diagram object, by engine and cap,
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
    limits = {} if cap is None else {"max_states": cap}
    return diagram._memoize(
        ("bracket", engine, cap), lambda: fn(diagram, **limits)
    )
