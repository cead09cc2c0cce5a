"""Bracket engines against each other and against the literal oracle.

Three engines compute the same polynomial by unrelated strategies:
``statesum`` enumerates resolutions, ``subgraph`` sums over edge
subsets of the all-A state graph, and ``fast`` sweeps crossings while
merging boundary pairings.  The tests drive all of them against
``oracles.oracle_bracket``, which shares no code with the package.
"""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kauffman import bracket as bracket_module
from kauffman.bracket import (
    BRACKET_ENGINES,
    DELTA,
    CapExceeded,
    bracket,
    bracket_fast,
    bracket_statesum,
    bracket_subgraph,
    _assemble,
    _frontier_plan,
    _loop_histogram,
    _sweep_order,
    _weight_slots,
)
from kauffman.diagram import (
    LinkDiagram, cable, from_slot_tuples, mirror, parse_pd, serialize,
)
from kauffman.cli import main
from kauffman.laurent import LaurentPoly
from kauffman.states import RibbonGraph, resolve

from conftest import power, seeded_closures, small_pool
from oracles import checkerboard_tree_counts, oracle_bracket

ENGINES = sorted(BRACKET_ENGINES)

FROZEN_BRACKETS = {
    "empty": {0: 1},
    "unknot-0": {0: 1},
    "kink-positive": {3: -1},
    "kink-negative": {-3: -1},
    "double-kink-positive": {6: 1},
    "cancelling-kinks": {0: 1},
    "hopf-positive": {4: -1, -4: -1},
    "trefoil-left": {7: 1, 3: -1, -5: -1},
    "trefoil-right": {-7: 1, -3: -1, 5: -1},
    "loopy-unknot": {3: -1},
    "figure-eight": {8: 1, 4: -1, 0: 1, -4: -1, -8: 1},
    "overlap-unlink": {2: -1, -2: -1},
}


def _oracle_poly(diagram):
    return LaurentPoly(oracle_bracket(diagram))


class TestEngineNames:
    def test_registry_is_frozen(self):
        assert ENGINES == ["fast", "statesum", "subgraph"]

    def test_unknown_engine_rejected(self, corpus_diagrams):
        with pytest.raises(ValueError, match="unknown engine 'bogus'"):
            bracket(corpus_diagrams["kink-positive"], engine="bogus")


class TestAgainstOracle:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_corpus(self, corpus_diagrams, engine):
        for name, d in corpus_diagrams.items():
            expected = _oracle_poly(d)
            assert bracket(d, engine=engine) == expected, name

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_small_pool_sampled(self, data):
        d = data.draw(st.sampled_from(small_pool()))
        engine = data.draw(st.sampled_from(ENGINES))
        assert bracket(d, engine=engine) == _oracle_poly(d)

    @pytest.mark.parametrize(
        "name", ["kink-positive", "kink-negative", "hopf-positive", "loopy-unknot"]
    )
    def test_two_cables(self, corpus_diagrams, name):
        d = cable(corpus_diagrams[name], 2)
        expected = _oracle_poly(d)
        for engine in ENGINES:
            assert bracket(d, engine=engine) == expected


class TestFrozenValues:
    @pytest.mark.parametrize("name", sorted(FROZEN_BRACKETS))
    def test_value(self, corpus_diagrams, name):
        assert bracket(corpus_diagrams[name]) == LaurentPoly(
            FROZEN_BRACKETS[name]
        )

    def test_extreme_coeffs_of_left_trefoil(self, corpus_diagrams):
        p = bracket(corpus_diagrams["trefoil-left"])
        hi, lo = p.max_degree(), p.min_degree()
        assert (hi, p.coeff(hi), lo, p.coeff(lo)) == (7, 1, -5, -1)


class TestNormalization:
    def test_empty_diagram(self):
        assert bracket(LinkDiagram.crossingless(0)) == LaurentPoly({0: 1})

    @pytest.mark.parametrize("m", range(9))
    def test_crossingless_unlinks(self, m):
        # delta^(m - 1) by repeated multiplication, and 1 for m = 0 and
        # 1: a check of the closed form that every engine returns
        expected = power(DELTA, max(m - 1, 0))
        d = LinkDiagram.crossingless(m)
        for fn in (bracket_fast, bracket_statesum, bracket_subgraph):
            assert fn(d) == expected
        for engine in ENGINES:
            assert bracket(d, engine=engine) == expected


class TestMirrorDuality:
    def test_corpus(self, corpus_diagrams):
        for d in corpus_diagrams.values():
            assert bracket(mirror(d)) == bracket(d).invert_variable()

    def test_small_pool(self, small_diagrams):
        for d in small_diagrams:
            assert bracket(mirror(d)) == bracket(d).invert_variable()


class TestSupportPattern:
    def test_exponents_agree_mod_four(self, corpus_diagrams, small_diagrams):
        # every bracket here is supported in a single residue class
        for d in list(corpus_diagrams.values()) + list(small_diagrams):
            p = bracket(d)
            top = p.max_degree()
            assert all((top - e) % 4 == 0 for e, _ in p.terms())


class TestResourceCaps:
    # every engine's cap is its ``max_states``: the pairings of open
    # ports its table holds per step

    def test_statesum_cap(self, corpus_diagrams):
        with pytest.raises(CapExceeded, match="exceed max_states=1$"):
            bracket_statesum(corpus_diagrams["trefoil-left"], max_states=1)

    def test_subgraph_cap(self, corpus_diagrams):
        with pytest.raises(CapExceeded, match="exceed max_states=1$"):
            bracket_subgraph(corpus_diagrams["figure-eight"], max_states=1)

    def test_fast_cap(self, corpus_diagrams):
        with pytest.raises(CapExceeded, match="exceed max_states=1"):
            bracket_fast(corpus_diagrams["figure-eight"], max_states=1)

    def test_checkers_deeper_than_the_recursion_limit(self):
        # the checkers run forward one step at a time, so no depth
        # limits them; a chain of 1,200 curls holds one pairing per
        # step and passes any budget, but a histogram grows by
        # (c + 1)**2 bits per closed loop, and the bits computed pass
        # the fixed bound at step 55; the sweep's weights do not grow so
        d = _kink_chain(1200, -1)
        for checker in (bracket_statesum, bracket_subgraph):
            with pytest.raises(CapExceeded, match="histogram bits$") as info:
                checker(d, max_states=10**6)
            assert info.value.detail == {
                "crossings_done": 55, "crossings_total": 1200,
            }
        assert bracket_fast(d) == LaurentPoly({-3600: 1})  # (-A^-3)^1200

    @pytest.mark.parametrize(
        "name,width,cap,crossings_done,open_ports",
        [
            ("trefoil-left", 4, 857, 34, 16),
            ("figure-eight", 3, 40, 12, 10),
            ("figure-eight", 3, 100, 18, 12),
        ],
    )
    def test_fast_cap_trips_inside_the_step(
        self, corpus_diagrams, name, width, cap, crossings_done, open_ports
    ):
        # the step whose table outgrows the cap raises as soon as it
        # does, so it holds one state more than the cap, never a whole
        # step's worth; the step is the one a check after it would name
        d = cable(corpus_diagrams[name], width)
        with pytest.raises(CapExceeded, match=f"exceed max_states={cap}$") as info:
            bracket_fast(d, max_states=cap)
        assert info.value.detail == {
            "crossings_done": crossings_done,
            "crossings_total": d.crossing_count,
            "states": cap + 1,
            "open_ports": open_ports,
        }

    @pytest.mark.parametrize(
        "name,width,peak",
        [
            ("trefoil-left", 2, 10),
            ("trefoil-left", 3, 84),
            ("trefoil-left", 4, 858),
            ("figure-eight", 2, 14),
            ("figure-eight", 3, 132),
            ("figure-eight", 4, 1430),
        ],
    )
    def test_fast_cap_at_the_peak(self, corpus_diagrams, name, width, peak):
        # the peak is the largest number of live pairings in one step,
        # so a cap of the peak passes and one less trips holding the
        # peak; the parity key bit must not split a pairing's states
        d = cable(corpus_diagrams[name], width)
        assert bracket_fast(d, max_states=peak) == bracket_fast(d)
        with pytest.raises(CapExceeded) as info:
            bracket_fast(d, max_states=peak - 1)
        assert info.value.detail["states"] == peak

    @pytest.mark.parametrize(
        "pd,peak",
        [
            ("X[3,8,4,9] X[11,6,12,5] X[1,9,2,10] X[2,3,1,10] X[6,11,7,12] "
             "X[7,5,8,4]", 2),
            ("X[11,6,12,5] X[6,13,7,12] X[7,13,8,14] X[1,14,2,15] "
             "X[8,3,9,2] X[3,10,4,9] X[15,4,16,1] X[16,10,11,5]", 2),
            ("X[1,8,2,9] X[13,3,14,2] X[14,3,15,4] X[9,4,10,5] X[10,6,11,5] "
             "X[6,15,7,16] X[16,12,1,11] X[7,13,8,12]", 4),
            ("X[14,8,15,7] X[4,15,5,16] X[8,9,9,10] X[1,16,2,1] X[10,6,11,5] "
             "X[2,11,3,12] X[12,3,13,4] X[13,6,14,7]", 4),
            ("X[17,11,18,12] X[7,12,8,13] X[8,18,9,19] X[15,2,16,1] "
             "X[13,3,14,2] X[19,4,20,3] X[4,9,5,10] X[16,14,15,1] "
             "X[5,11,6,10] X[6,17,7,20]", 5),
        ],
    )
    def test_fast_cap_drops_cancelled_states(self, pd, peak):
        # seeded braid closures with R1/R2-reducible parts, whose
        # branches sum to weight 0 in some keys; a dead key is deleted,
        # so the sweep passes under a cap below its largest step's
        # pairings, which a sweep that kept every merged key would hold
        # (4, 4, 5, 6 and 6 here)
        d = parse_pd(pd)
        assert bracket_fast(d, max_states=peak) == bracket_statesum(d)
        with pytest.raises(CapExceeded) as info:
            bracket_fast(d, max_states=peak - 1)
        assert info.value.detail["states"] == peak

    def test_cap_detail_payload(self, corpus_diagrams):
        # a checker trips at the first step that outgrows the cap, as
        # the sweep does, holding one more
        for engine in (bracket_fast, bracket_statesum, bracket_subgraph):
            with pytest.raises(CapExceeded) as info:
                engine(corpus_diagrams["trefoil-left"], max_states=1)
            assert info.value.detail == {
                "crossings_done": 1,
                "crossings_total": 3,
                "states": 2,
                "open_ports": 4,
            }

    def test_caps_do_not_trigger_on_crossingless_input(self):
        # the crossingless shortcut precedes the cap check
        d = LinkDiagram.crossingless(4)
        for fn in (bracket_fast, bracket_statesum, bracket_subgraph):
            assert fn(d, max_states=0) == power(DELTA, 3)

    @pytest.mark.parametrize(
        "name,width,peak",
        [
            ("trefoil-left", 2, 10),
            ("trefoil-left", 3, 84),
            ("trefoil-left", 4, 858),
            ("figure-eight", 2, 14),
            ("figure-eight", 3, 132),
            ("figure-eight", 4, 1430),
            ("hopf-positive", 2, 4),
            ("hopf-positive", 3, 14),
            ("hopf-positive", 4, 42),
        ],
    )
    def test_checkers_trip_at_the_sweeps_peak(
        self, corpus_diagrams, name, width, peak
    ):
        # a checker's table after step k holds the pairings the sweep's
        # table holds after step k, so on these cables, where no sweep
        # state cancels, one cap trips all three engines alike
        d = cable(corpus_diagrams[name], width)
        expected = bracket_fast(d, max_states=peak)
        for checker in (bracket_statesum, bracket_subgraph):
            assert checker(d, max_states=peak) == expected
            with pytest.raises(CapExceeded, match="exceed max_states") as info:
                checker(d, max_states=peak - 1)
            assert info.value.detail["states"] == peak
        with pytest.raises(CapExceeded):
            bracket_fast(d, max_states=peak - 1)

    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "name", ["trefoil-left", "figure-eight", "hopf-positive"])
    def test_one_budget_one_meaning(self, corpus_diagrams, name, width):
        # the checkers' table after a step holds the sweep's pairings,
        # so under any cap they pass with the sweep or trip at its step,
        # with its open ports
        d = cable(corpus_diagrams[name], width)
        for cap in 1, 5, 40, 100, 857:
            try:
                expected = bracket_fast(d, max_states=cap)
            except CapExceeded as err:
                for checker in (bracket_statesum, bracket_subgraph):
                    with pytest.raises(CapExceeded) as info:
                        checker(d, max_states=cap)
                    assert info.value.detail == err.detail, (checker, cap)
            else:
                for checker in (bracket_statesum, bracket_subgraph):
                    assert checker(d, max_states=cap) == expected, (checker, cap)

    def test_checkers_bound_their_histogram_bits(self):
        # 300 curls hold one pairing per step, but the histograms grow
        # with the loops closed, and the bits the steps compute pass the
        # fixed bound at step 217, holding two steps' tables of one key
        d = _kink_chain(300, -1)
        for checker in (bracket_statesum, bracket_subgraph):
            with pytest.raises(
                CapExceeded, match="^state sum exceeds 2147483648 histogram bits$"
            ) as info:
                checker(d, max_states=10**6)
            assert info.value.detail == {
                "crossings_done": 217, "crossings_total": 300,
            }
        assert bracket_fast(d) == LaurentPoly({-900: 1})  # (-A^-3)^300


class TestLargerConsistency:
    def test_three_cable_of_positive_kink(self, corpus_diagrams):
        # 9 crossings: still cheap for every engine plus the oracle
        d = cable(corpus_diagrams["kink-positive"], 3)
        expected = _oracle_poly(d)
        for engine in ENGINES:
            assert bracket(d, engine=engine) == expected

    def test_two_cable_of_left_trefoil_engines_agree(self, corpus_diagrams):
        # 12 crossings: compare the engines to one another
        d = cable(corpus_diagrams["trefoil-left"], 2)
        reference = bracket_fast(d)
        assert bracket_statesum(d) == reference
        assert bracket_subgraph(d) == reference


def _shuffled(diagram, seed):
    """The same diagram with its crossings listed in a shuffled order,
    and the old index of each new crossing."""
    perm = list(range(diagram.crossing_count))
    random.Random(seed).shuffle(perm)
    tuples = [diagram.crossings[ci].slots for ci in perm]
    return from_slot_tuples(tuples), perm


def _relabelled(diagram, seed):
    """Like :func:`_shuffled`, and each component's arc labels also
    rotated to start at another of its arcs."""
    rng = random.Random(seed)
    perm = list(range(diagram.crossing_count))
    rng.shuffle(perm)
    label = {}
    for comp in diagram.components:
        k = rng.randrange(len(comp))
        for i, a in enumerate(comp):
            label[a] = comp[(i + k) % len(comp)]
    tuples = [
        tuple(label[a] for a in diagram.crossings[ci].slots) for ci in perm
    ]
    return from_slot_tuples(tuples), perm


def _listed_greedy(diagram):
    """The greedy order with ties broken by listed index: repeatedly
    take the crossing with the most arcs into the processed region,
    scanning every crossing at every step."""
    c = diagram.crossing_count
    done = [False] * c
    attached = [0] * c
    order = []
    for _ in range(c):
        best = min(
            (ci for ci in range(c) if not done[ci]),
            key=lambda ci: (-attached[ci], ci),
        )
        order.append(best)
        done[best] = True
        for p in range(4 * best, 4 * best + 4):
            other = diagram.partner[p] >> 2
            if not done[other]:
                attached[other] += 1
    return order


def _open_counts(diagram, order):
    """After each step of a sweep along ``order``, the arcs between a
    processed and an unprocessed crossing: one open port each."""
    done = set()
    counts = []
    for ci in order:
        done.add(ci)
        counts.append(sum(
            1 for p, q in enumerate(diagram.partner)
            if p >> 2 in done and q >> 2 not in done
        ))
    return counts


def _score(diagram, order):
    """Sum over the sweep's steps of 2 ** (open ports after the step)."""
    return sum(1 << o for o in _open_counts(diagram, order))


def _kink_chain(n, sign):
    """An unknot with ``n`` curls of one sign in a row."""
    if sign > 0:
        slots = [(2 * i + 1, 2 * i + 3, 2 * i + 2, 2 * i + 2) for i in range(n)]
    else:
        slots = [(2 * i + 1, 2 * i + 2, 2 * i + 2, 2 * i + 3) for i in range(n)]
    last = slots[-1]
    slots[-1] = tuple(1 if a == 2 * n + 1 else a for a in last)
    return from_slot_tuples(slots)


class TestSweepBeyondOracle:
    """Cables too wide for the exponential engines, checked against the
    sweep itself under relabelling, and the packed weights at their
    bounds."""

    @pytest.mark.parametrize(
        "name,width",
        [("trefoil-left", 3), ("figure-eight", 3), ("trefoil-left", 4)],
    )
    def test_crossing_order_does_not_matter(self, corpus_diagrams, name, width):
        # relisting and relabelling changes the chosen order for most
        # seeds, so the sweep meets other boundaries, keys and merges
        d = cable(corpus_diagrams[name], width)
        expected = bracket_fast(d)
        order, _ = _sweep_order(d)
        changed = 0
        for seed in range(5):
            relisted, perm = _relabelled(d, seed)
            changed += [perm[ci] for ci in _sweep_order(relisted)[0]] != order
            assert bracket_fast(relisted) == expected
        assert changed >= 3

    @pytest.mark.parametrize(
        "name,width,peak", [("figure-eight", 3, 132), ("trefoil-left", 4, 858)]
    )
    def test_listing_does_not_blow_up_the_sweep(
        self, corpus_diagrams, name, width, peak
    ):
        # under the listed greedy order alone, shuffles of these cables
        # peaked at up to 1,914 and 23,498 live pairings
        d = cable(corpus_diagrams[name], width)
        expected = bracket_fast(d, max_states=peak)
        for seed in range(12):
            shuffled, _ = _shuffled(d, seed)
            assert bracket_fast(shuffled, max_states=2 * peak) == expected

    def test_chosen_order_never_scores_worse(self, corpus_diagrams):
        # the chosen order is the listed greedy's unless it scores less
        for d in corpus_diagrams.values():
            if not d.crossing_count:
                continue
            for width in (2, 3, 4):
                wide = cable(d, width)
                listed = _listed_greedy(wide)
                chosen, _ = _sweep_order(wide)
                assert sorted(chosen) == list(range(wide.crossing_count))
                assert chosen == listed or _score(wide, chosen) < _score(
                    wide, listed
                )

    def test_order_counts_size_the_plan(self, corpus_diagrams):
        # the sweep sizes its key fields by the order search's own
        # open-port counts, so they must be the counts of the order, and
        # the plan must open exactly slots 1 .. max of them
        wide = [
            cable(d, width)
            for d in corpus_diagrams.values() if d.crossing_count
            for width in (1, 2, 3, 4)
        ]
        for d in wide + seeded_closures(11, 40):
            order, opens = _sweep_order(d)
            assert opens == _open_counts(d, order), d
            width = max(opens)
            steps, bits = _frontier_plan(d, order, width)
            assert bits == width.bit_length()
            opened = {t for _, _, _, ends, _ in steps for t in ends if t}
            assert opened == set(range(1, width + 1)), d

    def test_plan_matches_the_order(self, corpus_diagrams):
        # each step recomputed from the order alone: a port is read if
        # its partner's crossing came earlier, opened if it comes later,
        # and an arc back to the crossing otherwise; a port is read
        # from the slot its partner opened, with its field's shift, and
        # live slots never clash.  Slots go as documented: the last
        # freed first, fresh ones lowest first
        for d in _corpus_cables(corpus_diagrams) + seeded_closures(11, 40):
            order, opens = _sweep_order(d)
            steps, bits = _frontier_plan(d, order, max(opens))
            when = {ci: k for k, ci in enumerate(order)}
            slot_of = {}  # open port -> its slot
            free = list(range(max(opens) - 1, -1, -1))
            for k, (ci, step) in enumerate(zip(order, steps)):
                read_mask, reads, local, ends, arcs = step
                ports = [(i, d.partner[4 * ci + i]) for i in range(4)]
                slots = [(i, slot_of.pop(4 * ci + i))
                         for i, q in ports if when[q >> 2] < k]
                assert reads == tuple(
                    (i, bits * s, s + 1) for i, s in slots), d
                assert local == {s + 1: i for i, s in slots}, d
                assert read_mask == sum(
                    ((1 << bits) - 1) << bits * s for _, s in slots), d
                assert [i for i in range(4) if ends[i]] == [
                    i for i, q in ports if when[q >> 2] > k], d
                assert arcs == sum(
                    1 << 4 * i + (q & 3) for i, q in ports if q >> 2 == ci), d
                free += [s for _, s in slots]
                for i, q in ports:
                    if ends[i]:
                        slot_of[q] = ends[i] - 1
                        assert slot_of[q] == free.pop(), d
                assert len(set(slot_of.values())) == len(slot_of), d
            assert not slot_of, d

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_kink_chains(self, n, sign):
        # the all-B state of a chain of negative curls has n + 1
        # circles and no A join, so its weight reaches u^-(n+1) with
        # v_B = n + 1 exactly: the tight case of the offset, whose
        # packed weights have no slot below u^-v_B
        d = _kink_chain(n, sign)
        assert d.crossing_count == n
        assert all(x.sign == sign for x in d.crossings)
        assert bracket_fast(d) == LaurentPoly({3 * sign * n: (-1) ** n})

    @pytest.mark.parametrize("c", [1, 4, 48])
    def test_packed_weights_round_trip_at_the_bound(self, c):
        # the final weight, delta times the bracket, has coefficients
        # of absolute value below 2^(c+1) and u-exponents in
        # -v_B..2c+1 of one parity e, with 1 <= v_B <= c + 1; it is
        # u^e times a polynomial in x = u^2, and only it is ever
        # unpacked, read as the sweep does
        bound = 2 ** (c + 1) - 1
        for all_b in sorted({1, 2, c // 2 + 1, c + 1}):
            bits, offset = _weight_slots(c, all_b)
            assert offset == (all_b + 1) // 2
            for e in (0, 1):
                exps = range(-all_b + (all_b + e) % 2, 2 * c + 2, 2)
                for coeffs in (
                    [bound] * len(exps),
                    [-bound] * len(exps),
                    [(-1) ** j * bound for j in range(len(exps))],
                    [(-1) ** j * (bound - j) for j in range(len(exps))],
                ):
                    packed = sum(
                        k << (bits * ((d - e) // 2 + offset))
                        for d, k in zip(exps, coeffs)
                    )
                    assert LaurentPoly.from_digits(
                        packed, bits, 2 * e - 4 * offset, 4
                    ) == LaurentPoly({2 * d: k for d, k in zip(exps, coeffs)})


class TestSweepOutcomesPinned:
    """Every outcome of the sweep, pinned as one digest: the value
    under no cap, and under each cap either the value or the message
    and ``detail`` of the :class:`CapExceeded` it raises.  The order,
    the pairings and the merges decide which step trips and how many
    states and open ports it holds, so a change to any of them that
    keeps the values still shows here; the slot each port takes does
    not, and :meth:`TestSweepBeyondOracle.test_plan_matches_the_order`
    pins it."""

    CAPS = (None, 1, 3, 10, 40, 150)

    # 40 seeded 4-10-crossing closures (knots and links), their mirrors
    # and width-2 cables (up to 40 crossings), and the corpus cables of
    # widths 1-4 (up to 64 crossings); 960 outcomes, 320 of them trips;
    # recorded before the sweep's set-up and missed moves were rewritten
    DIGEST = "e84aac551c656499433dded5d86a8a0939b27b94541cc1c86ecaffbf8c98d414"

    def test_outcomes_are_pinned(self, corpus_diagrams):
        closures = seeded_closures(2027, 40)
        diagrams = [
            x for d in closures for x in (d, mirror(d), cable(d, 2))
        ] + _corpus_cables(corpus_diagrams)
        lines = []
        for d in diagrams:
            for cap in self.CAPS:
                try:
                    value = bracket_fast(d, **(
                        {} if cap is None else {"max_states": cap}))
                    outcome = list(value.terms())
                except CapExceeded as e:
                    outcome = f"{e} {sorted(e.detail.items())}"
                lines.append(f"{serialize(d)}\t{cap}\t{outcome}")
        record = "\n".join(lines)
        assert hashlib.sha256(record.encode()).hexdigest() == self.DIGEST


def _norm(p):
    return sum(abs(k) for _, k in p.terms())


def _corpus_cables(corpus_diagrams):
    return [
        cable(d, width)
        for d in corpus_diagrams.values()
        if d.crossing_count
        for width in (1, 2, 3, 4)
    ]


class TestWeightBound:
    """The bound on the final bracket that sizes the packed weights'
    slots, and the sweep under slots narrower than it."""

    def test_norm_within_checkerboard_tree_count(self, corpus_diagrams):
        # Thistlethwaite: one signed monomial per spanning tree of the
        # checkerboard graph, and no cancellation on alternating
        # diagrams.  The all-A state graph would not do: on the listed
        # code it has 2 spanning trees and the bracket's norm is 4.
        diagrams = _corpus_cables(corpus_diagrams) + seeded_closures(11, 40)
        diagrams.append(from_slot_tuples([
            (5, 10, 6, 9), (6, 4, 7, 3), (7, 2, 8, 1), (2, 3, 1, 8),
            (4, 10, 5, 9),
        ]))
        for d in diagrams:
            black, white = checkerboard_tree_counts(d)
            assert black == white  # the two graphs are planar duals
            norm = _norm(bracket(d))
            assert norm <= black < 2 ** d.crossing_count, d
            if all((p ^ q) & 1 for p, q in enumerate(d.partner)):
                assert norm == black, d  # alternating: over meets under

    def test_slots_need_only_hold_the_final_weight(
        self, corpus_diagrams, monkeypatch
    ):
        # slots two bits wider than the final weight's largest digit;
        # the intermediate weights of the trefoil cables and of the
        # width-3 and width-4 figure-eight cables overflow them (up to
        # 854 against a final 6), and the result stays exact
        for d in _corpus_cables(corpus_diagrams):
            expected = bracket_fast(d)
            top = max(abs(k) for _, k in (DELTA * expected).terms())
            bits = top.bit_length() + 2
            monkeypatch.setattr(
                "kauffman.bracket._weight_slots",
                lambda c, all_b: (bits, all_b),
            )
            assert bracket_fast(d) == expected
            monkeypatch.undo()

    def test_overflowed_final_weights_never_pass(
        self, corpus_diagrams, monkeypatch
    ):
        # 3-bit slots hold the digits -4..3, too few for the final
        # weights of several cables.  The last weight is divided by
        # delta as an integer, exactly whatever its digits, so the check
        # at A = 1 is what raises rather than return a wrong value; any
        # other error fails the test
        cases = [(d, bracket_fast(d)) for d in _corpus_cables(corpus_diagrams)]
        monkeypatch.setattr(
            "kauffman.bracket._weight_slots", lambda c, all_b: (3, all_b)
        )
        caught_at_one = 0
        for d, expected in cases:
            try:
                value = bracket_fast(d)
            except AssertionError as err:
                assert "check at A = 1" in str(err)
                caught_at_one += 1
                continue
            assert value == expected
        assert caught_at_one >= 1


def _port_walk_circles(diagram, mask):
    """Circles of the resolution with B joins at the set bits of
    ``mask``, walked port by port from nothing."""
    partner = diagram.partner
    seen = [False] * len(partner)
    circles = 0
    for start in range(len(partner)):
        if seen[start]:
            continue
        circles += 1
        p = start
        while not seen[p]:
            seen[p] = True
            q = p ^ (3 if mask >> (p >> 2) & 1 else 1)
            seen[q] = True
            p = partner[q]
    return circles


def _per_mask_bracket(c, loops_of):
    """Sum A^(c - 2b) * delta^(f - 1) over every mask, b its set bits
    and f = loops_of(mask)."""
    total = LaurentPoly()
    for mask in range(1 << c):
        b = bin(mask).count("1")
        term = LaurentPoly({c - 2 * b: 1}) * power(DELTA, loops_of(mask) - 1)
        total = total + term
    return total


class TestCheckersAgainstPerMaskWalks:
    """The frontier-sum checkers against the walks they replace, which
    rebuild every resolution and every spanning subgraph from nothing:
    the port walk and the ribbon graph's boundary walk."""

    @staticmethod
    def _diagrams(corpus_diagrams, small_diagrams):
        crossed = [d for d in corpus_diagrams.values() if d.crossing_count]
        crossed.append(cable(corpus_diagrams["trefoil-left"], 2))
        # closures of 8-10 crossings, where most steps merge suffixes
        crossed += seeded_closures(5, 3, range(8, 11))
        return crossed + list(small_diagrams)

    def test_statesum_equals_the_port_walk(self, corpus_diagrams, small_diagrams):
        for d in self._diagrams(corpus_diagrams, small_diagrams):
            expected = _per_mask_bracket(
                d.crossing_count, lambda mask: _port_walk_circles(d, mask)
            )
            assert bracket_statesum(d) == expected, d

    def test_subgraph_equals_the_boundary_walk(
        self, corpus_diagrams, small_diagrams
    ):
        for d in self._diagrams(corpus_diagrams, small_diagrams):
            graph = RibbonGraph(resolve(d))
            expected = _per_mask_bracket(d.crossing_count, graph.faces)
            assert bracket_subgraph(d) == expected, d

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("n", [1, 2, 5, 7, 9, 10])
    def test_kink_chains_close_two_loops_at_once(self, n, sign):
        # the last curl of a chain closes both of its loops in one of
        # its two joins, at the deepest memoized depth
        d = _kink_chain(n, sign)
        expected = LaurentPoly({3 * sign * n: (-1) ** n})
        assert bracket_statesum(d) == expected
        assert bracket_subgraph(d) == expected

    @pytest.mark.parametrize("c", [1, 2, 3, 6, 13, 28])
    def test_histogram_at_the_digit_bound(self, c):
        # all 2^c resolutions at one (b, f = c + 1): the readout's
        # digits reach 2^c * C(c, c // 2), and the sum of their sizes
        # 2^c * 2^c, the bound its slots are sized by
        slot = c + 1
        row = slot * slot
        for b in sorted({0, c // 2, c}):
            packed = 2**c << (c + 1) * row + b * slot
            expected = LaurentPoly({c - 2 * b: 2**c}) * power(DELTA, c)
            assert _assemble(packed, c) == expected

    def test_a_resolution_without_a_loop_raises(self):
        # every resolution of a crossing closes a loop, so a count in
        # the histogram's row of zero loops is a fault, not a term
        with pytest.raises(AssertionError, match="closed no loop"):
            _assemble(1, 1)


def _corner_table(diagram):
    """The end table of :func:`bracket_subgraph`: the corners of the
    all-A ribbon graph, linked along its rotations."""
    corners = [0] * (4 * diagram.crossing_count)
    for rot in resolve(diagram):
        for d, nxt in zip(rot, rot[1:] + rot[:1]):
            corners[2 * d + 1] = 2 * nxt
            corners[2 * nxt] = 2 * d + 1
    return corners


class TestMemoizedTail:
    """At every depth the checkers count the crossings below it, the
    tail, once per pairing of its open ends; they must count exactly
    what the sweep does, past the 16 crossings the per-mask oracles
    reach, and past the 64 whose ends a byte key can name."""

    @pytest.mark.parametrize(
        "seed,count,sizes",
        [
            (13, 40, range(8, 17)),
            (17, 12, [7]),
            (17, 12, [8]),
            (17, 12, [9]),
            (23, 16, range(17, 25)),
        ],
    )
    def test_checkers_agree_with_the_sweep(self, seed, count, sizes):
        for d in seeded_closures(seed, count, sizes):
            expected = bracket_fast(d)
            assert bracket_statesum(d) == expected, d
            assert bracket_subgraph(d) == expected, d

    def test_width_three_trefoil_cable(self, corpus_diagrams):
        # 27 crossings, whose largest step table holds the sweep's 84
        d = cable(corpus_diagrams["trefoil-left"], 3)
        assert d.crossing_count == 27
        expected = bracket_fast(d)
        assert bracket_statesum(d) == expected
        assert bracket_subgraph(d) == expected

    def test_more_ends_than_a_byte_names(self):
        # 280 ends: the keys must name ends past 255 exactly; this
        # closure keeps 336 histograms, about 5 MiB, per checker, where
        # the closures of seeds 1-12 of its size keep up to 33 MiB
        (d,) = seeded_closures(31, 1, [70])
        expected = bracket_fast(d)
        assert bracket_statesum(d) == expected
        assert bracket_subgraph(d) == expected

    def test_corpus_cables_under_the_default_cap(self, corpus_diagrams):
        # up to the width-4 figure-eight cable's 64 crossings: in the
        # sweep's order a cable's tails have few pairings, where the
        # listed order, grid by grid, ran out of 3 GB on the 48
        # crossings of the width-4 trefoil cable
        for d in _corpus_cables(corpus_diagrams):
            expected = bracket_fast(d)
            assert bracket_statesum(d) == expected, d
            assert bracket_subgraph(d) == expected, d

    def test_any_order_counts_the_same(self, corpus_diagrams):
        # the packed histogram of either end table, the ports or the
        # all-A corners, under the listed order and seeded random
        # orders.  The width-2 cables have 16-40 crossings, and a
        # random order of one of 40 ran out of 1.5 GB, so there the seed
        # shuffles the listing and the order is the shuffled cable's
        # own sweep order, read back in the cable's numbering
        rng = random.Random(43)
        closures = seeded_closures(47, 40)
        crossed = [d for d in corpus_diagrams.values() if d.crossing_count]
        for d in crossed + closures:
            c = d.crossing_count
            for table in (d.partner, _corner_table(d)):
                expected = _loop_histogram(table, range(c))
                for _ in range(3):
                    order = rng.sample(range(c), c)
                    assert _loop_histogram(table, order) == expected, d
        changed = 0
        for seed, base in enumerate(closures):
            d = cable(base, 2)
            order, _ = _sweep_order(d)
            shuffled, perm = _shuffled(d, seed)
            other = [perm[ci] for ci in _sweep_order(shuffled)[0]]
            changed += other != order
            for table in (d.partner, _corner_table(d)):
                expected = _loop_histogram(table, order)
                assert _loop_histogram(table, other) == expected, d
        assert changed >= 20  # 27 of the 40 orders differ

    def test_one_default_cap(self, corpus_diagrams):
        # all three engines default to the same state budget, which no
        # crossing count caps: the width-3 figure-eight cable has 36
        defaults = {
            fn.__kwdefaults__["max_states"]
            for fn in BRACKET_ENGINES.values()
        }
        assert defaults == {200_000}
        d = cable(corpus_diagrams["figure-eight"], 3)
        assert d.crossing_count == 36
        expected = bracket_fast(d)
        for engine in (bracket_statesum, bracket_subgraph):
            assert engine(d) == expected


class TestOrderMemo:
    """The sweep's crossing order, computed once per diagram object and
    read by all three engines."""

    @staticmethod
    def _count_greedy(monkeypatch):
        calls = []
        greedy = bracket_module._greedy_order
        monkeypatch.setattr(
            bracket_module, "_greedy_order",
            lambda *args: calls.append(args) or greedy(*args),
        )
        return calls

    @pytest.mark.parametrize("width,greedy_runs", [(1, 1), (3, 17)])
    def test_selftest_computes_the_order_once(
        self, corpus_diagrams, monkeypatch, capsys, width, greedy_runs
    ):
        # the trefoil takes the greedy from crossing 0 alone; its
        # width-3 cable, 27 crossings, also the search from 16 starts
        pd = serialize(cable(corpus_diagrams["trefoil-left"], width))
        calls = self._count_greedy(monkeypatch)
        _sweep_order(parse_pd(pd))
        assert len(calls) == greedy_runs
        calls.clear()
        assert main(["bracket", "--selftest", pd]) == 0
        assert capsys.readouterr().out.endswith("engines agree\n")
        assert len(calls) == greedy_runs

    def test_refused_checker_computes_no_order(self, monkeypatch):
        # a checker that its budget refuses reads the order that the
        # sweep memoized, and stores no bracket
        (d,) = seeded_closures(31, 1, [29])
        bracket(d)
        calls = self._count_greedy(monkeypatch)
        for engine in ("statesum", "subgraph"):
            with pytest.raises(CapExceeded, match="exceed max_states=1$"):
                bracket(d, engine=engine, cap=1)
            assert ("bracket", engine, 1) not in d._memo
        assert not calls

    def test_no_engine_changes_the_memoized_order(self, corpus_diagrams):
        # all three engines and a tripped sweep read the memoized order
        # and open-port counts; none may change them
        for name, width in [("trefoil-left", 3), ("figure-eight", 2)]:
            d = cable(corpus_diagrams[name], width)
            for engine in ENGINES:
                bracket(d, engine=engine)
            with pytest.raises(CapExceeded):
                bracket_fast(d, max_states=3)
            assert d._memo[("order",)] == _sweep_order(d), name
