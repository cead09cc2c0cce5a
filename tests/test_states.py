"""States, circle counts, ribbon graphs, and the face/circle duality.

The load-bearing fact checked here: resolving crossing choices and
counting circles agrees with counting faces of spanning subgraphs of
the opposite-state ribbon graph, for every subset, on every bundled
diagram.  Both quantities are computed by unrelated code paths (port
union-find vs rotation-system face tracing), so agreement over all
2^e subsets is a strong cross-check of the dart conventions.
"""

import pytest

from kauffman.diagram import cable
from kauffman.states import (
    KauffmanState,
    RibbonGraph,
    resolve,
    ribbon_graph,
)

from oracles import oracle_circles


def _from_b_mask(mask, crossing_count):
    """Bit i set means crossing i is resolved the B way."""
    return KauffmanState(tuple(
        "B" if mask >> i & 1 else "A" for i in range(crossing_count)
    ))


def _all_states(crossing_count):
    for mask in range(1 << crossing_count):
        yield _from_b_mask(mask, crossing_count)


def circle_count(diagram, state):
    return len(resolve(diagram, state).chord_orders)


class TestKauffmanState:
    def test_mask_round_trip(self):
        s = KauffmanState(("B", "B", "A", "B", "A"))
        assert _from_b_mask(0b1011, 5) == s
        back = sum(1 << i for i, ch in enumerate(s.choices) if ch == "B")
        assert back == 0b1011

    def test_all_A_all_B(self):
        assert KauffmanState.all_A(3).choices == ("A", "A", "A")
        assert KauffmanState.all_B(3) == _from_b_mask(0b111, 3)

    def test_invalid_choice_rejected(self):
        with pytest.raises(ValueError, match="must be 'A' or 'B'"):
            KauffmanState(("A", "C"))

    def test_length_mismatch_rejected(self, corpus_diagrams):
        d = corpus_diagrams["trefoil-left"]
        with pytest.raises(ValueError, match="does not match crossing count"):
            ribbon_graph(d, KauffmanState.all_A(2))
        with pytest.raises(ValueError, match="does not match crossing count"):
            resolve(d, KauffmanState.all_B(4))


class TestCircleCount:
    # vertex counts of the two extreme state graphs, frozen
    EXTREMES = {
        "kink-positive": (2, 1),
        "kink-negative": (1, 2),
        "double-kink-positive": (3, 1),
        "cancelling-kinks": (2, 2),
        "hopf-positive": (2, 2),
        "trefoil-left": (3, 2),
        "trefoil-right": (2, 3),
        "loopy-unknot": (1, 2),
        "figure-eight": (3, 3),
        "overlap-unlink": (1, 1),
    }

    @pytest.mark.parametrize("name", sorted(EXTREMES))
    def test_extreme_states_frozen(self, corpus_diagrams, name):
        d = corpus_diagrams[name]
        c = d.crossing_count
        v_a, v_b = self.EXTREMES[name]
        assert circle_count(d, KauffmanState.all_A(c)) == v_a
        assert circle_count(d, KauffmanState.all_B(c)) == v_b

    def test_crossingless_diagrams(self):
        from kauffman.diagram import LinkDiagram

        d = LinkDiagram.crossingless(3)
        assert circle_count(d, KauffmanState.all_A(0)) == 3

    def test_matches_oracle_on_corpus(self, corpus_diagrams):
        for d in corpus_diagrams.values():
            for s in _all_states(d.crossing_count):
                assert circle_count(d, s) == oracle_circles(d, s.choices)

    def test_matches_oracle_on_small_pool(self, small_diagrams):
        for d in small_diagrams:
            for s in _all_states(d.crossing_count):
                assert circle_count(d, s) == oracle_circles(d, s.choices)


class TestResolution:
    def test_resolution_is_consistent(self, corpus_diagrams):
        # every join lies on exactly one circle
        for d in corpus_diagrams.values():
            for s in _all_states(d.crossing_count):
                r = resolve(d, s)
                joins = sorted(j for order in r.chord_orders for j in order)
                assert joins == list(range(2 * d.crossing_count))

    # each state has a circle nested inside another
    @pytest.mark.parametrize(
        "name, mask, orders",
        [
            ("double-kink-positive", 0b01, ((2, 1, 0), (3,))),
            ("trefoil-left", 0b001, ((3, 1, 4, 0), (5, 2))),
            ("figure-eight", 0b1100, ((0, 6, 2, 4), (1, 3), (7, 5))),
        ],
    )
    def test_frozen_depths(self, corpus_diagrams, name, mask, orders):
        d = corpus_diagrams[name]
        r = resolve(d, _from_b_mask(mask, d.crossing_count))
        assert r.chord_orders == orders

    def test_positive_kink_is_never_nested(self, corpus_diagrams):
        d = corpus_diagrams["kink-positive"]
        assert resolve(d, KauffmanState.all_A(1)).chord_orders == ((0,), (1,))
        assert resolve(d, KauffmanState.all_B(1)).chord_orders == ((1, 0),)


class TestRibbonGraphBasics:
    def test_single_loop(self):
        g = RibbonGraph(((0, 1),))
        assert g.vertex_count == 1
        assert g.edge_count == 1
        assert g.is_loop(0)
        assert g.loop_mask() == 1
        assert g.faces() == 2
        assert g.genus() == 0

    def test_isolated_vertex(self):
        g = RibbonGraph(((),))
        assert g.vertex_count == 1
        assert g.edge_count == 0
        assert g.faces() == 1
        assert g.component_count() == 1
        assert g.genus() == 0

    def test_single_edge(self):
        g = RibbonGraph(((0,), (1,)))
        ends = [v for v, rot in enumerate(g.rotations) if 0 in rot or 1 in rot]
        assert ends == [0, 1]
        assert not g.is_loop(0)
        assert g.faces() == 1
        assert g.component_count() == 1
        assert g.component_count(0) == 2

    def test_dart_coverage_enforced(self):
        with pytest.raises(ValueError, match="exactly once"):
            RibbonGraph(((0, 2),))
        with pytest.raises(ValueError, match="odd number of darts"):
            RibbonGraph(((0, 1, 2),))

    def test_immutable(self):
        g = RibbonGraph(((0, 1),))
        with pytest.raises(AttributeError, match="immutable"):
            g.rotations = ()

    def test_equality_and_hash(self):
        a = RibbonGraph(((0, 1),))
        b = RibbonGraph(((0, 1),))
        assert a == b
        assert hash(a) == hash(b)
        assert a != RibbonGraph(((1, 0),)) or a == RibbonGraph(((1, 0),))


class TestGenusFixtures:
    """Rotation order alone decides the genus; these four pin it down."""

    def test_interleaved_loops_give_torus(self):
        g = RibbonGraph(((0, 2, 1, 3),))
        assert g.genus() == 1
        assert g.faces() == 1

    def test_nested_loops_stay_planar(self):
        g = RibbonGraph(((0, 1, 3, 2),))
        assert g.genus() == 0
        assert g.faces() == 3

    def test_theta_on_torus(self):
        g = RibbonGraph(((0, 2, 4), (1, 3, 5)))
        assert g.genus() == 1
        assert g.faces() == 1

    def test_theta_in_plane(self):
        g = RibbonGraph(((0, 2, 4), (5, 3, 1)))
        assert g.genus() == 0
        assert g.faces() == 3

    def test_genus_never_increases_under_deletion(self, corpus_diagrams):
        for name in ("trefoil-left", "loopy-unknot", "figure-eight"):
            d = corpus_diagrams[name]
            g = ribbon_graph(d, KauffmanState.all_A(d.crossing_count))
            for mask in range(1 << g.edge_count):
                for e in range(g.edge_count):
                    if mask & (1 << e):
                        assert g.genus(mask & ~(1 << e)) <= g.genus(mask)


class TestDuality:
    """faces(subset of one state graph) == circles of the flipped state."""

    def _check(self, d):
        c = d.crossing_count
        full = (1 << c) - 1
        g_a = ribbon_graph(d, KauffmanState.all_A(c))
        g_b = ribbon_graph(d, KauffmanState.all_B(c))
        for mask in range(1 << c):
            circles_b = circle_count(d, _from_b_mask(mask, c))
            assert g_a.faces(mask) == circles_b
            circles_a = circle_count(d, _from_b_mask(full ^ mask, c))
            assert g_b.faces(mask) == circles_a

    def test_duality_on_corpus(self, corpus_diagrams):
        for d in corpus_diagrams.values():
            if d.crossing_count:
                self._check(d)

    def test_duality_on_small_pool(self, small_diagrams):
        for d in small_diagrams:
            self._check(d)

    def test_duality_on_width_two_cables(self, corpus_diagrams):
        # up to 12 crossings, with circles nested two deep
        for d in corpus_diagrams.values():
            if 0 < d.crossing_count <= 3:
                self._check(cable(d, 2))


class TestFaceCombinatorics:
    def _graphs(self, corpus_diagrams):
        for d in corpus_diagrams.values():
            if d.crossing_count:
                yield ribbon_graph(d, KauffmanState.all_A(d.crossing_count))
                yield ribbon_graph(d, KauffmanState.all_B(d.crossing_count))

    def test_single_deletion_moves_faces_by_one(self, corpus_diagrams):
        for g in self._graphs(corpus_diagrams):
            for mask in range(1 << g.edge_count):
                for e in range(g.edge_count):
                    if mask & (1 << e):
                        delta = g.faces(mask) - g.faces(mask & ~(1 << e))
                        assert delta in (-1, 1)

    def test_vertices_bound_components(self, corpus_diagrams):
        for g in self._graphs(corpus_diagrams):
            for mask in range(1 << g.edge_count):
                assert g.vertex_count >= g.component_count(mask)
                assert g.component_count(mask) >= 1

    def test_euler_formula(self, corpus_diagrams):
        # v - e + f = 2k - 2g on every spanning subgraph
        for g in self._graphs(corpus_diagrams):
            for mask in range(1 << g.edge_count):
                e = bin(mask).count("1")
                lhs = g.vertex_count - e + g.faces(mask)
                assert lhs == 2 * g.component_count(mask) - 2 * g.genus(mask)


class TestSubgraphHelpers:
    def test_loopy_unknot_loop_structure(self, corpus_diagrams):
        g = ribbon_graph(corpus_diagrams["loopy-unknot"], KauffmanState.all_A(3))
        assert g.vertex_count == 1
        assert g.edge_count == 3
        assert g.loop_mask() == 0b111
        assert g.genus() == 1  # two of the three loops interleave
        assert g.genus(g.loop_mask()) == 1

    def test_left_trefoil_has_no_loops(self, corpus_diagrams):
        g = ribbon_graph(corpus_diagrams["trefoil-left"], KauffmanState.all_A(3))
        assert g.loop_mask() == 0
        assert g.faces(g.loop_mask()) == g.vertex_count

    def test_loops_only_flag(self):
        g = RibbonGraph(((0, 1, 2), (3,)))
        assert g.loop_mask() == 0b01
        assert g.is_loop(0)
        assert not g.is_loop(1)
