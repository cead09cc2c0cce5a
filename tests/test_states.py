"""Extreme states, their circles and loops, ribbon graphs, and the
face/circle duality.

The load-bearing fact checked here: counting the circles of a state
agrees with counting faces of spanning subgraphs of the extreme-state
ribbon graphs, for every subset, on every bundled diagram.  The all-A
graph is ``RibbonGraph(resolve(d))`` and the all-B graph the all-A
graph of the mirror.  The circles come from the oracle's union-find
over slot ends and the faces from rotation-system face tracing, two
unrelated code paths, so agreement over all 2^e subsets is a strong
cross-check of the dart conventions.
"""

import hashlib

import pytest

from kauffman.diagram import LinkDiagram, cable, mirror
from kauffman.states import RibbonGraph, circles, resolve

from conftest import seeded_closures
from oracles import oracle_circles
from surfaces import component_count, genus


def _choices(mask, crossing_count, flipped):
    """Bit i set means crossing i is resolved the ``flipped`` way."""
    other = "A" if flipped == "B" else "B"
    return [flipped if mask >> i & 1 else other for i in range(crossing_count)]


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
        got = (circles(d, "A")[0], circles(d, "B")[0])
        assert got == self.EXTREMES[name]
        assert len(resolve(d)) == got[0]
        assert len(resolve(mirror(d))) == got[1]

    def test_crossingless_diagrams(self):
        d = LinkDiagram.crossingless(3)
        assert resolve(d) == ((),) * 3
        assert circles(d, "A") == circles(d, "B") == (3, 0)
        empty = LinkDiagram.crossingless(0)
        assert circles(empty, "A") == circles(empty, "B") == (0, 0)

    # ``circles`` against the oracle's union-find: the count on both
    # sides, and loop bit i set exactly when switching crossing i alone
    # adds a circle (a join pair on one circle splits it; on two
    # circles, it merges them)
    def _check(self, d):
        c = d.crossing_count
        for side, other in ("AB", "BA"):
            count, loops = circles(d, side)
            assert count == oracle_circles(d, side * c), (d, side)
            assert loops >> c == 0
            for i in range(c):
                switched = oracle_circles(d, side * i + other + side * (c - i - 1))
                assert (loops >> i & 1) == (switched == count + 1), (d, side, i)
        assert circles(d, "B") == circles(mirror(d), "A")

    def test_matches_oracle_on_corpus(self, corpus_diagrams):
        for d in corpus_diagrams.values():
            self._check(d)
            self._check(mirror(d))

    def test_matches_oracle_on_cables_and_closures(self, corpus_diagrams):
        diagrams = [
            cable(d, width)
            for d in corpus_diagrams.values()
            if d.crossing_count
            for width in (1, 2, 3, 4, 5)
        ] + seeded_closures(11, 40)
        for d in diagrams:
            self._check(d)
            self._check(mirror(d))

    def test_matches_oracle_on_small_pool(self, small_diagrams):
        for d in small_diagrams:
            self._check(d)


class TestResolution:
    def test_resolution_is_consistent(self, corpus_diagrams):
        # every join lies on exactly one circle, in the all-A state and
        # in the all-B state read as the mirror's all-A state
        for d in corpus_diagrams.values():
            for e in (d, mirror(d)):
                joins = sorted(j for order in resolve(e) for j in order)
                assert joins == list(range(2 * d.crossing_count))

    def test_invalid_side_rejected(self, corpus_diagrams):
        for d in (corpus_diagrams["trefoil-left"], LinkDiagram.crossingless(2)):
            for side in ("C", "a", None):
                with pytest.raises(ValueError, match="side must be 'A' or 'B'"):
                    circles(d, side)

    def test_positive_kink_is_never_nested(self, corpus_diagrams):
        d = corpus_diagrams["kink-positive"]
        assert resolve(d) == ((0,), (1,))
        assert resolve(mirror(d)) == ((0, 1),)

    # In the extreme states of a cable the copies of a circle run
    # parallel, so circles nest.  16-hex sha256 of the rotations of the
    # all-A graph of every corpus entry with crossings at width 2, and
    # at width 3 where the cable has at most 36 crossings.
    NESTED = {
        ("kink-positive", 2): "4ad1cfbd0cbe984b",
        ("kink-positive", 3): "a416131da09ea928",
        ("kink-negative", 2): "ecaa9d90aeff657f",
        ("kink-negative", 3): "ac0e4eac50514df7",
        ("double-kink-positive", 2): "8eaf2612a33e6edf",
        ("double-kink-positive", 3): "58c88e119e890e3c",
        ("cancelling-kinks", 2): "2aae15175abf607c",
        ("cancelling-kinks", 3): "cfbac083074ba45d",
        ("hopf-positive", 2): "63aefad1533a1076",
        ("hopf-positive", 3): "74ceb01bf2abc978",
        ("trefoil-left", 2): "f98067019258ce10",
        ("trefoil-left", 3): "7d61958ce06c1a42",
        ("trefoil-right", 2): "9dc50af85b0b898f",
        ("trefoil-right", 3): "e7e80e9dd0761a62",
        ("loopy-unknot", 2): "1d60c947de0c56bc",
        ("loopy-unknot", 3): "e51c423bfe7ee389",
        ("figure-eight", 2): "e677404d08079672",
        ("figure-eight", 3): "6af224180568de31",
        ("overlap-unlink", 2): "c863ca23aae01398",
        ("overlap-unlink", 3): "73c91ff2d7835124",
    }

    def test_frozen_nested_rotations(self, corpus_diagrams):
        covered = {
            (name, n)
            for name, d in corpus_diagrams.items() if d.crossing_count
            for n in (2, 3) if n == 2 or 9 * d.crossing_count <= 36
        }
        assert covered == set(self.NESTED)
        for (name, n), expected in self.NESTED.items():
            c = cable(corpus_diagrams[name], n)
            got = hashlib.sha256(repr(resolve(c)).encode())
            assert got.hexdigest()[:16] == expected, (name, n)


class TestRibbonGraphBasics:
    def test_single_loop(self):
        g = RibbonGraph(((0, 1),))
        assert g.vertex_count == 1
        assert g.edge_count == 1
        assert g.faces(1) == 2
        assert genus(g, 1) == 0

    def test_isolated_vertex(self):
        g = RibbonGraph(((),))
        assert g.vertex_count == 1
        assert g.edge_count == 0
        assert g.faces(0) == 1
        assert component_count(g, 0) == 1
        assert genus(g, 0) == 0

    def test_single_edge(self):
        g = RibbonGraph(((0,), (1,)))
        ends = [v for v, rot in enumerate(g.rotations) if 0 in rot or 1 in rot]
        assert ends == [0, 1]
        assert g.faces(1) == 1
        assert component_count(g, 1) == 1
        assert component_count(g, 0) == 2

    def test_dart_coverage_enforced(self):
        with pytest.raises(ValueError, match="exactly once"):
            RibbonGraph(((0, 2),))
        with pytest.raises(ValueError, match="odd number of darts"):
            RibbonGraph(((0, 1, 2),))

    def test_immutable(self):
        g = RibbonGraph(((0, 1),))
        with pytest.raises(AttributeError, match="immutable"):
            g.rotations = ()


class TestGenusFixtures:
    """Rotation order alone decides the genus; these four pin it down."""

    def test_interleaved_loops_give_torus(self):
        g = RibbonGraph(((0, 2, 1, 3),))
        assert genus(g, 0b11) == 1
        assert g.faces(0b11) == 1

    def test_nested_loops_stay_planar(self):
        g = RibbonGraph(((0, 1, 3, 2),))
        assert genus(g, 0b11) == 0
        assert g.faces(0b11) == 3

    def test_theta_on_torus(self):
        g = RibbonGraph(((0, 2, 4), (1, 3, 5)))
        assert genus(g, 0b111) == 1
        assert g.faces(0b111) == 1

    def test_theta_in_plane(self):
        g = RibbonGraph(((0, 2, 4), (5, 3, 1)))
        assert genus(g, 0b111) == 0
        assert g.faces(0b111) == 3

    def test_genus_never_increases_under_deletion(self, corpus_diagrams):
        for name in ("trefoil-left", "loopy-unknot", "figure-eight"):
            d = corpus_diagrams[name]
            g = RibbonGraph(resolve(d))
            for mask in range(1 << g.edge_count):
                for e in range(g.edge_count):
                    if mask & (1 << e):
                        assert genus(g, mask & ~(1 << e)) <= genus(g, mask)


class TestDuality:
    """faces(subset of one state graph) == circles of the state that
    flips that subset; the all-B graph is the mirror's all-A graph."""

    def _check(self, d):
        c = d.crossing_count
        g_a = RibbonGraph(resolve(d))
        g_b = RibbonGraph(resolve(mirror(d)))
        for mask in range(1 << c):
            assert g_a.faces(mask) == oracle_circles(d, _choices(mask, c, "B"))
            assert g_b.faces(mask) == oracle_circles(d, _choices(mask, c, "A"))

    def test_duality_on_corpus(self, corpus_diagrams):
        # the crossingless unknot included: one face, one circle
        for d in corpus_diagrams.values():
            if not d.is_empty:
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
                yield RibbonGraph(resolve(d))
                yield RibbonGraph(resolve(mirror(d)))

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
                assert g.vertex_count >= component_count(g, mask) >= 1

    def test_euler_formula(self, corpus_diagrams):
        # v - e + f = 2k - 2g on every spanning subgraph, with the
        # genus read off the chord diagrams, not the face count
        for g in self._graphs(corpus_diagrams):
            for mask in range(1 << g.edge_count):
                e = bin(mask).count("1")
                lhs = g.vertex_count - e + g.faces(mask)
                assert lhs == 2 * component_count(g, mask) - 2 * genus(g, mask)


class TestSubgraphHelpers:
    def test_loopy_unknot_loop_structure(self, corpus_diagrams):
        d = corpus_diagrams["loopy-unknot"]
        g = RibbonGraph(resolve(d))
        assert g.vertex_count == 1
        assert g.edge_count == 3
        assert circles(d, "A") == (1, 0b111)
        assert genus(g, 0b111) == 1  # two of the three loops interleave
        assert genus(g, circles(d, "A")[1]) == 1

    def test_left_trefoil_has_no_loops(self, corpus_diagrams):
        d = corpus_diagrams["trefoil-left"]
        g = RibbonGraph(resolve(d))
        assert circles(d, "A") == (g.vertex_count, 0)
        assert g.faces(0) == g.vertex_count
