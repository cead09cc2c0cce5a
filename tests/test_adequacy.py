"""The adequacy battery: loop tests, degree ceilings, cable vanishing.

The interesting entries are loopy-unknot and overlap-unlink: both keep
a nonzero top coefficient at width 1 even though their all-A graphs
have loops, because interleaved loops block the usual cancellation.
Cabling untangles the interleaving, so from width 2 the top
coefficient dies, and from width 3 the next one down dies too.  The
reports pin that whole story numerically.
"""

import json

import pytest

from kauffman import adequacy
from kauffman.adequacy import (
    AdequacyReport,
    InvariantViolation,
    analyze,
    cable_top_coeffs,
    degree_ceilings,
    feasible_width,
    h_ceiling,
    is_a_adequate,
    is_b_adequate,
)
from kauffman.corpus import bundled
from kauffman.diagram import LinkDiagram, cable, mirror, parse_pd
from kauffman.jones import unreduced
from kauffman.laurent import LaurentPoly
from kauffman.states import circles

from conftest import seeded_closures


@pytest.fixture(scope="session")
def reports(corpus_diagrams):
    return {
        name: analyze(d, name=name) for name, d in corpus_diagrams.items()
    }


class TestAdequacyFlags:
    def test_corpus_labels(self):
        for entry in bundled():
            d = parse_pd(entry.pd)
            assert is_a_adequate(d) == entry.a_adequate, entry.name
            assert is_b_adequate(d) == entry.b_adequate, entry.name

    def test_state_graph_sides(self, corpus_diagrams):
        # the battery reads each extreme state's memoized circles and
        # loops, computed once per diagram object and side
        d = corpus_diagrams["trefoil-left"]
        for side in "AB":
            assert circles(d, side) is circles(d, side)
        assert circles(d, "A") == (3, 0)
        assert circles(d, "B") == (2, 0)

    def test_width_one_cable_shares_the_state_graphs(self, corpus_diagrams):
        for d in corpus_diagrams.values():
            for side in "AB":
                assert circles(cable(d, 1), side) is circles(d, side)

    def test_state_graph_bad_side(self, corpus_diagrams):
        with pytest.raises(ValueError, match="side must be 'A' or 'B'"):
            circles(corpus_diagrams["trefoil-left"], "C")

    def test_mirror_swaps_the_two_adequacies(self, corpus_diagrams):
        for d in corpus_diagrams.values():
            assert is_b_adequate(d) == is_a_adequate(mirror(d))


class TestCeilings:
    FROZEN_BOUNDS = {
        "empty": (0, 0),
        "unknot-0": (0, 0),
        "kink-positive": (3, -1),
        "kink-negative": (1, -3),
        "double-kink-positive": (6, -2),
        "cancelling-kinks": (4, -4),
        "hopf-positive": (4, -4),
        "trefoil-left": (7, -5),
        "trefoil-right": (5, -7),
        "loopy-unknot": (3, -5),
        "figure-eight": (8, -8),
        "overlap-unlink": (2, -2),
    }

    @pytest.mark.parametrize("name", sorted(FROZEN_BOUNDS))
    def test_frozen_degree_bounds(self, corpus_diagrams, name):
        assert degree_ceilings(corpus_diagrams[name]) == self.FROZEN_BOUNDS[name]

    def test_unknot_ceiling_closed_form(self, corpus_diagrams):
        d = corpus_diagrams["unknot-0"]
        for n in range(1, 6):
            assert h_ceiling(d, n) == 2 * n - 2

    def test_left_trefoil_ceiling_closed_form(self, corpus_diagrams):
        d = corpus_diagrams["trefoil-left"]
        for n in range(1, 5):
            assert h_ceiling(d, n) == 6 * n * n + 12 * n - 2

    def test_mirror_ceiling_relation(self, corpus_diagrams):
        # the mirror's ceiling, negated, floors the minimal exponent
        for name, d in corpus_diagrams.items():
            if d.is_empty:
                continue
            for n in (1, 2):
                floor = -h_ceiling(mirror(d), n)
                assert unreduced(d, n).min_degree() >= floor, (name, n)

    def test_feasible_width_policy(self, corpus_diagrams):
        assert feasible_width(corpus_diagrams["trefoil-left"]) == 3
        assert feasible_width(corpus_diagrams["figure-eight"]) == 2
        assert feasible_width(corpus_diagrams["unknot-0"]) == 3

    def test_feasible_width_from_seven_crossings(self):
        for d in seeded_closures(41, 6, [6, 7, 9]):
            expected = 2 if d.crossing_count == 6 else 1
            assert feasible_width(d) == expected, d


class TestCableTopCoeffs:
    def test_loopy_unknot(self, corpus_diagrams):
        tops, nexts = cable_top_coeffs(corpus_diagrams["loopy-unknot"], 3)
        assert tops == {1: -1, 2: 0, 3: 0}
        assert nexts[2] == -1
        assert nexts[3] == 0

    def test_left_trefoil(self, corpus_diagrams):
        tops, nexts = cable_top_coeffs(corpus_diagrams["trefoil-left"], 3)
        assert tops == {1: 1, 2: -1, 3: 1}
        assert nexts == {1: -1, 2: 1, 3: -1}


SURVIVES = "own top coefficient survives despite loops"


class TestVanishingChecks:
    def test_loopy_unknot_deep_vanishing(self, corpus_diagrams):
        r = analyze(corpus_diagrams["loopy-unknot"], n_max=3)
        assert {m: r.cable_top[m] for m in (2, 3)} == {2: 0, 3: 0}
        assert r.cable_next[3] == 0
        assert any(SURVIVES in note for note in r.notes)

    def test_adequate_diagram_has_no_deep_case(self, corpus_diagrams):
        r = analyze(corpus_diagrams["trefoil-left"], n_max=3)
        assert all(r.cable_top[m] != 0 for m in (2, 3))
        assert not any(SURVIVES in note for note in r.notes)

    def test_plain_inadequate_diagram(self, corpus_diagrams):
        # kink-negative loses its top coefficient already at width 1,
        # so the deep branch never engages
        r = analyze(corpus_diagrams["kink-negative"], n_max=2)
        assert r.cable_top == {1: 0, 2: 0}
        assert not any(SURVIVES in note for note in r.notes)


class TestDegreeEquality:
    @pytest.mark.parametrize(
        "name",
        [
            "kink-positive",
            "kink-negative",
            "hopf-positive",
            "trefoil-left",
            "loopy-unknot",
            "overlap-unlink",
        ],
    )
    def test_both_sides_agree(self, corpus_diagrams, name):
        d = corpus_diagrams[name]
        equal = unreduced(d, 2).max_degree() == h_ceiling(d, 2)
        assert equal == is_a_adequate(d)


class TestTInvariant:
    def test_left_trefoil(self, corpus_diagrams):
        r = analyze(corpus_diagrams["trefoil-left"], n_max=3)
        assert (r.t_width, r.alpha_beta[3]) == (3, (1, 1))
        assert r.t_poly == LaurentPoly({0: 1, 1: 1})

    def test_positive_kink(self, corpus_diagrams):
        r = analyze(corpus_diagrams["kink-positive"], n_max=3)
        assert r.alpha_beta[3] == (1, 0)
        assert r.t_poly == LaurentPoly({0: 1})

    def test_loopy_unknot_vanishes(self, corpus_diagrams):
        r = analyze(corpus_diagrams["loopy-unknot"], n_max=3)
        assert r.alpha_beta[3] == (0, 0)
        assert r.t_poly == LaurentPoly()


class TestBetaPrefix:
    def test_frozen_values(self, corpus_diagrams):
        def series(name):
            return analyze(corpus_diagrams[name], n_max=3, series=2).beta_series

        assert series("trefoil-left") == (1, 1)
        assert series("loopy-unknot") == (0, 0)
        assert series("kink-positive") == (1, 0)

    def test_first_entry_detects_adequacy(self, corpus_diagrams):
        for name, d in corpus_diagrams.items():
            if d.is_empty:
                continue
            first = analyze(d, n_max=2).beta_series[0]
            if is_a_adequate(d):
                assert first in (-1, 1), name
            else:
                assert first == 0, name


class TestDerivedFields:
    """Each field that ``analyze`` derives from the cable data, checked
    against its definition on every corpus and small-pool diagram."""

    @pytest.mark.parametrize("n_max", [3, 4])
    def test_fields_match_their_definitions(
        self, corpus_diagrams, small_diagrams, n_max
    ):
        diagrams = [d for d in corpus_diagrams.values() if not d.is_empty]
        for d in diagrams + list(small_diagrams):
            tops, nexts = cable_top_coeffs(d, n_max)
            alpha, beta = abs(tops[1] * tops[3]), abs(tops[1] * nexts[3])
            deep = not is_a_adequate(d) and tops[1] != 0
            for series in range(1, n_max):
                r = analyze(d, n_max=n_max, series=series)
                assert r.t_poly == LaurentPoly({0: alpha, 1: beta}), d
                assert r.beta_series == tuple(
                    unreduced(d, i + 1).coeff(h_ceiling(d, i + 1) - 4 * (i - 1))
                    for i in range(1, series + 1)
                ), d
                assert any(SURVIVES in note for note in r.notes) == deep, d

    def test_reads_cable_data_once(self, corpus_diagrams, monkeypatch):
        calls = []

        def counting(real):
            def wrapper(diagram, n, **kwargs):
                calls.append((real.__name__, n))
                return real(diagram, n, **kwargs)

            return wrapper

        for name in ("cable_top_coeffs", "unreduced"):
            monkeypatch.setattr(
                adequacy, name, counting(getattr(adequacy, name))
            )
        analyze(corpus_diagrams["trefoil-left"], n_max=3, series=2)
        assert calls == [
            ("cable_top_coeffs", 4),
            ("unreduced", 1),
            ("unreduced", 2),
            ("unreduced", 3),
        ]


class TestNamedChecks:
    """Corrupted cable data makes ``analyze`` raise the named check."""

    def _raises(self, diagram, check):
        with pytest.raises(InvariantViolation) as err:
            analyze(diagram, n_max=3)
        assert err.value.check == check

    def test_adequacy_consistency(self, corpus_diagrams, monkeypatch):
        real = cable_top_coeffs

        def no_tops(diagram, n_max, cap=None):
            tops, nexts = real(diagram, n_max, cap=cap)
            return {m: 0 for m in tops}, nexts

        monkeypatch.setattr(adequacy, "cable_top_coeffs", no_tops)
        self._raises(corpus_diagrams["trefoil-left"], "adequacy-consistency")

    def test_deep_vanishing(self, corpus_diagrams, monkeypatch):
        real = cable_top_coeffs

        def surviving_next(diagram, n_max, cap=None):
            tops, nexts = real(diagram, n_max, cap=cap)
            return tops, {**nexts, 3: 1}

        monkeypatch.setattr(adequacy, "cable_top_coeffs", surviving_next)
        self._raises(corpus_diagrams["loopy-unknot"], "deep-vanishing")

    def test_mirror_adequacy(self, corpus_diagrams, monkeypatch):
        # a "mirror" that is the diagram itself: the positive kink's
        # all-B graph has a loop and its all-A graph none
        monkeypatch.setattr(adequacy, "mirror", lambda diagram: diagram)
        self._raises(corpus_diagrams["kink-positive"], "mirror-adequacy")

    def test_bracket_degree_window(self, corpus_diagrams, monkeypatch):
        monkeypatch.setattr(
            adequacy, "bracket", lambda diagram, **limits: LaurentPoly({99: 1})
        )
        self._raises(corpus_diagrams["trefoil-left"], "bracket-degree-window")

    def test_cable_degree_ceiling(self, corpus_diagrams, monkeypatch):
        real = unreduced

        def over_ceiling(diagram, n, cap=None):
            above = LaurentPoly({h_ceiling(diagram, n) + 4: 1})
            return real(diagram, n, cap=cap) + above

        monkeypatch.setattr(adequacy, "unreduced", over_ceiling)
        self._raises(corpus_diagrams["trefoil-left"], "cable-degree-ceiling")


class TestAnalyzeReports:
    def test_empty(self, reports):
        r = reports["empty"]
        assert r.crossings == 0
        assert r.a_adequate and r.b_adequate
        assert r.t_poly is None
        assert r.stability == "not exercised (empty diagram)"
        assert r.ceilings == {}

    def test_unknot_zero_is_the_degenerate_case(self, reports):
        # the crossingless unknot is the one entry whose detector pair
        # moves with the width: beta grows linearly because every
        # coefficient of its cable bracket is a full binomial
        r = reports["unknot-0"]
        assert r.alpha_beta == {2: (1, 1), 3: (1, 2), 4: (1, 3)}
        assert r.stability == "unstable across widths {3: (1, 2), 4: (1, 3)}"
        assert "detector pair varies with width on this diagram" in r.notes
        assert r.t_poly == LaurentPoly({0: 1, 1: 2})

    def test_positive_kink(self, reports):
        r = reports["kink-positive"]
        assert (r.a_adequate, r.b_adequate) == (True, False)
        assert (r.max_bound, r.min_bound) == (3, -1)
        assert r.complexity == (0, 1, 1)
        assert r.cable_top == {1: -1, 2: -1, 3: -1, 4: -1}
        assert r.t_poly == LaurentPoly({0: 1})
        assert any("fibered" in note for note in r.notes)
        assert r.stability == "exercised: detector pair agrees at widths (3, 4)"

    def test_negative_kink(self, reports):
        r = reports["kink-negative"]
        assert (r.a_adequate, r.b_adequate) == (False, True)
        assert r.ceilings == {1: 4, 2: 14, 3: 28}
        assert r.actual_degree == {1: 0, 2: 8, 3: 4}
        assert r.cable_top == {1: 0, 2: 0, 3: 0, 4: 0}
        assert r.t_poly == LaurentPoly()

    def test_cancelling_kinks(self, reports):
        r = reports["cancelling-kinks"]
        assert (r.a_adequate, r.b_adequate) == (False, False)
        assert r.t_poly == LaurentPoly()
        assert r.beta_series == (0,)

    def test_positive_hopf(self, reports):
        r = reports["hopf-positive"]
        assert r.ceilings == {1: -2, 2: -2, 3: -2}
        assert r.actual_degree == {1: -2, 2: -2, 3: -2}
        assert r.complexity == (0, 2, 0)
        assert r.t_poly == LaurentPoly({0: 1})

    def test_left_trefoil(self, reports):
        r = reports["trefoil-left"]
        assert r.ceilings == {1: 16, 2: 46, 3: 88}
        assert r.actual_degree == {1: 16, 2: 46, 3: 88}
        assert r.complexity == (3, 3, 6)
        assert r.alpha_beta == {2: (1, 1), 3: (1, 1), 4: (1, 1)}
        assert r.t_poly == LaurentPoly({0: 1, 1: 1})
        assert r.beta_series == (1,)

    def test_right_trefoil(self, reports):
        r = reports["trefoil-right"]
        assert r.ceilings == {1: -4, 2: -6, 3: -8}
        assert r.complexity == (0, 3, -1)
        assert r.t_poly == LaurentPoly({0: 1})

    def test_loopy_unknot(self, reports):
        r = reports["loopy-unknot"]
        assert (r.a_adequate, r.b_adequate) == (False, False)
        assert (r.max_bound, r.min_bound) == (3, -5)
        assert r.complexity == (1, 3, 0)
        assert r.ceilings == {1: 0, 2: 6, 3: 16}
        assert r.actual_degree == {1: 0, 2: 2, 3: 4}
        assert r.cable_top == {1: -1, 2: 0, 3: 0, 4: 0}
        assert r.cable_next == {2: -1, 3: 0, 4: 0}
        assert r.alpha_beta == {2: (0, 1), 3: (0, 0), 4: (0, 0)}
        assert r.t_poly == LaurentPoly()
        assert any("survives despite loops" in note for note in r.notes)

    def test_figure_eight(self, reports):
        r = reports["figure-eight"]
        assert r.ceilings == {1: 8, 2: 26}
        assert r.t_width is None
        assert r.t_poly is None
        assert "no width above 2 feasible, detector skipped" in r.notes
        assert r.stability == "not exercised (single feasible width above 2)"
        assert r.alpha_beta == {2: (1, 1)}
        assert r.beta_series == (1,)

    def test_overlap_unlink(self, reports):
        r = reports["overlap-unlink"]
        assert (r.a_adequate, r.b_adequate) == (False, False)
        assert r.ceilings == {1: 2, 2: 10, 3: 22}
        assert r.actual_degree == {1: 2, 2: 6, 3: 10}
        assert r.cable_top == {1: -1, 2: 0, 3: 0, 4: 0}
        assert r.t_poly == LaurentPoly()
        assert any("survives despite loops" in note for note in r.notes)

    def test_stability_only_breaks_on_the_degenerate_entry(self, reports):
        for name, r in reports.items():
            if name in ("empty", "figure-eight", "unknot-0"):
                continue
            assert r.stability.startswith("exercised"), name

    def test_invalid_width_rejected(self, corpus_diagrams):
        with pytest.raises(ValueError, match="need at least width 1"):
            analyze(corpus_diagrams["kink-positive"], n_max=0)

    def test_series_truncation_note(self, corpus_diagrams):
        r = analyze(corpus_diagrams["kink-positive"], n_max=2, series=3)
        assert len(r.beta_series) == 1
        assert any("truncated to 1" in note for note in r.notes)

    def test_longer_series(self, corpus_diagrams):
        r = analyze(corpus_diagrams["trefoil-left"], series=2)
        assert r.beta_series == (1, 1)

    def test_named_report(self, reports):
        assert reports["trefoil-left"].name == "trefoil-left"
        assert isinstance(reports["trefoil-left"], AdequacyReport)


class TestReportJson:
    def test_serializable_and_typed(self, reports):
        for r in reports.values():
            j = r.to_json()
            json.dumps(j)  # must not raise
            assert all(isinstance(k, str) for k in j["ceilings"])
            assert all(isinstance(k, str) for k in j["cable_top"])

    def test_poly_rendering(self, reports):
        j = reports["trefoil-left"].to_json()
        assert j["t_poly"] == {"pairs": [[1, 1], [0, 1]], "text": "q + 1"}
        assert reports["figure-eight"].to_json()["t_poly"] is None


class TestInvariantViolation:
    def test_shape(self):
        err = InvariantViolation("some-check", "what went wrong")
        assert err.check == "some-check"
        assert "what went wrong" in str(err)
        assert isinstance(err, RuntimeError)
