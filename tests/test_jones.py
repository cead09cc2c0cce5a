"""Cabled bracket sums, the unknot reference family, and reduction.

Frozen polynomials below were computed by the engines, cross-checked
against the literal state-sum oracle at the bracket level, and for the
width-1 and width-2 trefoil and figure-eight quotients checked against
the classically known values.  The width-2 left trefoil quotient is
the familiar 3-colored value with descending powers
q^-2 + q^-5 - q^-7 + q^-8 - q^-9 - q^-10 + q^-11.  Past width 2 the
trefoils and the figure-eight are held to the closed forms of Masbaum
and Habiro in ``oracles``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kauffman import jones
from kauffman.bracket import DELTA, bracket
from kauffman.diagram import LinkDiagram, cable, mirror, parse_pd, writhe
from kauffman.jones import chebyshev, reduced, unknot_reference, unreduced
from kauffman.laurent import LaurentPoly, NotDivisibleByFourError

from conftest import power
from oracles import habiro_figure_eight, masbaum_trefoil


def chebyshev_value(n, x):
    """``S_n(x)`` summed from the expansion's coefficients."""
    acc = LaurentPoly()
    for m, c in chebyshev(n).items():
        acc = acc + LaurentPoly({0: c}) * power(x, m)
    return acc


class TestChebyshev:
    FROZEN = {
        0: ((0, 1),),
        1: ((1, 1),),
        2: ((0, -1), (2, 1)),
        3: ((1, -2), (3, 1)),
        4: ((0, 1), (2, -3), (4, 1)),
        5: ((1, 3), (3, -4), (5, 1)),
    }

    @pytest.mark.parametrize("n", sorted(FROZEN))
    def test_frozen_coefficients(self, n):
        assert tuple(chebyshev(n).items()) == self.FROZEN[n]

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            chebyshev(-1)

    def test_parity(self):
        # S_n only has powers of n's parity
        for n in range(8):
            assert all((m - n) % 2 == 0 for m in chebyshev(n))

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=7),
        exps=st.dictionaries(
            st.integers(min_value=-4, max_value=4),
            st.integers(min_value=-5, max_value=5),
            max_size=3,
        ),
    )
    def test_recurrence(self, n, exps):
        x = LaurentPoly(exps)
        lhs = chebyshev_value(n + 1, x)
        rhs = x * chebyshev_value(n, x) - chebyshev_value(n - 1, x)
        assert lhs == rhs

    def test_value_matches_evaluate(self):
        # the expansion's coefficients, summed at x, against S_n(x)
        # evaluated by running the recurrence at x itself
        x = LaurentPoly({1: 2, -1: 1})
        prev, cur = LaurentPoly({0: 1}), x
        assert chebyshev_value(0, x) == prev
        for n in range(1, 6):
            assert chebyshev_value(n, x) == cur
            prev, cur = cur, x * cur - prev


class TestUnknotReference:
    def test_width_one_is_delta(self):
        assert unknot_reference(1) == DELTA

    @pytest.mark.parametrize("n", range(7))
    def test_matches_chebyshev_of_delta(self, n):
        sign = LaurentPoly({0: (-1) ** (n - 1)})
        assert unknot_reference(n) == sign * chebyshev_value(n, DELTA)

    def test_explicit_support(self):
        # -(A^(2n) + A^(2n-4) + ... + A^(-2n))
        assert unknot_reference(2) == LaurentPoly({4: -1, 0: -1, -4: -1})
        assert unknot_reference(3) == LaurentPoly(
            {6: -1, 2: -1, -2: -1, -6: -1}
        )

    def test_negative_width_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            unknot_reference(-1)


class TestCabledBracket:
    """The counted Chebyshev sum of cable brackets, seen through
    :func:`unreduced`, which only multiplies it by the writhe
    correction ``(-1)**(n*w + n - 1) * A**(-w*(n*n + 2*n))``."""

    def test_width_zero_is_one(self, corpus_diagrams):
        # the width-0 sum is the constant 1; its correction is -1
        for d in corpus_diagrams.values():
            assert unreduced(d, 0) == LaurentPoly({0: -1})

    def test_width_one_is_plain_bracket(self, corpus_diagrams):
        for name, d in corpus_diagrams.items():
            w = writhe(d)
            expected = LaurentPoly({-3 * w: (-1) ** w}) * bracket(d)
            assert unreduced(d, 1) == expected, name

    def test_negative_width_rejected(self, corpus_diagrams):
        with pytest.raises(ValueError, match="nonnegative"):
            unreduced(corpus_diagrams["kink-positive"], -1)

    def test_family_reuse_changes_nothing(self, corpus_diagrams):
        # the cable family lives in the diagram's memo: a diagram that
        # already holds its cables and brackets gives the values that
        # fresh parses of the same code compute from scratch
        d = corpus_diagrams["trefoil-left"]
        unreduced(d, 2)
        assert bracket(cable(d, 2)) is bracket(cable(d, 2))

        def fresh():
            return parse_pd("X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]")

        assert bracket(cable(d, 2)) == bracket(cable(fresh(), 2))
        assert unreduced(d, 2) == unreduced(fresh(), 2)
        assert reduced(d, 2) == reduced(fresh(), 2)

    def test_no_engine_parameter(self, corpus_diagrams):
        # the engine is chosen only by ``bracket``; the cap is the one
        # resource knob the colored values pass through
        d = corpus_diagrams["trefoil-left"]
        for fn in (unreduced, reduced):
            with pytest.raises(TypeError):
                fn(d, 2, engine="statesum")
            with pytest.raises(TypeError):
                fn(d, 2, max_states=5)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_one_pass_sum_is_the_ring_sum(self, corpus_diagrams, n):
        # unreduced adds the cable brackets and applies the writhe
        # correction term by term in one dict, and reduced multiplies
        # that sum by delta once; the polynomial ring operations give
        # the same values, reduced's on the knots, where it divides
        for name, d in corpus_diagrams.items():
            total = scaled = LaurentPoly()
            one = LaurentPoly({0: 1})
            for m, c in chebyshev(n).items():
                value = bracket(cable(d, m)) if m else one
                k = LaurentPoly({0: c})
                total = total + k * value
                scaled = scaled + k * (DELTA * value if m else one)
            w = writhe(d)
            correction = LaurentPoly(
                {-w * (n * n + 2 * n): (-1) ** (n * w + n - 1)})
            assert unreduced(d, n) == correction * total, name
            if len(d.components) == 1:
                expected = (correction * scaled).exact_div(
                    unknot_reference(n))
                assert reduced(d, n) == expected, name

    @pytest.mark.parametrize("n,widths", [(3, [1, 3]), (4, [2, 4])])
    def test_brackets_only_the_widths_of_s_n(self, monkeypatch, n, widths):
        # S_n has only powers of n's parity; the other widths would be
        # bracketed only to be multiplied by zero
        swept = []

        def spy(diagram, **kwargs):
            swept.append(diagram.crossing_count)
            return bracket(diagram, **kwargs)

        monkeypatch.setattr(jones, "bracket", spy)
        unreduced(parse_pd("X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]"), n)
        assert swept == [3 * m * m for m in widths]


FROZEN_UNREDUCED = {
    ("trefoil-left", 2): {46: 1, 42: -1, 34: -1, 24: 1, 22: 1, 14: 1, 6: 1},
    ("loopy-unknot", 2): {2: 1, -6: 1, -8: 1},
    ("loopy-unknot", 3): {4: 1, -4: 1},
    ("unknot-0", 3): {4: 1, -4: 1},
    ("figure-eight", 2): {26: 1, 22: -1, 2: 1, 0: 1, -2: 1, -22: -1, -26: 1},
}


class TestUnreduced:
    @pytest.mark.parametrize("key", sorted(FROZEN_UNREDUCED))
    def test_frozen_values(self, corpus_diagrams, key):
        name, n = key
        assert unreduced(corpus_diagrams[name], n) == LaurentPoly(
            FROZEN_UNREDUCED[key]
        )

    def test_mirror_duality(self, corpus_diagrams):
        for name in ("kink-positive", "trefoil-left", "loopy-unknot", "hopf-positive"):
            d = corpus_diagrams[name]
            for n in (1, 2):
                assert unreduced(mirror(d), n) == unreduced(d, n).invert_variable()


class TestReduced:
    def test_unknot_is_always_one(self, corpus_diagrams):
        d = corpus_diagrams["unknot-0"]
        for n in range(5):
            r = reduced(d, n)
            assert r == LaurentPoly({0: 1})
            assert r.to_q() == LaurentPoly({0: 1})

    @pytest.mark.parametrize("name", ["kink-positive", "kink-negative"])
    @pytest.mark.parametrize("n", [1, 2])
    def test_kink_invariance(self, corpus_diagrams, name, n):
        # adding a kink must not change the quotient
        assert reduced(corpus_diagrams[name], n) == LaurentPoly({0: 1})

    def test_loopy_unknot_reduces_to_one(self, corpus_diagrams):
        for n in (2, 3):
            r = reduced(corpus_diagrams["loopy-unknot"], n)
            assert r == LaurentPoly({0: 1})

    def test_left_trefoil_width_one(self, corpus_diagrams):
        q = reduced(corpus_diagrams["trefoil-left"], 1).to_q()
        assert q == LaurentPoly({-1: 1, -3: 1, -4: -1})
        assert q.to_text(var="q") == "q^-1 + q^-3 - q^-4"

    def test_right_trefoil_width_one(self, corpus_diagrams):
        r = reduced(corpus_diagrams["trefoil-right"], 1)
        assert r.to_q() == LaurentPoly({1: 1, 3: 1, 4: -1})

    def test_left_trefoil_width_two(self, corpus_diagrams):
        r = reduced(corpus_diagrams["trefoil-left"], 2)
        assert r.to_q() == LaurentPoly(
            {-2: 1, -5: 1, -7: -1, -8: 1, -9: -1, -10: -1, -11: 1}
        )

    def test_trefoil_width_two_mirrors(self, corpus_diagrams):
        lh = reduced(corpus_diagrams["trefoil-left"], 2)
        rh = reduced(corpus_diagrams["trefoil-right"], 2)
        assert rh == lh.invert_variable()

    def test_figure_eight_width_two_is_palindromic(self, corpus_diagrams):
        q = reduced(corpus_diagrams["figure-eight"], 2).to_q()
        assert q == LaurentPoly(
            {
                6: 1, 5: -1, 4: -1, 3: 2, 2: -1, 1: -1, 0: 3,
                -1: -1, -2: -1, -3: 2, -4: -1, -5: -1, -6: 1,
            }
        )
        assert q == q.invert_variable()

    def test_hopf_width_one_stays_in_bracket_variable(self, corpus_diagrams):
        r = reduced(corpus_diagrams["hopf-positive"], 1)
        with pytest.raises(NotDivisibleByFourError):
            r.to_q()
        assert r == LaurentPoly({-2: -1, -10: -1})
        assert r.to_text() == "-A^-2 - A^-10"

    def test_hopf_width_two_lands_in_q(self, corpus_diagrams):
        r = reduced(corpus_diagrams["hopf-positive"], 2)
        assert r.to_q() == LaurentPoly({7: 1, 4: 3, 1: 1})

    def test_empty_diagram_rejected(self):
        with pytest.raises(ValueError, match="no component to reduce along"):
            reduced(LinkDiagram.crossingless(0), 1)

    def test_result_type(self, corpus_diagrams):
        # the quotient is a plain polynomial in A; the caller picks q
        r = reduced(corpus_diagrams["trefoil-left"], 1)
        assert isinstance(r, LaurentPoly)


class TestClosedForms:
    """Reduced values against cyclotomic closed forms, which share no
    code with the cables: Masbaum's for the trefoils, Habiro's for the
    figure-eight."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize(
        "name,sign", [("trefoil-left", -1), ("trefoil-right", 1)]
    )
    def test_trefoils(self, corpus_diagrams, name, sign, n):
        r = reduced(corpus_diagrams[name], n)
        assert r.to_q() == LaurentPoly(masbaum_trefoil(n, sign))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_figure_eight(self, corpus_diagrams, n):
        r = reduced(corpus_diagrams["figure-eight"], n)
        assert r.to_q() == LaurentPoly(habiro_figure_eight(n))


LINK_WIDTH_DEFECT = pytest.mark.xfail(
    strict=True,
    reason="every component is cabled at the same width, so the "
    "mixed-width terms of the product of S_n(x_i) are missing",
)


class TestLinkColoredJones:
    """Known defect, pinned: links are cabled at one width throughout.

    The reduced width-n value of the Hopf link is, up to units,
    ``[(n+1)**2] / [n+1]``: n+1 terms whose coefficients are all 1 or
    all -1, spaced 4(n+1) apart in A.  The cabled evaluation matches at
    width 1 only; at width 2 it gives ``q^7 + 3*q^4 + q``.
    """

    @pytest.mark.parametrize("n", [
        1,
        pytest.param(2, marks=LINK_WIDTH_DEFECT),
        pytest.param(3, marks=LINK_WIDTH_DEFECT),
    ])
    def test_hopf_matches_closed_form(self, corpus_diagrams, n):
        value = reduced(corpus_diagrams["hopf-positive"], n)
        exponents = sorted(e for e, _ in value.terms())
        assert len(exponents) == n + 1
        assert {c for _, c in value.terms()} in ({1}, {-1})
        gaps = {b - a for a, b in zip(exponents, exponents[1:])}
        assert gaps == {4 * (n + 1)}
