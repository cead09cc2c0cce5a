"""Exact integer Laurent polynomial arithmetic."""

import pytest
from hypothesis import given, strategies as st

from kauffman.laurent import (
    InexactDivisionError,
    LaurentPoly,
    NotDivisibleByFourError,
)

polys = st.dictionaries(
    st.integers(min_value=-12, max_value=12),
    st.integers(min_value=-9, max_value=9),
    max_size=6,
).map(LaurentPoly)

nonzero_polys = polys.filter(bool)

class TestConstruction:
    def test_zero_drops_terms(self):
        assert LaurentPoly({3: 0, 1: 2}) == LaurentPoly({1: 2})
        assert not LaurentPoly({3: 0})

    def test_no_zero_term_is_stored(self):
        # the constructor drops zero coefficients, and every operation
        # builds its result through it
        p = LaurentPoly({3: 2, -1: -5})
        assert len(p + (-p)) == 0
        a, one = LaurentPoly({1: 1}), LaurentPoly({0: 1})
        assert len((a + one) * (a - one)) == 2
        assert len(LaurentPoly({4: 0, 0: 1})) == 1
        # digits 3, 0, 0, -2, 0, 1 in balanced base 16, the -2 borrowing
        # from the zero above it
        packed = 3 - (2 << 12) + (1 << 20)
        q = LaurentPoly.from_digits(packed, 4, -6, 2)
        assert q == LaurentPoly({-6: 3, 0: -2, 4: 1}) and len(q) == 3

    def test_immutable(self):
        p = LaurentPoly({1: 1})
        with pytest.raises(AttributeError):
            p._terms = {}
        assert p == LaurentPoly({1: 1})

    def test_constructors(self):
        assert not LaurentPoly()

    @given(polys, st.sampled_from([1, -1]))
    def test_from_digits_reads_balanced_digits(self, a, step):
        # coefficients -9..9 are balanced 5-bit digits; a negative one
        # borrows from the slot above it, and slots run either way
        start = -12 * step
        packed = sum(k << 5 * ((e - start) * step) for e, k in a.terms())
        assert LaurentPoly.from_digits(packed, 5, start, step) == a

    def test_equality_and_hash(self):
        a = LaurentPoly({2: 1, -2: 1})
        b = LaurentPoly({-2: 1, 2: 1})
        assert a == b and hash(a) == hash(b)
        assert a != LaurentPoly({2: 1})
        # constants compare by coefficient, and equal ones hash alike
        three, again = LaurentPoly({0: 3}), LaurentPoly({0: 3})
        assert three == again and hash(three) == hash(again)
        assert three != LaurentPoly({0: -3})
        assert LaurentPoly() == LaurentPoly({0: 0})
        assert hash(LaurentPoly()) == hash(LaurentPoly({0: 0}))
        assert len({LaurentPoly({0: 1}), LaurentPoly({0: 1})}) == 1
        assert LaurentPoly({0: 1}) in {LaurentPoly({0: 1})}
        assert LaurentPoly({1: 1}) != LaurentPoly({0: 1})
        # operands are polynomials: no integer equals one
        assert LaurentPoly({0: 1}) != 1 and LaurentPoly() != 0


class TestDegrees:
    def test_degrees(self):
        p = LaurentPoly({5: 2, -3: -1})
        assert p.max_degree() == 5
        assert p.min_degree() == -3
        assert p.coeff(5) == 2 and p.coeff(0) == 0

    def test_zero_has_no_degree(self):
        with pytest.raises(ValueError, match="zero polynomial"):
            LaurentPoly().max_degree()
        with pytest.raises(ValueError, match="zero polynomial"):
            LaurentPoly().min_degree()

    def test_terms_highest_first(self):
        p = LaurentPoly({-1: 3, 4: 1, 2: -2})
        assert list(p.terms()) == [(4, 1), (2, -2), (-1, 3)]


class TestRingAxioms:
    @given(polys, polys, polys)
    def test_addition_associative_commutative(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a

    @given(polys)
    def test_additive_identity_and_inverse(self, a):
        zero = LaurentPoly()
        assert a + zero == a
        assert a - a == zero

    @given(polys, polys, polys)
    def test_multiplication(self, a, b, c):
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(polys)
    def test_multiplicative_identity(self, a):
        assert a * LaurentPoly({0: 1}) == a

    @given(polys)
    def test_invert_variable_involution(self, a):
        assert a.invert_variable().invert_variable() == a

    @given(polys, polys)
    def test_invert_variable_is_ring_map(self, a, b):
        assert (a * b).invert_variable() == (
            a.invert_variable() * b.invert_variable()
        )

    @pytest.mark.parametrize("op", [
        lambda p: p + 1,
        lambda p: p - 1,
        lambda p: p * 2,
        lambda p: 2 * p,
    ], ids=["add", "sub", "mul", "rmul"])
    def test_integer_operand_is_a_type_error(self, op):
        # operands are polynomials: an integer is refused by Python's
        # own operator protocol, not read as a polynomial's terms
        with pytest.raises(TypeError, match="unsupported operand"):
            op(LaurentPoly({0: 1}))


class TestExactDivision:
    @given(polys, nonzero_polys)
    def test_product_division_round_trip(self, a, b):
        assert (a * b).exact_div(b) == a

    def test_inexact_division_raises(self):
        p = LaurentPoly({2: 1, 0: 1, -1: 1})
        with pytest.raises(InexactDivisionError):
            p.exact_div(LaurentPoly({1: 1, 0: 1}))

    def test_indivisible_leading_coefficient_raises(self):
        with pytest.raises(InexactDivisionError, match="not divisible by 3"):
            LaurentPoly({1: 2}).exact_div(LaurentPoly({0: 3}))

    def test_inexact_division_terminates(self):
        # 1 / (A + 1) has an infinite formal expansion in descending
        # powers; the divider must refuse it instead of following it
        with pytest.raises(InexactDivisionError):
            LaurentPoly({0: 1}).exact_div(LaurentPoly({1: 1, 0: 1}))
        with pytest.raises(InexactDivisionError):
            LaurentPoly({0: 1, -7: 2}).exact_div(LaurentPoly({2: -1, -2: -1}))

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            LaurentPoly({0: 1}).exact_div(LaurentPoly())


class TestConversions:
    def test_to_q_negates_and_quarters(self):
        p = LaurentPoly({16: -1, 12: 1, 4: 1})
        assert p.to_q() == LaurentPoly({-4: -1, -3: 1, -1: 1})

    def test_to_q_rejects_stray_exponents(self):
        with pytest.raises(NotDivisibleByFourError):
            LaurentPoly({2: 1}).to_q()

    def test_canonical_text(self):
        delta = LaurentPoly({2: -1, -2: -1})
        cube = delta * delta * delta
        assert cube.to_text() == "-A^6 - 3*A^2 - 3*A^-2 - A^-6"
        assert LaurentPoly().to_text() == "0"
        assert LaurentPoly({0: -7}).to_text() == "-7"
        assert LaurentPoly({1: 1}).to_text(var="q") == "q"

    def test_to_json_pairs_descending(self):
        p = LaurentPoly({-2: 5, 6: 1})
        assert p.to_json("q") == {
            "pairs": [[6, 1], [-2, 5]], "text": "q^6 + 5*q^-2"}
