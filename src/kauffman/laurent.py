"""Sparse Laurent polynomials with exact integer coefficients.

A polynomial is stored as a mapping from integer exponents to nonzero
Python integer coefficients, so every operation is exact at any size.
The variable is anonymous; rendering helpers take the variable name as
an argument (``A`` by default, ``q`` after :meth:`LaurentPoly.to_q`).
"""

from __future__ import annotations

from typing import Iterator, Mapping

__all__ = ["InexactDivisionError", "LaurentPoly", "NotDivisibleByFourError"]


class InexactDivisionError(ArithmeticError):
    """Raised when a quotient of Laurent polynomials has a remainder."""


class NotDivisibleByFourError(ArithmeticError):
    """Raised by ``to_q`` when some exponent is not a multiple of four."""


class LaurentPoly:
    """An immutable Laurent polynomial over the integers.

    Internally a dict mapping exponent to coefficient, with zero
    coefficients never stored: the constructor alone drops them, and
    every operation builds its result through it.  (Exact division
    also drops them from its working remainder, whose top term ends
    its loop.)
    Supports ring arithmetic on polynomial operands only (a constant
    ``c`` is ``LaurentPoly({0: c})``), exact division, degree queries
    and canonical text/JSON rendering.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, int] = {}):
        object.__setattr__(
            self, "_terms", {e: c for e, c in terms.items() if c})

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_digits(
        cls, packed: int, bits: int, start: int, step: int
    ) -> "LaurentPoly":
        """The polynomial whose coefficient at ``start + j * step`` is
        digit ``j`` of ``packed`` in balanced base ``2**bits``, digit 0
        lowest.  A polynomial with integer coefficients, evaluated at
        ``2**bits``, decodes back exactly when every coefficient lies
        in ``-2**(bits - 1) .. 2**(bits - 1) - 1``."""
        half = 1 << (bits - 1)
        mask = 2 * half - 1
        terms = {}
        exponent = start
        while packed:
            if digit := ((packed + half) & mask) - half:
                terms[exponent] = digit
                packed -= digit
            packed >>= bits
            exponent += step
        return cls(terms)

    # -- queries ---------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._terms)

    def coeff(self, exponent: int) -> int:
        """Coefficient at the given exponent, zero when absent."""
        return self._terms.get(exponent, 0)

    def max_degree(self) -> int:
        if not self._terms:
            raise ValueError("the zero polynomial has no degree")
        return max(self._terms)

    def min_degree(self) -> int:
        if not self._terms:
            raise ValueError("the zero polynomial has no degree")
        return min(self._terms)

    def terms(self) -> Iterator[tuple[int, int]]:
        """Yield (exponent, coefficient) pairs, highest exponent first."""
        for exponent in sorted(self._terms, reverse=True):
            yield exponent, self._terms[exponent]

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LaurentPoly):
            return self._terms == other._terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    # -- ring arithmetic -------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        terms = dict(self._terms)
        for exponent, coefficient in other._terms.items():
            terms[exponent] = terms.get(exponent, 0) + coefficient
        return LaurentPoly(terms)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self._terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        product: dict[int, int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                exponent = e1 + e2
                product[exponent] = product.get(exponent, 0) + c1 * c2
        return LaurentPoly(product)

    __rmul__ = __mul__  # perfbench/tracer.py wraps it by name

    def invert_variable(self) -> "LaurentPoly":
        """Substitute the variable by its reciprocal (negate exponents)."""
        return LaurentPoly({-e: c for e, c in self._terms.items()})

    def exact_div(self, divisor: "LaurentPoly") -> "LaurentPoly":
        """Divide exactly, raising :class:`InexactDivisionError` on remainder."""
        if not divisor:
            raise ZeroDivisionError("division by the zero polynomial")
        if not self:
            return LaurentPoly()
        remainder = dict(self._terms)
        divisor_top = divisor.max_degree()
        divisor_lead = divisor.coeff(divisor_top)
        # an exact quotient spans exactly the exponent range
        # [min(self) - min(divisor), max(self) - max(divisor)]: its
        # extreme terms multiply the divisor's without cancellation.
        # Descending past that floor proves a remainder, and bounds
        # the loop (Laurent division would otherwise recurse forever
        # on inputs like 1 / (A + 1)).
        lowest_shift = self.min_degree() - divisor.min_degree()
        quotient: dict[int, int] = {}
        while remainder:
            top = max(remainder)
            lead = remainder[top]
            factor, residue = divmod(lead, divisor_lead)
            if residue:
                raise InexactDivisionError(
                    f"leading coefficient {lead} not divisible by {divisor_lead}"
                )
            shift = top - divisor_top
            if shift < lowest_shift:
                raise InexactDivisionError(
                    "division leaves a remainder below the divisor range"
                )
            quotient[shift] = factor
            for exponent, coefficient in divisor._terms.items():
                target = exponent + shift
                merged = remainder.get(target, 0) - factor * coefficient
                if merged:
                    remainder[target] = merged
                else:
                    remainder.pop(target, None)
            if remainder and max(remainder) >= top:
                raise InexactDivisionError("division does not terminate")
        return LaurentPoly(quotient)

    # -- variable change -------------------------------------------------

    def to_q(self) -> "LaurentPoly":
        """Reinterpret a polynomial in A as one in q via q = A**-4.

        Every exponent must be a multiple of four; an A-exponent e becomes
        the q-exponent -e // 4, so maximal A-degree maps to minimal
        q-degree.
        """
        converted: dict[int, int] = {}
        for exponent, coefficient in self._terms.items():
            if exponent % 4:
                raise NotDivisibleByFourError(
                    f"exponent {exponent} is not a multiple of 4"
                )
            converted[-exponent // 4] = coefficient
        return LaurentPoly(converted)

    # -- rendering -------------------------------------------------------

    def to_text(self, var: str = "A") -> str:
        """Canonical text, terms by decreasing exponent.

        Example: ``-A^6 - 3*A^2 - 3*A^-2 - A^-6``.
        """
        if not self._terms:
            return "0"
        pieces: list[str] = []
        for exponent, coefficient in self.terms():
            sign = "-" if coefficient < 0 else "+"
            size = abs(coefficient)
            if exponent == 0:
                body = str(size)
            else:
                power = var if exponent == 1 else f"{var}^{exponent}"
                body = power if size == 1 else f"{size}*{power}"
            if not pieces:
                pieces.append(body if sign == "+" else f"-{body}")
            else:
                pieces.append(f"{sign} {body}")
        return " ".join(pieces)

    def to_json(self, var: str = "A") -> dict:
        """``{"pairs": [[exponent, coefficient], ...], "text": to_text(var)}``
        by decreasing exponent, in every JSON document the package writes."""
        return {"pairs": [[e, c] for e, c in self.terms()],
                "text": self.to_text(var=var)}

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"LaurentPoly({dict(sorted(self._terms.items()))!r})"
