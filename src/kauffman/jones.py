"""Cabled evaluation of colored Jones polynomials.

The width-``n`` invariant of a diagram is assembled from brackets of its
parallel cables: expand the second-kind Chebyshev polynomial ``S_n`` and
replace each power ``x**m`` by the bracket of the width-``m`` cable.
Two bracket conventions appear, and they are not interchangeable:

* the *counted* convention keeps the engine normalisation (a lone
  circle contributes 1) and sends the width-0 term to the constant 1.
  Its writhe-corrected form :func:`unreduced` obeys the sharp quadratic
  degree ceilings that detect adequacy, but adding a kink changes it.
* the *scaled* convention multiplies every positive-width bracket by
  ``delta = -A**2 - A**-2``.  Its writhe-corrected form is unchanged by
  adding a kink, which makes the quotient by the unknot reference value
  a genuine invariant; that quotient is :func:`reduced`.

The cables and their brackets are the expensive part of every value
here.  Both are memoized on the diagram object (see
:func:`kauffman.diagram.cable` and :func:`kauffman.bracket.bracket`), so
asking one diagram for several widths or forms builds each cable and
its bracket once.  Everything here works on the diagram as given: the
``cjones`` command first drops kinks and bigons with
:func:`kauffman.diagram.simplify`, and :func:`reduced` on the given
diagram is the slower reference path its value is tested against.

The writhe correction multiplies by ``(-1)**(n*w + n - 1)`` and by
``A**(-w*(n*n + 2*n))``, where ``w`` is the writhe.  No further fudge
factors: with these signs the width-1 reduced value of the left-handed
trefoil is the classical Jones polynomial ``-q**-4 + q**-3 + q**-1``.
"""

from __future__ import annotations

from math import comb

from .bracket import DELTA, bracket
from .diagram import LinkDiagram, cable, writhe
from .laurent import LaurentPoly

__all__ = [
    "chebyshev",
    "reduced",
    "unknot_reference",
    "unreduced",
]


def chebyshev(n: int) -> dict[int, int]:
    """``{power: coefficient}`` of the Chebyshev polynomial of the
    second kind ``S_n``, in increasing power order; absent powers have
    coefficient zero.  ``S_0 = 1``, ``S_1 = x`` and
    ``S_{k+1} = x*S_k - S_{k-1}`` give the closed form
    ``S_n = sum_k (-1)**k * C(n-k, k) * x**(n-2k)``, so the powers run
    through ``n, n-2, n-4, ...``."""
    if n < 0:
        raise ValueError("Chebyshev index must be nonnegative")
    return {
        n - 2 * k: (-1) ** k * comb(n - k, k) for k in range(n // 2, -1, -1)
    }


def _counted_sum(diagram: LinkDiagram, n: int, cap: int | None,
                 sign: int, shift: int) -> LaurentPoly:
    """Chebyshev combination of cable brackets, counted convention,
    times ``sign * A**shift``, summed term by term into one dict.

    ``S_n`` with each power ``x**m`` (``m >= 1``) replaced by the
    bracket of the width-``m`` cable and the constant term kept.  Only
    the widths that ``S_n`` has (those of ``n``'s parity) are cabled and
    bracketed, each under the resource ``cap`` of
    :func:`kauffman.bracket.bracket`.
    """
    if n < 0:
        raise ValueError("cable width must be nonnegative")
    terms: dict[int, int] = {}
    for m, c in chebyshev(n).items():
        c *= sign
        value = bracket(cable(diagram, m), cap=cap).terms() if m else [(0, 1)]
        for e, k in value:
            terms[e + shift] = terms.get(e + shift, 0) + c * k
    return LaurentPoly(terms)


def _correction(diagram: LinkDiagram, n: int) -> tuple[int, int]:
    w = writhe(diagram)
    sign = -1 if (n * w + n - 1) % 2 else 1
    return sign, -w * (n * n + 2 * n)


def unreduced(
    diagram: LinkDiagram, n: int, *, cap: int | None = None
) -> LaurentPoly:
    """Writhe-corrected counted-convention evaluation.

    Obeys ``max_degree <= h(n)`` for the quadratic ceiling ``h`` of the
    diagram, with equality for every ``n >= 2`` exactly when the all-A
    state graph is loop-free.  Not invariant under kinks; use
    :func:`reduced` for an invariant.
    """
    return _counted_sum(diagram, n, cap, *_correction(diagram, n))


def unknot_reference(n: int) -> LaurentPoly:
    """Scaled-convention value of the crossingless unknot at width ``n``.

    Closed form ``-(A**(2n) + A**(2n-4) + ... + A**(-2n))``; equal to
    ``(-1)**(n-1) * S_n(delta)``, which is what the reduction quotient
    divides by.
    """
    if n < 0:
        raise ValueError("cable width must be nonnegative")
    return LaurentPoly({2 * n - 4 * j: -1 for j in range(n + 1)})


def reduced(
    diagram: LinkDiagram, n: int, *, cap: int | None = None
) -> LaurentPoly:
    """Quotient of the scaled-convention value by the unknot reference,
    as a polynomial in the bracket variable ``A``.

    The quotient is invariant under adding kinks.  When every exponent
    is a multiple of four, :meth:`LaurentPoly.to_q` rewrites it in
    ``q = A**-4``; multi-component diagrams often land outside that
    case.  Division is exact on knots.  On links it raises
    ``InexactDivisionError`` at width 3 and up (``cjones --n 3`` on
    ``overlap-unlink``), because only equal widths are cabled on every
    component (ROADMAP item 1); it never returns an approximation.
    """
    if diagram.is_empty:
        raise ValueError(
            "the empty diagram has no component to reduce along"
        )
    sign, shift = _correction(diagram, n)
    counted = _counted_sum(diagram, n, cap, sign, shift)
    # the scaled convention multiplies the positive widths by delta
    unit = LaurentPoly({shift: sign * chebyshev(n).get(0, 0)})
    return (DELTA * (counted - unit) + unit).exact_div(unknot_reference(n))
