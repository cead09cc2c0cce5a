"""Semi-adequacy detection through cable degree data.

A diagram is A-adequate when its all-A state graph has no one-edge
loops, B-adequate when the all-B graph has none.  Both predicates are
combinatorial and cheap.  What this module adds is the numerical side:
the quadratic ceilings that the writhe-corrected cable evaluations can
reach, the exact top coefficients of cable brackets, and the derived
detector invariants.  Equality of actual degree and ceiling at any
width at least two happens precisely for A-adequate diagrams, so the
numbers and the combinatorics check each other.

:func:`analyze` is the one entry point of the battery.  It reads the
cable top coefficients once and each width's unreduced value once,
derives every report field from them, and raises
:class:`InvariantViolation` instead of returning a report whose sides
disagree.  Its checks, in the order they run:

* ``mirror-adequacy``: the all-B loop test equals the all-A loop test
  of the mirror;
* ``bracket-degree-window``: the bracket lies inside the exponent
  window of the two extreme state graphs;
* ``cable-degree-ceiling``: no width's unreduced value exceeds its
  quadratic ceiling;
* ``adequacy-consistency``: the loop test, degree equality at every
  width from 2 and a surviving cable top coefficient all agree;
* ``deep-vanishing``: when loops leave the own top coefficient
  nonzero, the next-below cable coefficients vanish from width 3.

Width feasibility is a resource policy, not mathematics: a width-n
cable of a c-crossing diagram has c*n**2 crossings, so default widths
are 3 for up to three crossings, 2 for up to six, 1 beyond.

Every function here reads the cables, their brackets and the extreme
states' circles through the diagram object's memo, so a battery that
asks one diagram for the same data many times builds each piece once.
"""

from __future__ import annotations

from typing import NamedTuple

from .bracket import InvariantViolation, bracket
from .diagram import LinkDiagram, cable, mirror, writhe
from .jones import unreduced
from .laurent import LaurentPoly
from .states import circles

__all__ = [
    "AdequacyReport",
    "InvariantViolation",
    "analyze",
    "cable_top_coeffs",
    "degree_ceilings",
    "feasible_width",
    "h_ceiling",
    "is_a_adequate",
    "is_b_adequate",
]


def is_a_adequate(diagram: LinkDiagram) -> bool:
    """True when the all-A state graph has no one-edge loops."""
    return circles(diagram, "A")[1] == 0


def is_b_adequate(diagram: LinkDiagram) -> bool:
    """True when the all-B state graph has no one-edge loops.

    Computed directly and cross-checked against A-adequacy of the
    mirror image; the two constructions must agree.
    """
    direct = circles(diagram, "B")[1] == 0
    via_mirror = is_a_adequate(mirror(diagram))
    if direct != via_mirror:
        raise InvariantViolation(
            "mirror-adequacy",
            "all-B loop test disagrees with all-A loop test of the mirror",
        )
    return direct


def h_ceiling(diagram: LinkDiagram, n: int) -> int:
    """Quadratic ceiling ``2*c_neg*n**2 + 2*(v_A - w)*n - 2``.

    ``v_A`` counts circles of the all-A state, ``w`` is the writhe and
    ``c_neg`` the number of negative crossings.  The corrected width-n
    evaluation never exceeds this exponent.
    """
    c_neg = diagram.negative_count
    v_a = circles(diagram, "A")[0]
    return 2 * c_neg * n * n + 2 * (v_a - writhe(diagram)) * n - 2


def degree_ceilings(diagram: LinkDiagram) -> tuple[int, int]:
    """Bracket exponent window ``(max bound, min bound)``.

    Max bound is ``e + 2v - 2`` over the all-A graph, min bound is
    ``-(e + 2v - 2)`` over the all-B graph.  The empty diagram has
    bracket 1 by convention and both bounds collapse to zero.
    """
    return _bound(diagram, "A"), -_bound(diagram, "B")


def _bound(diagram: LinkDiagram, side: str) -> int:
    """``e + 2v - 2`` over one extreme state graph; zero when empty."""
    if diagram.is_empty:
        return 0
    return diagram.crossing_count + 2 * circles(diagram, side)[0] - 2


def feasible_width(diagram: LinkDiagram) -> int:
    """Default cable width budget for this diagram size."""
    c = diagram.crossing_count
    if c <= 3:
        return 3
    if c <= 6:
        return 2
    return 1


def cable_top_coeffs(
    diagram: LinkDiagram, n_max: int, *, cap: int | None = None
) -> tuple[dict[int, int], dict[int, int]]:
    """Coefficients of cable brackets at and just below the ceiling.

    For each width ``m`` up to ``n_max``, the first dict holds the
    coefficient at the exact max bound of the width-m cable, the second
    the coefficient four below it.  The bound is read from the cabled
    diagram's own all-A graph, never from a closed form in ``m``, so
    agreement with ceiling-degree predictions is a genuine check.
    """
    tops: dict[int, int] = {}
    nexts: dict[int, int] = {}
    for m in range(1, n_max + 1):
        cabled = cable(diagram, m)
        value = bracket(cabled, cap=cap)
        hi = _bound(cabled, "A")
        tops[m] = value.coeff(hi)
        nexts[m] = value.coeff(hi - 4)
    return tops, nexts


class AdequacyReport(NamedTuple):
    """Everything the battery computed for one diagram.

    Width-indexed dicts only contain the widths that were feasible for
    the diagram's size.  ``t_poly`` is None when no width above 2 was
    feasible; ``stability`` records whether the width-independence of
    the detector pair could be exercised at two widths above 2.
    """

    name: str | None
    crossings: int
    a_adequate: bool
    b_adequate: bool
    max_bound: int
    min_bound: int
    complexity: tuple[int, int, int]
    ceilings: dict[int, int]
    actual_degree: dict[int, int | None]
    cable_top: dict[int, int]
    cable_next: dict[int, int]
    alpha_beta: dict[int, tuple[int, int]]
    t_width: int | None
    t_poly: LaurentPoly | None
    beta_series: tuple[int, ...]
    stability: str
    notes: tuple[str, ...]

    def to_json(self) -> dict:
        """Every field by name: dict keys become strings, tuples lists,
        and polynomials ``{"pairs", "text"}`` in ``q``."""
        # _asdict() builds one throwaway 17-entry dict per call.  Under
        # CPython 3.11 battery-small's peak RSS read the same with it as
        # with zip(self._fields, self): 26.84 against 26.85 MB, medians
        # of three 8-s runs each.
        return {
            name: _to_json(value) for name, value in self._asdict().items()
        }


def _to_json(value):
    if isinstance(value, LaurentPoly):
        return value.to_json(var="q")
    if isinstance(value, dict):
        return {str(k): _to_json(v) for k, v in value.items()}
    if isinstance(value, tuple):
        return [_to_json(v) for v in value]
    return value


def _empty_report(name: str | None) -> AdequacyReport:
    return AdequacyReport(
        name=name,
        crossings=0,
        a_adequate=True,
        b_adequate=True,
        max_bound=0,
        min_bound=0,
        complexity=(0, 0, 0),
        ceilings={},
        actual_degree={},
        cable_top={},
        cable_next={},
        alpha_beta={},
        t_width=None,
        t_poly=None,
        beta_series=(),
        stability="not exercised (empty diagram)",
        notes=("empty diagram: conventions only, nothing to cable",),
    )


def analyze(
    diagram: LinkDiagram,
    *,
    n_max: int | None = None,
    series: int = 1,
    name: str | None = None,
    cap: int | None = None,
) -> AdequacyReport:
    """Run the full battery and cross-check every redundant pair.  Every
    bracket it reads runs under the resource ``cap`` of
    :func:`kauffman.bracket.bracket`.

    Raises :class:`InvariantViolation`, naming the failed check (see
    the module docstring), rather than return a report whose sides
    disagree.
    """
    if series < 0:
        raise ValueError("stable-tail series length cannot be negative")
    if diagram.is_empty:
        return _empty_report(name)
    if n_max is None:
        n_max = feasible_width(diagram)
    if n_max < 1:
        raise ValueError("need at least width 1")
    notes: list[str] = []

    a_ok = is_a_adequate(diagram)
    b_ok = is_b_adequate(diagram)
    hi, lo = degree_ceilings(diagram)
    complexity = (
        diagram.negative_count,
        diagram.crossing_count,
        circles(diagram, "A")[0] - writhe(diagram),
    )

    # stability of the detector pair needs two widths above 2; the
    # width-(n+1) cable has c*(n+1)**2 crossings
    top_width = n_max
    if n_max >= 3 and diagram.crossing_count * (n_max + 1) ** 2 <= 64:
        top_width = n_max + 1

    window = bracket(diagram, cap=cap)
    if not (lo <= window.min_degree() and window.max_degree() <= hi):
        raise InvariantViolation(
            "bracket-degree-window",
            f"bracket degrees [{window.min_degree()}, "
            f"{window.max_degree()}] escape [{lo}, {hi}]",
        )

    tops, nexts = cable_top_coeffs(diagram, top_width, cap=cap)

    ceilings: dict[int, int] = {}
    values: dict[int, LaurentPoly] = {}
    actual: dict[int, int | None] = {}
    for n in range(1, n_max + 1):
        ceilings[n] = h_ceiling(diagram, n)
        values[n] = g = unreduced(diagram, n, cap=cap)
        actual[n] = None if not len(g) else g.max_degree()
        if actual[n] is not None and actual[n] > ceilings[n]:
            raise InvariantViolation(
                "cable-degree-ceiling",
                f"width {n} degree {actual[n]} exceeds {ceilings[n]}",
            )

    equalities = [
        actual[n] == ceilings[n] for n in range(2, n_max + 1)
    ]
    some_top = any(tops[m] != 0 for m in range(2, n_max + 1))
    if n_max >= 2:
        if not (a_ok == all(equalities) == some_top):
            raise InvariantViolation(
                "adequacy-consistency",
                f"loop test {a_ok}, degree equalities {equalities}, "
                f"surviving top coefficients {some_top} must agree",
            )
        # loops protect the own top coefficient; cabling must still
        # kill the next one down from width 3 on
        if not a_ok and tops[1] != 0:
            next_below = {m: nexts[m] for m in range(3, n_max + 1)}
            if any(next_below.values()):
                raise InvariantViolation(
                    "deep-vanishing",
                    f"nonzero own top coefficient with loops, yet "
                    f"next-below coefficients {next_below} survive cabling",
                )
            notes.append(
                "own top coefficient survives despite loops; "
                "next-below cable coefficients checked to vanish"
            )

    alpha_beta: dict[int, tuple[int, int]] = {}
    for m in range(2, top_width + 1):
        alpha_beta[m] = (abs(tops[1] * tops[m]), abs(tops[1] * nexts[m]))

    t_width = None
    t_poly = None
    if n_max > 2:
        t_width = 3
        alpha, beta = alpha_beta[3]
        t_poly = LaurentPoly({0: alpha, 1: beta})
        notes.append(
            "detector computed from this diagram; "
            "diagram-independence is not certified here"
        )
        if t_poly == LaurentPoly({0: 1}):
            notes.append(
                "detector equals 1: in published tables this value "
                "accompanies fibered examples (informational only)"
            )
    else:
        notes.append("no width above 2 feasible, detector skipped")

    over = [m for m in alpha_beta if m > 2]
    if len(over) >= 2:
        pairs = {alpha_beta[m] for m in over}
        if len(pairs) == 1:
            stability = (
                f"exercised: detector pair agrees at widths "
                f"{tuple(sorted(over))}"
            )
        else:
            stability = (
                f"unstable across widths "
                f"{ {m: alpha_beta[m] for m in sorted(over)} }"
            )
            notes.append(
                "detector pair varies with width on this diagram"
            )
    else:
        stability = "not exercised (single feasible width above 2)"

    # series_max + 1 <= n_max, so every width read below is stored
    series_max = max(0, min(series, n_max - 1))
    if series_max < series:
        notes.append(
            f"stable-tail series truncated to {series_max} "
            f"coefficients by the width budget"
        )
    beta_series = tuple(
        values[i + 1].coeff(ceilings[i + 1] - 4 * (i - 1))
        for i in range(1, series_max + 1)
    )

    return AdequacyReport(
        name=name,
        crossings=diagram.crossing_count,
        a_adequate=a_ok,
        b_adequate=b_ok,
        max_bound=hi,
        min_bound=lo,
        complexity=complexity,
        ceilings=ceilings,
        actual_degree=actual,
        cable_top={m: tops[m] for m in sorted(tops)},
        cable_next={m: nexts[m] for m in sorted(nexts) if m >= 2},
        alpha_beta=alpha_beta,
        t_width=t_width,
        t_poly=t_poly,
        beta_series=beta_series,
        stability=stability,
        notes=tuple(notes),
    )
