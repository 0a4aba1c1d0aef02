"""Verification battery: every headline identity as a deterministic check.

Each check returns a CheckResult carrying its worst observed defect, where
that defect sat, and the tolerance it was held to.  Exact checks (rational
or integer arithmetic end to end) report their defect as a decimal string,
"0" on success, and locate the first failure; floating checks report a
float and the location of the largest defect.  Grids are built from fixed
radius/angle lattices, so repeated runs see identical points.  Nothing here
raises on a failed identity; failures are data.  Only genuine input errors,
a value out of floating-point range or a blown quadrature budget escape as
exceptions; an internal consistency guard that fires inside a check fails
that check's row in ``run_battery``.
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterable, Optional, Sequence

from .dyck import DP_CAP, catalan, verify_weight_value_identity
from .errors import ConsistencyError, DomainError
from .exact import IntPoly, poly_eval, poly_is_palindromic
from .genfun import (
    entire_combination,
    neg_value_genfun,
    pos_value_genfun,
    quadratic_residual_series,
    reciprocal_cut,
    spectral_edges,
    spectrum_cut,
    symmetry_defect,
)
from .special_values import (
    NEG_VALUE_METHODS,
    count_closed_walks,
    moment_polynomials,
    negative_value_table,
    value_polynomials,
    zeta_integer,
    _two_step_residual,
    _values_at,
)
from .spectral import (
    QuadratureSpec,
    resolvent_transform,
    xi_sato_tate,
    xi_sato_tate_defect,
    xi_value,
    zeta_line,
    zeta_numeric,
    zeta_sato_tate,
)
from .validate import DEPTH_CAP, branching_number, finite_result, integer, integer_at_least
from .validate import tolerance

TREE_QS = (2, 3, 5)
WALK_QS = (1, 2, 3, 4)
INTEGER_QS = (2, 3, 4, 5)
LAPLACE_QS = (2, 3)

SYMMETRY_TOL = 1e-11
ENTIRE_TOL = 1e-11
FE_TOL = 1e-9
INTEGER_REL_TOL = 1e-10
LAPLACE_TOL = 1e-10
LINE_BINOMIAL_REL_TOL = 1e-12
SATO_FE_TOL = 1e-9
SATO_QUAD_TOL = 1e-8

CUT_CLEARANCE = 5e-3


@dataclass(frozen=True, slots=True)
class CheckResult:
    """Outcome of one verification check.

    worst_at locates the defect.  A grid check gives the location of its
    largest defect: (q, point), or (sub-check, point) for boundary.  An
    exact check gives its first failing location, (q, n), (m,) or (n,), and
    None when it passes.
    """

    name: str
    passed: bool
    points: int
    max_defect: float
    tolerance: float
    detail: str
    elapsed: float
    exact_defect: Optional[str] = None
    worst_at: Optional[tuple] = None

    @property
    def defect_repr(self) -> str:
        return self.exact_defect if self.exact_defect is not None else repr(self.max_defect)


def _require_points(name: str, points: int) -> None:
    if points == 0:
        raise DomainError(f"the {name} check would cover no points")


def _qs(qs) -> tuple:
    """The branching numbers qs as a tuple; each q is left to the check's own validators."""
    try:
        return tuple(qs)
    except TypeError:
        raise DomainError(
            f"qs must be an iterable of branching numbers, got {type(qs).__name__}"
        ) from None


def _scan(name: str, tol: float, detail: str, rows: Iterable[tuple]) -> CheckResult:
    """Run a grid check over its rows (where, defect, bound) and time it.

    The check passes when every defect is within its bound, so a NaN defect
    fails.  Only the running worst keeps its location.  A check with no rows,
    an empty q set say, raises DomainError rather than pass on nothing.
    """
    start = time.perf_counter()
    points, passed, worst, worst_at = 0, True, 0.0, None
    for where, defect, bound in rows:
        points += 1
        passed = passed and defect <= bound
        if worst_at is None or defect > worst:
            worst, worst_at = defect, where
    _require_points(name, points)
    elapsed = time.perf_counter() - start
    return CheckResult(name, passed, points, worst, tol, detail, elapsed, worst_at=worst_at)


def _exact(
    name: str, start: float, points: int, detail: str, bad: list[tuple], defect: str
) -> CheckResult:
    """Finish an exact check begun at start from its failing locations, in order.

    The first failure is the one reported: its location, and defect as the
    exact defect.  A check over no points raises DomainError, as in _scan.
    """
    _require_points(name, points)
    elapsed = time.perf_counter() - start
    if not bad:
        return CheckResult(name, True, points, 0.0, 0.0, detail, elapsed, "0")
    return CheckResult(name, False, points, 0.0, 0.0, detail, elapsed, defect, bad[0])


FROZEN_VALUE_POLYS = (
    (1,),
    (1, 0, 1),
    (1, 1, 4, 1, 1),
    (1, 3, 11, 10, 11, 3, 1),
    (1, 6, 26, 46, 66, 46, 26, 6, 1),
)


def check_value_polynomials() -> CheckResult:
    """First five value polynomials match their hand-checked coefficients."""
    start = time.perf_counter()
    bad = [
        (n,)
        for n, (p, want) in enumerate(zip(value_polynomials(5), FROZEN_VALUE_POLYS), start=1)
        if p != IntPoly(want)
        or not (p.is_monic() and poly_is_palindromic(p) and all(c >= 0 for c in p.coeffs))
    ]
    detail = "five frozen polynomials, exact comparison"
    return _exact("value_polys", start, 5, detail, bad, "coefficient mismatch")


def check_negative_triple(m_max: int = 30) -> CheckResult:
    """Three independent routes to the negative values agree and look right."""
    start = time.perf_counter()
    tables = [negative_value_table(m_max, m) for m in NEG_VALUE_METHODS]
    bad = [
        (m,)
        for m, (a, b, c) in enumerate(zip(*tables))
        if not (a == b == c and a.degree == m and a.is_monic() and all(x >= 0 for x in a.coeffs))
    ]
    detail = f"three routes through m={m_max}, exact"
    return _exact("negvals", start, m_max + 1, detail, bad, "table mismatch")


def check_moment_oracle(n_max: int = 12, qs: Sequence[int] = WALK_QS) -> CheckResult:
    """Generating-function walk counts equal the dynamic-programming counts."""
    qs = _qs(qs)
    start = time.perf_counter()
    polys = moment_polynomials(n_max)
    bad = [
        (q, n)
        for q in qs
        for n in range(n_max + 1)
        if poly_eval(polys[n], q) != count_closed_walks(q, n)
    ]
    detail = f"q in {qs}, walk lengths through {n_max}, exact"
    return _exact("moments", start, len(qs) * (n_max + 1), detail, bad, "count mismatch")


def check_dyck_identity(n_max: int = 30, brute_max: int = 9) -> CheckResult:
    """Weight polynomials equal value polynomials; dp equals the letter walk.

    The dp (cycle lemma) runs for every n <= n_max, and the brute force, a
    letter-by-letter walk over the words, for every n <= brute_max; the
    detail counts the coloured words the walk covered.
    """
    start = time.perf_counter()
    report = verify_weight_value_identity(n_max, brute_max=brute_max)
    detail = (
        f"dp through n={n_max}, bruteforce through n={min(brute_max, n_max)} "
        f"({report.brute_words} words), exact"
    )
    points = report.dp_checked + report.brute_checked
    bad = [(n,) for n in report.mismatch_ns]
    return _exact("dyck", start, points, detail, bad, report.first_mismatch() or "")


def _ring_grid(radii: Sequence[float], angles: int, offset: float = 0.5) -> list[complex]:
    pts = []
    for r in radii:
        for j in range(angles):
            a = 2 * math.pi * (j + offset) / angles
            pts.append(complex(r * math.cos(a), r * math.sin(a)))
    return pts


def _geom_radii(lo: float, hi: float, count: int) -> list[float]:
    step = (hi / lo) ** (1 / (count - 1))
    return [lo * step**k for k in range(count)]


def _take(pool: Iterable[complex], count: int) -> list[complex]:
    """The first count points of a fixed pool: exactly count, or DomainError."""
    count = integer_at_least(count, 1, "grid size")
    pts = list(islice(pool, count))
    if len(pts) < count:
        raise DomainError(f"grid pool exhausted at {len(pts)} points, {count} asked for")
    return pts


def symmetry_grid(q: int, count: int = 200) -> list[complex]:
    """Fixed off-cut grid for the reflection identity, both variables clear."""
    cut, back = spectrum_cut(q), reciprocal_cut(q)
    pool = (
        z
        for z in _ring_grid(_geom_radii(0.1, 100.0, 25), 16)
        if cut.distance(z) > CUT_CLEARANCE and back.distance(1 / z) > CUT_CLEARANCE
    )
    return _take(pool, count)


@finite_result
def check_symmetry(
    qs: Sequence[int] = TREE_QS, points: int = 200, tol: float = SYMMETRY_TOL
) -> CheckResult:
    """Positive series at z cancels negative series at 1/z, off the cuts."""
    qs = _qs(qs)
    points = integer_at_least(points, 1, "points")
    tolerance(tol, "tol")
    rows = (
        ((q, z), abs(symmetry_defect(q, z)), tol) for q in qs for z in symmetry_grid(q, points)
    )
    return _scan("symmetry", tol, f"{points} points per q in {qs}", rows)


def entire_grid(count: int = 100) -> list[complex]:
    """Radius/angle lattice including on-axis points that cross the cut."""
    return _take(_ring_grid(_geom_radii(0.05, 10.0, 10), 10, offset=0.0), count)


@finite_result
def check_entire(
    qs: Sequence[int] = TREE_QS, points: int = 100, tol: float = ENTIRE_TOL
) -> CheckResult:
    """The cross combination equals z + 1 everywhere, cut included."""
    qs = _qs(qs)
    points = integer_at_least(points, 1, "points")
    tolerance(tol, "tol")
    rows = (
        ((q, z), abs(entire_combination(q, z) - (z + 1)), tol)
        for q in qs
        for z in entire_grid(points)
    )
    detail = f"{points} points per q in {qs}, on-cut points included"
    return _scan("entire", tol, detail, rows)


def check_two_step(qs: Sequence[int] = TREE_QS, n_abs: int = 20) -> CheckResult:
    """The exact two-step relation holds at every integer offset."""
    qs = _qs(qs)
    n_abs = integer_at_least(n_abs, 0, "n_abs")
    start = time.perf_counter()
    residuals = []
    for q in map(branching_number, qs):
        # one run of each route per q reaches max(n, 1 - n) = n_abs + 1 for every offset
        pos = _values_at(q, n_abs + 1)
        neg = [poly_eval(p, q) for p in negative_value_table(n_abs + 1)]
        offsets = range(-n_abs, n_abs + 1)
        residuals += [((q, n), _two_step_residual(q, n, pos, neg)) for n in offsets]
    bad = [at for at, r in residuals if r != 0]
    defect = next((str(r) for _, r in residuals if r != 0), "0")
    detail = f"|n| <= {n_abs}, q in {qs}, exact rational arithmetic"
    return _exact("twostep", start, len(qs) * (2 * n_abs + 1), detail, bad, defect)


def fe_grid(count: int = 50) -> list[complex]:
    """Fixed complex points with modulus at most five."""
    return _take(_ring_grid([0.6 * k for k in range(1, 9)], 7), count)


def _fe_defect(q: int, s: complex, quad: Optional[QuadratureSpec]) -> float:
    a = xi_value(q, s, quad)
    return abs(a - xi_value(q, 1 - s, quad)) / max(1.0, abs(a))


@finite_result
def check_functional_equation(
    qs: Sequence[int] = TREE_QS,
    points: int = 50,
    tol: float = FE_TOL,
    quad: Optional[QuadratureSpec] = None,
) -> CheckResult:
    """Completed combination is symmetric under s -> 1 - s, numerically."""
    qs = _qs(qs)
    points = integer_at_least(points, 1, "points")
    tolerance(tol, "tol")
    rows = (((q, s), _fe_defect(q, s, quad), tol) for q in qs for s in fe_grid(points))
    return _scan("fe", tol, f"{points} points per q in {qs}, |s| <= 5", rows)


def _integer_defect(q: int, k: int, quad: Optional[QuadratureSpec]) -> float:
    exact = float(zeta_integer(q, k))
    return abs(zeta_numeric(q, k, quad).require("zeta({}, {})", q, k).real - exact) / abs(exact)


@finite_result
def check_integer_agreement(
    qs: Sequence[int] = INTEGER_QS,
    s_max: int = 8,
    rel_tol: float = INTEGER_REL_TOL,
    quad: Optional[QuadratureSpec] = None,
) -> CheckResult:
    """Quadrature values match the exact integer-point values."""
    qs = _qs(qs)
    s_max = integer_at_least(s_max, 0, "s_max")
    tolerance(rel_tol, "rel_tol")
    rows = (
        ((q, k), _integer_defect(q, k, quad), rel_tol)
        for q in qs
        for k in range(-s_max, s_max + 1)
    )
    detail = f"s in [-{s_max}, {s_max}], q in {qs}, relative error"
    return _scan("integers", rel_tol, detail, rows)


def laplace_grids(q: int, points: int = 20) -> tuple[list[complex], list[complex]]:
    """Two rings inside the small disc and two outside the spectrum, points on each side."""
    points = integer_at_least(points, 1, "points")
    lo, hi = spectral_edges(q)
    per_ring = (points + 1) // 2
    inside = _ring_grid([0.3 * lo, 0.6 * lo], per_ring)
    outside = _ring_grid([1.8 * hi, 4.0 * hi], per_ring)
    return inside[:points], outside[:points]


def _laplace_rows(qs: Sequence[int], points: int, tol: float, quad: Optional[QuadratureSpec]):
    for q in qs:
        inside, outside = laplace_grids(q, points)
        for z in inside:
            yield (q, z), abs(z * resolvent_transform(q, z, quad) - pos_value_genfun(q, z)), tol
        for z in outside:
            yield (q, z), abs(resolvent_transform(q, z, quad) + neg_value_genfun(q, 1 / z) / z), tol


@finite_result
def check_laplace(
    qs: Sequence[int] = LAPLACE_QS,
    points: int = 20,
    tol: float = LAPLACE_TOL,
    quad: Optional[QuadratureSpec] = None,
) -> CheckResult:
    """Laplace transform of the heat trace reproduces both value series.

    Inside the small disc the transform times z is the positive series;
    outside the spectrum it is minus the reflected negative series.
    """
    qs = _qs(qs)
    points = integer_at_least(points, 1, "points")
    tolerance(tol, "tol")
    detail = f"{points} inside and {points} outside points per q in {qs}"
    return _scan("laplace", tol, detail, _laplace_rows(qs, points, tol, quad))


def sato_fe_grid(count: int = 20) -> list[complex]:
    return _take(_ring_grid([0.7, 1.6, 2.9, 3.8], 5), count)


def sato_quad_grid(count: int = 10) -> list[complex]:
    pts = [-2.5, -1.5, -0.5, 0.25, 0.7, 1.1, 0.3 + 0.4j, -1 + 1j, 0.9 + 2j, 1.15 - 0.6j]
    return _take(map(complex, pts), count)


# B_2k / (2k (2k - 1)) for k = 1..8, the coefficients of Stirling's series
_STIRLING_COEFFS = (
    1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156, -3617 / 122400
)


def _stirling_log_gamma(z: complex) -> complex:
    """A logarithm of Gamma(z) for Re z > 0, by Stirling's series; shares nothing with Lanczos.

    Gamma(z) = Gamma(z + 1) / z moves z past Re z = 12, where eight terms of
    the series leave an error near 1e-19.
    """
    shift = 0j
    while z.real < 12:
        shift -= cmath.log(z)
        z += 1
    series = sum(c / z ** (2 * k + 1) for k, c in enumerate(_STIRLING_COEFFS))
    return shift + (z - 0.5) * cmath.log(z) - z + 0.5 * math.log(2 * math.pi) + series


def _boundary_rows(m_max, fe_points, quad_points, line_tol, fe_tol, quad_tol):
    for m in range(m_max + 1):
        want = math.comb(2 * m, m)
        yield ("line", -m), abs(zeta_line(-m) - want) / want, line_tol
        want = catalan(m + 1)  # the semicircle moments
        yield ("catalan", -m), abs(zeta_sato_tate(-m) - want) / want, line_tol
    for s in sato_fe_grid(fe_points):
        rel = abs(xi_sato_tate_defect(s)) / max(1.0, abs(xi_sato_tate(s)))
        yield ("reflection", s), rel, fe_tol
    for s in sato_quad_grid(quad_points):
        a = zeta_sato_tate(s)
        log_b = (1 - s) * math.log(4) - 0.5 * math.log(math.pi)
        b = cmath.exp(log_b + _stirling_log_gamma(1.5 - s) - _stirling_log_gamma(3 - s))
        yield ("stirling", s), abs(a - b) / max(1.0, abs(a)), quad_tol


@finite_result
def check_boundary(
    m_max: int = 10,
    fe_points: int = 20,
    quad_points: int = 10,
    line_tol: float = LINE_BINOMIAL_REL_TOL,
    fe_tol: float = SATO_FE_TOL,
    quad_tol: float = SATO_QUAD_TOL,
) -> CheckResult:
    """The two limiting line functions behave: binomials, moments, symmetry, Stirling.

    line holds the integer line's values at -m to the central binomials and
    catalan the semicircle zeta's to Catalan(m + 1), its moments, both to
    line_tol; reflection holds the semicircle's completed combination to its
    s -> 1 - s symmetry at fe_points points, to fe_tol.  stirling compares
    the semicircle closed form at quad_points points with the same gamma
    quotient from a Stirling log-gamma that shares no code with the Lanczos
    one, to quad_tol; the two keep the names they had when a second
    quadrature stood in its place.  Each row is held to its own tolerance;
    the largest of the three tolerances is the one reported.
    """
    m_max = integer_at_least(m_max, 0, "m_max")
    fe_points = integer_at_least(fe_points, 1, "fe_points")
    quad_points = integer_at_least(quad_points, 1, "quad_points")
    tolerance(line_tol, "line_tol")
    tolerance(fe_tol, "fe_tol")
    tolerance(quad_tol, "quad_tol")
    detail = (
        f"central binomials and Catalan moments m<={m_max}, {fe_points} reflection points, "
        f"{quad_points} Stirling cross-checks"
    )
    rows = _boundary_rows(m_max, fe_points, quad_points, line_tol, fe_tol, quad_tol)
    return _scan("boundary", max(line_tol, fe_tol, quad_tol), detail, rows)


def check_quadratic_residual(order: int = 28) -> CheckResult:
    """Truncated value series satisfies its quadratic through the given order."""
    order = integer_at_least(order, 0, "order")
    start = time.perf_counter()
    residual = quadratic_residual_series(order + 1)
    bad = [(k,) for k, c in enumerate(residual) if not c.is_zero()]
    detail = f"residual coefficients through order {order}, exact"
    return _exact("residual", start, order + 1, detail, bad, "nonzero residual")


# Each check once: its function, the run_battery overrides it takes with the
# keywords that carry them, and the deepest n_max it takes (None: no n_max).
CHECKS: dict[str, tuple[Callable[..., CheckResult], dict, Optional[int]]] = {
    "value_polys": (check_value_polynomials, {}, None),
    "negvals": (check_negative_triple, {"n_max": ("m_max",)}, DEPTH_CAP),
    "moments": (check_moment_oracle, {}, None),
    "dyck": (check_dyck_identity, {"n_max": ("n_max",)}, DP_CAP),
    "symmetry": (check_symmetry, {"q": ("qs",), "tol": ("tol",)}, None),
    "entire": (check_entire, {"q": ("qs",), "tol": ("tol",)}, None),
    "twostep": (check_two_step, {"q": ("qs",), "n_max": ("n_abs",)}, 2 * DEPTH_CAP),
    "fe": (check_functional_equation, {"q": ("qs",), "tol": ("tol",), "quad": ("quad",)}, None),
    "integers": (
        check_integer_agreement, {"q": ("qs",), "tol": ("rel_tol",), "quad": ("quad",)}, None
    ),
    "laplace": (check_laplace, {"q": ("qs",), "tol": ("tol",), "quad": ("quad",)}, None),
    "boundary": (check_boundary, {"tol": ("line_tol", "fe_tol", "quad_tol")}, None),
    "residual": (check_quadratic_residual, {"n_max": ("order",)}, DEPTH_CAP),
}
# run_battery calls each check through this view, so a caller can wrap one in place
ALL_CHECKS = {name: check for name, (check, _, _) in CHECKS.items()}


def run_battery(
    names: Optional[Sequence[str]] = None,
    q: Optional[int] = None,
    tol: Optional[float] = None,
    n_max: Optional[int] = None,
    quad: Optional[QuadratureSpec] = None,
) -> list[CheckResult]:
    """Run a named subset of the battery (everything by default).

    The overrides reshape the checks that declare them in CHECKS: q
    restricts the tree-indexed grids, tol replaces each selected check's
    tolerance, n_max resizes the depth-indexed exact checks, quad sets the
    quadrature of the numeric checks.  Before any check runs, a named check
    refuses an override it does not take (with names None a check ignores
    it), and n_max past the least cap among the selected checks is refused,
    as is an empty selection.  A check whose consistency guard fires comes
    back failed, with the guard's message in its detail, and the rest run.
    """
    try:
        selected = list(names if names is not None else CHECKS)
    except TypeError:
        raise DomainError(
            f"names must be an iterable of check names, got {type(names).__name__}"
        ) from None
    if not selected:
        raise DomainError("no checks selected; the battery would cover no points")
    unknown = [n for n in selected if not isinstance(n, str) or n not in CHECKS]
    if unknown:
        raise DomainError(f"unknown checks: {unknown}; available: {sorted(CHECKS)}")
    given = {"q": (q,) if q is not None else None, "tol": tol, "n_max": n_max, "quad": quad}
    for name in selected if names is not None else ():
        for override, value in given.items():
            if value is not None and override not in CHECKS[name][1]:
                raise DomainError(f"the {name} check does not take {override}")
    if n_max is not None:
        given["n_max"] = integer(n_max, "n_max")
        capped = [(CHECKS[name][2], name) for name in selected if CHECKS[name][2] is not None]
        if capped and given["n_max"] > min(capped)[0]:
            raise DomainError("n_max is capped at {} by the {} check".format(*min(capped)))
    if tol is not None:
        tolerance(tol, "tol")
    out = []
    for name in selected:
        kwargs = {
            keyword: given[override]
            for override, keywords in CHECKS[name][1].items()
            if given[override] is not None
            for keyword in keywords
        }
        start = time.perf_counter()
        try:
            out.append(ALL_CHECKS[name](**kwargs))
        except ConsistencyError as exc:
            elapsed = time.perf_counter() - start
            detail = f"consistency guard fired: {exc}"
            out.append(CheckResult(name, False, 0, 0.0, 0.0, detail, elapsed, "guard fired"))
    return out
