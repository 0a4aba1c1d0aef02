"""Verification battery: every headline identity as a deterministic check.

Each check returns a CheckResult carrying its worst observed defect and the
tolerance it was held to.  Exact checks (rational or integer arithmetic end to
end) report their defect as a decimal string, "0" on success; floating checks
report a float.  Grids are built from fixed radius/angle lattices, so repeated
runs see identical points.  Nothing here raises on a failed identity; failures
are data.  Only genuine input errors or a blown quadrature budget escape as
exceptions.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .dyck import verify_weight_value_identity
from .errors import DomainError
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
    two_step_defect,
    value_polynomials,
    zeta_integer,
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
    zeta_sato_tate_quad,
)
from .validate import integer_at_least

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


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one verification check."""

    name: str
    passed: bool
    points: int
    max_defect: float
    tolerance: float
    detail: str
    elapsed: float
    exact_defect: Optional[str] = None

    @property
    def defect_repr(self) -> str:
        return self.exact_defect if self.exact_defect is not None else repr(self.max_defect)


def _timed(name: str, tolerance: float, body: Callable[[], tuple]) -> CheckResult:
    start = time.perf_counter()
    passed, points, max_defect, detail, exact = body()
    elapsed = time.perf_counter() - start
    return CheckResult(
        name=name,
        passed=passed,
        points=points,
        max_defect=max_defect,
        tolerance=tolerance,
        detail=detail,
        elapsed=elapsed,
        exact_defect=exact,
    )


FROZEN_VALUE_POLYS = (
    (1,),
    (1, 0, 1),
    (1, 1, 4, 1, 1),
    (1, 3, 11, 10, 11, 3, 1),
    (1, 6, 26, 46, 66, 46, 26, 6, 1),
)


def check_value_polynomials() -> CheckResult:
    """First five value polynomials match their hand-checked coefficients."""

    def body():
        polys = value_polynomials(5)
        bad = []
        for i, want in enumerate(FROZEN_VALUE_POLYS):
            if polys[i] != IntPoly(want):
                bad.append(i + 1)
        for i, p in enumerate(polys):
            if not (p.is_monic() and poly_is_palindromic(p) and all(c >= 0 for c in p.coeffs)):
                bad.append(i + 1)
        detail = "five frozen polynomials, exact comparison"
        if bad:
            detail = f"mismatch at indices {sorted(set(bad))}"
        return (not bad, 5, 0.0, detail, "0" if not bad else "coefficient mismatch")

    return _timed("value_polys", 0.0, body)


def check_negative_triple(m_max: int = 30) -> CheckResult:
    """Three independent routes to the negative values agree and look right."""

    def body():
        tables = [negative_value_table(m_max, m) for m in NEG_VALUE_METHODS]
        bad = []
        for m in range(m_max + 1):
            a, b, c = (t[m] for t in tables)
            if not (a == b == c):
                bad.append(f"routes disagree at m={m}")
            if a.degree != m or not a.is_monic() or any(x < 0 for x in a.coeffs):
                bad.append(f"shape violation at m={m}")
        detail = f"three routes through m={m_max}, exact"
        if bad:
            detail = "; ".join(bad[:3])
        return (not bad, m_max + 1, 0.0, detail, "0" if not bad else "table mismatch")

    return _timed("negvals", 0.0, body)


def check_moment_oracle(n_max: int = 12, qs: Sequence[int] = WALK_QS) -> CheckResult:
    """Generating-function walk counts equal the dynamic-programming counts."""

    def body():
        polys = moment_polynomials(n_max)
        bad = []
        for q in qs:
            for n in range(n_max + 1):
                if poly_eval(polys[n], q) != count_closed_walks(q, n):
                    bad.append((q, n))
        detail = f"q in {tuple(qs)}, walk lengths through {n_max}, exact"
        if bad:
            detail = f"first mismatch at (q, n) = {bad[0]}"
        return (not bad, len(qs) * (n_max + 1), 0.0, detail, "0" if not bad else "count mismatch")

    return _timed("moments", 0.0, body)


def check_dyck_identity(n_max: int = 30, brute_max: int = 9) -> CheckResult:
    """Weight polynomials equal value polynomials; dp equals brute force."""

    def body():
        report = verify_weight_value_identity(n_max, brute_max=brute_max)
        detail = (
            f"dp through n={n_max}, bruteforce through n={min(brute_max, n_max)}, exact"
        )
        if not report.ok:
            detail = report.first_mismatch() or "mismatch"
        return (
            report.ok,
            report.dp_checked + report.brute_checked,
            0.0,
            detail,
            "0" if report.ok else "polynomial mismatch",
        )

    return _timed("dyck", 0.0, body)


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


def symmetry_grid(q: int, count: int = 200) -> list[complex]:
    """Fixed off-cut grid for the reflection identity, both variables clear."""
    pts = []
    for z in _ring_grid(_geom_radii(0.1, 100.0, 25), 16):
        if spectrum_cut(q).distance(z) <= CUT_CLEARANCE:
            continue
        if reciprocal_cut(q).distance(1 / z) <= CUT_CLEARANCE:
            continue
        pts.append(z)
        if len(pts) == count:
            break
    if len(pts) < count:
        raise DomainError(f"grid pool exhausted at {len(pts)} points")
    return pts


def check_symmetry(
    qs: Sequence[int] = TREE_QS, points: int = 200, tol: float = SYMMETRY_TOL
) -> CheckResult:
    """Positive series at z cancels negative series at 1/z, off the cuts."""

    def body():
        worst = 0.0
        total = 0
        for q in qs:
            for z in symmetry_grid(q, points):
                worst = max(worst, abs(symmetry_defect(q, z)))
                total += 1
        return (worst <= tol, total, worst, f"{points} points per q in {tuple(qs)}", None)

    return _timed("symmetry", tol, body)


def entire_grid(count: int = 100) -> list[complex]:
    """Radius/angle lattice including on-axis points that cross the cut."""
    return _ring_grid(_geom_radii(0.05, 10.0, 10), 10, offset=0.0)[:count]


def check_entire(
    qs: Sequence[int] = TREE_QS, points: int = 100, tol: float = ENTIRE_TOL
) -> CheckResult:
    """The cross combination equals z + 1 everywhere, cut included."""

    def body():
        worst = 0.0
        total = 0
        for q in qs:
            for z in entire_grid(points):
                worst = max(worst, abs(entire_combination(q, z) - (z + 1)))
                total += 1
        return (
            worst <= tol,
            total,
            worst,
            f"{points} points per q in {tuple(qs)}, on-cut points included",
            None,
        )

    return _timed("entire", tol, body)


def check_two_step(qs: Sequence[int] = TREE_QS, n_abs: int = 20) -> CheckResult:
    """The exact two-step relation holds at every integer offset."""
    n_abs = integer_at_least(n_abs, 0, "n_abs")

    def body():
        bad = []
        worst = None
        for q in qs:
            for n in range(-n_abs, n_abs + 1):
                d = two_step_defect(q, n)
                if d != 0:
                    bad.append((q, n))
                    worst = d
        detail = f"|n| <= {n_abs}, q in {tuple(qs)}, exact rational arithmetic"
        if bad:
            detail = f"nonzero defect at (q, n) = {bad[0]}"
        return (
            not bad,
            len(qs) * (2 * n_abs + 1),
            0.0,
            detail,
            "0" if not bad else str(worst),
        )

    return _timed("twostep", 0.0, body)


def fe_grid(count: int = 50) -> list[complex]:
    """Fixed complex points with modulus at most five."""
    return _ring_grid([0.6 * k for k in range(1, 9)], 7)[:count]


def check_functional_equation(
    qs: Sequence[int] = TREE_QS,
    points: int = 50,
    tol: float = FE_TOL,
    quad: Optional[QuadratureSpec] = None,
) -> CheckResult:
    """Completed combination is symmetric under s -> 1 - s, numerically."""

    def body():
        worst = 0.0
        total = 0
        for q in qs:
            for s in fe_grid(points):
                a = xi_value(q, s, quad)
                b = xi_value(q, 1 - s, quad)
                worst = max(worst, abs(a - b) / max(1.0, abs(a)))
                total += 1
        return (worst <= tol, total, worst, f"{points} points per q in {tuple(qs)}, |s| <= 5", None)

    return _timed("fe", tol, body)


def check_integer_agreement(
    qs: Sequence[int] = INTEGER_QS,
    s_max: int = 8,
    rel_tol: float = INTEGER_REL_TOL,
    quad: Optional[QuadratureSpec] = None,
) -> CheckResult:
    """Quadrature values match the exact integer-point values."""

    def body():
        worst = 0.0
        total = 0
        for q in qs:
            for k in range(-s_max, s_max + 1):
                exact = float(zeta_integer(q, k))
                got = zeta_numeric(q, k, quad).require(f"zeta({q}, {k})").real
                worst = max(worst, abs(got - exact) / abs(exact))
                total += 1
        return (
            worst <= rel_tol,
            total,
            worst,
            f"s in [-{s_max}, {s_max}], q in {tuple(qs)}, relative error",
            None,
        )

    return _timed("integers", rel_tol, body)


def laplace_grids(q: int, points: int = 20) -> tuple[list[complex], list[complex]]:
    lo, hi = spectral_edges(q)
    per_ring = points // 2
    inside = _ring_grid([0.3 * lo, 0.6 * lo], per_ring)
    outside = _ring_grid([1.8 * hi, 4.0 * hi], per_ring)
    return inside[:points], outside[:points]


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

    def body():
        worst = 0.0
        total = 0
        for q in qs:
            inside, outside = laplace_grids(q, points)
            for z in inside:
                lhs = z * resolvent_transform(q, z, quad)
                worst = max(worst, abs(lhs - pos_value_genfun(q, z)))
                total += 1
            for z in outside:
                lhs = resolvent_transform(q, z, quad)
                worst = max(worst, abs(lhs + neg_value_genfun(q, 1 / z) / z))
                total += 1
        return (
            worst <= tol,
            total,
            worst,
            f"{points} inside and {points} outside points per q in {tuple(qs)}",
            None,
        )

    return _timed("laplace", tol, body)


def sato_fe_grid(count: int = 20) -> list[complex]:
    return _ring_grid([0.7, 1.6, 2.9, 3.8], 5)[:count]


def sato_quad_grid(count: int = 10) -> list[complex]:
    pts = [
        -2.5,
        -1.5,
        -0.5,
        0.25,
        0.7,
        1.1,
        0.3 + 0.4j,
        -1 + 1j,
        0.9 + 2j,
        1.15 - 0.6j,
    ]
    return [complex(p) for p in pts[:count]]


def check_boundary(
    m_max: int = 10,
    fe_points: int = 20,
    quad_points: int = 10,
    line_tol: float = LINE_BINOMIAL_REL_TOL,
    fe_tol: float = SATO_FE_TOL,
    quad_tol: float = SATO_QUAD_TOL,
) -> CheckResult:
    """The two limiting line functions behave: binomials, symmetry, quadrature."""

    def body():
        worst = 0.0
        total = 0
        bad = []
        for m in range(m_max + 1):
            want = math.comb(2 * m, m)
            rel = abs(zeta_line(-m) - want) / want
            if rel > line_tol:
                bad.append(f"line value at -{m}")
            worst = max(worst, rel)
            total += 1
        for s in sato_fe_grid(fe_points):
            rel = abs(xi_sato_tate_defect(s)) / max(1.0, abs(xi_sato_tate(s)))
            if rel > fe_tol:
                bad.append(f"reflection at s={s}")
            worst = max(worst, rel)
            total += 1
        for s in sato_quad_grid(quad_points):
            a = zeta_sato_tate(s)
            d = abs(zeta_sato_tate_quad(s) - a) / max(1.0, abs(a))
            if d > quad_tol:
                bad.append(f"quadrature route at s={s}")
            worst = max(worst, d)
            total += 1
        detail = (
            f"central binomials m<={m_max}, {fe_points} reflection points, "
            f"{quad_points} quadrature cross-checks"
        )
        if bad:
            detail = "; ".join(bad[:3])
        return (not bad, total, worst, detail, None)

    return _timed("boundary", max(line_tol, fe_tol, quad_tol), body)


def check_quadratic_residual(order: int = 28) -> CheckResult:
    """Truncated value series satisfies its quadratic through the given order."""
    order = integer_at_least(order, 0, "order")

    def body():
        residual = quadratic_residual_series(order + 1)
        bad = [k for k, c in enumerate(residual) if not c.is_zero()]
        detail = f"residual coefficients through order {order}, exact"
        if bad:
            detail = f"nonzero residual first at order {bad[0]}"
        return (not bad, order + 1, 0.0, detail, "0" if not bad else "nonzero residual")

    return _timed("residual", 0.0, body)


ALL_CHECKS: dict[str, Callable[..., CheckResult]] = {
    "value_polys": check_value_polynomials,
    "negvals": check_negative_triple,
    "moments": check_moment_oracle,
    "dyck": check_dyck_identity,
    "symmetry": check_symmetry,
    "entire": check_entire,
    "twostep": check_two_step,
    "fe": check_functional_equation,
    "integers": check_integer_agreement,
    "laplace": check_laplace,
    "boundary": check_boundary,
    "residual": check_quadratic_residual,
}


# The run_battery overrides each check accepts, and the keywords that carry them.
CHECK_OVERRIDES: dict[str, dict[str, tuple[str, ...]]] = {
    "value_polys": {},
    "negvals": {"n_max": ("m_max",)},
    "moments": {},
    "dyck": {"n_max": ("n_max",)},
    "symmetry": {"q": ("qs",), "tol": ("tol",)},
    "entire": {"q": ("qs",), "tol": ("tol",)},
    "twostep": {"q": ("qs",), "n_max": ("n_abs",)},
    "fe": {"q": ("qs",), "tol": ("tol",), "quad": ("quad",)},
    "integers": {"q": ("qs",), "tol": ("rel_tol",), "quad": ("quad",)},
    "laplace": {"q": ("qs",), "tol": ("tol",), "quad": ("quad",)},
    "boundary": {"tol": ("line_tol", "fe_tol", "quad_tol")},
    "residual": {"n_max": ("order",)},
}


def run_battery(
    names: Optional[Sequence[str]] = None,
    q: Optional[int] = None,
    tol: Optional[float] = None,
    n_max: Optional[int] = None,
    quad: Optional[QuadratureSpec] = None,
) -> list[CheckResult]:
    """Run a named subset of the battery (everything by default).

    The overrides reshape the checks that declare them in CHECK_OVERRIDES:
    q restricts the tree-indexed grids, tol replaces each selected check's
    tolerance, n_max resizes the depth-indexed exact checks, quad sets the
    quadrature of the numeric checks.
    """
    selected = list(names) if names is not None else list(ALL_CHECKS)
    unknown = [n for n in selected if n not in ALL_CHECKS]
    if unknown:
        raise DomainError(f"unknown checks: {unknown}; available: {sorted(ALL_CHECKS)}")
    if tol is not None and not 0 < tol < math.inf:
        raise DomainError(f"tol must be positive and finite, got {tol}")
    given = {"q": (q,) if q is not None else None, "tol": tol, "n_max": n_max, "quad": quad}
    out = []
    for name in selected:
        kwargs = {
            keyword: given[override]
            for override, keywords in CHECK_OVERRIDES[name].items()
            if given[override] is not None
            for keyword in keywords
        }
        out.append(ALL_CHECKS[name](**kwargs))
    return out
