"""Generating functions of the special values, with explicit branch handling.

Three closed forms live here: the closed-walk generating function, and the two
series whose coefficients are the zeta values at negative and at positive
integers.  Each involves the square root of a quadratic with real zeros, so a
branch must be pinned.  All radicals are built as products of two principal
square roots, one per zero of the radicand; this fixes the analytic branch off
the real cut segment and, because the two value-series share their radical
factors under z -> 1/z, makes their reflection identity exact by construction.

On the real axis just below a cut, ``cmath`` produces a negative-zero
imaginary part, which would silently flip one factor to the wrong sheet; the
principal-root helper canonicalises that before taking the root.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import CutViolationError, DomainError, PoleError
from .exact import IntPoly, Series
from .special_values import value_polynomials
from .validate import branching_number, finite_point, integer_at_least

EPS_CUT = 1e-3
EPS_POLE = 1e-8
EPS_REMOVABLE = 1e-3


def spectral_edges(q: int) -> tuple[float, float]:
    """Endpoints of the Laplacian spectrum of the (q+1)-regular tree."""
    q = branching_number(q)
    rq = math.sqrt(q)
    return ((rq - 1) ** 2, (rq + 1) ** 2)


@dataclass(frozen=True)
class SpectrumCut:
    """A closed real segment acting as a branch cut."""

    lo: float
    hi: float

    def distance(self, z: complex) -> float:
        z = complex(z)
        x = min(max(z.real, self.lo), self.hi)
        return math.hypot(z.real - x, z.imag)

    def refuse_near(self, z: complex, eps: float = EPS_CUT) -> None:
        d = self.distance(z)
        if d < eps:
            raise CutViolationError(
                f"point {z} lies within {eps} of the cut [{self.lo}, {self.hi}] (distance {d:.3g})"
            )


def spectrum_cut(q: int) -> SpectrumCut:
    lo, hi = spectral_edges(q)
    return SpectrumCut(lo, hi)


def reciprocal_cut(q: int) -> SpectrumCut:
    lo, hi = spectral_edges(q)
    return SpectrumCut(1.0 / hi, 1.0 / lo)


def _psqrt(z: complex) -> complex:
    """Principal square root with the negative-zero edge folded upward."""
    z = complex(z)
    if z.imag == 0.0:
        z = complex(z.real, 0.0)
    return cmath.sqrt(z)


def cut_sqrt(q: int, z: complex) -> complex:
    """The square root of (z - lo)(z - hi) that is q - 1 at the origin.

    Analytic off the spectral segment; positive real left of it, negative real
    right of it (the sign forced by analyticity, not a convention).  Points on
    the segment itself get the upper-edge limit.
    """
    lo, hi = spectral_edges(q)
    z = finite_point(z)
    return (q - 1) * _psqrt(1 - z / lo) * _psqrt(1 - z / hi)


def _recip_radical(q: int, w: complex) -> complex:
    """Companion radical in the reciprocal variable, 1 at the origin."""
    lo, hi = spectral_edges(q)
    w = complex(w)
    return _psqrt(1 - w * hi) * _psqrt(1 - w * lo)


def moment_genfun(q: int, z: complex) -> complex:
    """Generating function of the closed-walk counts at a vertex.

    Meromorphic continuation of sum c_n z^n beyond its radius 1/(2 sqrt(q)).
    The two candidate poles on the way are in fact removable, but evaluation
    this close to them cancels catastrophically, so they are refused outright.
    """
    q = branching_number(q)
    z = finite_point(z)
    half_radius = 1.0 / (2.0 * math.sqrt(q))
    # branch rays of sqrt(1 - 4 q z^2): the real axis beyond +-1/(2 sqrt q)
    for ray in (SpectrumCut(half_radius, math.inf), SpectrumCut(-math.inf, -half_radius)):
        ray.refuse_near(z)
    pole_gap = 1 - (q + 1) ** 2 * z * z
    if abs(pole_gap) < EPS_POLE:
        raise PoleError(f"point {z} is numerically at a removable singularity of the walk series")
    radical = _psqrt(1 - 2 * math.sqrt(q) * z) * _psqrt(1 + 2 * math.sqrt(q) * z)
    return 0.5 * ((q + 1) * radical - (q - 1)) / pole_gap


def _neg_raw(q: int, w: complex) -> complex:
    # closed form of the negative-value series; conjugate-rationalised near the
    # removable zero of its denominator so no precision is lost there
    w = complex(w)
    r = _recip_radical(q, w)
    gap = 1 - 2 * (q + 1) * w
    if abs(gap) < EPS_REMOVABLE:
        return 2 * q / ((q - 1) * (1 - (q + 1) * w) + (q + 1) * r)
    return 0.5 * ((q + 1) * r + w * (q * q - 1) - (q - 1)) / gap


def _pos_raw(q: int, z: complex) -> complex:
    z = complex(z)
    s = cut_sqrt(q, z)
    gap = z - 2 * (q + 1)
    if abs(gap) < EPS_REMOVABLE * 2 * (q + 1):
        return 2 * z * q / ((q - 1) * (q + 1 - z) + (q + 1) * s)
    return 0.5 * ((q + 1) * s + z * (q - 1) - (q * q - 1)) / gap


def neg_value_genfun(q: int, w: complex) -> complex:
    """Analytic continuation of sum zeta(-m) w^m off the reciprocal cut."""
    q = branching_number(q)
    w = finite_point(w)
    reciprocal_cut(q).refuse_near(w)
    return _neg_raw(q, w)


def pos_value_genfun(q: int, z: complex) -> complex:
    """Analytic continuation of sum zeta(n) z^n (n >= 1) off the spectral cut."""
    q = branching_number(q)
    z = finite_point(z)
    spectrum_cut(q).refuse_near(z)
    return _pos_raw(q, z)


def symmetry_defect(q: int, z: complex) -> complex:
    """Residual of the reflection identity tying the two value series.

    The positive series at z plus the negative series at 1/z is identically
    zero off the cuts; anything visibly nonzero is a branch inconsistency.
    """
    q = branching_number(q)
    z = finite_point(z)
    if z == 0:
        raise DomainError("reflection needs a nonzero point")
    return pos_value_genfun(q, z) + neg_value_genfun(q, 1 / z)


def entire_combination(q: int, z: complex) -> complex:
    """The radical-free cross combination of the two value series.

    Weighting the negative series at z/(q-1) by 1 - 2kz and the positive
    series at (q-1)z by 2k - z, with k = (q+1)/(q-1), cancels the shared
    radical identically; the result is the entire function z + 1.  Because
    the cancellation is exact on the cut segment as well (the two pieces use
    the same principal factors), evaluation here bypasses the cut refusal of
    the public evaluators.
    """
    q = branching_number(q)
    z = finite_point(z)
    k = (q + 1) / (q - 1)
    return _neg_raw(q, z / (q - 1)) * (1 - 2 * k * z) + _pos_raw(q, (q - 1) * z) * (2 * k - z)


def quadratic_residual_series(
    n_max: int, polys: Optional[Sequence[IntPoly]] = None
) -> tuple[IntPoly, ...]:
    """Residual of the quadratic functional equation of the value polynomials.

    Substitutes the generating series of the value polynomials, truncated after
    n_max of them, into its defining quadratic and returns the residual
    coefficients through that truncation order.  Every entry is the zero
    polynomial when the table is correct; a wrong entry anywhere in the table
    leaves a nonzero residual, which is what makes this a detector.  A table
    may be injected to point the detector at foreign data.
    """
    n_max = integer_at_least(n_max, 1, "n_max")
    if polys is None:
        polys = value_polynomials(n_max)
    if len(polys) < n_max:
        raise DomainError(f"need at least {n_max} polynomials, got {len(polys)}")
    q = IntPoly.variable()
    one = IntPoly.constant(1)
    qm1sq = (q - 1) * (q - 1)
    t = Series(list(polys[:n_max]))
    zero = IntPoly()

    def padded(cs):
        return Series(list(cs) + [zero] * (n_max - len(cs)))

    quad = (t * t * q).shifted(1) * padded([IntPoly.constant(2), -qm1sq])
    linear = t * padded([-one, qm1sq])
    residual = quad + linear + padded([one])
    return residual.coeffs