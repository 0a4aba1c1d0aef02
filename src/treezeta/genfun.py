"""Generating functions of the special values, with explicit branch handling.

Three closed forms live here: the closed-walk generating function, and the two
series whose coefficients are the zeta values at negative and at positive
integers.  Each involves the square root of a quadratic with real zeros, so a
branch must be pinned.  All radicals are built as products of two principal
square roots, one per zero of the radicand; this fixes the analytic branch off
the real cut segment and, because the two value-series share their radical
factors under z -> 1/z, makes their reflection identity exact by construction.

Each series has one formula, the plain closed form rationalised by the
conjugate of its radical numerator.  Denominator times conjugate is a
polynomial in the point, zero only at the plain form's removable points, where
the principal radical keeps the denominator nonzero; nothing cancels as q grows.

On the real axis just below a cut, ``cmath`` produces a negative-zero
imaginary part, which would silently flip one factor to the wrong sheet; the
principal-root helper canonicalises that.  Each public evaluator validates
its arguments once and then calls only private helpers.
"""

from __future__ import annotations

import cmath
import math
from typing import Optional, Sequence

from .errors import DomainError
from .exact import IntPoly
from .special_values import _ONE, _QM1_SQ, _poly_ring, _quadratic_recurrence, value_polynomials
from .validate import (
    EPS_CUT,
    SpectrumCut,
    _edges,
    branching_number,
    finite_point,
    finite_result,
    integer_at_least,
)


@finite_result
def spectral_edges(q: int) -> tuple[float, float]:
    """Endpoints of the Laplacian spectrum of the (q+1)-regular tree."""
    return _edges(branching_number(q))


@finite_result
def spectrum_cut(q: int) -> SpectrumCut:
    return SpectrumCut(*_edges(branching_number(q)))


@finite_result
def reciprocal_cut(q: int) -> SpectrumCut:
    lo, hi = _edges(branching_number(q))
    return SpectrumCut(1.0 / hi, 1.0 / lo)


def _psqrt(z: complex) -> complex:
    """Principal square root with the negative-zero edge folded upward."""
    if z.imag == 0.0:
        z = complex(z.real, 0.0)
    return cmath.sqrt(z)


def _radical(q: int, z: complex) -> complex:  # cut_sqrt over q - 1, so 1 at the origin
    lo, hi = _edges(q)
    return _psqrt(1 - z / lo) * _psqrt(1 - z / hi)


@finite_result
def cut_sqrt(q: int, z: complex) -> complex:
    """The square root of (z - lo)(z - hi) that is q - 1 at the origin.

    Analytic off the spectral segment; positive real left of it, negative real
    right of it (the sign forced by analyticity, not a convention).  Points on
    the segment itself get the upper-edge limit.
    """
    q = branching_number(q)
    return (q - 1) * _radical(q, finite_point(z))


def _recip_radical(q: int, w: complex) -> complex:  # the companion radical in w = 1/z, 1 at 0
    lo, hi = _edges(q)
    return _psqrt(1 - w * hi) * _psqrt(1 - w * lo)


@finite_result
def moment_genfun(q: int, z: complex) -> complex:
    """Generating function of the closed-walk counts at a vertex.

    Meromorphic continuation of sum c_n z^n beyond its radius 1/(2 sqrt(q)),
    as 2q / ((q+1) sqrt(1 - 4 q z^2) + (q-1)).  The denominator times its
    conjugate is 4q (1 - (q+1)^2 z^2), and at z = +-1/(q+1) it is 2(q-1), so
    it never vanishes: the removable points of the plain form give q/(q-1).
    """
    q = branching_number(q)
    z = finite_point(z)
    half_radius = 1.0 / (2.0 * math.sqrt(q))
    # branch rays of sqrt(1 - 4 q z^2): the real axis beyond +-1/(2 sqrt q); the rays
    # close in on the origin like 1/sqrt(q), and their clearance with them
    for ray in (SpectrumCut(half_radius, math.inf), SpectrumCut(-math.inf, -half_radius)):
        ray.refuse_near(z, EPS_CUT * half_radius)
    radical = _psqrt(1 - 2 * math.sqrt(q) * z) * _psqrt(1 + 2 * math.sqrt(q) * z)
    return 2 * q / (q + 1) / (radical + (q - 1) / (q + 1))


def _neg_raw(q: int, w: complex) -> complex:
    # 2q / ((q-1) - (q^2-1) w + (q+1) R(w)), divided through by q - 1
    return 2 * q / (q - 1) / (1 - (q + 1) * w + (q + 1) / (q - 1) * _recip_radical(q, w))


def _pos_raw(q: int, z: complex) -> complex:
    # 2qz / ((q^2-1) - (q-1) z + (q+1) S(z)), divided through by q^2 - 1; past the
    # float range the int q^2 - 1 raises on meeting z, and no inf reaches a denominator
    return 2 * q * (z / (q * q - 1)) / (1 - z / (q + 1) + _radical(q, z))


def _neg_value(q: int, w: complex) -> complex:
    lo, hi = _edges(q)  # the reciprocal cut shrinks like 1/hi, and its clearance with it
    SpectrumCut(1.0 / hi, 1.0 / lo).refuse_near(w, EPS_CUT / hi)
    return _neg_raw(q, w)


def _pos_value(q: int, z: complex) -> complex:
    SpectrumCut(*_edges(q)).refuse_near(z)
    return _pos_raw(q, z)


@finite_result
def neg_value_genfun(q: int, w: complex) -> complex:
    """Analytic continuation of sum zeta(-m) w^m off the reciprocal cut."""
    return _neg_value(branching_number(q), finite_point(w))


@finite_result
def pos_value_genfun(q: int, z: complex) -> complex:
    """Analytic continuation of sum zeta(n) z^n (n >= 1) off the spectral cut."""
    return _pos_value(branching_number(q), finite_point(z))


@finite_result
def symmetry_defect(q: int, z: complex) -> complex:
    """Residual of the reflection identity tying the two value series.

    The positive series at z plus the negative series at 1/z is identically
    zero off the cuts; anything visibly nonzero is a branch inconsistency.
    """
    q = branching_number(q)
    z = finite_point(z)
    if z == 0:
        raise DomainError("reflection needs a nonzero point")
    return _pos_value(q, z) + _neg_value(q, 1 / z)


@finite_result
def entire_combination(q: int, z: complex) -> complex:
    """The radical-free cross combination of the two value series.

    Weighting the negative series at z/(q-1) by 1 - 2kz and the positive
    series at (q-1)z by 2k - z, with k = (q+1)/(q-1), cancels the shared
    radical identically; the result is the entire function z + 1.  The
    cancellation is exact on the cut segment as well (the two pieces use the
    same principal factors), so this bypasses the cut refusal, and the
    rationalised pieces need no care at their removable points 2k and 1/(2k).
    """
    q = branching_number(q)
    z = finite_point(z)
    k = (q + 1) / (q - 1)
    return _neg_raw(q, z / (q - 1)) * (1 - 2 * k * z) + _pos_raw(q, (q - 1) * z) * (2 * k - z)


# The z^k coefficient of 2 Delta G' = Delta' G over 4q (see quadratic_residual_series):
#   2(k+1) T_k = ((k-1) C + 4(q^2+1)) T_{k-1} - (4k-5) D T_{k-2}
#                + (k-2) D (q-1)^2 T_{k-3} + 2 [k = 0],
# C = 5q^2 + 6q + 5, D = (q^2-1)^2; a term with a negative index is absent.
_STEP_SLOPE = IntPoly((5, 6, 5))  # C
_STEP_BASE = IntPoly((4, 0, 4))  # 4(q^2+1)
_STEP_TWO = IntPoly((1, 0, -2, 0, 1))  # D
_STEP_THREE = _STEP_TWO * _QM1_SQ  # D (q-1)^2


def _linear_terms(table, k: int) -> list:
    """The (c, a, b) terms whose sum of c * a * b is the linear recurrence's residual at k."""
    terms = [(2 * k + 2, _ONE, table[k])]
    if k == 0:
        terms.append((-2, _ONE, _ONE))
    if k >= 1:
        terms.append((-1, _STEP_SLOPE * (k - 1) + _STEP_BASE, table[k - 1]))
    if k >= 2:
        terms.append((4 * k - 5, _STEP_TWO, table[k - 2]))
    if k >= 3:
        terms.append((2 - k, _STEP_THREE, table[k - 3]))
    return terms


def quadratic_residual_series(
    n_max: int, polys: Optional[Sequence[IntPoly]] = None
) -> tuple[IntPoly, ...]:
    """Residual of the quadratic functional equation of the value polynomials.

    Substitutes the generating series of the value polynomials, truncated after
    n_max of them, into its defining quadratic and returns the residual
    coefficients through that truncation order.  Every entry is the zero
    polynomial when the table is correct; a wrong entry anywhere in the table
    leaves a nonzero residual, which is what makes this a detector.  A table
    may be injected to point the detector at foreign data; its entries must be
    ``IntPoly``.

    The series F = sum T_k z^k of the table, T_k = P_{k+1}, solves
    A F^2 + B F + 1 = 0 with A = qz (2 - (q-1)^2 z) and B = (q-1)^2 z - 1.  The
    residual is R_k = rhs_k - T_k, with rhs_k what the quadratic recurrence of
    ``special_values`` makes of the entries before T_k:
    R_k = 2q S_{k-1} - q (q-1)^2 S_{k-2} - T_k + (q-1)^2 T_{k-1} + [k = 0],
    where S_j = sum_i T_i T_{j-i}.  That costs O(k) polynomial products per k.

    Most of them need not run.  G = 2AF + B squares to
    Delta = B^2 - 4A = 1 - 2(q+1)^2 z + (q^2-1)^2 z^2, so 2 Delta G' = Delta' G,
    an equation linear in F; its z^k coefficient over 4q is the recurrence of
    ``_linear_terms``, at most four small-by-large products per k.  Both
    recurrences fix T_k from T_0..T_{k-1} (T_k enters R_k with coefficient -1
    and the linear one with 2(k+1), never zero), and the true series satisfies
    both.  So if the first entry at which the linear residual is nonzero is m,
    T_0..T_{m-1} are the true entries and T_m is not: R_k = 0 for k < m and
    R_m != 0.  Only R_m onwards runs the quadratic recurrence, and a correct
    table runs no pair sum at all.
    """
    n_max = integer_at_least(n_max, 1, "n_max")
    if polys is None:
        polys = value_polynomials(n_max)
    if len(polys) < n_max:
        raise DomainError(f"need at least {n_max} polynomials, got {len(polys)}")
    table = polys[:n_max]
    for p in table:
        if not isinstance(p, IntPoly):
            raise DomainError(f"table entries must be IntPoly, got {type(p).__name__}")
    q, qm1_sq, one, sum_of_products = _poly_ring()
    m = next((k for k in range(n_max) if sum_of_products(_linear_terms(table, k))), n_max)
    rhs = _quadratic_recurrence(table, m, q, qm1_sq, one, sum_of_products)
    return (IntPoly(),) * m + tuple(r - t for t, r in zip(table[m:], rhs))
