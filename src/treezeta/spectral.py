"""Numeric evaluation of the spectral zeta function and its relatives.

The workhorse is an adaptive composite Gauss-Legendre rule applied to the
spectral-angle form of the defining integral: the substitution
lambda = 2 sqrt(q) cos(theta) turns the spectral measure into a smooth weight

    (2/pi) q (q+1) sin^2(theta) / ((q+1)^2 - 4 q cos^2(theta))

on [0, pi], so every integrand here is analytic on the closed interval and
panel doubling converges geometrically.  The same weight drives the zeta
values, the heat trace and the resolvent transform.

Alongside the tree engine live the two limiting line functions (the integer
lattice and its continuous companion) built from the reflection-completed
Lanczos gamma approximation, plus the completed symmetric combinations whose
functional equations the verification battery exercises.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, NonConvergedError, OutOfRangeError, PoleError
from .genfun import spectral_edges, spectrum_cut
from .validate import branching_number, finite_point

DEFAULT_ABS_TOL = 1e-13
DEFAULT_REL_TOL = 1e-11
DEFAULT_MAX_NODES = 1 << 20
NODES_PER_PANEL = 16
MIN_CONVERGED_LEVEL = 2


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and budget for the panel-doubling quadrature."""

    abs_tol: float = DEFAULT_ABS_TOL
    rel_tol: float = DEFAULT_REL_TOL
    max_nodes: int = DEFAULT_MAX_NODES
    nodes_per_panel: int = NODES_PER_PANEL

    def __post_init__(self):
        for tol in (self.abs_tol, self.rel_tol):
            if not (math.isfinite(tol) and tol > 0):
                raise DomainError("tolerances must be positive and finite")
        if self.nodes_per_panel < 2:
            raise DomainError("need at least two nodes per panel")
        n = self.max_nodes
        if n < self.nodes_per_panel or n & (n - 1):
            raise DomainError("max_nodes must be a power of two holding at least one panel")


@dataclass(frozen=True)
class ZetaEval:
    """One quadrature result with its own error estimate."""

    value: complex
    est_error: float
    nodes: int
    converged: bool

    def require(self, context: str = "quadrature") -> complex:
        if not self.converged:
            raise NonConvergedError(
                f"{context} did not converge within the node budget "
                f"(estimated error {self.est_error:.3g})",
                best=self.value,
                est_error=self.est_error,
            )
        return self.value


@lru_cache(maxsize=None)
def _gl_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def _composite_gl(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    spec: QuadratureSpec,
) -> ZetaEval:
    """Integrate a vectorised integrand over [a, b] by panel doubling.

    Convergence means two extra doublings have happened and the last doubling
    moved the value by no more than the tolerance; the last move is reported
    as the error estimate either way.  A level whose value overflows double
    precision raises OutOfRangeError at once: no finer level can repair it.
    """
    x, w = _gl_rule(spec.nodes_per_panel)
    prev: Optional[complex] = None
    est = math.inf
    level = 0
    while True:
        panels = 1 << level
        nodes_total = panels * spec.nodes_per_panel
        edges = np.linspace(a, b, panels + 1)
        half = 0.5 * (edges[1] - edges[0])
        mids = 0.5 * (edges[1:] + edges[:-1])
        pts = (mids[:, None] + half * x[None, :]).ravel()
        vals = np.asarray(f(pts)).reshape(panels, spec.nodes_per_panel)
        integral = complex(half * np.sum(vals @ w))
        try:
            size = abs(integral)
        except OverflowError:
            size = math.inf
        if not size < math.inf:  # also refuses NaN
            raise OutOfRangeError(f"integral out of floating-point range (|value| = {size})")
        if prev is not None:
            try:
                est = abs(integral - prev)
            except OverflowError:  # two representable levels too far apart to subtract
                est = math.inf
            if level >= MIN_CONVERGED_LEVEL and est <= max(spec.abs_tol, spec.rel_tol * size):
                return ZetaEval(integral, est, nodes_total, True)
        if 2 * nodes_total > spec.max_nodes:
            return ZetaEval(integral, est, nodes_total, False)
        prev = integral
        level += 1


def _angle_weight(q: int, theta: np.ndarray) -> np.ndarray:
    s = np.sin(theta)
    c = np.cos(theta)
    return (2.0 / math.pi) * q * (q + 1) * s * s / ((q + 1) ** 2 - 4.0 * q * c * c)


def _angle_base(q: int, theta: np.ndarray) -> np.ndarray:
    return (q + 1) - 2.0 * math.sqrt(q) * np.cos(theta)


def _finite_result(fn: Callable) -> Callable:
    """Turn a float overflow inside fn, or a non-finite value, into OutOfRangeError."""

    @functools.wraps(fn)
    def checked(*args, **kwargs):
        try:
            value = fn(*args, **kwargs)
        except OverflowError:
            value = math.inf
        if not cmath.isfinite(value):
            at = ", ".join(str(a) for a in args)
            raise OutOfRangeError(f"{fn.__name__} at {at} is out of floating-point range")
        return value

    return checked


def zeta_numeric(q: int, s: complex, spec: Optional[QuadratureSpec] = None) -> ZetaEval:
    """The spectral zeta value at any complex s, by quadrature.

    Entire in s; the integrand's base stays inside the positive spectral
    interval, so complex powers need no branch care.
    """
    q = branching_number(q)
    s = finite_point(s)
    spec = spec or QuadratureSpec()

    def f(theta: np.ndarray) -> np.ndarray:
        return np.exp(-s * np.log(_angle_base(q, theta))) * _angle_weight(q, theta)

    return _composite_gl(f, 0.0, math.pi, spec)


def _panel_doubling_trace(
    q: int, s: complex, levels: int, spec: Optional[QuadratureSpec] = None
) -> list[complex]:
    """Successive composite values for the zeta integrand, one per level."""
    q = branching_number(q)
    if levels < 1:
        raise DomainError("need at least one level")
    spec = spec or QuadratureSpec()
    s = complex(s)
    x, w = _gl_rule(spec.nodes_per_panel)
    out = []
    for level in range(levels):
        panels = 1 << level
        edges = np.linspace(0.0, math.pi, panels + 1)
        half = 0.5 * (edges[1] - edges[0])
        mids = 0.5 * (edges[1:] + edges[:-1])
        pts = (mids[:, None] + half * x[None, :]).ravel()
        vals = np.exp(-s * np.log(_angle_base(q, pts))) * _angle_weight(q, pts)
        out.append(complex(half * np.sum(vals.reshape(panels, -1) @ w)))
    return out


@_finite_result
def xi_value(q: int, s: complex, spec: Optional[QuadratureSpec] = None) -> complex:
    """The completed two-term combination satisfying s -> 1 - s symmetry."""
    q = branching_number(q)
    s = finite_point(s)
    za = zeta_numeric(q, s, spec).require(f"zeta at {s}")
    zb = zeta_numeric(q, s - 1, spec).require(f"zeta at {s - 1}")
    return cmath.exp(s * math.log(q - 1)) * (2 * (q + 1) * za - zb)


@_finite_result
def xi_defect(q: int, s: complex, spec: Optional[QuadratureSpec] = None) -> complex:
    """Residual of the reflection s -> 1 - s of the completed combination."""
    return xi_value(q, s, spec) - xi_value(q, 1 - s, spec)


def heat_trace(q: int, t: float, spec: Optional[QuadratureSpec] = None) -> float:
    """Return-probability-weighted heat kernel trace per vertex at time t."""
    q = branching_number(q)
    if not t >= 0:  # also refuses NaN
        raise DomainError(f"heat time must be non-negative, got {t}")
    spec = spec or QuadratureSpec()

    def f(theta: np.ndarray) -> np.ndarray:
        return np.exp(-t * _angle_base(q, theta)) * _angle_weight(q, theta)

    return _composite_gl(f, 0.0, math.pi, spec).require(f"heat trace at t={t}").real


def resolvent_transform(q: int, z: complex, spec: Optional[QuadratureSpec] = None) -> complex:
    """Stieltjes transform of the spectral measure at a point off the spectrum."""
    q = branching_number(q)
    z = finite_point(z)
    spectrum_cut(q).refuse_near(z)
    spec = spec or QuadratureSpec()

    def f(theta: np.ndarray) -> np.ndarray:
        return _angle_weight(q, theta) / (_angle_base(q, theta) - z)

    return _composite_gl(f, 0.0, math.pi, spec).require(f"resolvent at z={z}")


# Lanczos approximation, g = 7, nine coefficients; accurate to roughly
# fifteen significant figures on the right half plane after reflection.
_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

POLE_NEIGHBOURHOOD = 1e-12


def _near_nonpositive_integer(s: complex) -> bool:
    n = round(s.real)
    return n <= 0 and abs(s - n) < POLE_NEIGHBOURHOOD


@_finite_result
def complex_gamma(s: complex) -> complex:
    """Gamma function on the complex plane, poles reported rather than inf."""
    s = finite_point(s)
    if _near_nonpositive_integer(s):
        raise PoleError(f"gamma pole at {s}")
    if s.real < 0.5:
        return math.pi / (cmath.sin(math.pi * s) * complex_gamma(1 - s))
    s -= 1
    acc = _LANCZOS_COEFFS[0]
    for i, c in enumerate(_LANCZOS_COEFFS[1:], start=1):
        acc += c / (s + i)
    t = s + _LANCZOS_G + 0.5
    return math.sqrt(2 * math.pi) * t ** (s + 0.5) * cmath.exp(-t) * acc


@_finite_result
def zeta_line(s: complex) -> complex:
    """Spectral zeta of the two-regular tree, the integer line, in closed form.

    Vanishes at the positive integers, has poles at the positive half odd
    integers; the value at -m is the central binomial coefficient.
    """
    s = finite_point(s)
    if _near_nonpositive_integer(0.5 - s):
        raise PoleError(f"line zeta pole at s={s}")
    if _near_nonpositive_integer(1 - s):
        return 0j
    return (
        cmath.exp(-2 * s * math.log(2))
        / math.sqrt(math.pi)
        * complex_gamma(0.5 - s)
        / complex_gamma(1 - s)
    )


@_finite_result
def zeta_sato_tate(w: complex) -> complex:
    """Zeta of the semicircle-type spectral weight on [0, 4], in closed form.

    The large-branching limit of the tree zeta after its natural rescaling;
    also the line zeta shifted by one and divided by 2 - w, with the
    singularity at w = 2 already removed by cancelling the line zero there.
    """
    w = finite_point(w)
    if _near_nonpositive_integer(1.5 - w):
        raise PoleError(f"pole at w={w}")
    if _near_nonpositive_integer(3 - w):
        return 0j
    return (
        cmath.exp((1 - w) * math.log(4))
        / math.sqrt(math.pi)
        * complex_gamma(1.5 - w)
        / complex_gamma(3 - w)
    )


SATO_TATE_QUAD_PANELS = 40
SATO_TATE_QUAD_NODES = 24
SATO_TATE_MAX_RE = 1.4


@_finite_result
def zeta_sato_tate_quad(s: complex) -> complex:
    """Direct quadrature check of the semicircle zeta for Re s < 1.4.

    The integrand degenerates like phi^(2 - 2s) at the left endpoint, so the
    mesh is graded dyadically toward it and the innermost sliver is summed by
    its leading power law; past Re s = 1.4 that tail treatment loses accuracy,
    hence the hard validity bound.
    """
    s = finite_point(s)
    if s.real >= SATO_TATE_MAX_RE:
        raise DomainError(f"direct quadrature is only valid for Re s < {SATO_TATE_MAX_RE}")
    x, w = _gl_rule(SATO_TATE_QUAD_NODES)
    total = 0j
    hi = math.pi
    for _ in range(SATO_TATE_QUAD_PANELS):
        lo = hi / 2
        half = 0.5 * (hi - lo)
        mid = 0.5 * (hi + lo)
        pts = mid + half * x
        # 2 - 2 cos(phi) = 4 sin^2(phi/2), immune to cancellation at tiny phi
        vals = np.exp(-s * (math.log(4.0) + 2.0 * np.log(np.sin(pts / 2)))) * np.sin(pts) ** 2
        total += complex(half * np.dot(vals, w))
        hi = lo
    tail = hi ** (3 - 2 * s) / (3 - 2 * s)
    return (2.0 / math.pi) * (total + tail)


@_finite_result
def xi_sato_tate(s: complex) -> complex:
    """Completed symmetric combination of the semicircle zeta.

    Assembled from the raw pieces rather than the equivalent gamma-quotient
    closed form, so its s -> 1 - s symmetry stays a genuine check instead of
    an algebraic tautology.
    """
    s = finite_point(s)
    return (2 - s) * cmath.exp(s * math.log(2)) * cmath.cos(math.pi * s / 2) * zeta_sato_tate(1 + s / 2)


@_finite_result
def xi_sato_tate_defect(s: complex) -> complex:
    return xi_sato_tate(s) - xi_sato_tate(1 - s)


def heat_decay_bound(q: int, t: float) -> float:
    """Envelope 2 exp(-t r) with r the bottom of the spectrum."""
    q = branching_number(q)
    if not t >= 0:  # also refuses NaN
        raise DomainError(f"heat time must be non-negative, got {t}")
    return 2.0 * math.exp(-t * spectral_edges(q)[0])