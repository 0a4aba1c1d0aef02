"""Numeric evaluation of the spectral zeta function and its relatives.

The package's one quadrature engine is a nested periodic trapezoid rule on
the spectral-angle form of the defining integral: lambda = 2 sqrt(q)
cos(theta) turns the spectral measure into the weight

    (2/pi) q (q+1) sin^2(theta) / ((q+1)^2 - 4 q cos^2(theta))

on [0, pi].  Every integrand built on it is even, 2 pi-periodic and analytic
in a strip, so the rule converges geometrically, and each doubling samples
only the new midpoints.  Every integrand also carries the factor
sin^2(theta), so the two endpoints contribute nothing and are never sampled.

The nodes depend only on q and the level, so each tree's base, log base and
h-scaled weights are built once per level and cached: levels up to
CACHED_MAX_INTERVALS intervals, for the GRID_CACHE_QS most recently used
branching numbers.  A call then takes no sin, cos or log: zeta is
exp(log W - s log base) summed per level, the completed combination reads a
second log weight, the heat trace is exp(log W - t base) and the resolvent
W / (base - z).  Working in log space keeps each h-scaled term finite
whenever the value is, so real s up to about 409 evaluates at q = 2.

The three levels every call runs sit in one head array, so a call evaluates
its integrand there once and takes the three level sums from one reduceat as
plain Python numbers; the level loop runs on floats for a real integrand, and
each finer level is one np.add.reduce.  The cached grid also holds the
tree's spectral cut, which the resolvent keeps its distance from, and bounds
on log W and |log base|.  A call whose bound keeps every term and sum finite
runs in numpy's default error state; only one whose bound allows an overflow
silences numpy's overflow warnings, so that under any warnings filter the
overflow reaches the caller as OutOfRangeError naming the function called.

Alongside the tree engine live the two limiting line functions (the integer
lattice and its continuous companion), evaluated in log space from the
reflection-completed Lanczos log-gamma, plus the completed symmetric
combinations whose functional equations the verification battery exercises.
They take no quadrature: the battery holds them to their exact values at the
non-positive integers and to a Stirling log-gamma of its own.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, NonConvergedError, PoleError
from .validate import (
    SpectrumCut,
    _edges,
    branching_number,
    finite_point,
    finite_result,
    nonnegative_real,
    tolerance,
)

DEFAULT_ABS_TOL = 1e-13
DEFAULT_REL_TOL = 1e-11
DEFAULT_MAX_NODES = 1 << 20
FIRST_LEVEL_INTERVALS = 16
MIN_CONVERGED_LEVEL = 2
CACHED_MAX_INTERVALS = 4096
GRID_CACHE_QS = 8


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and interval budget for the nested trapezoid rule."""

    abs_tol: float = DEFAULT_ABS_TOL
    rel_tol: float = DEFAULT_REL_TOL
    max_nodes: int = DEFAULT_MAX_NODES

    def __post_init__(self):
        tolerance(self.abs_tol, "abs_tol")
        tolerance(self.rel_tol, "rel_tol")
        n = self.max_nodes
        if n < FIRST_LEVEL_INTERVALS or n & (n - 1):
            raise DomainError(f"max_nodes must be a power of two >= {FIRST_LEVEL_INTERVALS}")


_DEFAULT_SPEC = QuadratureSpec()


@dataclass(frozen=True)
class ZetaEval:
    """One quadrature result with its own error estimate; nodes counts integrand evaluations."""

    value: complex
    est_error: float
    nodes: int
    converged: bool

    @property
    def levels(self) -> int:
        """Doublings of the first level's intervals: nodes = 16 * 2**levels + 1."""
        return ((self.nodes - 1) // FIRST_LEVEL_INTERVALS).bit_length() - 1

    def require(self, context: str = "quadrature", *args) -> complex:
        """The value once converged; else NonConvergedError naming context.format(*args).

        The context is formatted on failure only, so a converged call formats
        nothing; without args it is taken as it stands.
        """
        if not self.converged:
            what = context.format(*args) if args else context
            raise NonConvergedError(
                f"{what} did not converge within the node budget "
                f"(estimated error {self.est_error:.3g})",
                best=self.value,
                est_error=self.est_error,
            )
        return self.value


def _nested_trapezoid(
    sums: list,
    spec: QuadratureSpec,
    integrand: Optional[Callable[[_Nodes], np.ndarray]] = None,
    grid: Optional[_Grid] = None,
) -> ZetaEval:
    """The level loop of the nested trapezoid rule on [0, pi].

    Level k has N = 16 * 2^k <= spec.max_nodes intervals of width h, and its
    level sum is h times the integrand summed over the nodes level k adds:
    the interior nodes at level 0, the N / 2 new midpoints after it.  sums
    holds the first levels' sums as plain Python numbers (the grid's head,
    taken in one pass); a level past them sums integrand(grid.level(k)).
    The loop runs on floats for a real integrand and on complex numbers
    otherwise, and converts the value to complex once, on return.

    The integrand vanishes at both ends, so level k's integral is half of
    level k - 1's plus its level sum, and the N + 1 nodes of the last level
    are every sample taken.  Convergence means two doublings have happened
    and the last one moved the value by no more than the tolerance; the last
    move is the error estimate either way.  A level that overflows double
    precision raises OverflowError at once, before the next is asked for;
    the entry points' finite_result reports it as OutOfRangeError naming
    the function called.
    """
    k = 0
    integral = sums[0]
    prev = None
    est = math.inf
    while True:
        n = FIRST_LEVEL_INTERVALS << k
        try:
            size = abs(integral)
        except OverflowError:
            size = math.inf
        if not size < math.inf:  # also refuses NaN
            raise OverflowError(f"integral out of floating-point range (|value| = {size})")
        if prev is not None:
            try:
                est = abs(integral - prev)
            except OverflowError:  # two representable levels too far apart to subtract
                est = math.inf
            if k >= MIN_CONVERGED_LEVEL and est <= max(spec.abs_tol, spec.rel_tol * size):
                return ZetaEval(complex(integral), est, n + 1, True)
        if 2 * n > spec.max_nodes:
            return ZetaEval(complex(integral), est, n + 1, False)
        prev = integral
        k += 1
        if k < len(sums):
            integral = 0.5 * integral + sums[k]
        else:  # np.add.reduce is np.sum's pairwise sum without its Python wrapper
            integral = 0.5 * integral + np.add.reduce(integrand(grid.level(k))).item()


def _level_angles(k: int) -> tuple[np.ndarray, float]:
    """The angles level k adds to the rule, and that level's interval width."""
    n = FIRST_LEVEL_INTERVALS << k
    h = math.pi / n
    return h * np.arange(1, n, 1 if k == 0 else 2), h


class _Nodes:
    """One tree's integrand factors at a set of angles.

    base = q + 1 - 2 sqrt(q) cos(theta) is the spectral variable, weight is
    the spectral weight times the interval width h of the node's level, and
    log_xi_weight is the log of weight * (2(q+1) - base).  Every angle lies
    strictly inside (0, pi), so every log is finite.
    """

    __slots__ = ("base", "log_base", "weight", "log_weight", "log_xi_weight")

    def __init__(self, q: int, theta: np.ndarray, h):
        c = np.cos(theta)
        sn = np.sin(theta)
        self.base = (q + 1) - 2.0 * math.sqrt(q) * c
        self.log_base = np.log(self.base)
        self.weight = h * (2.0 / math.pi) * q * (q + 1) * sn * sn / ((q + 1) ** 2 - 4.0 * q * c * c)
        self.log_weight = np.log(self.weight)
        self.log_xi_weight = self.log_weight + np.log(2 * (q + 1) - self.base)


# exp of less than this, summed over fewer than 2**80 nodes, stays below the largest double
_LOG_IN_RANGE = 650.0
# below this, |Im s| log base, t base and weight / (base - z) stay finite with room to spare
_MAGNITUDE_IN_RANGE = 1e300


class _Grid:
    """The nodes of one tree, built on first use, and the bounds its calls check.

    Levels 0..MIN_CONVERGED_LEVEL run on every call, so they sit in one
    concatenated head, evaluated at once and split by head_starts.  Finer
    levels up to CACHED_MAX_INTERVALS intervals are kept once built; finer
    ones than that are rebuilt per call, so a large node budget adds no
    resident memory.

    cut is the spectrum [lo, hi] the resolvent refuses to come near.  The
    spectral weight peaks at theta = pi / 2, a node of level 0, so the head's
    largest log weight bounds every level's, and log_term_max adds log(hi) to
    cover the xi weight too; log_base_max bounds |log base| over [lo, hi].
    """

    def __init__(self, q: int):
        self.q = q
        self.cut = SpectrumCut(*_edges(q))
        parts = [_level_angles(k) for k in range(MIN_CONVERGED_LEVEL + 1)]
        theta = np.concatenate([t for t, _ in parts])
        widths = np.concatenate([np.full(len(t), h) for t, h in parts])
        # a q whose weight factor q (q + 1) overflows a double is refused here, once,
        # as the OverflowError that the entry points' finite_result reports
        with np.errstate(over="raise"):
            try:
                self.head = _Nodes(q, theta, widths)
            except FloatingPointError:
                raise OverflowError("the quadrature weights overflow") from None
        self.head_starts = np.cumsum([0] + [len(t) for t, _ in parts[:-1]])
        self.levels: dict[int, _Nodes] = {}
        log_lo, log_hi = math.log(self.cut.lo), math.log(self.cut.hi)
        self.log_term_max = float(self.head.log_weight.max()) + log_hi
        self.log_base_max = max(-log_lo, log_hi)

    def level(self, k: int) -> _Nodes:
        nodes = self.levels.get(k)
        if nodes is None:
            nodes = _Nodes(self.q, *_level_angles(k))
            if FIRST_LEVEL_INTERVALS << k <= CACHED_MAX_INTERVALS:
                self.levels[k] = nodes
        return nodes

    def power_in_range(self, s: complex) -> bool:
        """Whether every term of the zeta and xi integrands at s, and every level sum, is finite."""
        return (
            self.log_term_max + abs(s.real) * self.log_base_max < _LOG_IN_RANGE
            and abs(s.imag) < _MAGNITUDE_IN_RANGE
        )


@lru_cache(maxsize=GRID_CACHE_QS)
def _grid(q: int) -> _Grid:
    return _Grid(q)


def _quadrature(
    grid: _Grid,
    integrand: Callable[[_Nodes], np.ndarray],
    spec: Optional[QuadratureSpec],
    in_range: bool,
) -> ZetaEval:
    """Integrate over [0, pi] an integrand given as h-scaled values at a set of nodes.

    The head's three level sums come from one reduceat.  in_range is the
    caller's word that its integrand, and every sum of it, stays finite;
    otherwise numpy's overflow and invalid-value warnings are silenced around
    the rule, and the loop's own finiteness test reports what overflowed.
    """
    if not in_range:
        with np.errstate(over="ignore", invalid="ignore"):
            return _quadrature(grid, integrand, spec, True)
    sums = np.add.reduceat(integrand(grid.head), grid.head_starts).tolist()
    return _nested_trapezoid(sums, spec or _DEFAULT_SPEC, integrand, grid)


def _real_if_real(s: complex):
    """s as a float when it is real, so that its integrands take the real exp."""
    return s.real if not s.imag else s


@finite_result
def zeta_numeric(q: int, s: complex, spec: Optional[QuadratureSpec] = None) -> ZetaEval:
    """The spectral zeta value at any complex s, by quadrature.

    Entire in s; the integrand's base stays inside the positive spectral
    interval, so complex powers need no branch care.  Each term is
    exp(log W - s log base) with the interval width folded into W, so a
    term overflows only past where the value itself does: at q = 2, real s
    evaluates up to 409 (about 1.1e308) and raises OutOfRangeError at 410.
    """
    q = branching_number(q)
    s = finite_point(s)
    e = _real_if_real(s)
    grid = _grid(q)
    in_range = grid.power_in_range(s)
    return _quadrature(grid, lambda g: np.exp(g.log_weight - e * g.log_base), spec, in_range)


@finite_result
def xi_value(q: int, s: complex, spec: Optional[QuadratureSpec] = None) -> complex:
    """The completed combination (q-1)^s (2(q+1) zeta(s) - zeta(s-1)), s -> 1 - s symmetric.

    One quadrature: the two zeta integrands share the factor base^-s, and
    2(q+1) - base = q + 1 + 2 sqrt(q) cos(theta) stays positive.
    """
    q = branching_number(q)
    s = finite_point(s)
    e = _real_if_real(s)
    grid = _grid(q)
    in_range = grid.power_in_range(s)
    ev = _quadrature(grid, lambda g: np.exp(g.log_xi_weight - e * g.log_base), spec, in_range)
    return cmath.exp(s * math.log(q - 1)) * ev.require("xi at {}", s)


@finite_result
def heat_trace(q: int, t: float, spec: Optional[QuadratureSpec] = None) -> float:
    """Return-probability-weighted heat kernel trace per vertex at time t, a real number >= 0."""
    q = branching_number(q)
    t = nonnegative_real(t, "heat time")
    grid = _grid(q)
    # exp(log W - t base) is at most W, so only the product t base can overflow
    in_range = t * grid.cut.hi < _MAGNITUDE_IN_RANGE
    ev = _quadrature(grid, lambda g: np.exp(g.log_weight - t * g.base), spec, in_range)
    return ev.require("heat trace at t={}", t).real


@finite_result
def resolvent_transform(q: int, z: complex, spec: Optional[QuadratureSpec] = None) -> complex:
    """Stieltjes transform of the spectral measure at a point off the spectrum."""
    q = branching_number(q)
    z = finite_point(z)
    grid = _grid(q)
    grid.cut.refuse_near(z)
    in_range = abs(z.real) + abs(z.imag) < _MAGNITUDE_IN_RANGE
    ev = _quadrature(grid, lambda g: g.weight / (g.base - z), spec, in_range)
    return ev.require("resolvent at z={}", z)


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


def _log_sin_pi(s: complex) -> complex:
    """A logarithm of sin(pi s), finite however large |Im s| is.

    With x = Re s reduced mod 2 and y = Im s, sin(pi s) is
    e^(pi |y|) / 2 * (sin(pi x) (1 + e^(-2 pi |y|)) + i sign(y) cos(pi x) (1 - e^(-2 pi |y|))).
    """
    x = s.real - 2 * round(s.real / 2)
    y = abs(s.imag)
    inner = complex(
        math.sin(math.pi * x) * (1 + math.exp(-2 * math.pi * y)),
        -math.copysign(1.0, s.imag) * math.cos(math.pi * x) * math.expm1(-2 * math.pi * y),
    )
    return math.pi * y - math.log(2) + cmath.log(inner)


def _log_gamma(s: complex) -> complex:
    """A logarithm of Gamma(s) away from its poles, reflected on logs for Re s < 1/2."""
    if s.real < 0.5:
        return math.log(math.pi) - _log_sin_pi(s) - _log_gamma(1 - s)
    s -= 1
    acc = _LANCZOS_COEFFS[0]
    for i, c in enumerate(_LANCZOS_COEFFS[1:], start=1):
        acc += c / (s + i)
    t = s + _LANCZOS_G + 0.5
    return 0.5 * math.log(2 * math.pi) + (s + 0.5) * cmath.log(t) - t + cmath.log(acc)


def _exp_log(log_value: complex, s: complex) -> complex:
    """exp of a sum of logs; real for real s, where the phase is a multiple of pi."""
    value = cmath.exp(log_value)
    return value if s.imag else complex(value.real)


@finite_result
def complex_gamma(s: complex) -> complex:
    """Gamma function on the complex plane, poles reported rather than inf."""
    s = finite_point(s)
    if _near_nonpositive_integer(s):
        raise PoleError(f"gamma pole at {s}")
    return _exp_log(_log_gamma(s), s)


@finite_result
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
    return _exp_log(
        -2 * s * math.log(2) - 0.5 * math.log(math.pi) + _log_gamma(0.5 - s) - _log_gamma(1 - s),
        s,
    )


@finite_result
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
    return _exp_log(
        (1 - w) * math.log(4) - 0.5 * math.log(math.pi) + _log_gamma(1.5 - w) - _log_gamma(3 - w),
        w,
    )


@finite_result
def xi_sato_tate(s: complex) -> complex:
    """Completed symmetric combination of the semicircle zeta.

    Assembled from the raw pieces rather than the equivalent gamma-quotient
    closed form, so its s -> 1 - s symmetry stays a genuine check instead of
    an algebraic tautology.
    """
    s = finite_point(s)
    return (2 - s) * cmath.exp(s * math.log(2)) * cmath.cos(math.pi * s / 2) * zeta_sato_tate(1 + s / 2)


@finite_result
def xi_sato_tate_defect(s: complex) -> complex:
    return xi_sato_tate(s) - xi_sato_tate(1 - s)
