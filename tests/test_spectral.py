"""Quadrature engine, gamma machinery, and the two line-limit functions."""

import cmath
import math
import os
import random
import subprocess
import sys
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import treezeta
from treezeta import spectral
from treezeta.errors import (
    CutViolationError,
    DomainError,
    NonConvergedError,
    OutOfRangeError,
    PoleError,
)
from treezeta.exact import poly_eval
from treezeta.genfun import (
    neg_value_genfun,
    pos_value_genfun,
    spectral_edges,
)
from treezeta.special_values import negative_value_table, zeta_integer
from treezeta.spectral import (
    CACHED_MAX_INTERVALS,
    FIRST_LEVEL_INTERVALS,
    GRID_CACHE_QS,
    MIN_CONVERGED_LEVEL,
    QuadratureSpec,
    _grid,
    _exp_log,
    _log_gamma,
    _quadrature,
    heat_eval,
    heat_trace,
    resolvent_transform,
    xi_sato_tate,
    xi_sato_tate_defect,
    xi_value,
    zeta_line,
    zeta_numeric,
    zeta_sato_tate,
)


class TestQuadratureSpec:
    def test_defaults_valid(self):
        spec = QuadratureSpec()
        assert spec.max_nodes == 1 << 20

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"abs_tol": 0.0},
            {"rel_tol": -1e-9},
            {"max_nodes": 1000},  # not a power of two
            {"max_nodes": 8},  # below the first level
            {"abs_tol": math.nan},
            {"rel_tol": math.nan},
            {"abs_tol": math.inf},
            {"abs_tol": 10**400},  # past the largest float, refused without overflow
            {"rel_tol": 10**400},
            {"rel_tol": True},
            {"abs_tol": "1e-13"},
            {"max_nodes": 64.0},  # integral, but not an integer
            {"max_nodes": "a"},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(DomainError):
            QuadratureSpec(**kwargs)

    def test_nodes_per_panel_is_gone(self):
        with pytest.raises(TypeError):
            QuadratureSpec(nodes_per_panel=16)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: zeta_numeric(3, 2, spec=5),
            lambda: xi_value(3, 2, spec=5),
            lambda: heat_trace(3, 1.0, spec=5),
            lambda: heat_eval(3, 1.0, spec=5),
            lambda: resolvent_transform(3, -1.0, spec=5),
            lambda: zeta_numeric(2, 500, spec=0),  # falsy, and on the rule's out-of-range path
        ],
        ids=["zeta", "xi", "heat", "heat-eval", "resolvent", "zero"],
    )
    def test_spec_of_another_type_is_a_domain_error(self, call):
        with pytest.raises(DomainError, match="^spec must be a QuadratureSpec or None, got int$"):
            call()


class _Samples:
    """A stand-in grid whose nodes are already h-scaled integrand values.

    _quadrature(grid, _as_is, spec, True) runs the rule on them: head holds
    levels 0..MIN_CONVERGED_LEVEL, one array each, and level(k) gives a
    finer level's values through finer(k), recording each k asked for.
    """

    def __init__(self, head_levels, finer=None):
        self.head = np.concatenate([np.asarray(v) for v in head_levels])
        self.head_starts = np.cumsum([0] + [len(v) for v in head_levels[:-1]])
        self.finer = finer
        self.asked = []

    def level(self, k):
        self.asked.append(k)
        return self.finer(k)


def _as_is(values):
    return values


def _sampled(f):
    """_Samples of f on [0, pi] at every level, endpoints included at half weight in level 0."""

    def level(k):
        n = FIRST_LEVEL_INTERVALS << k
        h = math.pi / n
        if k == 0:
            vals = h * f(h * np.arange(n + 1))
            vals[[0, -1]] *= 0.5
            return vals
        return h * f(h * np.arange(1, n, 2))

    return _Samples([level(k) for k in range(MIN_CONVERGED_LEVEL + 1)], level)


def _trapezoid(f, n=512):
    """A plain trapezoid rule for f on [0, pi] with n intervals."""
    h = math.pi / n
    vals = f(h * np.arange(n + 1))
    return h * (np.sum(vals) - 0.5 * (vals[0] + vals[-1]))


class TestPeriodicTrapezoid:
    def test_trig_polynomial_exact(self):
        # exact for cos(m theta) with m < 2N: pi (1 + 3/8) from the constant
        # terms, nothing from the rest
        def f(theta):
            return 1 + 3 * np.cos(theta) + 2 * np.cos(2 * theta) + np.cos(theta) ** 4

        grid = _sampled(f)
        value, _, nodes, converged = _quadrature(grid, _as_is, QuadratureSpec(), True)
        assert converged
        assert nodes == 4 * FIRST_LEVEL_INTERVALS + 1
        assert value.real == pytest.approx(11 * math.pi / 8, rel=1e-14)
        assert grid.asked == []

    def test_budget_exhaustion_reports_unconverged(self):
        spec = QuadratureSpec(max_nodes=64)
        res = zeta_numeric(2, 2 + 50j, spec)
        assert not res.converged
        with pytest.raises(NonConvergedError) as exc:
            res.require("test")
        assert exc.value.best is not None
        assert exc.value.est_error == res.est_error

    def test_doubling_errors_shrink(self):
        ref = zeta_numeric(2, 1.7).value
        levels = [
            zeta_numeric(2, 1.7, QuadratureSpec(max_nodes=FIRST_LEVEL_INTERVALS << k))
            for k in range(5)
        ]
        assert [ev.nodes for ev in levels[:3]] == [17, 33, 65]
        errs = [abs(ev.value - ref) for ev in levels]
        assert errs[0] > errs[1] > errs[2]
        assert max(errs[2:]) < 1e-12

    def test_levels_count_doublings(self):
        evals = [
            zeta_numeric(2, 1.7, QuadratureSpec(max_nodes=FIRST_LEVEL_INTERVALS << k))
            for k in range(3)
        ]
        assert [(ev.nodes, ev.levels) for ev in evals] == [(17, 0), (33, 1), (65, 2)]
        ev = zeta_numeric(2, 1.7)
        assert ev.nodes == (FIRST_LEVEL_INTERVALS << ev.levels) + 1


class TestZetaNumeric:
    def test_value_at_zero_is_one(self):
        assert zeta_numeric(2, 0).value.real == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("q", [2, 3, 5])
    @pytest.mark.parametrize("k", range(-6, 7))
    def test_matches_exact_integers(self, q, k):
        want = float(zeta_integer(q, k))
        got = zeta_numeric(q, k).require().real
        assert got == pytest.approx(want, rel=1e-11)

    def test_conjugate_symmetry(self):
        s = 1.3 + 2.4j
        a = zeta_numeric(3, s).value
        b = zeta_numeric(3, s.conjugate()).value
        assert a == pytest.approx(b.conjugate(), rel=1e-12)

    def test_rejects_bad_q(self):
        with pytest.raises(DomainError):
            zeta_numeric(1, 2)

    @pytest.mark.parametrize("s", [math.nan, complex(1, math.nan), complex(math.inf, 0)])
    def test_rejects_non_finite_point(self, s, monkeypatch):
        def no_quadrature(*args):
            raise AssertionError("quadrature ran on a non-finite point")

        monkeypatch.setattr(spectral, "_quadrature", no_quadrature)
        with pytest.raises(DomainError):
            zeta_numeric(2, s)

    def test_normalised_measure_invariant(self):
        # pulling the measure back to the unit-normalised spectrum leaves
        # (q+1)^(s-1) times the zeta value, for any s
        for q, s in ((2, 0.7), (5, 2.0), (3, 1 + 1j)):
            rho = 2 * math.sqrt(q) / (q + 1)

            def g(phi, s=s, rho=rho):
                sn, cs = np.sin(phi), np.cos(phi)
                return (
                    np.exp(-s * np.log(1 - rho * cs))
                    * sn
                    * sn
                    / (1 - rho * rho * cs * cs)
                )

            lhs = (rho * rho / (2 * math.pi)) * _trapezoid(g)
            rhs = (q + 1) ** (s - 1) * zeta_numeric(q, s).require()
            assert lhs == pytest.approx(rhs, rel=1e-10)


class TestXi:
    def test_defect_small_generic(self):
        for q, s in ((2, 0.3 + 0.7j), (3, -1.2 + 0.4j), (5, 2.6)):
            d = xi_value(q, s) - xi_value(q, 1 - s)
            scale = max(1.0, abs(xi_value(q, s)))
            assert abs(d) <= 1e-9 * scale

    def test_defect_exactly_zero_at_centre(self):
        assert xi_value(2, 0.5) - xi_value(2, 1 - 0.5) == 0


class TestHeatTrace:
    def test_time_zero_total_mass(self):
        assert heat_trace(3, 0.0) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("q", [2, 3])
    def test_initial_slope(self, q):
        h = 1e-4
        slope = (-3 * heat_trace(q, 0) + 4 * heat_trace(q, h) - heat_trace(q, 2 * h)) / (2 * h)
        assert slope == pytest.approx(-(q + 1), abs=1e-6)

    def test_taylor_coefficients(self):
        table = negative_value_table(24)
        for q, t in ((2, 0.1), (3, 0.3)):
            partial = sum(
                (-t) ** m * int(poly_eval(table[m], q)) / math.factorial(m)
                for m in range(25)
            )
            assert heat_trace(q, t) == pytest.approx(partial, rel=1e-12)

    def test_decay_envelope(self):
        for q in (2, 3):
            lo = spectral_edges(q)[0]
            for t in (0.5, 1.0, 2.0, 5.0):
                k = heat_trace(q, t)
                assert 0 < k <= 2 * math.exp(-t * lo)

    def test_large_time_resolves_the_peak(self):
        # 9.68090308406204e-80 by 40-digit mpmath (test_mpmath_oracle); taken
        # unscaled, the integrand stopped the rule at 65 nodes on 4.5e-80
        ev = heat_eval(2, 1000.0)
        assert ev.converged
        assert ev.value == heat_trace(2, 1000.0) == pytest.approx(9.68090308406204e-80, rel=1e-12)
        assert ev.nodes == 16 * 2**ev.levels + 1 > 65
        assert 0 <= ev.est_error <= 1e-13 * ev.value

    def test_negative_time_rejected(self):
        with pytest.raises(DomainError):
            heat_trace(2, -0.1)

    def test_nan_time_rejected(self):
        with pytest.raises(DomainError):
            heat_trace(2, math.nan)


class TestResolvent:
    def test_value_at_origin_is_first_moment(self):
        assert resolvent_transform(2, 0).real == pytest.approx(2 / 3, rel=1e-12)
        assert resolvent_transform(3, 0).real == pytest.approx(3 / 8, rel=1e-12)

    def test_matches_positive_series_inside(self):
        for q in (2, 3):
            lo, hi = spectral_edges(q)
            for z in (0.3 * lo, 0.6 * lo * 1j, -0.5 * lo):
                want = pos_value_genfun(q, z) / z
                got = resolvent_transform(q, z)
                assert got == pytest.approx(want, rel=1e-10)

    def test_matches_negative_series_outside(self):
        for q in (2, 3):
            lo, hi = spectral_edges(q)
            for z in (1.8 * hi, 4 * hi, 2 * hi * (1 + 1j)):
                want = -neg_value_genfun(q, 1 / z) / z
                got = resolvent_transform(q, z)
                assert got == pytest.approx(want, rel=1e-10)

    def test_refuses_spectrum(self):
        with pytest.raises(CutViolationError):
            resolvent_transform(2, 3.0)


def complex_gamma(s):
    """Gamma from the Lanczos logarithm the line functions run on."""
    return _exp_log(_log_gamma(complex(s)), complex(s))


class TestComplexGamma:
    def test_known_values(self):
        assert complex_gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)
        assert complex_gamma(5) == pytest.approx(24.0, rel=1e-13)
        assert complex_gamma(-0.5) == pytest.approx(-2 * math.sqrt(math.pi), rel=1e-13)
        assert complex_gamma(-2.5) == pytest.approx(-8 * math.sqrt(math.pi) / 15, rel=1e-12)

    def test_modulus_on_critical_line(self):
        v = complex_gamma(0.5 + 1j)
        assert abs(v) ** 2 == pytest.approx(math.pi / math.cosh(math.pi), rel=1e-12)

    def test_reflection_identity(self):
        z = 0.3 - 0.4j
        lhs = complex_gamma(z) * complex_gamma(1 - z)
        rhs = math.pi / np.sin(math.pi * np.complex128(z))
        assert lhs == pytest.approx(complex(rhs), rel=1e-12)

    def test_recurrence(self):
        z = 2.3 + 1.1j
        assert complex_gamma(z + 1) == pytest.approx(z * complex_gamma(z), rel=1e-13)

    @pytest.mark.parametrize("s", [0, -1, -7, 0 + 0j, complex(-3, 0)])
    def test_poles(self, s):
        # a pole of Gamma(1/2 - s) or Gamma(3/2 - w) in a numerator is reported,
        # real or complex, before the Lanczos logarithm is taken
        with pytest.raises(PoleError):
            zeta_line(0.5 - s)
        with pytest.raises(PoleError):
            zeta_sato_tate(1.5 - s)


class TestZetaLine:
    @pytest.mark.parametrize("m", range(7))
    def test_negative_integers_are_central_binomials(self, m):
        assert zeta_line(-m).real == pytest.approx(math.comb(2 * m, m), rel=1e-12)
        assert abs(zeta_line(-m).imag) < 1e-12

    @pytest.mark.parametrize("s", [1, 2, 3, 7])
    def test_zeros_at_positive_integers(self, s):
        assert zeta_line(s) == 0

    @pytest.mark.parametrize("s", [0.5, 1.5, 4.5])
    def test_poles_at_half_integers(self, s):
        with pytest.raises(PoleError):
            zeta_line(s)

    def test_generic_point_stable(self):
        v = zeta_line(0.25)
        # 2^(-1/2) Gamma(1/4) / (sqrt(pi) Gamma(3/4)), by the standard library's gamma
        want = 2 ** (-0.5) * math.gamma(0.25) / (math.sqrt(math.pi) * math.gamma(0.75))
        assert v == pytest.approx(want, rel=1e-13)


class TestZetaSatoTate:
    @pytest.mark.parametrize(
        "w, want",
        [(1, 1.0), (0, 1.0), (-1, 2.0), (-2, 5.0), (2, -0.5)],
    )
    def test_special_values(self, w, want):
        assert zeta_sato_tate(w).real == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("w", [1.5, 2.5, 6.5])
    def test_poles(self, w):
        with pytest.raises(PoleError):
            zeta_sato_tate(w)

    @pytest.mark.parametrize("w", [3, 4, 9])
    def test_zeros(self, w):
        assert zeta_sato_tate(w) == 0

    def test_shifted_ratio_of_line_zeta(self):
        for w in (0.3, -1.7, 0.5 + 0.8j):
            want = zeta_line(w - 1) / (2 - w)
            assert zeta_sato_tate(w) == pytest.approx(want, rel=1e-12)


class TestXiSatoTate:
    def test_defect_small(self):
        for s in (0.3, 0.2 + 1.5j, -0.7 + 0.2j, 2.6):
            scale = max(1.0, abs(xi_sato_tate(s)))
            assert abs(xi_sato_tate_defect(s)) <= 1e-9 * scale

    def test_defect_exactly_zero_at_centre(self):
        assert xi_sato_tate_defect(0.5) == 0

    def test_closed_symmetric_form(self):
        # equals 2 sqrt(pi) / (Gamma((1+s)/2) Gamma(1 - s/2)), proved by
        # reflection; compared here with gammas that share no code with the
        # Lanczos one: the standard library's at real s, mpmath's at complex s
        mpmath = pytest.importorskip("mpmath")
        for s in (0.3, -1.2, 0.4 + 0.9j):
            if isinstance(s, complex):
                gammas = complex(mpmath.gamma((1 + s) / 2) * mpmath.gamma(1 - s / 2))
            else:
                gammas = math.gamma((1 + s) / 2) * math.gamma(1 - s / 2)
            want = 2 * math.sqrt(math.pi) / gammas
            assert xi_sato_tate(s) == pytest.approx(want, rel=1e-11)


def _no_quadrature(*args):
    raise AssertionError("quadrature ran on a point it should refuse")


class TestNonFiniteAndOutOfRange:
    """Every public evaluator returns a finite value or raises a typed error."""

    def test_numpy_branching_number_accepted(self):
        assert zeta_numeric(np.int64(2), 0.5).value == zeta_numeric(2, 0.5).value
        assert heat_trace(np.int64(3), 1.0) == heat_trace(3, 1.0)

    @pytest.mark.parametrize("q", [True, 2.0])
    def test_non_integer_branching_number_refused(self, q):
        with pytest.raises(DomainError):
            zeta_numeric(q, 0.5)

    @pytest.mark.parametrize("s", [math.nan, complex(0.5, math.nan), math.inf, -math.inf])
    @pytest.mark.parametrize("fn", [zeta_line, zeta_sato_tate, xi_sato_tate, xi_sato_tate_defect])
    def test_line_functions_refuse_non_finite(self, fn, s):
        with pytest.raises(DomainError):
            fn(s)

    @pytest.mark.parametrize("z", [math.nan, complex(math.nan, 1.0), complex(0, math.inf)])
    def test_resolvent_refuses_non_finite_before_quadrature(self, z, monkeypatch):
        monkeypatch.setattr(spectral, "_quadrature", _no_quadrature)
        with pytest.raises(DomainError):
            resolvent_transform(2, z)

    @pytest.mark.parametrize("s", [None, "1", "0.5", b"1", [0.5], True, False, np.bool_(True)])
    @pytest.mark.parametrize("fn", [zeta_numeric, xi_value, resolvent_transform])
    def test_non_number_point_refused(self, fn, s, monkeypatch):
        monkeypatch.setattr(spectral, "_quadrature", _no_quadrature)
        with pytest.raises(DomainError, match="evaluation point must be a number"):
            fn(3, s)

    @pytest.mark.parametrize(
        "s",
        [Fraction(1, 2), Decimal("0.5"), np.float64(0.5), np.float32(0.5), np.int64(2), np.complex128(1j)],
    )
    def test_numbers_of_other_types_are_points(self, s):
        assert zeta_numeric(3, s) == zeta_numeric(3, complex(s))

    @pytest.mark.parametrize(
        "s", [Decimal("NaN"), Decimal("sNaN"), Decimal("Infinity"), np.float64(math.inf)]
    )
    def test_non_finite_numbers_of_other_types_refused(self, s):
        with pytest.raises(DomainError, match="must be finite"):
            zeta_numeric(3, s)

    @pytest.mark.parametrize(
        "t", [None, "1", "0.5", True, False, np.bool_(False), 1j, complex(0.5, 0), np.complex128(0.5)]
    )
    def test_heat_time_must_be_a_real_number(self, t, monkeypatch):
        monkeypatch.setattr(spectral, "_quadrature", _no_quadrature)
        with pytest.raises(DomainError, match="heat time must be a real number"):
            heat_trace(3, t)

    @pytest.mark.parametrize(
        "t", [Fraction(3, 10), Decimal("0.3"), np.float64(0.3), np.float32(0.25), np.int64(0), 0]
    )
    def test_real_numbers_of_other_types_are_heat_times(self, t):
        assert heat_trace(3, t) == heat_trace(3, float(t))

    @pytest.mark.parametrize(
        "t", [Decimal("-1"), Decimal("NaN"), Decimal("sNaN"), Fraction(-1, 3), np.float64(math.nan)]
    )
    def test_negative_or_nan_heat_time_of_other_types_refused(self, t):
        with pytest.raises(DomainError, match="heat time must be non-negative"):
            heat_trace(3, t)

    def test_heat_time_past_the_float_range_is_typed(self):
        with pytest.raises(OutOfRangeError, match="^heat_trace at "):
            heat_trace(3, 10**400)

    @pytest.mark.parametrize("s", [410.0, 450.0, 500.0, -500.0, -600.0])
    def test_zeta_overflow_is_typed(self, s):
        with pytest.raises(OutOfRangeError, match="^zeta_numeric at "):
            zeta_numeric(2, s)

    def test_overflow_stops_at_first_level(self):
        # level 0 overflows, so every level of the head does; on any budget
        # the rule raises OverflowError, which the entry points'
        # finite_result reports, and never asks for a level past the head
        for max_nodes in (16, 32, 64, 1 << 20):
            grid = _Samples([[complex(math.inf, 0)], [1j], [1j]])
            with pytest.raises(OverflowError):
                _quadrature(grid, _as_is, QuadratureSpec(max_nodes=max_nodes), True)
            assert grid.asked == []
        with pytest.raises(OutOfRangeError, match="^zeta_numeric at "):
            zeta_numeric(2, 600.0)

    def test_levels_too_far_apart_to_subtract_do_not_raise(self):
        # level 0 is pi c (1 + 1j) and level 1 is -pi c (1 + 1j): each is
        # representable, only their difference overflows
        c = 1e308 / (math.pi * math.sqrt(2))
        grid = _Samples([[math.pi * c * (1 + 1j)], [-1.5 * math.pi * c * (1 + 1j)], [0j]])

        spec = QuadratureSpec(max_nodes=2 * FIRST_LEVEL_INTERVALS)
        value, est_error, nodes, converged = _quadrature(grid, _as_is, spec, True)
        assert not converged
        assert est_error == math.inf
        assert nodes == 2 * FIRST_LEVEL_INTERVALS + 1
        assert value == pytest.approx(-math.pi * c * (1 + 1j), rel=1e-14)

    @pytest.mark.parametrize("m", [150, 200, 300])
    def test_line_values_past_the_gamma_overflow_are_representable(self, m):
        # Gamma(m + 1/2) overflows past m = 171, the binomial does not
        want = math.comb(2 * m, m)
        assert zeta_line(-m).real == pytest.approx(want, rel=1e-9)
        assert zeta_line(complex(-m, 0)).real == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("s", [-600.0, complex(-600, 0), -1000.0])
    def test_line_overflow_is_typed(self, s):
        with pytest.raises(OutOfRangeError):
            zeta_line(s)

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda: zeta_numeric(2, 10**400), id="zeta-huge-point"),
            pytest.param(lambda: zeta_numeric(10**200, 2), id="zeta-huge-q"),
            pytest.param(lambda: xi_value(10**200, 2), id="xi-huge-q"),
            pytest.param(lambda: heat_trace(10**200, 1.0), id="heat-huge-q"),
            pytest.param(lambda: resolvent_transform(10**400, 1j), id="resolvent-huge-q"),
        ],
    )
    def test_integers_past_the_float_range_are_typed(self, call):
        with pytest.raises(OutOfRangeError, match="out of floating-point range"):
            call()

    def test_huge_q_is_typed_under_warnings_as_errors(self):
        # a fresh interpreter under -W error, whose first grid build for the q is
        # the one that meets the overflow; in-process that warning can be swallowed
        script = """if True:
            import cmath, math
            from treezeta.errors import OutOfRangeError
            from treezeta import spectral as sp
            calls = ((sp.zeta_numeric, 0.5), (sp.xi_value, 2), (sp.heat_trace, 1.0),
                     (sp.resolvent_transform, 1e210j))
            for q in (10**155, 10**200):
                for fn, arg in calls:
                    try:
                        fn(q, arg)
                    except OutOfRangeError as e:
                        assert str(e).startswith(fn.__name__), e
                    else:
                        raise AssertionError(fn.__name__)
            # past the double range at q = 2, or a zero that underflows
            for fn, q, arg in ((sp.zeta_numeric, 2, 410.0), (sp.zeta_numeric, 2, -600.0),
                               (sp.zeta_numeric, 2, 1e308), (sp.xi_value, 2, 420.0),
                               (sp.xi_value, 2, -600.0)):
                try:
                    fn(q, arg)
                except OutOfRangeError as e:
                    assert str(e).startswith(fn.__name__), e
                else:
                    raise AssertionError(fn.__name__)
            assert sp.heat_trace(3, 1e308) == 0.0
            assert sp.heat_trace(3, math.inf) == 0.0
            for z in (-1e308 - 1e308j, 1e308 + 1e308j, 1.7e308):
                assert cmath.isfinite(sp.resolvent_transform(2, z)), z
        """
        src = os.path.dirname(os.path.dirname(treezeta.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-c", script],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr

    def test_out_of_range_is_a_domain_error(self):
        assert issubclass(OutOfRangeError, DomainError)
        assert zeta_sato_tate(-500.0).real == pytest.approx(math.comb(1002, 501) / 502, rel=1e-9)
        with pytest.raises(DomainError):
            zeta_sato_tate(-600.0)

    def test_representable_extremes_still_evaluate(self):
        assert math.isfinite(zeta_numeric(2, 400.0).require().real)
        assert zeta_numeric(2, 409.0).require().real > 1e308
        assert zeta_line(-100.0).real == pytest.approx(math.comb(200, 100), rel=1e-9)


class TestGridCache:
    def test_largest_representable_point_emits_no_warning(self):
        # the log-space integrand neither overflows nor takes log(0) here
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert zeta_numeric(2, 403.0).require().real == pytest.approx(2.9115e303, rel=1e-4)

    def test_levels_past_the_cache_bound_are_not_kept(self):
        ev = zeta_numeric(2, 0.5 + 2000j, QuadratureSpec(max_nodes=1 << 16))
        assert ev.converged
        assert ev.nodes == 8193
        assert max(FIRST_LEVEL_INTERVALS << k for k in _grid(2).levels) == CACHED_MAX_INTERVALS

    def test_branching_numbers_past_the_lru_size_are_evicted(self):
        for q in range(2, 2 + 2 * GRID_CACHE_QS):
            zeta_numeric(q, 0.5)
        assert _grid.cache_info().currsize == GRID_CACHE_QS

    def test_cached_and_fresh_grids_agree(self):
        for q, s in ((2, 1.5 + 20j), (7, -2.5 + 1j)):
            warm = zeta_numeric(q, s)
            _grid.cache_clear()
            cold = zeta_numeric(q, s)
            assert cold == warm


def _reference_loop(level_sum, spec):
    """The generic level loop that the rule replaced: complex() on every level sum."""
    k = 0
    integral = level_sum(0)
    prev = None
    est = math.inf
    while True:
        n = FIRST_LEVEL_INTERVALS << k
        size = abs(integral)
        assert size < math.inf
        if prev is not None:
            est = abs(integral - prev)
            converged = est <= max(spec.abs_tol, spec.rel_tol * size)
            if converged and k >= MIN_CONVERGED_LEVEL:
                return spectral.ZetaEval(integral, est, n + 1, True)
        if 2 * n > spec.max_nodes:
            return spectral.ZetaEval(integral, est, n + 1, False)
        prev = integral
        k += 1
        integral = 0.5 * integral + level_sum(k)


def _reference_eval(kind, q, x, spec):
    """The rule at x as the entry point of that kind ran it before: np.sum per level.

    A complex integrand reads the real node arrays, which numpy casts to
    complex on every call.  The heat trace's is the factored one,
    exp(log W - t (base - lo)), before its scale e^(-t lo).
    """
    e = x.real if not x.imag else x
    integrand = {
        "zeta": lambda g: np.exp(g.log_weight - e * g.log_base),
        "xi": lambda g: np.exp(g.log_xi_weight - e * g.log_base),
        "heat": lambda g: np.exp(g.log_weight - x.real * g.gap),
        "resolvent": lambda g: g.weight / (g.base - x),
    }[kind]
    grid = _grid(q)
    head = np.add.reduceat(integrand(grid.head), grid.head_starts)

    def level_sum(k):
        if k <= MIN_CONVERGED_LEVEL:
            return complex(head[k])
        return complex(np.sum(integrand(grid.level(k))))

    return _reference_loop(level_sum, spec or QuadratureSpec())


def _oracle_cases():
    rng = random.Random("one-pass head")

    def disc(lo, hi):
        return cmath.rect(rng.uniform(lo, hi), rng.uniform(0.0, 2 * math.pi))

    cases = []
    for q in (2, 3, 5, 7, 11):
        lo, hi = spectral_edges(q)
        hard = complex(rng.uniform(-1.0, 3.0), rng.choice((-1, 1)) * rng.uniform(20.0, 60.0))
        cases += [
            ("zeta", q, complex(rng.randint(-8, 8)), None),
            ("zeta", q, complex(rng.uniform(-3.0, 5.0)), None),
            ("zeta", q, disc(0.2, 5.0), None),
            ("zeta", q, hard, None),
            ("xi", q, complex(rng.uniform(-3.0, 5.0)), None),
            ("xi", q, disc(0.2, 5.0), None),
            ("xi", q, hard, None),
            ("heat", q, complex(rng.uniform(0.05, 0.5)), None),
            ("resolvent", q, disc(0.2 * lo, 0.7 * lo), None),
            ("resolvent", q, disc(1.5 * hi, 5.0 * hi), None),
        ]
    budget = QuadratureSpec(max_nodes=64)
    cases += [
        ("zeta", 2, 2 + 50j, budget),
        ("xi", 3, 1 + 40j, budget),
        ("heat", 2, 0.3 + 0j, QuadratureSpec(max_nodes=16)),
        ("resolvent", 2, 0.05 + 0.01j, budget),
    ]
    # a budget that stops the rule at level 1, inside the head
    short = QuadratureSpec(max_nodes=32)
    cases += [
        ("zeta", 3, 1.5 + 2j, short),
        ("xi", 5, 0.5 + 1j, short),
        ("heat", 7, 0.2 + 0j, short),
        ("resolvent", 11, 40 + 5j, short),
    ]
    # complex points whose head does not settle, on the default budget
    cases += [
        ("xi", 3, 1 + 40j, None),
        ("resolvent", 2, 0.05 + 0.01j, None),
        ("heat", 2, 1000 + 0j, None),
    ]
    deep = QuadratureSpec(max_nodes=1 << 14)
    cases += [
        ("zeta", 2, 0.5 + 2000j, deep),
        ("xi", 2, 0.5 + 1500j, deep),
        ("resolvent", 2, 3 + 0.001j, deep),
    ]
    return cases


_ORACLE_CASES = _oracle_cases()
_ENTRY = {"zeta": zeta_numeric, "xi": xi_value, "heat": heat_trace, "resolvent": resolvent_transform}


def _oracle_id(value):
    if isinstance(value, QuadratureSpec):
        return f"max_nodes={value.max_nodes}"
    return None


def _bits(ev):
    return (ev.value.real.hex(), ev.value.imag.hex(), ev.est_error.hex(), ev.nodes, ev.converged)


def _heat_scaled(q, t, value, est_error):
    """The heat trace's value and error estimate from its factored rule's."""
    scale = math.exp(-t * spectral_edges(q)[0])
    return value.real * scale, est_error * scale if est_error < math.inf else est_error


class TestOnePassHeadOracle:
    """Every entry point gives, bit for bit, what the generic per-level loop gave."""

    @staticmethod
    def _run(kind, q, x, spec, monkeypatch):
        """The entry point's output (or its NonConvergedError) and the result its rule returned."""
        seen = []
        rule = spectral._quadrature
        monkeypatch.setattr(spectral, "_quadrature", lambda *a: seen.append(rule(*a)) or seen[-1])
        arg = x.real if kind == "heat" else x
        try:
            out = _ENTRY[kind](q, arg, spec)
        except NonConvergedError as exc:
            out = exc
        assert len(seen) == 1
        return out, spectral.ZetaEval(*seen[0])

    @pytest.mark.parametrize("kind, q, x, spec", _ORACLE_CASES, ids=_oracle_id)
    def test_bit_identical_to_the_per_level_loop(self, kind, q, x, spec, monkeypatch):
        want = _reference_eval(kind, q, x, spec)
        out, ev = self._run(kind, q, x, spec, monkeypatch)
        assert _bits(ev) == _bits(want)
        best, est_error = want.value, want.est_error
        if kind == "heat":
            best, est_error = _heat_scaled(q, x.real, best, est_error)
        if kind == "zeta":
            assert _bits(out) == _bits(want)
        elif not want.converged:
            assert isinstance(out, NonConvergedError)
            assert repr((out.best, out.est_error)) == repr((best, est_error))
        else:
            expected = {
                "xi": cmath.exp(x * math.log(q - 1)) * want.value,
                "heat": best,
                "resolvent": want.value,
            }[kind]
            assert repr(out) == repr(expected)

    def test_cases_reach_every_regime(self):
        evals = [(kind, x, _reference_eval(kind, q, x, spec)) for kind, q, x, spec in _ORACLE_CASES]
        assert {kind for kind, _, ev in evals if not ev.converged} == set(_ENTRY)
        past_cache = {kind for kind, _, ev in evals if ev.nodes > CACHED_MAX_INTERVALS + 1}
        assert past_cache == {"zeta", "xi", "resolvent"}
        head_nodes = (FIRST_LEVEL_INTERVALS << MIN_CONVERGED_LEVEL) + 1
        hard = [ev for kind, x, ev in evals if kind == "zeta" and 20 <= abs(x.imag) <= 60]
        assert sum(ev.converged and ev.nodes > head_nodes for ev in hard) >= 4
        assert any(not x.imag for kind, x, _ in evals if kind in ("zeta", "xi"))
        # every kind stops on a budget inside the head, at level 0 or 1, and
        # every complex kind settles past the head on the default budget
        short = {kind for kind, _, ev in evals if ev.nodes < head_nodes}
        assert short == set(_ENTRY)
        settled_late = {
            kind
            for (kind, _, x, spec), (_, _, ev) in zip(_ORACLE_CASES, evals)
            if spec is None and x.imag and ev.converged and ev.nodes > head_nodes
        }
        assert settled_late == {"zeta", "xi", "resolvent"}


class TestNodes:
    def test_complex_copies_are_the_real_arrays_cast(self):
        grid = _grid(3)
        past_cache = (CACHED_MAX_INTERVALS // FIRST_LEVEL_INTERVALS).bit_length()
        for nodes in (grid.head, grid.level(3), grid.level(past_cache)):
            for name in ("base", "log_base", "weight", "log_weight", "log_xi_weight"):
                real, copy = getattr(nodes, name), getattr(nodes, "c_" + name)
                assert copy.dtype == np.complex128
                assert copy.real.tobytes() == real.tobytes()
                assert not copy.imag.any()

    @pytest.mark.parametrize("q", [2, 3, 11, 10**6])
    def test_gap_is_base_above_the_spectrum(self, q):
        lo = spectral_edges(q)[0]
        nodes = _grid(q).level(3)
        assert (nodes.gap > 0).all()
        assert np.allclose(nodes.gap, nodes.base - lo, rtol=1e-12, atol=1e-12 * q)
