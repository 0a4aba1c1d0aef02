"""Quadrature engine, gamma machinery, and the two line-limit functions."""

import math

import numpy as np
import pytest

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
from treezeta.special_values import zeta_integer, zeta_neg
from treezeta.spectral import (
    QuadratureSpec,
    _composite_gl,
    _panel_doubling_trace,
    complex_gamma,
    heat_decay_bound,
    heat_trace,
    resolvent_transform,
    xi_defect,
    xi_sato_tate,
    xi_sato_tate_defect,
    xi_value,
    zeta_line,
    zeta_numeric,
    zeta_sato_tate,
    zeta_sato_tate_quad,
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
            {"max_nodes": 8},  # below one panel
            {"nodes_per_panel": 1},
            {"abs_tol": math.nan},
            {"rel_tol": math.nan},
            {"abs_tol": math.inf},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(DomainError):
            QuadratureSpec(**kwargs)


class TestCompositeGl:
    def test_polynomial_exact(self):
        res = _composite_gl(lambda x: x**3, 0.0, 2.0, QuadratureSpec())
        assert res.converged
        assert res.value.real == pytest.approx(4.0, rel=1e-13)

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
        trace = _panel_doubling_trace(2, 1.7, 7)
        errs = [abs(t - ref) for t in trace]
        assert errs[0] > errs[2] > errs[4]
        assert errs[-1] < 1e-12


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

        monkeypatch.setattr(spectral, "_composite_gl", no_quadrature)
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

            val = _composite_gl(g, 0.0, math.pi, QuadratureSpec()).require()
            lhs = (rho * rho / (2 * math.pi)) * val
            rhs = (q + 1) ** (s - 1) * zeta_numeric(q, s).require()
            assert lhs == pytest.approx(rhs, rel=1e-10)


class TestXi:
    def test_defect_small_generic(self):
        for q, s in ((2, 0.3 + 0.7j), (3, -1.2 + 0.4j), (5, 2.6)):
            d = xi_defect(q, s)
            scale = max(1.0, abs(xi_value(q, s)))
            assert abs(d) <= 1e-9 * scale

    def test_defect_exactly_zero_at_centre(self):
        assert xi_defect(2, 0.5) == 0


class TestHeatTrace:
    def test_time_zero_total_mass(self):
        assert heat_trace(3, 0.0) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("q", [2, 3])
    def test_initial_slope(self, q):
        h = 1e-4
        slope = (-3 * heat_trace(q, 0) + 4 * heat_trace(q, h) - heat_trace(q, 2 * h)) / (2 * h)
        assert slope == pytest.approx(-(q + 1), abs=1e-6)

    def test_taylor_coefficients(self):
        for q, t in ((2, 0.1), (3, 0.3)):
            partial = sum(
                (-t) ** m * int(poly_eval(zeta_neg(m), q)) / math.factorial(m)
                for m in range(25)
            )
            assert heat_trace(q, t) == pytest.approx(partial, rel=1e-12)

    def test_decay_envelope(self):
        for q in (2, 3):
            lo = spectral_edges(q)[0]
            for t in (0.5, 1.0, 2.0, 5.0):
                k = heat_trace(q, t)
                assert 0 < k <= heat_decay_bound(q, t)
                assert heat_decay_bound(q, t) == pytest.approx(2 * math.exp(-t * lo))

    def test_negative_time_rejected(self):
        with pytest.raises(DomainError):
            heat_trace(2, -0.1)

    def test_nan_time_rejected(self):
        with pytest.raises(DomainError):
            heat_trace(2, math.nan)
        with pytest.raises(DomainError):
            heat_decay_bound(2, math.nan)


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
        with pytest.raises(PoleError):
            complex_gamma(s)


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
        # 2^(-1/2) Gamma(1/4) / (sqrt(pi) Gamma(3/4))
        want = (
            2 ** (-0.5)
            * complex_gamma(0.25)
            / (math.sqrt(math.pi) * complex_gamma(0.75))
        )
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

    @pytest.mark.parametrize(
        "s", [0.0, 0.5, -1.0, 1.2, 0.3 + 0.4j, -2.5, 1.3 - 0.2j]
    )
    def test_quadrature_route_agrees(self, s):
        assert zeta_sato_tate_quad(s) == pytest.approx(zeta_sato_tate(s), rel=1e-8, abs=1e-8)

    def test_quadrature_validity_bound(self):
        with pytest.raises(DomainError):
            zeta_sato_tate_quad(1.4)


class TestXiSatoTate:
    def test_defect_small(self):
        for s in (0.3, 0.2 + 1.5j, -0.7 + 0.2j, 2.6):
            scale = max(1.0, abs(xi_sato_tate(s)))
            assert abs(xi_sato_tate_defect(s)) <= 1e-9 * scale

    def test_defect_exactly_zero_at_centre(self):
        assert xi_sato_tate_defect(0.5) == 0

    def test_closed_symmetric_form(self):
        # equals 2 sqrt(pi) / (Gamma((1+s)/2) Gamma(1 - s/2)), proved by
        # reflection; compared here numerically as an independent cross-check
        for s in (0.3, -1.2, 0.4 + 0.9j):
            want = (
                2
                * math.sqrt(math.pi)
                / (complex_gamma((1 + s) / 2) * complex_gamma(1 - s / 2))
            )
            assert xi_sato_tate(s) == pytest.approx(want, rel=1e-11)


def _no_quadrature(*args):
    raise AssertionError("quadrature ran on a non-finite point")


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
class TestNonFiniteAndOutOfRange:
    """Every public evaluator returns a finite value or raises a typed error."""

    def test_numpy_branching_number_accepted(self):
        assert zeta_numeric(np.int64(2), 0.5).value == zeta_numeric(2, 0.5).value
        assert heat_decay_bound(np.int64(3), 1.0) == heat_decay_bound(3, 1.0)

    @pytest.mark.parametrize("q", [True, 2.0])
    def test_non_integer_branching_number_refused(self, q):
        with pytest.raises(DomainError):
            zeta_numeric(q, 0.5)

    @pytest.mark.parametrize("s", [math.nan, complex(0.5, math.nan), math.inf, -math.inf])
    @pytest.mark.parametrize(
        "fn", [zeta_line, zeta_sato_tate, zeta_sato_tate_quad, xi_sato_tate, complex_gamma]
    )
    def test_line_functions_refuse_non_finite(self, fn, s):
        with pytest.raises(DomainError):
            fn(s)

    @pytest.mark.parametrize("z", [math.nan, complex(math.nan, 1.0), complex(0, math.inf)])
    def test_resolvent_refuses_non_finite_before_quadrature(self, z, monkeypatch):
        monkeypatch.setattr(spectral, "_composite_gl", _no_quadrature)
        with pytest.raises(DomainError):
            resolvent_transform(2, z)

    @pytest.mark.parametrize("s", [450.0, 500.0, -500.0, -600.0])
    def test_zeta_overflow_is_typed(self, s):
        with pytest.raises(OutOfRangeError):
            zeta_numeric(2, s)

    def test_overflow_stops_at_first_level(self, monkeypatch):
        calls = []
        base = spectral._composite_gl

        def counting(f, a, b, spec):
            def g(theta):
                calls.append(len(theta))
                return f(theta)

            return base(g, a, b, spec)

        monkeypatch.setattr(spectral, "_composite_gl", counting)
        with pytest.raises(OutOfRangeError):
            zeta_numeric(2, 600.0)
        assert calls == [spectral.NODES_PER_PANEL]

    def test_levels_too_far_apart_to_subtract_do_not_raise(self):
        # each level's integral is representable; only their difference overflows
        spec = spectral.QuadratureSpec(max_nodes=4 * spectral.NODES_PER_PANEL)
        sign = iter([1.0, -1.0, 1.0])

        def f(theta):
            return np.full(len(theta), next(sign) * (1 + 1j))

        ev = spectral._composite_gl(f, 0.0, 0.75e308, spec)
        assert not ev.converged
        assert ev.est_error == math.inf
        assert abs(ev.value) < math.inf

    @pytest.mark.parametrize("s", [-200.0, -150.0, complex(-200, 0)])
    def test_line_overflow_is_typed(self, s):
        with pytest.raises(OutOfRangeError):
            zeta_line(s)

    def test_out_of_range_is_a_domain_error(self):
        assert issubclass(OutOfRangeError, DomainError)
        with pytest.raises(DomainError):
            zeta_sato_tate(-500.0)

    def test_representable_extremes_still_evaluate(self):
        assert math.isfinite(zeta_numeric(2, 400.0).require().real)
        assert zeta_line(-100.0).real == pytest.approx(math.comb(200, 100), rel=1e-9)
