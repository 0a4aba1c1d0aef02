"""The battery should pass at spec settings and fail loudly when sabotaged."""

import inspect
import math

import pytest

from treezeta.errors import DomainError
from treezeta.spectral import QuadratureSpec
from treezeta.verify import (
    ALL_CHECKS,
    CHECK_OVERRIDES,
    check_boundary,
    check_entire,
    check_functional_equation,
    check_integer_agreement,
    check_laplace,
    check_symmetry,
    check_two_step,
    entire_grid,
    fe_grid,
    laplace_grids,
    run_battery,
    sato_fe_grid,
    sato_quad_grid,
    symmetry_grid,
)


class TestGrids:
    def test_symmetry_grid_is_deterministic(self):
        assert symmetry_grid(2) == symmetry_grid(2)
        assert len(symmetry_grid(2)) == 200

    def test_symmetry_grid_clears_both_cuts(self):
        from treezeta.genfun import reciprocal_cut, spectrum_cut

        for q in (2, 3, 5):
            for z in symmetry_grid(q):
                assert spectrum_cut(q).distance(z) > 5e-3
                assert reciprocal_cut(q).distance(1 / z) > 5e-3

    def test_entire_grid_crosses_the_cut(self):
        from treezeta.genfun import spectrum_cut

        pts = entire_grid()
        assert len(pts) == 100
        assert any(spectrum_cut(2).distance(z) == 0.0 for z in pts)

    def test_fe_grid_stays_in_disc(self):
        pts = fe_grid()
        assert len(pts) == 50
        assert all(abs(s) <= 5 for s in pts)

    def test_laplace_grids_sit_on_the_right_sides(self):
        from treezeta.genfun import spectral_edges

        lo, hi = spectral_edges(3)
        inside, outside = laplace_grids(3)
        assert len(inside) == 20 and len(outside) == 20
        assert all(abs(z) < lo for z in inside)
        assert all(abs(z) > hi for z in outside)

    def test_sato_grids(self):
        assert len(sato_fe_grid()) == 20
        assert all(s.real < 1.2 for s in sato_quad_grid())


class TestChecksPass:
    def test_symmetry(self):
        r = check_symmetry()
        assert r.passed and r.points == 600 and r.max_defect <= 1e-11

    def test_entire(self):
        r = check_entire()
        assert r.passed and r.points == 300

    def test_two_step_exact(self):
        r = check_two_step()
        assert r.passed and r.exact_defect == "0"

    def test_functional_equation(self):
        r = check_functional_equation()
        assert r.passed and r.points == 150

    def test_integer_agreement(self):
        r = check_integer_agreement()
        assert r.passed and r.points == 68

    def test_laplace(self):
        r = check_laplace()
        assert r.passed and r.points == 80

    def test_boundary(self):
        r = check_boundary()
        assert r.passed

    def test_exact_checks_report_string_defects(self):
        for name in ("value_polys", "negvals", "moments", "residual"):
            r = ALL_CHECKS[name]()
            assert r.passed
            assert r.exact_defect == "0"
            assert r.defect_repr == "0"


class TestBatteryDriver:
    def test_full_battery_names_and_order(self):
        results = run_battery(["value_polys", "residual"])
        assert [r.name for r in results] == ["value_polys", "residual"]

    def test_unknown_name_rejected(self):
        with pytest.raises(DomainError):
            run_battery(["symmetry", "nonsense"])

    def test_q_restriction_shrinks_grids(self):
        full = run_battery(["symmetry"])[0]
        one = run_battery(["symmetry"], q=3)[0]
        assert one.points == full.points // 3
        assert one.passed

    def test_tol_override_can_fail_a_passing_check(self):
        r = run_battery(["symmetry"], tol=1e-30)[0]
        assert not r.passed
        assert r.tolerance == 1e-30
        assert r.max_defect > 1e-30

    def test_n_max_override(self):
        r = run_battery(["negvals"], n_max=6)[0]
        assert r.passed and r.points == 7

    def test_results_carry_timings(self):
        r = run_battery(["value_polys"])[0]
        assert r.elapsed >= 0.0

    def test_declared_override_keywords_are_real_parameters(self):
        assert list(CHECK_OVERRIDES) == list(ALL_CHECKS)
        for name, overrides in CHECK_OVERRIDES.items():
            params = inspect.signature(ALL_CHECKS[name]).parameters
            assert set(overrides) <= {"q", "tol", "n_max", "quad"}, name
            for keywords in overrides.values():
                for keyword in keywords:
                    assert keyword in params, (name, keyword)

    def test_undeclared_overrides_leave_a_check_alone(self):
        default = run_battery(["moments", "boundary"])
        overridden = run_battery(["moments", "boundary"], q=2, n_max=3, quad=QuadratureSpec())
        assert [r.points for r in overridden] == [r.points for r in default]
        assert [r.tolerance for r in overridden] == [r.tolerance for r in default]

    def test_tol_override_reaches_every_boundary_tolerance(self):
        r = run_battery(["boundary"], tol=1e-3)[0]
        assert r.passed and r.tolerance == 1e-3

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-9])
    def test_tol_override_must_be_positive_and_finite(self, tol):
        with pytest.raises(DomainError, match="tol must be positive and finite"):
            run_battery(["symmetry"], tol=tol)


class TestDepthValidation:
    def test_negative_two_step_depth_refused(self):
        with pytest.raises(DomainError, match="n_abs must be at least 0"):
            check_two_step(n_abs=-2)

    def test_zero_two_step_depth_checks_the_origin(self):
        r = check_two_step(qs=(2,), n_abs=0)
        assert r.passed and r.points == 1

    def test_negative_residual_order_refused(self):
        with pytest.raises(DomainError, match="order must be at least 0"):
            run_battery(["residual"], n_max=-1)
