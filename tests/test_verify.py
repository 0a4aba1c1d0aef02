"""The battery should pass at spec settings and fail loudly when sabotaged."""

import inspect
import math

import pytest

from treezeta import special_values, spectral, verify
from treezeta.dyck import DP_CAP, enumerate_dyck, verify_weight_value_identity
from treezeta.errors import ConsistencyError, DomainError
from treezeta.exact import IntPoly, poly_eval, poly_is_palindromic
from treezeta.genfun import quadratic_residual_series, symmetry_defect
from treezeta.special_values import two_step_defect, value_polynomials
from treezeta.spectral import QuadratureSpec
from treezeta.verify import (
    ALL_CHECKS,
    CHECKS,
    _scan,
    check_boundary,
    check_dyck_identity,
    check_entire,
    check_functional_equation,
    check_integer_agreement,
    check_laplace,
    check_negative_triple,
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

    @pytest.mark.parametrize("q", [10**5, 10**6, 10**10])
    def test_symmetry_at_large_q(self, q):
        assert check_symmetry(qs=(q,)).passed

    @pytest.mark.parametrize("q", [10**4, 10**10])
    def test_entire_at_large_q(self, q):
        assert check_entire(qs=(q,)).passed

    @pytest.mark.parametrize("q", [10**3, 10**6])
    def test_laplace_at_large_q(self, q):
        # 1/z of the outer grid lies within 1e-3 of the reciprocal cut, which shrinks like 1/q
        assert check_laplace(qs=(q,)).passed

    def test_boundary(self):
        r = check_boundary()
        assert r.passed

    def test_exact_checks_report_string_defects(self):
        for name in ("value_polys", "negvals", "moments", "residual"):
            r = ALL_CHECKS[name]()
            assert r.passed
            assert r.exact_defect == "0"
            assert r.defect_repr == "0"

    def test_dyck_detail_names_the_bruteforce_word_count(self):
        r = check_dyck_identity(n_max=6, brute_max=5)
        assert r.passed
        assert "bruteforce through n=5 (1619 words)" in r.detail


OVERRIDES = {"q": 2, "tol": 1e-3, "n_max": 5, "quad": QuadratureSpec()}
UNDECLARED = [
    (name, override)
    for name, (_, declared, _) in CHECKS.items()
    for override in OVERRIDES
    if override not in declared
]


@pytest.fixture
def calls(monkeypatch):
    """Stand every check down to a stub; the list of the checks called."""
    seen = []
    for name in ALL_CHECKS:
        monkeypatch.setitem(ALL_CHECKS, name, lambda name=name, **kwargs: seen.append(name))
    return seen


class TestBatteryDriver:
    def test_full_battery_names_and_order(self):
        results = run_battery(["value_polys", "residual"])
        assert [r.name for r in results] == ["value_polys", "residual"]

    def test_unknown_name_rejected(self):
        with pytest.raises(DomainError):
            run_battery(["symmetry", "nonsense"])

    @pytest.mark.parametrize("names", [[], ()])
    def test_an_empty_selection_is_refused(self, calls, names):
        # as a check over no points is, whatever the overrides
        with pytest.raises(DomainError, match="^no checks selected"):
            run_battery(names, n_max=10**9, q=10**200)
        assert calls == []

    def test_a_guard_that_fires_fails_its_check_and_the_rest_run(self, monkeypatch):
        def guard(**kwargs):
            raise ConsistencyError("cycle coefficient 3 of 7 is not an integer")

        monkeypatch.setitem(ALL_CHECKS, "dyck", guard)
        before, fired, after = run_battery(["value_polys", "dyck", "residual"])
        assert before.passed and after.passed
        assert fired.name == "dyck" and not fired.passed and fired.worst_at is None
        assert fired.detail == "consistency guard fired: cycle coefficient 3 of 7 is not an integer"

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
        assert list(ALL_CHECKS) == list(CHECKS)
        for name, (check, overrides, cap) in CHECKS.items():
            params = inspect.signature(check).parameters
            assert set(overrides) <= set(OVERRIDES), name
            assert (cap is not None) == ("n_max" in overrides), name
            for keywords in overrides.values():
                for keyword in keywords:
                    assert keyword in params, (name, keyword)

    @pytest.mark.parametrize("name, override", UNDECLARED)
    def test_a_named_check_refuses_an_override_it_does_not_take(self, calls, name, override):
        with pytest.raises(DomainError, match=f"^the {name} check does not take {override}$"):
            run_battery([name], **{override: OVERRIDES[override]})
        assert calls == []

    def test_all_leaves_a_check_alone_under_overrides_it_does_not_take(self):
        default = run_battery(["moments", "boundary"])
        overridden = run_battery(None, q=2, n_max=3, quad=QuadratureSpec())
        rows = {r.name: (r.points, r.tolerance) for r in overridden}
        assert [rows[r.name] for r in default] == [(r.points, r.tolerance) for r in default]

    @pytest.mark.parametrize(
        "name, cap",
        [*[(name, cap) for name, (_, _, cap) in CHECKS.items() if cap is not None], (None, DP_CAP)],
    )
    def test_n_max_past_the_cap_is_refused_before_any_check(self, calls, name, cap):
        # with names None the least cap is the dyck check's
        names, by = ([name], name) if name else (None, "dyck")
        for n_max in (cap + 1, 10**6):
            with pytest.raises(DomainError, match=f"^n_max is capped at {cap} by the {by} check$"):
                run_battery(names, n_max=n_max)
        assert calls == []
        run_battery(names, n_max=cap)
        assert len(calls) == len(names or CHECKS)

    def test_tol_override_reaches_every_boundary_tolerance(self):
        r = run_battery(["boundary"], tol=1e-3)[0]
        assert r.passed and r.tolerance == 1e-3

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-9])
    def test_tol_override_must_be_positive_and_finite(self, tol):
        with pytest.raises(DomainError, match="tol must be positive and finite"):
            run_battery(["symmetry"], tol=tol)


class TestWorstAt:
    def test_grid_failure_names_its_worst_point(self):
        r = run_battery(["symmetry"], tol=1e-30)[0]
        assert not r.passed
        assert r.worst_at[0] in (2, 3, 5)
        assert abs(symmetry_defect(*r.worst_at)) == r.max_defect

    def test_exact_failure_names_the_first_bad_m(self, monkeypatch):
        real = verify.negative_value_table

        def corrupted(m_max, method):
            table = real(m_max, method)
            if method != "moments":
                return table
            return tuple(p + 1 if m in (4, 7) else p for m, p in enumerate(table))

        monkeypatch.setattr(verify, "negative_value_table", corrupted)
        r = check_negative_triple(m_max=10)
        assert not r.passed
        assert r.worst_at == (4,)
        assert r.exact_defect == "table mismatch"

    def test_dyck_failure_names_its_half_length(self, monkeypatch):
        real = verify.verify_weight_value_identity

        def corrupted(n_max, brute_max):
            polys = list(value_polynomials(n_max + 1))
            polys[3] = polys[3] + IntPoly([0, 1])
            return real(n_max, brute_max, value_polys=polys)

        monkeypatch.setattr(verify, "verify_weight_value_identity", corrupted)
        r = check_dyck_identity(n_max=6, brute_max=2)
        assert not r.passed and r.worst_at == (3,)
        assert r.exact_defect.startswith("weight polynomial 3 differs")

    def test_two_step_runs_the_quadratic_recurrence_once_per_q(self, monkeypatch):
        real = verify._values_at
        calls = []

        def counted(q, n_max):
            calls.append((q, n_max))
            return real(q, n_max)

        monkeypatch.setattr(verify, "_values_at", counted)
        assert check_two_step(qs=(2, 3, 5), n_abs=7).passed
        assert calls == [(2, 8), (3, 8), (5, 8)]

    def test_two_step_failure_matches_the_per_offset_defect(self, monkeypatch):
        real = special_values._values_at

        def corrupted(q, n_max):
            values = real(q, n_max)
            if n_max >= 5:
                values[4] += 1  # P_5(q)
            return values

        # the public function reads its module's name, the check its own import
        monkeypatch.setattr(special_values, "_values_at", corrupted)
        monkeypatch.setattr(verify, "_values_at", corrupted)
        qs, n_abs = (2, 3), 6
        r = check_two_step(qs=qs, n_abs=n_abs)
        offsets = [(q, n) for q in qs for n in range(-n_abs, n_abs + 1)]
        first = next(at for at in offsets if two_step_defect(*at) != 0)
        assert not r.passed
        assert r.worst_at == first == (2, -5)
        assert r.exact_defect == str(two_step_defect(*first)) != "0"

    def test_passing_exact_check_has_no_location(self):
        r = check_two_step(qs=(2,), n_abs=3)
        assert r.passed and r.worst_at is None

    def test_boundary_names_its_sub_check(self):
        r = check_boundary()
        assert r.worst_at[0] in ("line", "reflection", "catalan", "stirling")

    def test_perturbed_lanczos_coefficient_fails_the_stirling_rows(self, monkeypatch):
        coeffs = list(spectral._LANCZOS_COEFFS)
        coeffs[2] *= 1 + 1e-6
        monkeypatch.setattr(spectral, "_LANCZOS_COEFFS", tuple(coeffs))
        r = check_boundary()
        assert not r.passed
        assert r.worst_at[0] == "stirling"

    def test_each_row_is_held_to_its_own_bound(self):
        rows = [(("a",), 5.0, 10.0), (("b",), 2.0, 1.0)]
        r = _scan("x", 10.0, "", rows)
        assert not r.passed and r.points == 2
        assert r.max_defect == 5.0 and r.worst_at == ("a",)

    def test_nan_defect_fails(self):
        r = _scan("x", 1.0, "", [((1,), 0.5, 1.0), ((2,), math.nan, 1.0)])
        assert not r.passed and r.worst_at == (1,)


class TestToleranceValidation:
    @pytest.mark.parametrize(
        "check, kwargs",
        [
            pytest.param(check_symmetry, {"tol": math.nan}, id="symmetry-nan"),
            pytest.param(check_symmetry, {"tol": 10**400}, id="symmetry-huge-int"),
            pytest.param(check_symmetry, {"tol": True}, id="symmetry-bool"),
            pytest.param(check_entire, {"tol": -1.0}, id="entire-negative"),
            pytest.param(check_functional_equation, {"tol": math.inf}, id="fe-inf"),
            pytest.param(check_integer_agreement, {"rel_tol": math.nan}, id="integers-nan"),
            pytest.param(check_laplace, {"tol": 0}, id="laplace-zero"),
            pytest.param(check_boundary, {"line_tol": math.nan}, id="boundary-line-nan"),
            pytest.param(check_boundary, {"fe_tol": math.nan}, id="boundary-fe-nan"),
            pytest.param(check_boundary, {"quad_tol": -1e-9}, id="boundary-quad-negative"),
        ],
    )
    def test_every_numeric_tolerance_is_validated(self, check, kwargs):
        with pytest.raises(DomainError):
            check(**kwargs)


class TestGridSizeValidation:
    @pytest.mark.parametrize(
        "check, kwargs",
        [
            pytest.param(check_symmetry, {"points": 0}, id="symmetry-zero"),
            pytest.param(check_symmetry, {"points": -5}, id="symmetry-negative"),
            pytest.param(check_symmetry, {"points": 2.5}, id="symmetry-float"),
            pytest.param(check_entire, {"points": 200}, id="entire-past-pool"),
            pytest.param(check_entire, {"points": 0}, id="entire-zero"),
            pytest.param(check_functional_equation, {"points": 57}, id="fe-past-pool"),
            pytest.param(check_functional_equation, {"points": -1}, id="fe-negative"),
            pytest.param(check_integer_agreement, {"s_max": -2}, id="integers-negative"),
            pytest.param(check_integer_agreement, {"s_max": 1.5}, id="integers-float"),
            pytest.param(check_laplace, {"points": -4}, id="laplace-negative"),
            pytest.param(check_laplace, {"points": True}, id="laplace-bool"),
            pytest.param(check_boundary, {"m_max": 2.5}, id="boundary-m-float"),
            pytest.param(check_boundary, {"m_max": -1}, id="boundary-m-negative"),
            pytest.param(check_boundary, {"fe_points": 21}, id="boundary-fe-past-pool"),
            pytest.param(check_boundary, {"quad_points": 11}, id="boundary-quad-past-pool"),
            pytest.param(check_boundary, {"quad_points": 0}, id="boundary-quad-zero"),
        ],
    )
    def test_bad_grid_size_refused(self, check, kwargs):
        with pytest.raises(DomainError):
            check(**kwargs)

    @pytest.mark.parametrize(
        "grid, count",
        [
            (lambda k: symmetry_grid(2, k), 0),
            (entire_grid, 101),
            (fe_grid, 57),
            (lambda k: laplace_grids(3, k), 0),
            (sato_fe_grid, 21),
            (sato_quad_grid, 11),
            (sato_quad_grid, -1),
        ],
    )
    def test_grid_past_its_pool_or_below_one_refused(self, grid, count):
        with pytest.raises(DomainError):
            grid(count)

    @pytest.mark.parametrize(
        "name", ["moments", "symmetry", "entire", "twostep", "fe", "integers", "laplace"]
    )
    @pytest.mark.parametrize("qs", [(), []])
    def test_empty_q_set_refused(self, name, qs):
        with pytest.raises(DomainError, match="would cover no points"):
            ALL_CHECKS[name](qs=qs)

    @pytest.mark.parametrize("points", [1, 21])
    def test_odd_laplace_size_is_not_rounded_down(self, points):
        inside, outside = laplace_grids(3, points)
        assert len(inside) == len(outside) == points
        r = check_laplace(qs=(2,), points=points)
        assert r.passed and r.points == 2 * points


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


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: IntPoly(5), "coeffs"),
        (lambda: list(enumerate_dyck("5")), "half-length"),
        (lambda: poly_eval([1, 2], 3), "p"),
        (lambda: poly_is_palindromic([1, 2, 1]), "p"),
        (lambda: run_battery(names=5), "names"),
        (lambda: verify_weight_value_identity(3, value_polys=5), "value_polys"),
        (lambda: quadratic_residual_series(3, polys=5), "polys"),
    ],
    ids=["IntPoly", "enumerate_dyck", "poly_eval", "poly_is_palindromic", "run_battery",
         "verify_weight_value_identity", "quadratic_residual_series"],
)
def test_wrong_type_argument_is_a_domain_error_naming_it(call, name):
    with pytest.raises(DomainError, match=rf"^{name} must be "):
        call()


_QS_CHECKS = [check_symmetry, check_entire, check_functional_equation, check_integer_agreement,
              check_laplace, check_two_step, verify.check_moment_oracle]


@pytest.mark.parametrize(
    "call, pattern",
    [
        (lambda: special_values.negative_value_table(5, []), r"^unknown method \[\]"),
        (lambda: special_values.negative_value_table([]), r"^m_max must be an integer"),
        (lambda: special_values.moment_polynomials({}), r"^n_max must be an integer"),
        (lambda: check_negative_triple(m_max=[]), r"^m_max must be an integer"),
        (lambda: run_battery([{}]), r"^unknown checks: \[\{\}\]"),
        *[((lambda check=check: check(qs=5)), r"^qs must be an iterable") for check in _QS_CHECKS],
    ],
    ids=["negative_value_table-method", "negative_value_table-m_max", "moment_polynomials",
         "check_negative_triple", "run_battery", *[c.__name__ for c in _QS_CHECKS]],
)
def test_unhashable_or_non_iterable_argument_is_a_domain_error(call, pattern):
    # the cache cannot hash the argument, so the builder's own validators refuse it
    builders = (special_values.negative_value_table, special_values.moment_polynomials)
    before = [b.cache_info() for b in builders]
    with pytest.raises(DomainError, match=pattern):
        call()
    assert [b.cache_info() for b in builders] == before
