"""CLI behaviour: formats, exit codes, canonical JSON, determinism."""

import json
import math
import re
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from treezeta import cli, dyck, special_values, spectral, verify
from treezeta.cli import DEPTH_CAP, FORMATS, latex_poly, main


def _refuse_constant(name):
    raise ValueError(f"{name} has no RFC 8259 JSON form")


def strict_loads(text):
    """json.loads, refusing the NaN and Infinity that Python's json emits for non-finite floats."""
    return json.loads(text, parse_constant=_refuse_constant)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPoly:
    def test_latex_matches_handwritten_form(self, capsys):
        code, out, _ = run_cli(capsys, "poly", "--n", "4", "--format", "latex")
        assert code == 0
        assert out == "q^6+3q^5+11q^4+10q^3+11q^2+3q+1\n"

    def test_json_coefficients_low_to_high(self, capsys):
        code, out, _ = run_cli(capsys, "poly", "--n", "3", "--format", "json")
        assert code == 0
        payload = strict_loads(out)
        assert payload["results"]["coefficients"] == ["1", "1", "4", "1", "1"]
        assert payload["results"]["degree"] == 4
        assert payload["status"] == "pass"
        assert payload["command"] == "poly"

    def test_csv_rows(self, capsys):
        code, out, _ = run_cli(capsys, "poly", "--n", "2", "--format", "csv")
        assert code == 0
        assert out == "index,value\n0,1\n1,0\n2,1\n"

    def test_bad_index_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "poly", "--n", "0")
        assert code == 2
        assert "error" in err

    def test_depth_past_the_cap_is_input_error_before_any_table(self, capsys, monkeypatch):
        built = []

        def fake_table(n):
            built.append(n)
            return [special_values.IntPoly((1,))] * n

        monkeypatch.setattr(special_values, "value_polynomials", fake_table)
        code, out, err = run_cli(capsys, "poly", "--n", str(DEPTH_CAP + 1))
        assert (code, out, built) == (2, "", [])
        assert err == f"error: --n is capped at {DEPTH_CAP}\n"
        code, _, _ = run_cli(capsys, "poly", "--n", str(DEPTH_CAP))
        assert (code, built) == (0, [DEPTH_CAP])

    def test_cap_admits_the_dyck_dp_cap_plus_one(self):
        # CI compares dyck --n DP_CAP with poly --n DP_CAP + 1
        assert DEPTH_CAP >= dyck.DP_CAP + 1

    def test_large_exponents_get_braces(self):
        coeffs = (0,) * 12 + (3,)
        assert latex_poly(coeffs, "q") == "3q^{12}"
        assert latex_poly((5,), "q") == "5"
        assert latex_poly((0, 1), "q") == "q"
        assert latex_poly((1, -2), "q") == "-2q+1"


class TestValues:
    def test_table(self, capsys):
        code, out, _ = run_cli(capsys, "values", "--q", "2", "--neg", "2", "--pos", "2")
        assert code == 0
        assert "zeta_2(0) = 1" in out
        assert "zeta_2(-2) = 12" in out
        assert "zeta_2(2) = 10/9" in out

    def test_json_values_are_strings(self, capsys):
        code, out, _ = run_cli(capsys, "values", "--q", "2", "--neg", "1", "--pos", "1",
                               "--format", "json")
        assert code == 0
        payload = strict_loads(out)
        assert payload["results"]["negative"] == [
            {"s": 0, "value": "1"},
            {"s": -1, "value": "3"},
        ]
        assert payload["results"]["positive"] == [
            {"s": 1, "value": {"den": "3", "num": "2"}},
        ]

    @pytest.mark.parametrize(
        "depths", [(DEPTH_CAP + 1, 1), (1, DEPTH_CAP + 1), (100000, 1)]
    )
    def test_depth_past_the_cap_is_input_error_before_any_table(
        self, capsys, monkeypatch, depths
    ):
        def no_table(*args):
            raise AssertionError("a value was computed past the cap")

        monkeypatch.setattr(special_values, "zeta_integer", no_table)
        monkeypatch.setattr(special_values, "zeta_pos", no_table)
        neg, pos = map(str, depths)
        code, out, err = run_cli(capsys, "values", "--q", "3", "--neg", neg, "--pos", pos)
        assert (code, out) == (2, "")
        assert err == f"error: --neg and --pos are capped at {DEPTH_CAP}\n"

    def test_depth_at_the_cap_is_served(self, capsys, monkeypatch):
        seen = []
        monkeypatch.setattr(special_values, "zeta_integer", lambda q, s: seen.append(s) or 1)
        monkeypatch.setattr(special_values, "zeta_pos", lambda q, n: seen.append(n) or 1)
        code, _, _ = run_cli(capsys, "values", "--q", "3", "--neg", str(DEPTH_CAP),
                             "--pos", str(DEPTH_CAP), "--format", "csv")
        assert code == 0
        assert min(seen) == -DEPTH_CAP and max(seen) == DEPTH_CAP

    def test_invalid_branching_number(self, capsys):
        code, _, err = run_cli(capsys, "values", "--q", "1")
        assert code == 2

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_a_value_too_long_to_print_is_input_error(self, capsys, fmt):
        # at q = 10**6 the denominator of zeta(n) has about 18 n digits: 4300 at n = 240
        code, out, err = run_cli(capsys, "values", "--q", "1000000", "--neg", "1",
                                 "--pos", "256", "--format", fmt)
        limit = sys.get_int_max_str_digits()
        assert (code, out) == (2, "")
        assert err == f"error: a value has over {limit} digits, Python's limit on printing an int\n"

    @pytest.mark.parametrize("pos, digits", [(200, 3592), (239, 4291)])
    def test_the_longest_printable_values_print(self, capsys, pos, digits):
        code, out, _ = run_cli(capsys, "values", "--q", "1000000", "--neg", "1",
                               "--pos", str(pos), "--format", "json")
        assert code == 0
        den = strict_loads(out)["results"]["positive"][-1]["value"]["den"]
        assert len(den) == digits


class TestZeta:
    def test_value_at_zero_is_one(self, capsys):
        code, out, _ = run_cli(capsys, "zeta", "--q", "2", "--s", "0,0")
        assert code == 0
        assert out == "zeta = 1+0i\n"

    def test_xi_flag(self, capsys):
        code, out, _ = run_cli(capsys, "zeta", "--q", "2", "--s", "0.5,0", "--xi")
        assert code == 0
        assert out.startswith("xi = ")

    def test_line_binomial(self, capsys):
        code, out, _ = run_cli(capsys, "zeta", "--line", "--s=-2,0")
        assert code == 0
        assert out == "zeta = 6+0i\n"

    def test_line_pole_is_input_error(self, capsys):
        code, _, err = run_cli(capsys, "zeta", "--line", "--s", "0.5,0")
        assert code == 2
        assert "pole" in err.lower()

    def test_line_xi_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "zeta", "--line", "--s", "2,0", "--xi")
        assert code == 2

    def test_sato_tate_value(self, capsys):
        code, out, _ = run_cli(capsys, "zeta", "--sato-tate", "--s", "2,0")
        assert code == 0
        assert out == "zeta = -0.5+0i\n"

    def test_exactly_one_target_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["zeta", "--q", "2", "--line", "--s", "1,0"])
        assert exc.value.code == 2

    def test_budget_exhaustion_is_exit_three(self, capsys):
        code, out, err = run_cli(capsys, "zeta", "--q", "2", "--s", "2,40",
                                 "--max-nodes", "64")
        assert code == 3
        assert "non-converged" in out
        assert "node budget" in err

    def test_json_reports_levels_next_to_nodes(self, capsys):
        code, out, _ = run_cli(capsys, "zeta", "--q", "2", "--s", "1.7", "--format", "json")
        assert code == 0
        results = strict_loads(out)["results"]
        assert results["nodes"] == 16 * 2 ** results["levels"] + 1

    def test_non_converged_json_reports_best(self, capsys):
        # the second budget ends at the first level, which has no error estimate:
        # it is written as null, never as Infinity
        for q, s, max_nodes, has_estimate in (("2", "2,40", "64", True), ("3", "2,1", "16", False)):
            code, out, _ = run_cli(capsys, "zeta", "--q", q, "--s", s,
                                   "--max-nodes", max_nodes, "--format", "json")
            assert code == 3
            payload = strict_loads(out)
            assert payload["status"] == "non-converged"
            assert "best" in payload["results"]
            est_error = payload["results"]["est_error"]
            assert est_error > 0 if has_estimate else est_error is None

    def test_line_value_past_the_gamma_overflow(self, capsys):
        code, out, _ = run_cli(capsys, "zeta", "--line", "--s=-200,0", "--format", "json")
        assert code == 0
        value = strict_loads(out)["results"]["value"]
        assert value["re"] == pytest.approx(math.comb(400, 200), rel=1e-9)

    def test_value_near_the_top_of_the_double_range(self, capsys):
        code, out, _ = run_cli(capsys, "zeta", "--q", "2", "--s", "405", "--format", "json")
        assert code == 0
        value = strict_loads(out)["results"]["value"]
        assert value["re"] == pytest.approx(9.8174e304, rel=1e-4)

    def test_nan_point_is_input_error(self, capsys, monkeypatch):
        def no_quadrature(*args):
            raise AssertionError("quadrature ran on a NaN point")

        monkeypatch.setattr(spectral, "_quadrature", no_quadrature)
        code, out, err = run_cli(capsys, "zeta", "--q", "2", "--s", "nan")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "argv",
        [
            ["zeta", "--q", "2", "--s", "500"],
            ["zeta", "--q", "2", "--s=-600"],
            ["zeta", "--line", "--s=-600,0"],
            ["zeta", "--sato-tate", "--s=-600"],
            ["zeta", "--q", str(10**200), "--s", "2"],
            ["zeta", "--q", str(10**200), "--s", "2", "--xi"],
            ["heat", "--q", str(10**200), "--t", "1"],
        ],
    )
    def test_out_of_range_is_input_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "out of floating-point range" in err

    @pytest.mark.parametrize("flag", ["--line", "--sato-tate"])
    def test_nan_point_on_limit_lines_is_input_error(self, capsys, flag):
        code, out, err = run_cli(capsys, "zeta", flag, "--s", "nan")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_malformed_point_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["zeta", "--q", "2", "--s", "fish"])
        assert exc.value.code == 2


class TestHeat:
    def test_mass_at_time_zero(self, capsys):
        code, out, _ = run_cli(capsys, "heat", "--q", "3", "--t", "0")
        assert code == 0
        assert out == "heat trace = 1\n"

    def test_negative_time_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "heat", "--q", "3", "--t", "-1")
        assert code == 2

    def test_nan_time_rejected(self, capsys):
        code, _, err = run_cli(capsys, "heat", "--q", "3", "--t", "nan")
        assert code == 2
        assert err.startswith("error:")

    def test_json_reports_nodes_levels_and_error(self, capsys):
        # at t = 1000 the rule doubles past the head until the peak at theta = 0 is resolved
        code, out, _ = run_cli(capsys, "heat", "--q", "2", "--t", "1000", "--format", "json")
        assert code == 0
        results = strict_loads(out)["results"]
        assert results["value"] == pytest.approx(9.68090308406204e-80, rel=1e-12)
        assert results["nodes"] == 16 * 2 ** results["levels"] + 1 > 65
        assert 0 <= results["est_error"] <= 1e-13 * results["value"]

    def test_budget_exhaustion_is_exit_three(self, capsys):
        code, out, err = run_cli(capsys, "heat", "--q", "2", "--t", "1000", "--max-nodes", "64",
                                 "--format", "json")
        assert code == 3
        assert "heat trace at t=1000.0 did not converge" in err
        assert strict_loads(out)["results"]["est_error"] > 0

    def test_infinite_time_rejected(self, capsys):
        # the library's heat_trace(q, inf) is 0, but JSON has no Infinity for the input echo
        code, out, err = run_cli(capsys, "heat", "--q", "3", "--t", "inf", "--format", "json")
        assert (code, out) == (2, "")
        assert err == "error: --t must be finite, got inf\n"


class TestDyck:
    def test_polynomial(self, capsys):
        code, out, _ = run_cli(capsys, "dyck", "--n", "2")
        assert code == 0
        assert out == "Q_2(t) = t^4+t^3+4t^2+t+1\n"

    def test_list_words(self, capsys):
        for n, words in (
            ("2", ["UUBB", "UUBR", "UURB", "UURR", "UBUB", "UBUR", "URUB", "URUR"]),
            ("0", ["(empty word)"]),  # half-length 0 has one word, the empty one
        ):
            code, out, _ = run_cli(capsys, "dyck", "--n", n, "--list", "--format", "text")
            assert code == 0
            assert out.splitlines() == words

    def test_list_beyond_cap_is_input_error(self, capsys):
        code, _, _ = run_cli(capsys, "dyck", "--n", "10", "--list")
        assert code == 2

    def test_bruteforce_method_agrees(self, capsys):
        _, dp_out, _ = run_cli(capsys, "dyck", "--n", "5")
        _, brute_out, _ = run_cli(capsys, "dyck", "--n", "5", "--method", "bruteforce")
        assert dp_out == brute_out


class TestVerify:
    def test_single_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "negvals")
        assert code == 0
        assert "PASS negvals" in out
        assert "overall: 1/1" in out

    def test_absurd_tolerance_fails_with_exit_one(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "symmetry", "--tol", "1e-30")
        assert code == 1
        assert "FAIL" in out

    def test_json_report_structure(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "twostep", "--format", "json")
        assert code == 0
        payload = strict_loads(out)
        assert payload["status"] == "pass"
        checks = payload["results"]["checks"]
        assert len(checks) == 1
        assert checks[0]["name"] == "twostep"
        assert checks[0]["defect"] == "0"

    def test_q_restriction(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "twostep", "--q", "2", "--format", "json")
        assert code == 0
        payload = strict_loads(out)
        assert payload["results"]["checks"][0]["points"] == 41
        assert payload["inputs"]["q"] == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "twostep", "--n-max", "-1"],
            ["verify", "symmetry", "--tol", "nan"],
            ["verify", "fe", "--tol", "inf"],
            ["verify", "residual", "--n-max", "-1"],
            ["verify", "integers", "--q", str(10**39)],
            ["verify", "symmetry", "--q", str(10**155)],
            ["verify", "entire", "--q", str(10**155)],
        ],
    )
    def test_vacuous_or_invalid_overrides_are_input_errors(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize(
        "suite, cap",
        [
            ("negvals", DEPTH_CAP),
            ("residual", DEPTH_CAP),
            ("twostep", 2 * DEPTH_CAP),
            ("dyck", dyck.DP_CAP),
            ("all", dyck.DP_CAP),
        ],
    )
    def test_depth_past_the_cap_is_input_error_before_any_check(
        self, capsys, monkeypatch, suite, cap
    ):
        def no_check(*args, **kwargs):
            raise AssertionError("a check ran past the cap")

        for name in verify.ALL_CHECKS:
            monkeypatch.setitem(verify.ALL_CHECKS, name, no_check)
        by = "dyck" if suite == "all" else suite  # all takes the least cap, the dyck check's
        for n_max in (cap + 1, 100000):
            code, out, err = run_cli(capsys, "verify", suite, "--n-max", str(n_max))
            assert (code, out) == (2, "")
            assert err == f"error: n_max is capped at {cap} by the {by} check\n"

    @pytest.mark.parametrize(
        "suite, n_max", [("residual", 255), ("negvals", 120), ("twostep", 400), ("dyck", 200)]
    )
    def test_the_depths_ci_runs_are_admitted(self, capsys, monkeypatch, suite, n_max):
        seen = []
        monkeypatch.setattr(
            verify, "run_battery", lambda names, **kw: seen.append(kw["n_max"]) or []
        )
        code, _, _ = run_cli(capsys, "verify", suite, "--n-max", str(n_max))
        assert (code, seen) == (0, [n_max])

    FLAG_VALUES = {"--q": "2", "--tol": "1e-3", "--n-max": "5", "--abs-tol": "1e-9",
                   "--rel-tol": "1e-9", "--max-nodes": "1024"}
    UNDECLARED = [
        (suite, flag)
        for suite, (_, declared, _) in verify.CHECKS.items()
        for flag, override in cli._VERIFY_FLAGS.items()
        if override not in declared
    ]

    @pytest.mark.parametrize("suite, flag", UNDECLARED)
    def test_a_flag_the_suite_does_not_take_is_refused_before_any_check(
        self, capsys, monkeypatch, suite, flag
    ):
        def no_battery(*args, **kwargs):
            raise AssertionError("a check ran with a flag it ignores")

        monkeypatch.setattr(verify, "run_battery", no_battery)
        code, out, err = run_cli(capsys, "verify", suite, flag, self.FLAG_VALUES[flag])
        assert (code, out, err) == (2, "", f"error: verify {suite} does not take {flag}\n")

    def test_all_takes_every_flag(self, capsys, monkeypatch):
        seen = []
        monkeypatch.setattr(verify, "run_battery", lambda names, **kw: seen.append((names, kw)) or [])
        argv = [word for pair in self.FLAG_VALUES.items() for word in pair]
        code, _, _ = run_cli(capsys, "verify", "all", *argv)
        [(names, kw)] = seen
        assert (code, names, kw["q"], kw["tol"], kw["n_max"]) == (0, None, 2, 1e-3, 5)
        assert (kw["quad"].abs_tol, kw["quad"].rel_tol, kw["quad"].max_nodes) == (1e-9, 1e-9, 1024)

    def test_the_caps_are_in_the_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "--help"])
        out = " ".join(capsys.readouterr().out.split())
        cap = f"at most {DEPTH_CAP} ({2 * DEPTH_CAP} twostep, {dyck.DP_CAP} dyck and all)"
        assert cap in out

    def test_unknown_suite_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "everything"])
        assert exc.value.code == 2

    ROW_KEYS = {"name", "passed", "points", "defect", "tolerance", "detail", "worst_at"}

    @pytest.mark.parametrize("timings", [False, True])
    def test_json_check_row_keys_are_pinned(self, capsys, timings):
        argv = ["verify", "all", "--format", "json"] + (["--timings"] if timings else [])
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        payload = strict_loads(out)
        want = self.ROW_KEYS | ({"elapsed_s"} if timings else set())
        assert [set(row) for row in payload["results"]["checks"]] == [want] * 12
        assert ("timings" in payload) == timings

    def test_worst_point_is_named(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "integers", "--q", "2", "--format", "json")
        assert code == 0
        q, k = strict_loads(out)["results"]["checks"][0]["worst_at"]
        assert q == 2 and -8 <= k <= 8
        _, text, _ = run_cli(capsys, "verify", "integers", "--q", "2")
        assert f"; worst at (2, {k})" in text
        _, text, _ = run_cli(capsys, "verify", "twostep")
        assert "worst at" not in text

    TIMING_KEYS = {
        "total_s",
        "negative_value_table.hits",
        "negative_value_table.misses",
        "moment_polynomials.hits",
        "moment_polynomials.misses",
    }

    @pytest.mark.parametrize("suite", ["all", "negvals", "symmetry"])
    def test_timings_keys_are_pinned(self, capsys, suite):
        code, out, _ = run_cli(capsys, "verify", suite, "--timings", "--format", "json")
        assert code == 0
        timings = strict_loads(out)["timings"]
        assert set(timings) == self.TIMING_KEYS
        counts = [timings[k] for k in self.TIMING_KEYS - {"total_s"}]
        assert all(type(c) is int and c >= 0 for c in counts)

    def test_cache_counts_are_this_runs_own(self, capsys):
        # a second identical run finds every table cached: hits only, no misses
        run_cli(capsys, "verify", "negvals", "--timings", "--format", "json")
        code, out, _ = run_cli(capsys, "verify", "negvals", "--timings", "--format", "json")
        assert code == 0
        timings = strict_loads(out)["timings"]
        assert timings["negative_value_table.misses"] == 0
        assert timings["moment_polynomials.misses"] == 0
        assert timings["negative_value_table.hits"] + timings["moment_polynomials.hits"] > 0

    def test_cache_counters_are_read_only_under_timings(self, capsys, monkeypatch):
        # a wrapped builder, as a tracer installs, has no cache_info
        honest = special_values.negative_value_table
        monkeypatch.setattr(special_values, "negative_value_table", lambda *a: honest(*a))
        code, out, err = run_cli(capsys, "verify", "negvals")
        assert (code, err) == (0, "") and "PASS negvals" in out

    def test_timings_flag_adds_field(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "negvals", "--timings", "--format", "json")
        assert code == 0
        payload = strict_loads(out)
        assert "timings" in payload
        assert payload["results"]["checks"][0]["elapsed_s"] >= 0


@pytest.fixture
def seventh_closed_form_off_by_one(monkeypatch):
    """N_7 + 1 in the closed form, on fresh tables: the two-step guard fires at P_7."""
    honest = special_values._neg_value_closed_form
    one, zero = special_values.IntPoly([1]), special_values.IntPoly()
    monkeypatch.setattr(
        special_values, "_neg_value_closed_form", lambda m: honest(m) + (one if m == 7 else zero)
    )
    monkeypatch.setattr(special_values, "_closed_forms", [])
    monkeypatch.setattr(special_values, "_value_polys", [one])
    special_values.negative_value_table.cache_clear()
    yield
    special_values.negative_value_table.cache_clear()


class TestConsistencyGuard:
    def test_a_guard_that_fires_in_verify_fails_its_row(self, capsys, seventh_closed_form_off_by_one):
        code, out, err = run_cli(capsys, "verify", "all", "--format", "json")
        assert code == 1 and err == ""
        rows = strict_loads(out)["results"]["checks"]
        assert [r["name"] for r in rows] == list(verify.CHECKS)
        dyck_row = rows[list(verify.CHECKS).index("dyck")]
        assert not dyck_row["passed"]
        assert "the two-step relation leaves 2q P_7 a constant term" in dyck_row["detail"]

    @pytest.mark.parametrize("argv", [("poly", "--n", "8"), ("values", "--q", "3", "--pos", "8")])
    def test_a_guard_that_fires_outside_verify_exits_4(
        self, capsys, seventh_closed_form_off_by_one, argv
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 4 and out == ""
        assert err == (
            "error: internal consistency check failed: "
            "the two-step relation leaves 2q P_7 a constant term\n"
        )


class TestFormatsAndPlumbing:
    def test_parser_choices_match_the_library(self):
        assert cli.VERIFY_SUITES == ("all", *verify.CHECKS)
        assert cli.DYCK_METHODS == dyck.WEIGHT_POLY_METHODS

    def test_readme_lists_the_verify_suites_of_the_library(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        listed = re.search(r"The `verify` suites, in battery order: (.*?)\.\n", readme, re.S)
        assert listed is not None
        assert tuple(re.findall(r"`(\w+)`", listed.group(1))) == ("all", *verify.CHECKS)

    def test_strict_parse_refuses_non_finite_numbers(self):
        with pytest.raises(ValueError):
            strict_loads('{"t": Infinity}')
        with pytest.raises(ValueError):
            strict_loads('{"t": NaN}')

    def test_json_round_trips_byte_identically(self, capsys):
        for argv in (
            ["poly", "--n", "6", "--format", "json"],
            ["values", "--q", "3", "--format", "json"],
            ["zeta", "--q", "2", "--s", "1.5,0.5", "--format", "json"],
            ["verify", "negvals", "--format", "json"],
        ):
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0
            reserialized = json.dumps(strict_loads(out), indent=2, sort_keys=True) + "\n"
            assert reserialized == out

    def test_identical_invocations_identical_output(self, capsys):
        _, first, _ = run_cli(capsys, "zeta", "--q", "3", "--s", "2.5,-1", "--format", "json")
        _, second, _ = run_cli(capsys, "zeta", "--q", "3", "--s", "2.5,-1", "--format", "json")
        assert first == second

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "poly", "--n", "2", "--format", "json",
                               "--output", str(target))
        assert code == 0
        assert out == ""
        assert strict_loads(target.read_text())["command"] == "poly"

    def test_unwritable_output_is_input_error(self, capsys, tmp_path):
        target = tmp_path / "absent" / "x.json"
        code, out, err = run_cli(capsys, "poly", "--n", "3", "--output", str(target))
        assert code == 2
        assert err.startswith("error: cannot write") and "Traceback" not in err
        assert out == "" and not target.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["zeta", "--q", "2", "--s", "1,0", "--abs-tol", "1e400"],
            ["zeta", "--q", "2", "--s", "1,0", "--rel-tol", "nan"],
            ["zeta", "--q", "2", "--s", "1,0", "--max-nodes", "32.9"],
            ["zeta", "--q", "2", "--s", "1,0", "--max-nodes", "64.0"],
            ["poly", "--n", "2", "--config", "x.json"],
        ],
        ids=" ".join,
    )
    def test_flag_values_that_do_not_fit_are_refused(self, capsys, argv):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv", [["poly", "--n", "3"], ["zeta", "--q", "3", "--s", "2"]], ids=" ".join
    )
    def test_timings_outside_verify_carry_the_total_only(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv, "--timings", "--format", "json")
        assert code == 0
        timings = strict_loads(out)["timings"]
        assert list(timings) == ["total_s"]
        assert type(timings["total_s"]) is float and timings["total_s"] >= 0

    def test_invalid_quad_budget_rejected(self, capsys):
        code, _, err = run_cli(capsys, "zeta", "--q", "2", "--s", "1,0",
                               "--max-nodes", "63")
        assert code == 2

    def test_no_color_in_captured_output(self, capsys):
        _, out, _ = run_cli(capsys, "verify", "negvals")
        assert "\x1b[" not in out

    @pytest.mark.parametrize(
        "argv",
        [
            [*cmd, "--format", fmt]
            for cmd in (["poly", "--n", "4"], ["dyck", "--n", "3"],
                        ["values", "--q", "3", "--neg", "2", "--pos", "2"])
            for fmt in ("json", "csv")
        ]
        + [["values", "--q", "3", "--neg", "2", "--pos", "2", "--format", "text"]],
        ids=" ".join,
    )
    def test_a_format_not_asked_for_is_never_built(self, capsys, monkeypatch, argv):
        want = run_cli(capsys, *argv)

        def no_latex(*args):
            raise AssertionError("a LaTeX form was built for another format")

        monkeypatch.setattr(cli, "latex_poly", no_latex)
        monkeypatch.setattr(cli, "_latex_fraction", no_latex)
        assert want[0] == 0
        assert run_cli(capsys, *argv) == want

    def test_csv_scalar_row(self, capsys):
        code, out, _ = run_cli(capsys, "heat", "--q", "2", "--t", "0.5", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "index,value"
        assert lines[1].startswith("0,")


_POINTS = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "500", "-500"]),
    st.floats(min_value=-600, max_value=600).map(repr),
)
_ZETA_TARGETS = st.one_of(
    st.integers(1, 6).map(lambda q: ["--q", str(q)]),
    st.sampled_from([["--line"], ["--sato-tate"]]),
)
_CHEAP_ARGV = st.one_of(
    st.builds(lambda target, s: ["zeta", *target, f"--s={s}"], _ZETA_TARGETS, _POINTS),
    st.builds(
        lambda q, neg, pos: ["values", "--q", str(q), "--neg", str(neg), "--pos", str(pos)],
        st.integers(0, 8),
        st.integers(-1, 10),
        st.integers(-1, 10),
    ),
    st.integers(-2, 40).map(lambda n: ["poly", "--n", str(n)]),
    st.builds(
        lambda q, t: ["heat", "--q", str(q), "--t", t],
        st.integers(1, 6),
        st.one_of(st.sampled_from(["nan", "inf", "-1", "0", "1e3"]), st.floats(0, 5).map(repr)),
    ),
    st.integers(-2, 12).map(lambda n: ["dyck", "--n", str(n)]),
    st.sampled_from([["verify", "integers", "--q", "2"], ["verify", "laplace", "--q", "2"]]),
)


@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(argv=_CHEAP_ARGV, fmt=st.sampled_from(FORMATS))
def test_exit_code_contract(capsys, argv, fmt):
    """Every invocation exits 0/1/2/3 and never ends in a traceback; its JSON is strict."""
    argv = [*argv, "--format", fmt]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    out, err = capsys.readouterr()
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err, argv
    if fmt == "json" and out:
        strict_loads(out)
