"""Exact special values: walk moments, negative and positive integer values."""

import math
from fractions import Fraction

import numpy as np
import pytest

from treezeta import exact, special_values as sv
from treezeta.errors import ConsistencyError, DomainError
from treezeta.exact import IntPoly, poly_eval, poly_is_palindromic
from treezeta.genfun import quadratic_residual_series
from treezeta.special_values import (
    NEG_VALUE_METHODS,
    count_closed_walks,
    moment_polynomials,
    negative_value_table,
    positive_value_sequence,
    two_step_defect,
    value_polynomials,
    zeta_integer,
    zeta_pos,
)


class TestWalkCounts:
    @pytest.mark.parametrize(
        "q, n, expect",
        [
            (2, 0, 1),
            (2, 1, 0),
            (2, 2, 3),
            (5, 3, 0),
            (2, 4, 15),
            (3, 2, 4),
            (3, 4, 28),
        ],
    )
    def test_dp_oracle(self, q, n, expect):
        assert count_closed_walks(q, n) == expect

    def test_odd_lengths_vanish(self):
        assert all(count_closed_walks(3, n) == 0 for n in range(1, 21, 2))

    def test_caps_and_domain(self):
        with pytest.raises(DomainError):
            count_closed_walks(2, 65)
        with pytest.raises(DomainError):
            count_closed_walks(0, 2)
        with pytest.raises(DomainError):
            count_closed_walks(2, -1)

    def test_generating_function_matches_dp(self):
        polys = moment_polynomials(12)
        for q in (2, 3, 7):
            for n in range(13):
                assert poly_eval(polys[n], q) == count_closed_walks(q, n)

    def test_low_order_polynomials(self):
        polys = moment_polynomials(4)
        assert polys[0] == IntPoly([1])
        assert polys[1] == IntPoly()
        assert polys[2] == IntPoly([1, 1])
        assert polys[3] == IntPoly()
        assert polys[4] == IntPoly([1, 3, 2])  # (q+1)(2q+1)


class TestNegativeValues:
    def test_first_three(self):
        # 1, q + 1 and (q+1)(q+2)
        assert negative_value_table(2) == (IntPoly([1]), IntPoly([1, 1]), IntPoly([2, 3, 1]))

    def test_three_routes_agree(self):
        tables = [negative_value_table(16, m) for m in NEG_VALUE_METHODS]
        assert tables[0] == tables[1] == tables[2]

    def test_closed_form_tables_share_one_memo(self, monkeypatch):
        monkeypatch.setattr(sv, "_closed_forms", [])
        shallow = negative_value_table.__wrapped__(7)
        assert len(sv._closed_forms) == 8
        deep = negative_value_table.__wrapped__(90)
        assert len(sv._closed_forms) == 91
        assert deep[:8] == shallow and deep[3] is shallow[3]
        for m in (0, 1, 7, 44, 90):
            assert deep[m] == sv._neg_value_closed_form(m)

    def test_closed_form_matches_double_sum(self):
        # the O(m^2)-binomial double sum the one-row formula replaced is its oracle
        def double_sum(m):
            coeffs = [0] * (m + 2)
            for k in range(m + 1):
                coeffs[m - k] += math.comb(m, k) ** 2
            for j in range(1, m // 2 + 1):
                for k in range(m - 2 * j + 1):
                    b = math.comb(m, k) * math.comb(m, 2 * j + k)
                    coeffs[m - 2 * j - k + 1] -= b
                    coeffs[m - 2 * j - k] += b
            return IntPoly(coeffs)

        for m in range(121):
            assert sv._neg_value_closed_form(m) == double_sum(m)

    def test_unknown_method(self):
        with pytest.raises(DomainError):
            negative_value_table(3, method="quadrature")

    def test_values_are_positive_integers(self):
        for p in negative_value_table(11):
            v = poly_eval(p, 3)
            assert v.denominator == 1 and v > 0


class TestValuePolynomials:
    FROZEN = {
        1: [1],
        2: [1, 0, 1],
        3: [1, 1, 4, 1, 1],
        4: [1, 3, 11, 10, 11, 3, 1],
        5: [1, 6, 26, 46, 66, 46, 26, 6, 1],
    }

    @pytest.mark.parametrize("n", sorted(FROZEN))
    def test_frozen_low_orders(self, n):
        assert value_polynomials(n)[n - 1] == IntPoly(self.FROZEN[n])

    @pytest.mark.parametrize("n", range(1, 21))
    def test_shape_invariants(self, n):
        p = value_polynomials(n)[n - 1]
        assert p.is_monic()
        assert p.degree == 2 * n - 2
        assert poly_is_palindromic(p)
        assert all(c >= 0 for c in p.coeffs)

    @pytest.mark.parametrize("n", range(1, 16))
    def test_value_at_one_counts_coloured_paths(self, n):
        # 2^(n-1) times the (n-1)-st Catalan number
        catalan = math.comb(2 * (n - 1), n - 1) // n
        assert value_polynomials(n)[n - 1].evaluate(1) == 2 ** (n - 1) * catalan

    @pytest.mark.parametrize("n", range(1, 11))
    def test_no_small_rational_roots(self, n):
        # monic with constant term 1, so +-1 are the only rational candidates
        p = value_polynomials(n)[n - 1]
        assert p.evaluate(1) != 0 and p.evaluate(-1) != 0


def fraction_recursion(q, n_max):
    """a_0..a_n_max by the quadratic recursion run directly in Fractions."""
    a = [Fraction(1)]
    if n_max >= 1:
        a.append(Fraction(q, q * q - 1))
    previous = Fraction(0)
    for n in range(2, n_max + 1):
        conv = 2 * sum(a[j] * a[n - j] for j in range(1, (n + 1) // 2))
        if n % 2 == 0:
            conv += a[n // 2] ** 2
        a.append((2 * (q + 1) * conv - previous + (q - 1) * a[n - 1]) / (q * q - 1))
        previous = conv
    return a


class TestPositiveValues:
    def test_frozen_q2(self):
        assert zeta_pos(2, 1) == Fraction(2, 3)
        assert zeta_pos(2, 2) == Fraction(10, 9)
        assert zeta_pos(2, 3) == Fraction(86, 27)

    def test_recursion_route_agrees(self):
        for q in (2, 3, 5):
            seq = positive_value_sequence(q, 12)
            assert seq[0] == 1
            for n in range(1, 13):
                assert seq[n] == zeta_pos(q, n)

    @pytest.mark.parametrize("q", [2, 3, 5, 64])
    def test_integer_numerators_equal_fraction_recursion(self, q):
        seq = positive_value_sequence(q, 80)
        assert seq == fraction_recursion(q, 80)
        assert all(isinstance(a, Fraction) for a in seq)
        for n in (1, 2, 17, 65, 80):
            assert seq[n] == zeta_pos(q, n)

    def test_shallow_sequences(self):
        assert positive_value_sequence(2, 0) == [1]
        assert positive_value_sequence(2, 1) == [1, Fraction(2, 3)]

    def test_domain(self):
        with pytest.raises(DomainError):
            zeta_pos(1, 2)
        with pytest.raises(DomainError):
            zeta_pos(2, 0)


class TestIntegerValues:
    def test_glue(self):
        assert zeta_integer(3, 0) == 1
        assert zeta_integer(3, -1) == 4
        assert zeta_integer(3, -2) == 20
        assert zeta_integer(3, 1) == Fraction(3, 8)

    def test_glue_at_q_two(self):
        assert [zeta_integer(2, -m) for m in range(3)] == [1, 3, 12]
        assert zeta_integer(2, 3) == Fraction(86, 27)

    @pytest.mark.parametrize("m", range(6))
    def test_line_values_at_q_one(self, m):
        assert zeta_integer(1, -m) == math.comb(2 * m, m)

    def test_positive_value_at_q_one_refused(self):
        with pytest.raises(DomainError):
            zeta_integer(1, 2)
        with pytest.raises(DomainError):
            zeta_integer(0, -1)

    @pytest.mark.parametrize("q", [2, 3, 5])
    @pytest.mark.parametrize("n", range(-8, 9))
    def test_two_step_relation_exact(self, q, n):
        assert two_step_defect(q, n) == 0


def quadratic_polys(n_max):
    """P_1..P_n_max by the quadratic recurrence over Z[q]: the oracle of the two-step table."""
    return sv._grow(n_max, IntPoly.variable(), IntPoly([1]))


class TestTwoStepRoute:
    """The default value-polynomial route against the quadratic oracle."""

    def test_equals_quadratic_route(self):
        assert value_polynomials(48) == tuple(quadratic_polys(48))

    def test_short_call_is_prefix_of_deeper_call(self):
        deep = value_polynomials(40)
        for n in (1, 7, 23, 40):
            assert value_polynomials(n) == deep[:n]

    def test_polynomials_are_not_rewrapped(self):
        assert value_polynomials(9)[8] is value_polynomials(30)[8]

    def test_builds_exactly_the_requested_depth(self, monkeypatch):
        monkeypatch.setattr(sv, "_value_polys", [IntPoly([1])])
        assert len(value_polynomials(37)) == 37
        assert len(sv._value_polys) == 37
        zeta_pos(3, 41)
        assert len(sv._value_polys) == 41

    # the closed form as imported, before any test patches it
    HONEST_CLOSED_FORM = staticmethod(sv._neg_value_closed_form)

    def build_with_corrupted_closed_form(self, monkeypatch, m, delta, n_max):
        """value_polynomials(n_max) from a fresh table, with N_m off by ``delta``."""
        honest = self.HONEST_CLOSED_FORM

        def corrupted(k):
            return honest(k) + (delta if k == m else IntPoly())

        monkeypatch.setattr(sv, "_value_polys", [IntPoly([1])])
        monkeypatch.setattr(sv, "_closed_forms", [])
        monkeypatch.setattr(sv, "_neg_value_closed_form", corrupted)
        return value_polynomials(n_max)

    def test_remainder_raises_consistency_error(self, monkeypatch):
        # N_m + 1 first enters P_m as -(q+1)^(m-1), a constant term -1 in 2q P_m;
        # N_1 enters only P_2, through 2(q+1) N_1, as a constant term +2
        for m in (1, 2, 5, 40):
            with pytest.raises(ConsistencyError, match="constant term"):
                self.build_with_corrupted_closed_form(monkeypatch, m, IntPoly([1]), m + 1)
            # the polynomials built before the failure stay as they were
            assert sv._value_polys == quadratic_polys(max(m, 2) - 1)

    @pytest.mark.parametrize("m", [2, 40])
    def test_odd_coefficient_raises_consistency_error(self, monkeypatch, m):
        # N_m + q enters 2q P_m as -q (q+1)^(m-1): no constant term, and -1 at q
        with pytest.raises(ConsistencyError, match="odd coefficient"):
            self.build_with_corrupted_closed_form(monkeypatch, m, IntPoly([0, 1]), m + 1)
        assert sv._value_polys == quadratic_polys(m - 1)

    def test_reads_the_closed_form_memo(self, monkeypatch):
        def refuse(m):
            raise AssertionError(f"N_{m} was rebuilt")

        sv._closed_form_table(30)
        monkeypatch.setattr(sv, "_value_polys", [IntPoly([1])])
        monkeypatch.setattr(sv, "_neg_value_closed_form", refuse)
        assert value_polynomials(30) == tuple(quadratic_polys(30))

    def test_two_step_check_does_not_read_the_two_step_table(self, monkeypatch):
        from treezeta.verify import check_two_step

        def refuse(n_max):
            raise AssertionError("the two-step table was read")

        monkeypatch.setattr(sv, "_two_step_table", refuse)
        result = check_two_step(qs=(2, 3), n_abs=10)
        assert result.passed and result.exact_defect == "0"

    def test_residual_detects_corrupted_default_table(self, monkeypatch):
        polys = list(value_polynomials(12))
        polys[6] = polys[6] + IntPoly([0, 1])
        monkeypatch.setattr(sv, "_value_polys", polys)
        residual = quadratic_residual_series(12)
        assert any(not c.is_zero() for c in residual)

    @pytest.mark.parametrize("q, n", [(3, 200), (5, -150)])
    def test_deep_two_step_defect_is_fast(self, q, n, monkeypatch):
        import time

        monkeypatch.setattr(sv, "_closed_forms", [])
        negative_value_table.cache_clear()
        start = time.perf_counter()
        assert two_step_defect(q, n) == 0
        assert time.perf_counter() - start < 2.0  # ~10 ms on a 2-core machine

    def test_two_step_check_builds_no_polynomial(self, monkeypatch):
        from treezeta.verify import check_two_step

        recurrence = sv._quadratic_recurrence
        seen = []

        def spy(table, start, q, one):
            seen.append(q)
            return recurrence(table, start, q, one)

        monkeypatch.setattr(sv, "_quadratic_recurrence", spy)
        result = check_two_step(qs=(2, 3, 64), n_abs=30)
        assert result.passed and result.points == 3 * 61
        assert seen == [2, 3, 64] and all(type(q) is int for q in seen)

    def test_depth_129_builds_fast(self, monkeypatch):
        import time

        monkeypatch.setattr(sv, "_value_polys", [IntPoly([1])])
        start = time.perf_counter()
        polys = value_polynomials(129)
        assert len(polys) == 129
        assert time.perf_counter() - start < 5.0  # ~0.1 s on a 2-core machine


class TestRadicalRecurrence:
    """The D-finite radical coefficients squared back by plain convolution."""

    @pytest.mark.parametrize(
        "b, c",
        [
            (IntPoly(), IntPoly([0, -4])),  # 1 - 4 q z^2, the walk radical
            (IntPoly([-2, -2]), IntPoly([1, -2, 1])),  # 1 - 2(q+1) z + (q-1)^2 z^2
        ],
    )
    def test_squares_to_the_radicand(self, b, c):
        # a series with constant term 1 has one square root with constant term 1
        order = 31
        got = sv._radical_coefficients(b, c, order, "a radical")
        square = [sum((got[i] * got[k - i] for i in range(k + 1)), IntPoly()) for k in range(order)]
        assert len(got) == order and got[0] == IntPoly([1])
        assert square == [IntPoly([1]), b, c] + [IntPoly()] * (order - 3)

    def test_inexact_division_raises(self):
        # sqrt(1 + z) leaves the integers at its first coefficient, 1/2
        message = "^sqrt\\(1 \\+ z\\): term 1 leaves a remainder on division by 2$"
        with pytest.raises(ConsistencyError, match=message):
            sv._radical_coefficients(IntPoly([1]), IntPoly(), 3, "sqrt(1 + z)")

    @pytest.mark.parametrize("route", ["moments", "series"])
    def test_an_inexact_step_in_a_route_names_its_radical(self, monkeypatch, route):
        # a global of the runner's module shadows the builtin, so every division leaves a remainder
        monkeypatch.setattr(exact, "divmod", lambda a, b: (a, 1), raising=False)
        sv.negative_value_table.cache_clear()
        sv.moment_polynomials.cache_clear()
        radical = "walk" if route == "moments" else "series"
        message = f"^the {radical} radical: term 1 leaves a remainder on division by 2$"
        with pytest.raises(ConsistencyError, match=message):
            negative_value_table(4, route)

    def test_series_route_matches_closed_form_deep(self):
        assert negative_value_table(90, "series") == negative_value_table(90)


class TestArgumentValidation:
    """One integer validator across the module: operator.index, no bools."""

    def test_numpy_branching_number_accepted(self):
        assert zeta_pos(np.int64(2), 3) == zeta_pos(2, 3) == Fraction(86, 27)
        assert zeta_integer(np.int64(3), np.int64(-2)) == 20
        assert positive_value_sequence(np.int64(2), 3)[3] == Fraction(86, 27)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: zeta_pos(2, True),
            lambda: zeta_pos(True, 2),
            lambda: zeta_pos(2, 2.0),
            lambda: zeta_pos(2.0, 2),
            lambda: value_polynomials(3.0),
            lambda: value_polynomials(True),
            lambda: negative_value_table(2.5),
            lambda: negative_value_table(True),
            lambda: moment_polynomials(1.5),
            lambda: positive_value_sequence(2, 2.5),
            lambda: count_closed_walks(2.5, 2),
            lambda: count_closed_walks(2, 2.0),
            lambda: zeta_integer(2, 1.0),
            lambda: negative_value_table(1.0),
            lambda: two_step_defect(2, 0.5),
        ],
    )
    def test_non_integers_refused(self, call):
        with pytest.raises(DomainError):
            call()

    def test_bool_refused_after_int_was_cached(self):
        negative_value_table(1)
        with pytest.raises(DomainError):
            negative_value_table(True)
