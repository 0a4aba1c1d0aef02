"""Coloured Dyck words, block weights, and the identity with value polynomials."""

from collections import Counter
from fractions import Fraction
from itertools import accumulate, groupby
from math import comb
from types import ModuleType

import numpy as np
import pytest

from treezeta.dyck import (
    DP_CAP,
    IdentityReport,
    catalan,
    enumerate_dyck,
    verify_weight_value_identity,
    weight_polynomial,
    _cycle_coefficients,
    _cycle_step,
)
from treezeta import dyck, exact
from treezeta.errors import ConsistencyError, DomainError
from treezeta.exact import IntPoly, poly_is_palindromic
from treezeta.special_values import value_polynomials


def term_ratio_cycle_coefficients(n):
    """The a_k of the dp summed term by term, the recurrence's oracle.

    a_k = C(n+1, k) / (n+1) * S_k with, for m = n - k,
    S_k = sum over i of C(k, i) * C(2m, m-i) * 2**(m-i); the terms of S_k go
    by the ratio (k-i)(m-i) / (2(i+1)(m+i+1)), and as each is an integer,
    one floor division per term is exact.  O(n**2) steps.
    """
    coeffs = []
    for k in range(n + 1):
        m = n - k
        term = comb(2 * m, m) << m
        total = term
        for i in range(min(k, m)):
            term = term * (k - i) * (m - i) // (2 * (i + 1) * (m + i + 1))
            total += term
        coeffs.append(comb(n + 1, k) * total // (n + 1))
    return coeffs


def word_weight(letters):
    """The block weight from its definition: U letters, plus B-runs, minus R-runs."""
    runs = [ch for ch, _ in groupby(letters)]
    return letters.count("U") + runs.count("B") - runs.count("R")


def string_tally(n):
    """Weight distribution from one word_weight call per enumerated word."""
    tally = Counter(word_weight(w) for w in enumerate_dyck(n))
    return [tally[k] for k in range(2 * n + 1)]


class TestCatalan:
    def test_values(self):
        assert [catalan(n) for n in range(6)] == [1, 1, 2, 5, 14, 42]

    def test_negative(self):
        with pytest.raises(DomainError):
            catalan(-1)

    def test_bool_rejected(self):
        with pytest.raises(DomainError):
            catalan(True)


class TestDyckWord:
    """What counts as a word: exactly the strings the enumeration lists."""

    WORDS = frozenset(w for n in range(4) for w in enumerate_dyck(n))

    def test_valid(self):
        assert "UUBRUB" in set(enumerate_dyck(3))
        assert "UUBRUB" in self.WORDS

    @pytest.mark.parametrize("bad", ["BU", "UB R", "UUB", "UBR", "UX"])
    def test_invalid(self, bad):
        # a dip below the axis, a foreign letter, no return to the axis
        assert bad not in self.WORDS

    def test_empty_is_valid(self):
        assert list(enumerate_dyck(0)) == [""]


class TestEnumeration:
    def test_counts(self):
        for n in range(7):
            words = list(enumerate_dyck(n))
            assert len(words) == 2**n * catalan(n)
            assert len(set(words)) == len(words)

    @pytest.mark.parametrize("n", range(6))
    def test_words_stay_above_the_axis_and_return_to_it(self, n):
        # each word is built valid: nothing checks it on the way out
        for w in enumerate_dyck(n):
            heights = list(accumulate((1 if ch == "U" else -1 for ch in w), initial=0))
            assert set(w) <= set("UBR") and len(w) == 2 * n
            assert min(heights) == 0 == heights[-1]

    def test_lexicographic_order(self):
        got = list(enumerate_dyck(2))
        assert got == ["UUBB", "UUBR", "UURB", "UURR", "UBUB", "UBUR", "URUB", "URUR"]

    def test_cap(self):
        with pytest.raises(DomainError):
            list(enumerate_dyck(10))

    @pytest.mark.parametrize("bad", [True, 2.0, -1])
    def test_bad_half_length(self, bad):
        with pytest.raises(DomainError):
            list(enumerate_dyck(bad))


class TestWeight:
    def test_half_length_one(self):
        assert word_weight("UB") == 2
        assert word_weight("UR") == 0

    def test_figure_word(self):
        # six U letters, four B-runs and two R-runs
        assert word_weight("UUUBUUBRUBRB") == 6 + 4 - 2

    def test_empty_word(self):
        assert word_weight("") == 0

    def test_blocks_split_by_ups(self):
        # the same down-colours weigh differently once a U separates them
        assert word_weight("UUBB") == 3  # one B-run
        assert word_weight("UBUB") == 4  # two B-runs

    def test_range_invariant(self):
        for w in enumerate_dyck(5):
            assert 0 <= word_weight(w) <= 10


class TestWeightPolynomial:
    FROZEN = {
        0: [1],
        1: [1, 0, 1],
        2: [1, 1, 4, 1, 1],
        4: [1, 6, 26, 46, 66, 46, 26, 6, 1],
    }

    @pytest.mark.parametrize("n", sorted(FROZEN))
    def test_frozen(self, n):
        assert weight_polynomial(n) == IntPoly(self.FROZEN[n])

    @pytest.mark.parametrize("n", range(10))
    def test_dp_equals_bruteforce(self, n):
        assert weight_polynomial(n, "dp") == weight_polynomial(n, "bruteforce")

    @pytest.mark.parametrize("n", range(8))
    def test_bruteforce_matches_string_definition(self, n):
        # the letter walk against one word_weight call per word
        assert list(weight_polynomial(n, "bruteforce").coeffs) == string_tally(n)

    @pytest.mark.parametrize("method", ["dp", "bruteforce"])
    @pytest.mark.parametrize("bad", [True, 3.0])
    def test_non_integer_half_length_rejected(self, bad, method):
        with pytest.raises(DomainError):
            weight_polynomial(bad, method)

    def test_numpy_integer_accepted(self):
        assert weight_polynomial(np.int64(4)) == IntPoly(self.FROZEN[4])
        assert weight_polynomial(np.int64(4), "bruteforce") == IntPoly(self.FROZEN[4])

    # DP_CAP: the widest packing slot the dp ever uses
    @pytest.mark.parametrize("n", [*range(1, 13), DP_CAP])
    def test_shape(self, n):
        p = weight_polynomial(n)
        assert p.is_monic()
        assert p.degree == 2 * n
        assert poly_is_palindromic(p)
        assert all(c >= 0 for c in p.coeffs)
        assert p.evaluate(1) == 2**n * catalan(n)

    # every depth the tables workload builds, and the deep one it adds
    @pytest.mark.parametrize("n", [*range(80), 150])
    def test_deep_dp_equals_value_polynomial(self, n):
        assert weight_polynomial(n, "dp") == value_polynomials(n + 1)[n]

    # the cycle-lemma count rests on the per-run colour sums; the letter walk
    # of the bruteforce route uses none of that run algebra
    @pytest.mark.parametrize("n", [*range(61), 100, 150, DP_CAP])
    def test_run_level_dp_equals_letter_level_dp(self, n):
        assert weight_polynomial(n, "dp") == weight_polynomial(n, "bruteforce")

    @pytest.mark.parametrize("n", range(31))
    def test_cycle_coefficients_expand_to_the_weight_polynomial(self, n):
        # a_k from the plain binomial sums in Fractions, not the term ratio
        a = list(_cycle_coefficients(n))[::-1]
        plain = [
            Fraction(comb(n + 1, k), n + 1)
            * sum(comb(k, i) * comb(2 * (n - k), n - k - i) * 2 ** (n - k - i)
                  for i in range(min(k, n - k) + 1))
            for k in range(n + 1)
        ]
        assert all(x.denominator == 1 for x in plain)
        assert a == [int(x) for x in plain]
        assert all(type(x) is int and x >= 0 for x in a)
        assert a[0] == catalan(n) << n
        # schoolbook: q**(n-k) * (q-1)**(2k) has C(2k, j) * (-1)**j at q**(n+k-j)
        coeffs = [0] * (2 * n + 1)
        for k, a_k in enumerate(a):
            for j in range(2 * k + 1):
                coeffs[n + k - j] += a_k * comb(2 * k, j) * (-1) ** j
        assert IntPoly(coeffs) == weight_polynomial(n)

    def test_recurrence_equals_term_ratio_sums(self):
        # an oracle beside the proof below: every n the dp accepts, a_n first
        for n in range(DP_CAP + 1):
            assert list(_cycle_coefficients(n))[::-1] == term_ratio_cycle_coefficients(n), n

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 10, 57, DP_CAP])
    def test_wrong_end_value_raises(self, monkeypatch, n):
        # a_0 must come out as Catalan(n) * 2**n; here that count is off by one
        true_catalan = catalan
        monkeypatch.setattr(dyck, "catalan", lambda k: true_catalan(k) + 1)
        with pytest.raises(ConsistencyError, match=f"cycle coefficient 0 of {n} "):
            weight_polynomial(n, "dp")

    def test_an_inexact_step_raises(self, monkeypatch):
        # a global of the runner's module shadows the builtin, so every division leaves a remainder
        monkeypatch.setattr(exact, "divmod", lambda a, b: (a // b, 1), raising=False)
        message = "^cycle coefficients of 5, counted down from a_5: term 1 leaves a remainder"
        with pytest.raises(ConsistencyError, match=message + " on division by 2$"):
            weight_polynomial(5, "dp")

    def test_caps_and_methods(self):
        assert weight_polynomial(10, "bruteforce") == weight_polynomial(10, "dp")
        with pytest.raises(DomainError):
            weight_polynomial(DP_CAP + 1, "bruteforce")
        with pytest.raises(DomainError):
            weight_polynomial(201, "dp")
        with pytest.raises(DomainError):
            weight_polynomial(3, "magic")


def cleared_certificate(n, k, tau):
    """The cycle recurrence's certificate, divided by H_k and cleared of denominators.

    With m = n - k, (d, (e_1, e_2)) = _cycle_step(n, m) and c_0, c_1, c_2 =
    d, -e_1, -e_2, the certificate of ``_cycle_coefficients`` reads
    c_0 H_k + c_1 H_{k+1} + c_2 H_{k+2} = d/dtau (R H_k) with
    R = -m(m+1)/(k+1) * T * Q, T = tau(1-tau)(1-2 tau) and
    Q = -4(m-1) tau^2 + (3n-4k-5) tau + k + 1.  Dividing by H_k uses
    H_{k+1}/H_k = (n+1-k)/(k+1) tau(1-tau),
    H_{k+2}/H_k = (n+1-k)(n-k)/((k+1)(k+2)) tau^2 (1-tau)^2 and
    T H_k'/H_k = -k tau(1-2 tau) + 2(n+1) tau(1-tau) - (n-k+1)(1-tau)(1-2 tau).
    Returned: (k+1)(k+2) T times (left side - right side), a polynomial in
    n, k and tau.
    """
    m = n - k
    d, (e_1, e_2) = dyck._cycle_step(n, m)
    c_0, c_1, c_2 = d, -e_1, -e_2
    t = tau * (1 - tau)
    T = t * (1 - 2 * tau)
    left = T * ((k + 1) * (k + 2) * c_0 + (k + 2) * c_1 * (n + 1 - k) * t
                + c_2 * (n + 1 - k) * (n - k) * t * t)
    Q = -4 * (m - 1) * tau**2 + (3 * n - 4 * k - 5) * tau + k + 1
    dQ = -8 * (m - 1) * tau + 3 * n - 4 * k - 5
    dT = 1 - 6 * tau + 6 * tau**2
    log_h = -k * tau * (1 - 2 * tau) + 2 * (n + 1) * t - (n - k + 1) * (1 - tau) * (1 - 2 * tau)
    # (k+1)(k+2) T (R H_k)'/H_k, with (T Q)' = T' Q + T Q'
    right = -m * (m + 1) * (k + 2) * (T * (dT * Q + T * dQ) + T * Q * log_h)
    return left - right


class TestCycleRecurrenceProof:
    """The recurrence ``_cycle_step`` gives the runner holds for every n: a proof.

    Its coefficients are of degree at most 3 in n and in k, so the cleared
    certificate is of degree at most 4 in n, 5 in k and 7 in tau.  A
    polynomial of those degrees that vanishes on a grid of 5 x 6 x 8 points
    is zero, so the certificate holds identically.  Then the residues of
    H_k, which are the a_k, obey the recurrence for 0 <= k <= n - 1 and take
    its boundary values a_n = 1 and a_{n+1} = 0, and the runner, whose
    divisor m**2 (m+1) is nonzero there, yields exactly them.
    """

    def test_step_coefficients_are_of_degree_three_in_n_and_k(self):
        # the degree premise: every fourth difference vanishes, in n at each k and in k at each n
        def fourth_differences(values):
            for _ in range(4):
                values = [b - a for a, b in zip(values, values[1:])]
            return values

        for fixed in range(-3, 4):
            for along_n in (True, False):
                steps = [_cycle_step(*((v, v - fixed) if along_n else (fixed, fixed - v)))
                         for v in range(-4, 5)]
                for column in zip(*[(d, *cs) for d, cs in steps]):
                    assert fourth_differences(list(column)) == [0] * 5

    def test_certificate_vanishes_on_the_degree_grid(self):
        grid = [(n, k, Fraction(tau, 3))
                for n in range(5) for k in range(6) for tau in range(8)]
        assert [cleared_certificate(*point) for point in grid] == [0] * len(grid)

    def test_a_wrong_coefficient_breaks_the_certificate(self, monkeypatch):
        honest = dyck._cycle_step
        monkeypatch.setattr(
            dyck, "_cycle_step", lambda n, m: (honest(n, m)[0], (honest(n, m)[1][0] + 1, 0))
        )
        assert cleared_certificate(7, 3, Fraction(1, 5)) != 0

    @pytest.mark.parametrize("n", range(31))
    def test_residues_are_the_runners_terms(self, n):
        # [tau^(n-k)] (1-tau)^k (1-2 tau)^(-n-1) by the binomial series of both factors
        def residue(k):
            j = n - k
            inner = sum(comb(k, i) * (-1) ** i * comb(n + j - i, n) << (j - i)
                        for i in range(min(k, j) + 1))
            return Fraction(comb(n + 1, k), n + 1) * inner

        assert list(_cycle_coefficients(n)) == [residue(k) for k in range(n, -1, -1)]


class TestCarryGuard:
    class NarrowCount(int):
        """A word count whose bit length claims half the bits it has."""

        def __lshift__(self, k):
            return type(self)(int(self) << k)

        def bit_length(self):
            return int.bit_length(self) // 2

    @pytest.mark.parametrize("n", [4, 12, 30, DP_CAP])
    def test_too_narrow_slots_raise(self, monkeypatch, n):
        # the count is right but its slots are too narrow: the largest
        # coefficient carries, and only the coefficient sum can tell
        true_catalan = catalan
        monkeypatch.setattr(dyck, "catalan", lambda k: self.NarrowCount(true_catalan(k)))
        with pytest.raises(ConsistencyError, match="carried"):
            weight_polynomial(n, "dp")


def test_dyck_binds_no_numpy_module():
    # the walk and the closed form run on Python ints only
    bound = [v for v in vars(dyck).values() if isinstance(v, ModuleType)]
    assert not [m.__name__ for m in bound if m.__name__.split(".")[0] == "numpy"]


@pytest.mark.parametrize("width", [1, 7, 64, 439])
@pytest.mark.parametrize("count", [0, 1, 16, 17, 33, 401])
def test_slots_read_each_slot_once_shifted(width, count):
    # every slot holds a different pattern, and bits past the last slot are dropped
    packed = sum(((k * 0x9E3779B97F4A7C15) % (1 << width)) << (k * width) for k in range(count + 3))
    mask = (1 << width) - 1
    want = [(packed >> (k * width)) & mask for k in range(count)]
    assert dyck._slots(packed, width, count) == want


class TestIdentity:
    def test_holds_through_twelve(self):
        report = verify_weight_value_identity(12, brute_max=5)
        assert isinstance(report, IdentityReport)
        assert report.ok
        assert report.dp_checked == 13
        assert report.brute_checked == 6
        assert report.first_mismatch() is None

    # sum of Catalan(n) * 2**n for n <= brute_max: 1, then 1 + 2 + 8 + 40 + 224 + 1344
    @pytest.mark.parametrize("brute_max, words", [(0, 1), (5, 1619), (9, 2920403)])
    def test_brute_words_counted(self, brute_max, words):
        report = verify_weight_value_identity(9, brute_max=brute_max)
        assert report.ok
        assert report.brute_checked == brute_max + 1
        assert report.brute_words == words

    def test_corrupted_table_is_flagged(self):
        polys = list(value_polynomials(7))
        polys[2] = polys[2] + IntPoly([0, 1])  # damage the degree-4 entry
        report = verify_weight_value_identity(6, brute_max=0, value_polys=polys)
        assert not report.ok
        assert "weight polynomial 2" in report.mismatches[0]
        assert "coefficient 1" in report.mismatches[0]
        assert report.mismatch_ns == (2,)

    @pytest.mark.parametrize(
        "kwargs", [{"n_max": True}, {"n_max": 4.0}, {"n_max": 4, "brute_max": -1},
                   {"n_max": 4, "brute_max": 2.5}]
    )
    def test_bad_depths_rejected(self, kwargs):
        with pytest.raises(DomainError):
            verify_weight_value_identity(**kwargs)

    @pytest.mark.parametrize(
        "entry", [lambda p: list(p.coeffs), lambda p: tuple(p.coeffs), lambda p: None]
    )
    def test_foreign_table_entries_rejected(self, entry):
        # list, None or tuple entries are an input error, not a TypeError mid-check
        polys = [entry(p) for p in value_polynomials(4)]
        with pytest.raises(DomainError, match="IntPoly"):
            verify_weight_value_identity(3, brute_max=0, value_polys=polys)

    def test_one_foreign_entry_rejected(self):
        polys = list(value_polynomials(7))
        polys[5] = None
        with pytest.raises(DomainError, match="NoneType"):
            verify_weight_value_identity(6, brute_max=0, value_polys=polys)

    def test_brute_max_past_the_cap_allowed_when_n_max_is_within(self):
        # the walk runs only through min(brute_max, n_max)
        report = verify_weight_value_identity(4, brute_max=12)
        assert report.ok
        assert report.brute_checked == 5

    def test_short_table_rejected(self):
        with pytest.raises(DomainError):
            verify_weight_value_identity(6, value_polys=value_polynomials(3))
