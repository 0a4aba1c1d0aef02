"""Coloured Dyck words, block weights, and the identity with value polynomials."""

from collections import Counter

import numpy as np
import pytest

from treezeta.dyck import (
    DyckWord,
    IdentityReport,
    catalan,
    decompose,
    enumerate_dyck,
    verify_weight_value_identity,
    weight_polynomial,
    weight_profile,
    word_weight,
)
from treezeta.errors import DomainError
from treezeta.exact import IntPoly, poly_is_palindromic
from treezeta.special_values import value_polynomials


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
    def test_valid(self):
        w = DyckWord("UUBRUB")
        assert w.half_length == 3
        assert len(w) == 6

    @pytest.mark.parametrize("bad", ["BU", "UB R", "UUB", "UBR", "UX"])
    def test_invalid(self, bad):
        with pytest.raises(DomainError):
            DyckWord(bad)

    def test_empty_is_valid(self):
        assert DyckWord("").half_length == 0


class TestEnumeration:
    def test_counts(self):
        for n in range(7):
            words = list(enumerate_dyck(n))
            assert len(words) == 2**n * catalan(n)
            assert len(set(w.letters for w in words)) == len(words)

    def test_lexicographic_order(self):
        got = [w.letters for w in enumerate_dyck(2)]
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
        p = weight_profile("UUUBUUBRUBRB")
        assert (p.n, p.b_blocks, p.r_blocks, p.weight) == (6, 4, 2, 8)

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

    @pytest.mark.parametrize("n", range(7))
    def test_bruteforce_matches_string_definition(self, n):
        # the per-path colouring arrays against one word_weight call per word
        tally = Counter(word_weight(w) for w in enumerate_dyck(n))
        want = [tally[k] for k in range(2 * n + 1)]
        assert list(weight_polynomial(n, "bruteforce").coeffs) == want

    @pytest.mark.parametrize("method", ["dp", "bruteforce"])
    @pytest.mark.parametrize("bad", [True, 3.0])
    def test_non_integer_half_length_rejected(self, bad, method):
        with pytest.raises(DomainError):
            weight_polynomial(bad, method)

    def test_numpy_integer_accepted(self):
        assert weight_polynomial(np.int64(4)) == IntPoly(self.FROZEN[4])
        assert weight_polynomial(np.int64(4), "bruteforce") == IntPoly(self.FROZEN[4])

    @pytest.mark.parametrize("n", range(1, 13))
    def test_shape(self, n):
        p = weight_polynomial(n)
        assert p.is_monic()
        assert p.degree == 2 * n
        assert poly_is_palindromic(p)
        assert all(c >= 0 for c in p.coeffs)
        assert p.evaluate(1) == 2**n * catalan(n)

    def test_caps_and_methods(self):
        with pytest.raises(DomainError):
            weight_polynomial(10, "bruteforce")
        with pytest.raises(DomainError):
            weight_polynomial(201, "dp")
        with pytest.raises(DomainError):
            weight_polynomial(3, "magic")


class TestDecompose:
    def test_smallest(self):
        assert decompose("UB") == ("", "", "B")
        assert decompose("UR") == ("", "", "R")

    def test_marked_rise_is_last_from_axis(self):
        assert decompose("UUBRUB") == ("UUBR", "", "B")
        assert decompose("UBURUB") == ("UBUR", "", "B")
        assert decompose("UBUURUBR") == ("UB", "URUB", "R")

    def test_total_and_injective_up_to_six(self):
        for n in range(1, 7):
            seen = set()
            for w in enumerate_dyck(n):
                left, inner, colour = decompose(w)
                assert left + "U" + inner + colour == w.letters
                assert (left, inner, colour) not in seen
                seen.add((left, inner, colour))

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            decompose("")


class TestIdentity:
    def test_holds_through_twelve(self):
        report = verify_weight_value_identity(12, brute_max=5)
        assert isinstance(report, IdentityReport)
        assert report.ok
        assert report.dp_checked == 13
        assert report.brute_checked == 6
        assert report.first_mismatch() is None

    def test_corrupted_table_is_flagged(self):
        polys = list(value_polynomials(7))
        polys[2] = polys[2] + IntPoly([0, 1])  # damage the degree-4 entry
        report = verify_weight_value_identity(6, brute_max=0, value_polys=polys)
        assert not report.ok
        assert "weight polynomial 2" in report.mismatches[0]
        assert "coefficient 1" in report.mismatches[0]

    @pytest.mark.parametrize(
        "kwargs", [{"n_max": True}, {"n_max": 4.0}, {"n_max": 4, "brute_max": -1},
                   {"n_max": 4, "brute_max": 2.5}]
    )
    def test_bad_depths_rejected(self, kwargs):
        with pytest.raises(DomainError):
            verify_weight_value_identity(**kwargs)

    def test_short_table_rejected(self):
        with pytest.raises(DomainError):
            verify_weight_value_identity(6, value_polys=value_polynomials(3))
