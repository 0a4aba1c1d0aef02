"""Exact polynomial and series arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treezeta.errors import ConsistencyError, DomainError
from treezeta.exact import (
    IntPoly,
    PolyFrac,
    RatPoly,
    Series,
    _pack,
    _unpack,
    poly_eval,
    poly_is_palindromic,
    series_sqrt,
)


class TestIntPoly:
    def test_trims_trailing_zeros(self):
        assert IntPoly([1, 2, 0, 0]) == IntPoly([1, 2])

    def test_zero_degree_marker(self):
        assert IntPoly().degree == float("-inf")
        assert IntPoly([0, 0]).is_zero

    def test_rejects_non_integer(self):
        with pytest.raises(DomainError):
            IntPoly([1, 0.5])

    def test_accepts_integral_fraction(self):
        assert IntPoly([Fraction(4, 2)]) == IntPoly([2])

    def test_arithmetic(self):
        q = IntPoly.variable()
        assert (q + 1) * (q - 1) == q * q - 1
        assert (q + 1) ** 3 == IntPoly([1, 3, 3, 1])

    def test_evaluate_is_exact(self):
        p = IntPoly([1, 1, 4, 1, 1])
        assert p.evaluate(2) == 43
        assert p.evaluate(Fraction(1, 2)) == Fraction(16 + 8 + 16 + 2 + 1, 16)

    def test_immutable(self):
        p = IntPoly([1, 2])
        with pytest.raises(AttributeError):
            p.coeffs = (3,)

    def test_mixed_with_ratpoly_delegates(self):
        p = IntPoly([1, 1])
        r = RatPoly([Fraction(1, 2)])
        assert p + r == RatPoly([Fraction(3, 2), Fraction(1)])
        assert p - r == RatPoly([Fraction(1, 2), Fraction(1)])
        assert r - p == RatPoly([Fraction(-1, 2), Fraction(-1)])


@given(
    st.lists(st.integers(-50, 50), max_size=6),
    st.lists(st.integers(-50, 50), max_size=6),
    st.integers(-20, 20),
)
@settings(max_examples=200)
def test_intpoly_eval_is_multiplicative(a, b, x):
    pa, pb = IntPoly(a), IntPoly(b)
    assert (pa * pb).evaluate(x) == pa.evaluate(x) * pb.evaluate(x)


def fraction_horner(coeffs, x):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


point = st.one_of(
    st.integers(-(2**70), 2**70),
    st.fractions(max_denominator=10**6).filter(lambda f: f.denominator != 1),
)


@given(st.lists(st.integers(-(2**200), 2**200), max_size=12), point)
@settings(max_examples=200)
def test_poly_eval_equals_fraction_horner(coeffs, x):
    got = poly_eval(IntPoly(coeffs), x)
    assert isinstance(got, Fraction) and got == fraction_horner(coeffs, x)


@given(st.lists(st.integers(-(2**63), 2**63 - 1), max_size=10), st.integers(0, 3))
@settings(max_examples=200)
def test_pack_round_trips(coeffs, extra):
    packed = _pack(coeffs, 8)
    assert packed == sum(c << (64 * k) for k, c in enumerate(coeffs))
    assert _unpack(packed, 8, len(coeffs) + extra) == IntPoly(coeffs)


class TestPacking:
    def test_slot_overflow_on_pack_raises(self):
        with pytest.raises(ConsistencyError):
            _pack([1, 128], 1)
        with pytest.raises(ConsistencyError):
            _pack([-129], 1)
        assert _pack([127, -128], 1) == 127 - 128 * 256

    def test_value_past_the_slots_raises(self):
        with pytest.raises(ConsistencyError):
            _unpack(1 << 16, 1, 2)
        with pytest.raises(ConsistencyError):
            _unpack(-(1 << 16), 1, 2)
        assert _unpack((1 << 16) - 1, 1, 3) == IntPoly([-1, 0, 1])

    def test_zero_packs_to_zero(self):
        assert _pack([], 4) == 0
        assert _unpack(0, 4, 5) == IntPoly()


class TestDivExact:
    def test_quotients(self):
        assert IntPoly([0, 2, 2]).divexact(IntPoly([0, 2, 2])) == IntPoly([1])
        assert (IntPoly([1, 1]) ** 5).divexact(IntPoly([1, 1]) ** 2) == IntPoly([1, 1]) ** 3
        assert IntPoly([4, -6]).divexact(2) == IntPoly([2, -3])
        assert IntPoly().divexact(IntPoly([1, 1])) == IntPoly()

    @pytest.mark.parametrize(
        "num, den",
        [
            (IntPoly([1, 2]), 2),
            (IntPoly([1, 1, 1]), IntPoly([1, 1])),
            (IntPoly([0, 1]), IntPoly([0, 2])),
            (IntPoly([1]), IntPoly([0, 1])),
        ],
    )
    def test_remainder_raises(self, num, den):
        with pytest.raises(ConsistencyError):
            num.divexact(den)

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            IntPoly([1]).divexact(0)


class TestRatPoly:
    def test_truediv_scalar(self):
        p = RatPoly([Fraction(1), Fraction(2)]) / 4
        assert p == RatPoly([Fraction(1, 4), Fraction(1, 2)])

    def test_inverse_constant_only(self):
        assert RatPoly.constant(Fraction(2, 3)).inverse() == RatPoly.constant(Fraction(3, 2))
        with pytest.raises(DomainError):
            RatPoly.variable().inverse()

    def test_to_intpoly_round_trip(self):
        p = IntPoly([3, 0, -7])
        assert p.to_ratpoly().to_intpoly() == p

    def test_to_intpoly_rejects_fractional(self):
        with pytest.raises(ConsistencyError):
            RatPoly([Fraction(1, 2)]).to_intpoly()


class TestPolyFrac:
    def test_equality_cross_multiplies(self):
        q = RatPoly.variable()
        one = RatPoly.constant(1)
        a = PolyFrac(q * q - one, q - one)  # reduces to q + 1 only semantically
        b = PolyFrac(q + one, one)
        assert a == b

    def test_inverse(self):
        q = RatPoly.variable()
        f = PolyFrac(q, q + RatPoly.constant(1))
        assert f * f.inverse() == PolyFrac(RatPoly.constant(1), RatPoly.constant(1))


class TestPolyEval:
    def test_frozen_value(self):
        # Horner on [1, 1, 4, 1, 1] at 2: ((((1*2+1)*2+4)*2+1)*2+1) = 43,
        # cross-checked against the exact positive value at 3 for q = 2.
        assert poly_eval(IntPoly([1, 1, 4, 1, 1]), 2) == 43

    def test_returns_fraction(self):
        v = poly_eval(IntPoly([1, 1]), Fraction(1, 3))
        assert isinstance(v, Fraction) and v == Fraction(4, 3)


class TestPalindromic:
    @pytest.mark.parametrize(
        "coeffs, expect",
        [
            ([1, 1, 4, 1, 1], True),
            ([1, 3, 11, 10, 11, 3, 1], True),
            ([1, 2], False),
            ([5], True),
        ],
    )
    def test_examples(self, coeffs, expect):
        assert poly_is_palindromic(IntPoly(coeffs)) is expect

    def test_zero_poly_rejected(self):
        with pytest.raises(DomainError):
            poly_is_palindromic(IntPoly())


class TestSeries:
    def test_mul_truncates_to_min_order(self):
        a = Series([1, 1, 1])
        b = Series([1, -1])
        assert (a * b).coeffs == (1, 0)

    def test_inverse_geometric(self):
        s = Series([Fraction(1), Fraction(-1), Fraction(0), Fraction(0)])
        assert s.inverse().coeffs == (1, 1, 1, 1)

    def test_inverse_needs_unit_constant_term(self):
        with pytest.raises(DomainError):
            Series([Fraction(0), Fraction(1)]).inverse()

    def test_division(self):
        num = Series([Fraction(1), Fraction(0), Fraction(0)])
        den = Series([Fraction(1), Fraction(2), Fraction(0)])
        assert (num / den).coeffs == (1, -2, 4)


class TestSeriesSqrt:
    def test_numeric_radicand(self):
        # sqrt(1 - 4 q z^2) at q = 3
        s = series_sqrt(Series([Fraction(1), Fraction(0), Fraction(-12), Fraction(0), Fraction(0)]))
        assert s.coeffs == (1, 0, -6, 0, -18)

    def test_polynomial_radicand(self):
        q = RatPoly.variable()
        one = RatPoly.constant(1)
        zero = RatPoly()
        s = series_sqrt(Series([one, zero, q * (-4), zero, zero]))
        want = (one, zero, q * (-2), zero, (q * q) * (-2))
        assert s.coeffs == want

    def test_square_constant_term(self):
        s = series_sqrt(Series([Fraction(9), Fraction(6)]))
        assert s.coeffs == (3, 1)

    def test_nonsquare_leading_polynomial_lifts(self):
        # seed (q-1)^2: the root has coefficients outside the polynomial ring
        q = RatPoly.variable()
        one = RatPoly.constant(1)
        f = Series([(q - one) * (q - one), (q + one) * (-2), one])
        s = series_sqrt(f)
        qm1 = q - one
        want0 = PolyFrac(qm1, one)
        want1 = PolyFrac(-(q + one), qm1)
        want2 = PolyFrac(q * (-2), qm1 * qm1 * qm1)
        assert s.coeffs[0] == want0
        assert s.coeffs[1] == want1
        assert s.coeffs[2] == want2
        # and the same expansion pinned at q = 2
        assert [c.evaluate(2) for c in s.coeffs] == [1, -3, -4]

    def test_square_back(self):
        f = Series([Fraction(1), Fraction(3), Fraction(-2), Fraction(5)])
        s = series_sqrt(f)
        assert (s * s).coeffs == f.coeffs

    def test_rejects_nonsquare_rational_constant(self):
        with pytest.raises(DomainError):
            series_sqrt(Series([Fraction(2), Fraction(1)]))


@given(st.lists(st.integers(-9, 9), min_size=1, max_size=6).map(lambda c: [1] + c))
@settings(max_examples=150)
def test_series_sqrt_squares_back(coeffs):
    f = Series([Fraction(c) for c in coeffs])
    s = series_sqrt(f)
    assert (s * s).coeffs == f.coeffs
