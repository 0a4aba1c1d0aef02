"""Exact integer polynomial arithmetic, the packed layout and the public exports."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treezeta
from treezeta import exact
from treezeta.errors import ConsistencyError, DomainError
from treezeta.exact import (
    IntPoly,
    _pack,
    _unpack,
    binomial_transform,
    first_nonzero_sum,
    poly_eval,
    poly_is_palindromic,
    two_step_numerator,
)


class TestIntPoly:
    def test_trims_trailing_zeros(self):
        assert IntPoly([1, 2, 0, 0]) == IntPoly([1, 2])

    def test_zero_degree_marker(self):
        assert IntPoly().degree == float("-inf")
        assert IntPoly([0, 0]).is_zero()

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

    @pytest.mark.parametrize(
        "a, b",
        [
            (IntPoly(), 0),
            (IntPoly([0, 0]), IntPoly()),
            (IntPoly.constant(5), 5),
            (IntPoly([-7, 0]), -7),
            (IntPoly([1, 2, 0]), 2 * IntPoly.variable() + 1),
        ],
    )
    def test_equal_objects_hash_equal(self, a, b):
        assert a == b and b == a
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


def convolve(a, b):
    """Schoolbook product of two coefficient sequences, without ``IntPoly``."""
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


# small and ~400-bit signed coefficients; lengths 0..24 reach both sides of
# KRONECKER_MIN_TERMS and the mixed case of one short and one long operand
product_coefficient = st.one_of(st.integers(-50, 50), st.integers(-(2**400), 2**400))
product_operand = st.integers(0, 24).flatmap(
    lambda n: st.lists(product_coefficient, min_size=n, max_size=n)
)


def test_cutoff_lies_inside_the_drawn_lengths():
    assert 0 < exact.KRONECKER_MIN_TERMS <= 24


def convolution_sum(terms):
    """Sum of c * a * b over coefficient-sequence terms, by schoolbook convolutions."""
    out = [0] * max((len(a) + len(b) - 1 for _, a, b in terms), default=0)
    for c, a, b in terms:
        for k, v in enumerate(convolve(a, b)):
            out[k] += c * v
    return out


# terms index a small pool of operands, so an operand recurs, also as both
# factors of one term (a is b); the multipliers include 0 and negatives
product_terms = st.lists(product_operand, min_size=1, max_size=4).flatmap(
    lambda pool: st.tuples(
        st.just(pool),
        st.lists(
            st.tuples(
                st.one_of(st.integers(-3, 3), st.integers(-(2**70), 2**70)),
                st.integers(0, len(pool) - 1),
                st.integers(0, len(pool) - 1),
            ),
            max_size=6,
        ),
    )
)


ONE = IntPoly([1])


def checked_run(terms, want):
    """The run [S - W, W - S, S] for the sum S of ``terms`` and its schoolbook value W.

    The first two sums are zero exactly when the packed pass forms S as W, so
    ``first_nonzero_sum`` gives 2 on the run when S = W is nonzero, and 3 when
    S = W = 0.
    """
    negated = [(-c, a, b) for c, a, b in terms]
    return [terms + [(-1, want, ONE)], negated + [(1, want, ONE)], terms]


def exact_index(want):
    return 2 if want else 3


@given(product_terms)
@settings(max_examples=200)
def test_first_nonzero_sum_equals_convolution_sum(drawn):
    pool, picks = drawn
    polys = [IntPoly(p) for p in pool]
    terms = [(c, polys[i], polys[j]) for c, i, j in picks]
    want = IntPoly(convolution_sum([(c, pool[i], pool[j]) for c, i, j in picks]))
    assert first_nonzero_sum(checked_run(terms, want)) == exact_index(want)
    squares = [(2**300 + 1, p, p) for p in polys]
    want = IntPoly(convolution_sum([(2**300 + 1, p, p) for p in pool]))
    assert first_nonzero_sum(checked_run(squares, want)) == exact_index(want)


def flat(c, n):
    return IntPoly([c] * n)


class TestFirstNonzeroSumTerms:
    """Sums of c * a * b formed by ``first_nonzero_sum``, each held to its schoolbook value."""

    def test_empty_sums_and_operands(self):
        assert first_nonzero_sum(checked_run([], IntPoly())) == 3
        one = IntPoly([1, 2])
        terms = [(3, IntPoly(), one), (5, one, IntPoly()), (0, one, one)]
        assert first_nonzero_sum(checked_run(terms, IntPoly())) == 3

    def test_signs_and_a_is_b(self):
        a, b = IntPoly([1, -2, 3]), IntPoly([-4, 5])
        terms = [(2, a, a), (-3, a, b), (1, b, b)]
        assert first_nonzero_sum(checked_run(terms, 2 * a * a - 3 * a * b + b * b)) == 2

    @pytest.mark.parametrize("short", [1, 7, 15, 16])
    def test_a_short_operand_scales_the_long_ones_pack(self, short):
        # the shorter operand is never packed, on either side of a term: each of
        # its coefficients scales the longer one's pack
        long = IntPoly([(-3) ** k * (2**90 + k) for k in range(40)])
        small = IntPoly([(-1) ** j * (j + 1) for j in range(short - 1)] + [2**80])
        terms = [(5, long, small), (-2, small, long)]
        want = IntPoly(convolution_sum([(c, a.coeffs, b.coeffs) for c, a, b in terms]))
        assert first_nonzero_sum(checked_run(terms, want)) == 2

    # every coefficient of each operand at one extreme, so a coefficient W_k of
    # the sum reaches its bound B, and the run's slot is sized from 2B (the sum
    # S - W); that slot is also the fewest bytes that hold W_k unless the bit
    # length of 2B is a multiple of 8, which none of these has: in the first two
    # W_k is 2**127 exactly, which the length and the multiplier lift out of 16 bytes
    EDGE_SUMS = [
        [(1, flat(2**60, 256), flat(2**59, 256))],
        [(-2, flat(2**63, 1), flat(-(2**63), 1))],
        [(1, flat(2**61 - 1, 9), flat(2**61 - 1, 9))],
        [(1, flat(1 - 2**61, 9), flat(2**61 - 1, 9))],
        [(2, flat(-(2**200), 20), flat(2**200, 3)), (-1, flat(7, 30), flat(7, 30))],
        [(4, flat(255, 17), flat(-255, 17)), (-4, flat(255, 17), flat(255, 17))],
    ]

    @pytest.mark.parametrize("terms", EDGE_SUMS)
    def test_sum_at_the_slot_bound(self, terms):
        want = IntPoly(convolution_sum([(c, a.coeffs, b.coeffs) for c, a, b in terms]))
        assert first_nonzero_sum(checked_run(terms, want)) == 2

    @pytest.mark.parametrize("terms", EDGE_SUMS)
    def test_a_slot_one_byte_short_does_not_pass_silently(self, terms, monkeypatch):
        want = IntPoly(convolution_sum([(c, a.coeffs, b.coeffs) for c, a, b in terms]))
        slot_size = exact._slot_size
        monkeypatch.setattr(exact, "_slot_size", lambda bound: slot_size(bound) - 1)
        try:
            got = first_nonzero_sum(checked_run(terms, want))
        except ConsistencyError:
            return
        assert got != 2


def first_nonzero_convolution_sum(sums):
    """The index of the first sum whose schoolbook convolution sum is nonzero, else the count."""
    nonzero = (
        any(convolution_sum([(c, a.coeffs, b.coeffs) for c, a, b in terms])) for terms in sums
    )
    return next((k for k, hit in enumerate(nonzero) if hit), len(sums))


# runs of sums over one pool of operands; a sum drawn with ``cancel`` also
# holds each of its terms negated with the operands swapped, so it is zero
# whatever its operands, and a run may hold several zero sums before the first
# nonzero one
sum_runs = st.lists(product_operand, min_size=1, max_size=4).flatmap(
    lambda pool: st.tuples(
        st.just(pool),
        st.lists(
            st.tuples(
                st.lists(
                    st.tuples(
                        st.one_of(st.integers(-3, 3), st.integers(-(2**70), 2**70)),
                        st.integers(0, len(pool) - 1),
                        st.integers(0, len(pool) - 1),
                    ),
                    max_size=4,
                ),
                st.booleans(),
            ),
            max_size=6,
        ),
    )
)


@given(sum_runs)
@settings(max_examples=200)
def test_first_nonzero_sum_equals_the_first_nonzero_convolution_sum(drawn):
    pool, runs = drawn
    polys = [IntPoly(p) for p in pool]
    sums = []
    for picks, cancel in runs:
        terms = [(c, polys[i], polys[j]) for c, i, j in picks]
        if cancel:
            terms += [(-c, b, a) for c, a, b in terms]
        sums.append(terms)
    assert first_nonzero_sum(iter(sums)) == first_nonzero_convolution_sum(sums)


class TestFirstNonzeroSum:
    def test_empty_and_zero_runs(self):
        one = IntPoly([1, 2])
        assert first_nonzero_sum([]) == 0
        assert first_nonzero_sum([[], [(3, IntPoly(), one)], [(0, one, one)]]) == 3
        assert first_nonzero_sum([[(2, one, one), (-1, one, one * 2)], [(1, one, one)]]) == 1

    # 2**(8t) - q with every operand inside a t-byte slot: the bound 2**(8t) + 1
    # asks t + 1 bytes, and at t bytes the sum packs to 2**(8t) - 2**(8t) = 0;
    # each run opens with a zero sum of a smaller bound, and one ends with a
    # nonzero sum of a smaller bound, which a slot one byte short reports instead
    EDGE_RUNS = [
        [
            [(1, IntPoly([1, 1]), IntPoly([1, 1])), (-1, IntPoly([1, 2, 1]), flat(1, 1))],
            [(1, flat(2**4, 1), flat(2**4, 1)), (-1, IntPoly([0, 1]), flat(1, 1))],
        ],
        [
            [],
            [(1, flat(2**32, 1), flat(2**32, 1)), (-1, IntPoly([0, 1]), flat(1, 1))],
            [(1, flat(3, 2), flat(1, 1))],
        ],
        [
            [(1, flat(3, 17), flat(5, 17)), (-1, flat(5, 17), flat(3, 17))],
            [(1, flat(2**64, 1), flat(2**64, 1)), (-1, IntPoly([0, 1]), flat(1, 1))],
        ],
    ]

    @pytest.mark.parametrize("sums", EDGE_RUNS)
    def test_pass_at_the_slot_bound(self, sums):
        assert first_nonzero_sum(sums) == first_nonzero_convolution_sum(sums) == 1

    @pytest.mark.parametrize("sums", EDGE_RUNS)
    def test_a_slot_one_byte_short_does_not_pass_silently(self, sums, monkeypatch):
        slot_size = exact._slot_size
        monkeypatch.setattr(exact, "_slot_size", lambda bound: slot_size(bound) - 1)
        try:
            got = first_nonzero_sum(sums)
        except ConsistencyError:
            return
        assert got != first_nonzero_convolution_sum(sums)


def plain_two_step_numerator(p, a, b, m):
    """q (q-1)^2 p - (q+1)^m (a - 2 (q+1) b) in IntPoly arithmetic."""
    q = IntPoly.variable()
    return q * (q - 1) ** 2 * p - (q + 1) ** m * (a - 2 * (q + 1) * b)


@given(product_operand, product_operand, product_operand, st.integers(0, 40))
@settings(max_examples=200)
def test_two_step_numerator_equals_the_plain_form(p, a, b, m):
    p, a, b = IntPoly(p), IntPoly(a), IntPoly(b)
    assert two_step_numerator(p, a, b, m) == plain_two_step_numerator(p, a, b, m)


def alternating(c, n):
    # c (-1)^(n-1-i) for i < n, so the top three read c, -c, c downwards
    return IntPoly([c * (-1) ** (n - 1 - i) for i in range(n)])


class TestTwoStepNumerator:
    # each reaches the slot bound 4 max|p| + 2^m (max|a| + 4 max|b|) at one
    # positive coefficient: q (q-1)^2 p gives 4c where p reads c, -c, c below it,
    # and (q+1)^m (a - 2 (q+1) b) gives -2^m (d + 4e) where its m + 1 window
    # reads a = -d and b = e at two neighbouring places.  In the first four the
    # bound is 2**127 exactly, so each of its parts is needed for the 17th byte
    EDGE_INPUTS = [
        (alternating(2**124, 3), IntPoly([0, 0, 0, -(2**125)]), IntPoly([0, 0, 2**123, 2**123]), 0),
        (alternating(2**124, 6), flat(-(2**120), 7), flat(2**118, 7), 5),
        (IntPoly(), flat(-(2**87), 41), IntPoly(), 40),
        (alternating(2**125, 3), IntPoly(), IntPoly(), 0),
        (alternating(1, 18), flat(-1, 19), flat(1, 19), 17),
    ]

    @pytest.mark.parametrize("p, a, b, m", EDGE_INPUTS)
    def test_numerator_at_the_slot_bound(self, p, a, b, m):
        got = two_step_numerator(p, a, b, m)
        bound = 4 * max(map(abs, p.coeffs), default=0) + 2**m * (
            max(map(abs, a.coeffs), default=0) + 4 * max(map(abs, b.coeffs), default=0)
        )
        assert got == plain_two_step_numerator(p, a, b, m)
        assert max(got.coeffs) == bound

    @pytest.mark.parametrize("p, a, b, m", EDGE_INPUTS)
    def test_a_slot_one_byte_short_does_not_pass_silently(self, p, a, b, m, monkeypatch):
        want = plain_two_step_numerator(p, a, b, m)
        slot_size = exact._slot_size
        monkeypatch.setattr(exact, "_slot_size", lambda bound: slot_size(bound) - 1)
        try:
            got = two_step_numerator(p, a, b, m)
        except ConsistencyError:
            return
        assert got != want


def plain_binomial_transform(polys):
    """N_m = sum_j (-1)^j C(m, j) p_j (q+1)^(m-j) for m < len(polys), in IntPoly arithmetic."""
    lift = IntPoly([1, 1])
    return [
        sum(
            ((-1) ** j * math.comb(m, j) * polys[j] * lift ** (m - j) for j in range(m + 1)),
            IntPoly(),
        )
        for m in range(len(polys))
    ]


# signed operands of 0..24 coefficients, the empty one (zero) included, up to 12 of them
transform_input = st.lists(product_operand, max_size=12)


@given(transform_input)
@settings(max_examples=200)
def test_binomial_transform_equals_the_plain_sum(pool):
    polys = [IntPoly(p) for p in pool]
    assert binomial_transform(polys) == plain_binomial_transform(polys)


class TestBinomialTransform:
    # each has an N_m coefficient outside a slot one byte short of the bound's;
    # alternating constants c give c (q+2)^m, whose largest coefficient at m = 8
    # is 1792 c against the bound 3**8 c just below 2**129
    EDGE_INPUTS = [
        [flat(2**63, 1)],
        [flat(-(2**63) - 1, 3)],
        [flat(2**62, 1), flat(-(2**62), 1), flat(2**62, 1)],
        [flat((-1) ** j * ((2**129 - 1) // 3**8), 1) for j in range(9)],
        [flat(7, 5), IntPoly(), flat(-(2**40), 2), flat(2**40, 1)],
    ]

    @pytest.mark.parametrize("polys", EDGE_INPUTS)
    def test_transform_at_the_slot_bound(self, polys):
        assert binomial_transform(polys) == plain_binomial_transform(polys)

    @pytest.mark.parametrize("polys", EDGE_INPUTS)
    def test_a_slot_one_byte_short_does_not_pass_silently(self, polys, monkeypatch):
        want = plain_binomial_transform(polys)
        slot_size = exact._slot_size
        monkeypatch.setattr(exact, "_slot_size", lambda bound: slot_size(bound) - 1)
        try:
            got = binomial_transform(polys)
        except ConsistencyError:
            return
        assert got != want


@given(product_operand, product_operand, st.integers(-20, 20))
@settings(max_examples=300)
def test_intpoly_eval_is_multiplicative(a, b, x):
    pa, pb = IntPoly(a), IntPoly(b)
    assert (pa * pb).evaluate(x) == pa.evaluate(x) * pb.evaluate(x)
    assert pa * pb == IntPoly(convolve(a, b))
    assert pa * pa == IntPoly(convolve(a, a))


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


class TestPolyEval:
    def test_frozen_value(self):
        # Horner on [1, 1, 4, 1, 1] at 2: ((((1*2+1)*2+4)*2+1)*2+1) = 43,
        # cross-checked against the exact positive value at 3 for q = 2.
        assert poly_eval(IntPoly([1, 1, 4, 1, 1]), 2) == 43

    def test_returns_fraction(self):
        v = poly_eval(IntPoly([1, 1]), Fraction(1, 3))
        assert isinstance(v, Fraction) and v == Fraction(4, 3)

    @pytest.mark.parametrize(
        "x, expect", [(2, 17), (np.int64(2), 17), (Fraction(1, 3), Fraction(2))]
    )
    def test_takes_integers_and_fractions(self, x, expect):
        v = poly_eval(IntPoly([1, 2, 3]), x)
        assert type(v) is Fraction and v == expect

    @pytest.mark.parametrize("x", [True, 2.5])
    def test_refuses_bools_and_floats(self, x):
        with pytest.raises(DomainError):
            poly_eval(IntPoly([1, 2, 3]), x)


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


def test_every_export_resolves():
    for name in treezeta.__all__:
        assert getattr(treezeta, name) is not None, name


@pytest.mark.parametrize("name", ["RatPoly", "PolyFrac", "Series", "series_sqrt"])
def test_rational_and_series_layer_is_gone(name):
    assert not hasattr(exact, name)
    assert not hasattr(treezeta, name)
    assert name not in treezeta.__all__
