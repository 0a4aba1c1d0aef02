"""Branch-pinned generating functions and their identities."""

import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treezeta import genfun
from treezeta.errors import CutViolationError, DomainError, OutOfRangeError
from treezeta.exact import IntPoly, poly_eval
from treezeta.genfun import (
    SpectrumCut,
    _linear_terms,
    _radical,
    _recip_radical,
    entire_combination,
    neg_value_genfun,
    pos_value_genfun,
    quadratic_residual_series,
    reciprocal_cut,
    spectral_edges,
    spectrum_cut,
    symmetry_defect,
)
from treezeta.special_values import (
    _grow,
    count_closed_walks,
    negative_value_table,
    positive_value_sequence,
    value_polynomials,
)


class TestEdgesAndCuts:
    def test_edges(self):
        lo, hi = spectral_edges(2)
        assert lo == pytest.approx(3 - 2 * math.sqrt(2))
        assert hi == pytest.approx(3 + 2 * math.sqrt(2))
        assert lo * hi == pytest.approx(1.0)  # (q-1)^2 with q = 2

    def test_edge_relations(self):
        for q in (2, 3, 7):
            lo, hi = spectral_edges(q)
            assert lo + hi == pytest.approx(2 * (q + 1))
            assert lo * hi == pytest.approx((q - 1) ** 2)

    def test_distance(self):
        cut = SpectrumCut(1.0, 2.0)
        assert cut.distance(1.5) == 0.0
        assert cut.distance(3.0) == 1.0
        assert cut.distance(1.5 + 2j) == 2.0
        assert cut.distance(0.0 + 1j) == pytest.approx(math.sqrt(2))

    def test_reciprocal_cut_is_reciprocal(self):
        c, r = spectrum_cut(3), reciprocal_cut(3)
        assert r.lo == pytest.approx(1 / c.hi)
        assert r.hi == pytest.approx(1 / c.lo)

    def test_q_validation(self):
        with pytest.raises(DomainError):
            spectral_edges(1)


def cut_sqrt(q, z):
    """The square root of (z - lo)(z - hi) that is q - 1 at the origin."""
    return (q - 1) * _radical(q, z)


class TestCutSqrt:
    def test_value_at_origin(self):
        assert cut_sqrt(2, 0) == pytest.approx(1.0)
        assert cut_sqrt(5, 0) == pytest.approx(4.0)

    def test_left_of_cut_positive(self):
        assert cut_sqrt(2, -1) == pytest.approx(math.sqrt(8))

    def test_right_of_cut_negative(self):
        # analyticity off the segment forces the minus sign here
        assert cut_sqrt(2, 10) == pytest.approx(-math.sqrt(41))

    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize(
        "z", [0.05, -2.0, 30.0, 1 + 1j, -0.5 + 2j, 4 - 3j, 100j]
    )
    def test_squares_to_radicand(self, q, z):
        lo, hi = spectral_edges(q)
        s = cut_sqrt(q, z)
        assert s * s == pytest.approx((z - lo) * (z - hi), rel=1e-12)

    def test_negative_zero_edge_folded_up(self):
        upper = cut_sqrt(2, complex(3.0, 0.0))
        lower = cut_sqrt(2, complex(3.0, -0.0))
        assert upper == lower
        assert upper.imag > 0

    def test_reciprocal_radical_reflection(self):
        # z R(1/z) = -S(z) for every z off the cut, by shared principal factors
        for q in (2, 3):
            for z in (0.1, -5.0, 12.0, 2 + 2j, -1 - 7j, 0.3 + 0.001j):
                lhs = z * _recip_radical(q, 1 / z)
                rhs = -cut_sqrt(q, z)
                assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestMomentGenfun:
    """The closed-walk counts against their generating function, written out here.

    Sum c_n z^n is 2q / ((q+1) sqrt(1 - 4 q z^2) + (q-1)) inside its radius
    1/(2 sqrt q); the denominator never vanishes there.
    """

    @staticmethod
    def closed_form(q, z):
        return 2 * q / ((q + 1) * cmath.sqrt(1 - 4 * q * z * z) + (q - 1))

    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("z", [0.05, 0.02 + 0.03j, -0.08, 0.1j])
    def test_matches_walk_series(self, q, z):
        partial = sum(count_closed_walks(q, n) * z**n for n in range(50))
        assert self.closed_form(q, z) == pytest.approx(partial, rel=1e-12, abs=1e-12)

    def test_removable_points_evaluate(self):
        # the plain form is 0/0 at +-1/(q+1), where the series sums to q/(q-1);
        # inside the radius at q = 5, so the walk series converges to it
        partial = sum(count_closed_walks(5, n) * (1 / 6) ** n for n in range(65))
        assert partial == pytest.approx(5 / 4, rel=1e-9)


class TestValueGenfuns:
    def test_neg_series_agreement(self):
        table = negative_value_table(60)
        for q, w in ((2, 0.05), (2, -0.03 + 0.02j), (3, 0.04)):
            partial = sum(poly_eval(table[m], q) * w**m for m in range(60))
            assert neg_value_genfun(q, w) == pytest.approx(partial, rel=1e-12)

    def test_pos_series_agreement(self):
        for q, z in ((2, 0.05), (2, 0.06 + 0.04j), (3, 0.25)):
            a = positive_value_sequence(q, 80)
            partial = sum(a[n] * z**n for n in range(1, 81))
            assert pos_value_genfun(q, z) == pytest.approx(partial, rel=1e-11)

    def test_neg_value_at_origin(self):
        assert neg_value_genfun(2, 0) == pytest.approx(1.0)

    def test_pos_value_at_origin(self):
        assert pos_value_genfun(2, 0) == pytest.approx(0.0, abs=1e-15)

    def test_removable_point_values(self):
        # both removable limits carry the value 2q/(q-1) up to sign
        for q in (2, 3, 5):
            w0 = 1 / (2 * (q + 1))
            assert neg_value_genfun(q, w0) == pytest.approx(2 * q / (q - 1), rel=1e-13)
            z0 = 2 * (q + 1)
            assert pos_value_genfun(q, z0) == pytest.approx(-2 * q / (q - 1), rel=1e-13)

    def test_rationalised_form_matches_closed_form(self):
        # the plain closed form, well conditioned away from its removable
        # point z = 2(q+1), is the oracle of the rationalised one
        for q in (2, 3):
            for ang in range(1, 8):
                z = 3 * (q + 1) * complex(math.cos(ang), math.sin(ang))
                s = cut_sqrt(q, z)
                plain = ((q + 1) * s + z * (q - 1) - (q * q - 1)) / (2 * (z - 2 * (q + 1)))
                assert pos_value_genfun(q, z) == pytest.approx(plain, rel=1e-11)

    def test_points_on_cut_refused(self):
        with pytest.raises(CutViolationError):
            pos_value_genfun(2, 0.5)
        with pytest.raises(CutViolationError):
            neg_value_genfun(2, 0.3)

    def test_symmetry_defect_small(self):
        for q in (2, 3, 5):
            for z in (0.1, 20.0, 0.05 + 0.02j, -3 + 4j, 50j, -0.07):
                if spectrum_cut(q).distance(z) < 5e-3:
                    continue
                assert abs(symmetry_defect(q, z)) < 1e-12

    @pytest.mark.parametrize("z", [math.nan, complex(0.1, math.nan), math.inf])
    def test_non_finite_points_refused(self, z):
        with pytest.raises(DomainError):
            pos_value_genfun(2, z)
        with pytest.raises(DomainError):
            neg_value_genfun(2, z)

    def test_symmetry_defect_needs_nonzero(self):
        with pytest.raises(DomainError):
            symmetry_defect(2, 0)

    @pytest.mark.parametrize("q", [10**3, 10**6, 10**12])
    def test_reciprocal_cut_clearance_shrinks_with_the_cut(self, q):
        # the cut [1/hi, 1/lo] starts within 1e-3 of the origin here, yet the
        # origin is clear of it and carries zeta(0) = 1
        assert reciprocal_cut(q).lo < 1e-3
        assert neg_value_genfun(q, 0) == pytest.approx(1.0, rel=1e-13)
        w = reciprocal_cut(q).lo / 2
        assert abs(symmetry_defect(q, 1 / w)) < 1e-12
        with pytest.raises(CutViolationError):
            neg_value_genfun(q, reciprocal_cut(q).hi)

    @pytest.mark.parametrize("q", [2, 10**6, 10**12])
    def test_clearance_scales_with_the_cut_start(self, q):
        # the cut [1/hi, 1/lo] starts at about 1/q, and its clearance with it
        start = reciprocal_cut(q).lo
        for w in (start * (1 - 1e-4), complex(start, start * 1e-4)):
            with pytest.raises(CutViolationError):
                neg_value_genfun(q, w)
        assert math.isfinite(abs(neg_value_genfun(q, start * (1 - 1e-2))))

    def test_conjugate_symmetric_off_the_cut(self):
        # just off the cut, and far from it, both series are real on the real axis
        for q in (2, 3):
            for z in (0.5 + 0.01j, 7 + 0.02j, -3 + 4j):
                v, w = pos_value_genfun(q, z), pos_value_genfun(q, z.conjugate())
                assert w == pytest.approx(v.conjugate(), rel=1e-12)
                v, w = neg_value_genfun(q, 1 / z), neg_value_genfun(q, 1 / z.conjugate())
                assert w == pytest.approx(v.conjugate(), rel=1e-12)

    @pytest.mark.parametrize("q", [10**100, 12 * 10**153], ids=["1e100", "1.2e154"])
    def test_huge_q_values(self, q):
        # there pos(z) is about z/q and neg(w) about -1/(qw): small, not 0
        assert pos_value_genfun(q, 1j) == pytest.approx(1j / q, rel=1e-12)
        assert neg_value_genfun(q, -1j) == pytest.approx(-1j / q, rel=1e-12)
        assert entire_combination(q, 100 + 3j) == pytest.approx(101 + 3j, rel=1e-12)

    def test_square_past_the_float_range_names_the_called_function(self):
        with pytest.raises(OutOfRangeError, match="^symmetry_defect at "):
            symmetry_defect(10**155, 1j)


class TestEntireCombination:
    def test_on_cut_value(self):
        # 0.3 lies inside the common cut segment for q = 2, yet the
        # combination is entire and equals z + 1 there
        assert entire_combination(2, 0.3) == pytest.approx(1.3, rel=1e-12)

    @pytest.mark.parametrize("q", [2, 3, 5])
    @pytest.mark.parametrize(
        "z", [0.0, 0.5, 1.0, 3.0, -2.0, 2 + 1j, -0.5 + 0.25j, 10 - 3j]
    )
    def test_equals_z_plus_one(self, q, z):
        assert entire_combination(q, z) == pytest.approx(z + 1, rel=1e-11, abs=1e-11)

    def test_through_removable_points(self):
        # 2k and 1/(2k) hit the removable singularities of the two pieces
        for q in (2, 3):
            k = (q + 1) / (q - 1)
            assert entire_combination(q, 2 * k) == pytest.approx(2 * k + 1, rel=1e-11)
            assert entire_combination(q, 1 / (2 * k)) == pytest.approx(
                1 / (2 * k) + 1, rel=1e-11
            )


def convolve(a, b):
    """Schoolbook product of two coefficient sequences, without ``IntPoly``."""
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def add(*terms):
    out = [0] * max(map(len, terms))
    for t in terms:
        for i, c in enumerate(t):
            out[i] += c
    return out


def series_residual(n_max, polys):
    """The residual by schoolbook coefficient convolutions, the oracle of the library one.

    With T = sum P_{k+1} z^k and S = T^2, the residual is
    q z S (2 - (q-1)^2 z) + T ((q-1)^2 z - 1) + 1, read off term by term.  Only
    coefficient tuples are multiplied here, so the oracle shares no product
    code with ``IntPoly``.
    """
    qm1sq = (1, -2, 1)
    t = [p.coeffs for p in polys[:n_max]]
    square = [add(*(convolve(t[i], t[k - i]) for i in range(k + 1))) for k in range(n_max)]
    out = []
    for k in range(n_max):
        terms = [[-c for c in t[k]]]
        if k == 0:
            terms.append([1])
        if k >= 1:
            terms += [convolve(qm1sq, t[k - 1]), convolve((0, 2), square[k - 1])]
        if k >= 2:
            terms.append(convolve((0, -1), convolve(qm1sq, square[k - 2])))
        out.append(IntPoly(add(*terms)))
    return tuple(out)


# signed coefficients, small and of several hundred bits; an empty list is
# the zero polynomial
coefficient = st.one_of(st.integers(-3, 3), st.integers(-(2**400), 2**400))
foreign_table = st.lists(st.lists(coefficient, max_size=7), min_size=1, max_size=7)


# an edit of a real table: (entry, slot, delta), both indices reduced mod the
# sizes they index; slot s puts delta on the coefficient s below two past the
# entry's degree, so slots 0 and 1 raise the degree and slot 2 with delta -1
# cancels the monic leading coefficient
nonzero = st.one_of(st.integers(-3, 3), st.integers(-(2**400), 2**400)).filter(bool)
table_edit = st.tuples(st.integers(0, 2**16), st.integers(0, 4) | st.integers(0, 2**16), nonzero)


def corrupted(polys, k):
    out = list(polys)
    out[k] = out[k] - IntPoly([0, 0, 5])
    return out


def first_nonzero(residual):
    return next(k for k, c in enumerate(residual) if not c.is_zero())


class TestQuadraticResidual:
    def test_residual_vanishes(self):
        for c in quadratic_residual_series(30):
            assert c == IntPoly()

    def test_detects_corruption(self):
        polys = list(value_polynomials(12))
        polys[7] = polys[7] + IntPoly([1])
        residual = quadratic_residual_series(12, polys)
        assert any(not c.is_zero() for c in residual)

    def test_short_table_rejected(self):
        with pytest.raises(DomainError):
            quadratic_residual_series(10, value_polynomials(5))

    @given(foreign_table, st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_series_oracle_on_random_tables(self, coeffs, data):
        polys = [IntPoly(cs) for cs in coeffs]
        n_max = data.draw(st.integers(1, len(polys)))
        assert quadratic_residual_series(n_max, polys) == series_residual(n_max, polys)

    @given(st.integers(1, 12), st.data())
    @settings(max_examples=60, deadline=None)
    def test_first_departure_on_edited_real_tables(self, n_max, data):
        edits = data.draw(
            st.lists(table_edit, min_size=1, max_size=3, unique_by=lambda e: e[0] % n_max)
        )
        bad = list(value_polynomials(n_max))
        for entry, slot, delta in edits:
            k = entry % n_max
            coeffs = list(bad[k].coeffs) + [0, 0]
            coeffs[len(coeffs) - 1 - slot % len(coeffs)] += delta
            bad[k] = IntPoly(coeffs)
        residual = quadratic_residual_series(n_max, bad)
        assert residual == series_residual(n_max, bad)
        assert first_nonzero(residual) == min(entry % n_max for entry, _, _ in edits)

    @pytest.mark.parametrize("n_max", [1, 2])
    def test_shallowest_orders(self, n_max):
        real = value_polynomials(n_max)
        assert quadratic_residual_series(n_max, real) == series_residual(n_max, real)
        assert quadratic_residual_series(n_max) == (IntPoly(),) * n_max
        bad = corrupted(real, n_max - 1)
        assert quadratic_residual_series(n_max, bad) == series_residual(n_max, bad)

    def test_real_and_corrupted_tables_at_29(self):
        real = value_polynomials(29)
        assert quadratic_residual_series(29, real) == series_residual(29, real)
        bad = corrupted(real, 17)
        residual = quadratic_residual_series(29, bad)
        assert residual == series_residual(29, bad)
        assert first_nonzero(residual) == 17

    def test_real_and_corrupted_tables_at_80(self):
        assert quadratic_residual_series(80) == (IntPoly(),) * 80
        bad = corrupted(value_polynomials(80), 63)
        residual = quadratic_residual_series(80, bad)
        assert residual == series_residual(80, bad)
        assert first_nonzero(residual) == 63

    @pytest.mark.parametrize("entry", [1, Fraction(1), (1,), None])
    def test_foreign_entries_refused(self, entry):
        polys = list(value_polynomials(4))
        polys[2] = entry
        with pytest.raises(DomainError):
            quadratic_residual_series(4, polys)


# polynomials in z over Z[q] as lists of rows: row j holds the q-coefficients of z^j
def bi_mul(a, b):
    out = [[] for _ in range(len(a) + len(b) - 1)]
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = add(out[i + j], convolve(ai, bj))
    return out


def bi_add(*terms):
    return [add(*(t[j] for t in terms if j < len(t))) for j in range(max(map(len, terms)))]


def bi_scale(c, a):
    return [[c * x for x in row] for row in a]


def bi_diff(a):  # d/dz
    return [[j * x for x in row] for j, row in enumerate(a)][1:]


def over_4q(row):
    """A q-coefficient list divided by 4q, which must divide it."""
    assert not row or (row[0] == 0 and all(x % 4 == 0 for x in row))
    return IntPoly([x // 4 for x in row[1:]])


class TestLinearRecurrence:
    """The linear recurrence that lets the residual skip the pair sums of a correct table.

    A slipped coefficient would leave every residual correct, because the
    quadratic recurrence takes over from the first entry it rejects, and
    would only bring the pair sums back; these tests are what notice.
    """

    @staticmethod
    def linear_residuals(table):
        # plain IntPoly arithmetic, sharing nothing with the residual's packed pass
        return [
            sum((c * a * b for c, a, b in _linear_terms(table, k)), IntPoly())
            for k in range(len(table))
        ]

    def test_vanishes_on_the_two_step_table(self):
        assert self.linear_residuals(value_polynomials(201)) == [IntPoly()] * 201

    def test_vanishes_on_the_quadratic_oracle_table(self):
        oracle = _grow(80, IntPoly.variable(), IntPoly([1]))
        assert self.linear_residuals(oracle) == [IntPoly()] * 80

    def test_coefficients_follow_from_the_quadratic(self):
        # A F^2 + B F + 1 = 0, G = 2AF + B, G^2 = Delta = B^2 - 4A, and
        # 2 Delta G' - Delta' G = 4 Delta A F' + (4 Delta A' - 2 Delta' A) F
        # + 2 Delta B' - Delta' B = 0, read at z^k over 4q
        a = [[], [0, 2], [0, -1, 2, -1]]
        b = [[-1], [1, -2, 1]]
        delta = bi_add(bi_mul(b, b), bi_scale(-4, a))
        assert [IntPoly(r) for r in delta] == [
            IntPoly((1,)),
            IntPoly((-2, -4, -2)),
            IntPoly((1, 0, -2, 0, 1)),
        ]
        d_delta = bi_diff(delta)
        of_derivative = bi_scale(4, bi_mul(delta, a))
        of_value = bi_add(bi_scale(4, bi_mul(delta, bi_diff(a))), bi_scale(-2, bi_mul(d_delta, a)))
        constant = bi_add(bi_scale(2, bi_mul(delta, bi_diff(b))), bi_scale(-1, bi_mul(d_delta, b)))
        assert not any(of_derivative[0]) and all(not any(r) for r in constant[1:])
        for k in range(8):
            markers = [object() for _ in range(k + 1)]
            index = {id(t): i for i, t in enumerate(markers)}
            got = {}
            for c, poly, t in _linear_terms(markers, k):
                key = k - index[id(t)] if id(t) in index else "constant"
                got[key] = got.get(key, IntPoly()) + poly * c
            # T_{k-i} collects (k-i) z^(i+1) from F' and z^i from F
            want = {
                i: over_4q(add(bi_scale(k - i, of_derivative)[i + 1], of_value[i]))
                for i in range(min(k, 3) + 1)
            }
            want["constant"] = over_4q(constant[0]) if k == 0 else IntPoly()
            got.setdefault("constant", IntPoly())
            assert got == want


class TestLinearPass:
    """The residual's packed linear pass breaks where the linear residuals first do."""

    @staticmethod
    def first_break(monkeypatch, n_max, table):
        """The entry the residual starts its quadratic recurrence at, and the residual."""
        starts = []
        recurrence = genfun._quadratic_recurrence

        def spy(table, start, q, one):
            starts.append(start)
            return recurrence(table, start, q, one)

        monkeypatch.setattr(genfun, "_quadratic_recurrence", spy)
        residual = quadratic_residual_series(n_max, table)
        return starts.pop(), residual

    @pytest.mark.parametrize("entry", [0, 1, 2, 3, 40, 79])
    def test_breaks_at_the_first_nonzero_linear_residual(self, monkeypatch, entry):
        bad = corrupted(value_polynomials(80), entry)
        linear = TestLinearRecurrence.linear_residuals(bad)
        start, residual = self.first_break(monkeypatch, 80, bad)
        assert start == first_nonzero(linear) == first_nonzero(residual) == entry

    def test_runs_no_quadratic_step_on_a_correct_table(self, monkeypatch):
        start, residual = self.first_break(monkeypatch, 80, value_polynomials(80))
        assert start == 80 and residual == (IntPoly(),) * 80

    @pytest.mark.parametrize("slipped", [1, 2, 3])
    def test_reads_the_linear_terms(self, monkeypatch, slipped):
        # the term on T_{k - slipped} is off by one from k = slipped on, so the
        # pass breaks there on a correct table, and the quadratic recurrence
        # still finds every residual zero
        terms = genfun._linear_terms

        def slipped_terms(table, k):
            out = terms(table, k)
            if k >= slipped:
                c, a, b = out[slipped]
                out[slipped] = (c + 1, a, b)
            return out

        monkeypatch.setattr(genfun, "_linear_terms", slipped_terms)
        start, residual = self.first_break(monkeypatch, 40, value_polynomials(40))
        assert start == slipped and residual == (IntPoly(),) * 40


class TestArgumentValidation:
    def test_numpy_branching_number_accepted(self):
        import numpy as np

        assert spectral_edges(np.int64(4)) == spectral_edges(4)
        assert entire_combination(np.int64(2), 0.1) == entire_combination(2, 0.1)

    @pytest.mark.parametrize("q", [True, 2.0, 2.5, "2"])
    def test_non_integer_branching_number_refused(self, q):
        with pytest.raises(DomainError):
            spectral_edges(q)

    @pytest.mark.parametrize("z", [math.nan, complex(0.1, math.nan), math.inf])
    def test_non_finite_points_refused(self, z):
        for call in (entire_combination, symmetry_defect):
            with pytest.raises(DomainError):
                call(2, z)

    @pytest.mark.parametrize(
        "call, args",
        [
            (spectral_edges, (10**400,)),
            (neg_value_genfun, (10**400, 0.1)),
            (pos_value_genfun, (10**400, 0.1)),
            (neg_value_genfun, (2, 10**400)),
            (pos_value_genfun, (2, 10**400)),
            (symmetry_defect, (10**155, 1j)),
            (entire_combination, (10**200, 0.5)),
        ],
    )
    def test_float_overflow_is_out_of_range(self, call, args):
        with pytest.raises(OutOfRangeError, match="out of floating-point range"):
            call(*args)

    def test_residual_depth_must_be_integer(self):
        with pytest.raises(DomainError):
            quadratic_residual_series(4.0)
