"""Branch-pinned generating functions and their identities."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treezeta.errors import CutViolationError, DomainError, PoleError
from treezeta.exact import IntPoly, poly_eval
from treezeta.genfun import (
    SpectrumCut,
    _recip_radical,
    cut_sqrt,
    entire_combination,
    moment_genfun,
    neg_value_genfun,
    pos_value_genfun,
    quadratic_residual_series,
    reciprocal_cut,
    spectral_edges,
    spectrum_cut,
    symmetry_defect,
)
from treezeta.special_values import (
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
    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("z", [0.05, 0.02 + 0.03j, -0.08, 0.1j])
    def test_matches_walk_series(self, q, z):
        partial = sum(count_closed_walks(q, n) * z**n for n in range(50))
        assert moment_genfun(q, z) == pytest.approx(partial, rel=1e-12, abs=1e-12)

    def test_value_at_origin(self):
        assert moment_genfun(7, 0) == pytest.approx(1.0)

    def test_removable_points_refused(self):
        with pytest.raises(PoleError):
            moment_genfun(2, 1 / 3)
        with pytest.raises(PoleError):
            moment_genfun(3, -0.25)

    def test_branch_rays_refused(self):
        with pytest.raises(CutViolationError):
            moment_genfun(2, 0.3536)
        with pytest.raises(CutViolationError):
            moment_genfun(2, -5.0)

    def test_beyond_radius_via_continuation(self):
        # just off the ray the continuation is finite and conjugate-symmetric
        v = moment_genfun(2, 0.5 + 0.01j)
        w = moment_genfun(2, 0.5 - 0.01j)
        assert v == pytest.approx(w.conjugate(), rel=1e-12)


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
        # the conjugate form used inside the removable band agrees with the
        # plain closed form wherever both are well conditioned
        for q in (2, 3):
            for ang in range(1, 8):
                z = 3 * (q + 1) * complex(math.cos(ang), math.sin(ang))
                s = cut_sqrt(q, z)
                rationalised = 2 * z * q / ((q - 1) * (q + 1 - z) + (q + 1) * s)
                assert pos_value_genfun(q, z) == pytest.approx(rationalised, rel=1e-11)

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


def series_residual(n_max, polys):
    """The residual by schoolbook coefficient convolutions, the oracle of the packed one.

    With T = sum P_{k+1} z^k and S = T^2, the residual is
    q z S (2 - (q-1)^2 z) + T ((q-1)^2 z - 1) + 1, read off term by term.
    """
    q = IntPoly.variable()
    qm1sq = (q - 1) * (q - 1)
    t = list(polys[:n_max])
    square = [sum((t[i] * t[k - i] for i in range(k + 1)), IntPoly()) for k in range(n_max)]
    out = []
    for k in range(n_max):
        r = -t[k]
        if k == 0:
            r = r + 1
        if k >= 1:
            r = r + qm1sq * t[k - 1] + 2 * q * square[k - 1]
        if k >= 2:
            r = r - q * qm1sq * square[k - 2]
        out.append(r)
    return tuple(out)


# signed coefficients, small and of several hundred bits; an empty list is
# the zero polynomial
coefficient = st.one_of(st.integers(-3, 3), st.integers(-(2**400), 2**400))
foreign_table = st.lists(st.lists(coefficient, max_size=7), min_size=1, max_size=7)


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


class TestArgumentValidation:
    def test_numpy_branching_number_accepted(self):
        import numpy as np

        assert spectral_edges(np.int64(4)) == spectral_edges(4)
        assert moment_genfun(np.int64(2), 0.1) == moment_genfun(2, 0.1)

    @pytest.mark.parametrize("q", [True, 2.0, 2.5, "2"])
    def test_non_integer_branching_number_refused(self, q):
        with pytest.raises(DomainError):
            spectral_edges(q)

    @pytest.mark.parametrize("z", [math.nan, complex(0.1, math.nan), math.inf])
    def test_non_finite_points_refused(self, z):
        for call in (moment_genfun, entire_combination, cut_sqrt, symmetry_defect):
            with pytest.raises(DomainError):
                call(2, z)

    def test_residual_depth_must_be_integer(self):
        with pytest.raises(DomainError):
            quadratic_residual_series(4.0)
