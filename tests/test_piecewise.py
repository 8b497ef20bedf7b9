"""Exact piecewise-polynomial core: construction, calculus, golden pieces."""

import random
from fractions import Fraction

import numpy as np
import pytest

from fabersplines import piecewise
from fabersplines.piecewise import (
    InvariantError,
    MomentError,
    OrderError,
    PiecewisePolynomial,
    SmoothnessError,
    bspline,
    differentiate,
    inner_product,
    moments,
    taylor_lift,
)
from fabersplines.wavelets import wavelet

F = Fraction


def bspline_by_convolution(m, x):
    """Independent oracle: N_m(x) = integral of N_{m-1} over [x-1, x]."""
    if m == 1:
        return F(1) if 0 <= x < 1 else F(0)
    return bspline(m - 1).integrate(x - 1, x)


def random_dyadic(rng, lo, hi, level=10):
    scale = 2**level
    return F(rng.randint(int(lo * scale), int(hi * scale)), scale)


class TestBspline:
    def test_order_one_is_indicator(self):
        n1 = bspline(1)
        assert n1(F(0)) == 1
        assert n1(F(1, 2)) == 1
        assert n1(F(1)) == 0  # half-open at the right support end
        assert n1(F(-1, 4)) == 0

    def test_invalid_order(self):
        with pytest.raises(OrderError):
            bspline(0)

    @pytest.mark.parametrize("x, expected", [(1, F(1, 6)), (2, F(2, 3)), (3, F(1, 6))])
    def test_cubic_integer_values(self, x, expected):
        assert bspline(4)(F(x)) == expected

    def test_hat_peak(self):
        assert bspline(2)(F(1)) == 1

    @pytest.mark.parametrize("m", range(2, 7))
    def test_against_convolution_recursion(self, m):
        rng = random.Random(1000 + m)
        for _ in range(25):
            x = random_dyadic(rng, -1, m + 1)
            assert bspline(m)(x) == bspline_by_convolution(m, x)

    @pytest.mark.parametrize("m", range(1, 7))
    def test_support_and_smoothness(self, m):
        nm = bspline(m)
        assert nm.support == (F(0), F(m))
        assert nm.degree == m - 1
        assert nm.smoothness_class() >= m - 2

    @pytest.mark.parametrize("m", range(2, 7))
    def test_partition_of_unity_exact(self, m):
        rng = random.Random(m)
        nm = bspline(m)
        for _ in range(200):
            x = random_dyadic(rng, 0, m + 3)
            total = sum(nm(x - k) for k in range(-m, int(x) + 1))
            assert total == 1

    @pytest.mark.parametrize("m", range(1, 7))
    def test_unit_mass(self, m):
        assert moments(bspline(m), 0) == (F(1),)


class TestEvaluate:
    def test_outside_support(self):
        assert bspline(4)(F(-1)) == 0
        assert bspline(4)(17.5) == 0.0

    def test_linear_hat(self):
        assert bspline(2)(F(1, 2)) == F(1, 2)

    def test_lifted_piece_value(self):
        v = taylor_lift(wavelet(2).psi, 2)
        assert v(F(1, 2)) == F(1, 288)

    def test_float_matches_exact(self):
        p = taylor_lift(wavelet(2).psi, 2)
        xs = np.linspace(-0.5, 3.5, 101)
        exact = np.array([float(p(F(x).limit_denominator(2**20))) for x in xs])
        # float path on the same dyadic points
        dy = np.array([float(F(x).limit_denominator(2**20)) for x in xs])
        assert np.allclose(p.eval_array(dy), exact, atol=1e-15)

    def test_eval_array_shapes(self):
        p = bspline(3)
        assert p.eval_array(np.array(1.5)).shape == ()
        assert p.eval_array(np.ones((2, 3))).shape == (2, 3)

    @pytest.mark.parametrize("m", [1, 4, 9])
    def test_non_finite_points_read_zero_without_warnings(self, m):
        p = bspline(m)
        with np.errstate(all="raise"):
            assert np.array_equal(p.eval_array(np.array([np.inf, -np.inf, np.nan])), np.zeros(3))
            assert p(float("inf")) == p(float("-inf")) == p(float("nan")) == 0.0


class TestDifferentiate:
    def test_symmetry_point_of_cubic(self):
        d = differentiate(bspline(4), 1)
        assert d(F(2)) == 0

    def test_bspline_derivative_recurrence(self):
        d = differentiate(bspline(3), 1)
        expected = bspline(2) - bspline(2).translate(1)
        assert d == expected

    def test_hat_not_differentiable(self):
        with pytest.raises(SmoothnessError):
            differentiate(bspline(2), 1)

    def test_order_must_fit_smoothness(self):
        with pytest.raises(SmoothnessError):
            differentiate(bspline(3), 2)
        differentiate(bspline(4), 2)  # C^2: fine

    def test_bad_order(self):
        with pytest.raises(ValueError):
            differentiate(bspline(4), 0)


class TestInnerProduct:
    def test_wavelet_autocorrelation_values(self):
        psi = wavelet(2).psi
        assert inner_product(psi, psi) == F(1, 4)
        for sign in (1, -1):
            assert inner_product(psi, psi.translate(sign)) == F(5, 108)
            assert inner_product(psi, psi.translate(2 * sign)) == F(-1, 216)
            assert inner_product(psi, psi.translate(3 * sign)) == 0

    def test_hat_squared(self):
        n2 = bspline(2)
        assert inner_product(n2, n2) == F(2, 3)

    def test_disjoint_supports(self):
        assert inner_product(bspline(2), bspline(2).translate(5)) == 0

    def test_symmetric_and_bilinear(self):
        p = bspline(3)
        q = wavelet(2).psi
        r = bspline(2).translate(F(1, 2))
        assert inner_product(p, q) == inner_product(q, p)
        lhs = inner_product(p, F(3, 7) * q + F(-5, 2) * r)
        rhs = F(3, 7) * inner_product(p, q) + F(-5, 2) * inner_product(p, r)
        assert lhs == rhs


# v pieces as printed for the piecewise-cubic construction, global variable, factor 1/36
V4_PIECES = [
    ((0, "1/2"), [0, 0, 0, 1]),
    (("1/2", 1), [1, -6, 12, -7]),
    ((1, "3/2"), [-22, 63, -57, 16]),
    (("3/2", 2), [86, -153, 87, -16]),
    ((2, "5/2"), [-98, 123, -51, 7]),
    (("5/2", 3), [27, -27, 9, -1]),
]

# Sixth-order lifted piece polynomials (global variable).  The reference
# table carries a sign typo in the fifth branch (+3895 t^4 breaks
# continuity at t = 2 and the zero at the integers); the corrected -3895
# is forced by its two neighbours.  The overall factor consistent with
# the textbook wavelet normalization is 1/14400 (see the acceptance
# suite for the full analysis of the reference 1/7200).
V6_PIECES = [
    ((0, "1/2"), [0, 0, 0, 0, 0, 1]),
    (("1/2", 1), [1, -10, 40, -80, 80, -31]),
    ((1, "3/2"), [-236, 1175, -2330, 2290, -1105, 206]),
    (("3/2", 2), [6082, -19885, 25750, -16430, 5135, -626]),
    ((2, "5/2"), [3 * c for c in [-15914, 38225, -36270, 16950, -3895, 352]]),
    (("5/2", 3), [3 * c for c in [52836, -99275, 73730, -27050, 4905, -352]]),
    ((3, "7/2"), [-250218, 383385, -232950, 70230, -10515, 626]),
    (("7/2", 4), [186764, -240875, 123770, -31690, 4045, -206]),
    ((4, "9/2"), [-55924, 62485, -27910, 6230, -695, 31]),
    (("9/2", 5), [3125, -3125, 1250, -250, 25, -1]),
]


def assert_global_pieces(p, table, factor):
    assert len(p.pieces) == len(table)
    for i, ((lo, hi), coeffs) in enumerate(table):
        assert p.breakpoints[i] == F(lo)
        assert p.breakpoints[i + 1] == F(hi)
        got = p.global_coefficients(i)
        want = tuple(F(c) * factor for c in coeffs)
        want = want[: len(got)] if len(got) < len(want) else want + (F(0),) * (len(got) - len(want))
        assert got == tuple(want)


class TestTaylorLift:
    def test_cubic_lift_golden_pieces(self):
        v = taylor_lift(wavelet(2).psi, 2)
        assert_global_pieces(v, V4_PIECES, F(1, 36))

    def test_quintic_lift_golden_pieces(self):
        v6 = taylor_lift(wavelet(3).psi, 3)
        assert_global_pieces(v6, V6_PIECES, F(1, 14400))

    def test_nonzero_tail_raises(self, monkeypatch):
        # a moment check that wrongly passes leaves the unit mass of N_2 as the tail
        monkeypatch.setattr(piecewise, "moments", lambda p, max_order: (F(0),) * (max_order + 1))
        with pytest.raises(InvariantError):
            taylor_lift(bspline(2), 1)

    def test_unliftable(self):
        with pytest.raises(MomentError):
            taylor_lift(bspline(2), 2)

    @pytest.mark.parametrize("m", [2, 3])
    def test_lift_inverts_differentiation(self, m):
        psi = wavelet(m).psi
        assert differentiate(taylor_lift(psi, m), m) == psi

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_support_preserved(self, m):
        psi = wavelet(m).psi
        assert taylor_lift(psi, m).support == psi.support

    def test_lift_vanishes_at_integers(self):
        v = taylor_lift(wavelet(2).psi, 2)
        for k in range(0, 4):
            assert v(F(k)) == 0


class TestMoments:
    def test_wavelet_moments_vanish(self):
        assert moments(wavelet(2).psi, 1) == (F(0), F(0))
        assert moments(wavelet(3).psi, 2) == (F(0), F(0), F(0))

    def test_moment_oracle_by_monomial_pairing(self):
        # independent route: pair against an explicit monomial piece
        psi = wavelet(2).psi
        lo, hi = psi.support
        for alpha in range(2):
            mono = PiecewisePolynomial.make(
                [lo, hi], [[F(0)] * alpha + [F(1)]]
            ).translate(0)
            # rewrite monomial in local variable: x^alpha anchored at lo
            assert inner_product(psi, mono) == moments(psi, alpha)[alpha]


class TestAlgebra:
    def test_add_and_scale(self):
        p = bspline(2) + F(1, 2) * bspline(2).translate(1)
        assert p(F(1)) == 1
        assert p(F(2)) == F(1, 2)

    def test_translate_dyadic_only(self):
        with pytest.raises(ValueError):
            bspline(2).translate(F(1, 3))

    def test_compose_dyadic(self):
        q = bspline(4).compose_dyadic(2, 1)  # N_4(2x - 1)
        assert q.support == (F(1, 2), F(5, 2))
        assert q(F(3, 2)) == bspline(4)(F(2))

    def test_integrate(self):
        assert bspline(2).integrate(0, 2) == 1
        assert bspline(2).integrate(0, 1) == F(1, 2)
        assert bspline(2).integrate(2, 0) == -1

    def test_zero_function(self):
        z = PiecewisePolynomial.zero()
        assert z.is_zero
        assert (bspline(2) - bspline(2)).is_zero

    def test_numpy_integers_stay_exact_past_2_63(self):
        # a Fraction of a numpy integer keeps it as numerator, which wraps past 2^63 with only a warning
        assert (bspline(2) * np.int64(2**62) * 4)(F(1, 2)) == 2**63
        p = PiecewisePolynomial.make([0, 1], [[np.int64(2**40)]])
        assert inner_product(p, p) == 2**80
        assert bspline(2).translate(np.int64(2**62)).translate(2**62).support[0] == 2**63
        assert bspline(3).compose_dyadic(np.int64(2**32), 0)(F(1, 2**33)) == F(1, 8)

    @pytest.mark.parametrize(
        "breakpoints, pieces",
        [([0, 1, 2], [[1]]), ([0, F(1, 3)], [[1]]), ([1, 0], [[1]])],
        ids=["piece_count", "not_dyadic", "not_increasing"],
    )
    def test_make_refuses_malformed_pieces(self, breakpoints, pieces):
        with pytest.raises(ValueError):
            PiecewisePolynomial.make(breakpoints, pieces)


def test_monomial_local_representation():
    # local-variable storage: the quintic lift keeps per-piece coefficients
    # small even where global coefficients reach 1e5
    v6 = taylor_lift(wavelet(3).psi, 3)
    local_max = max(abs(c) for piece in v6.pieces for c in piece)
    global_max = max(abs(c) for i in range(len(v6.pieces)) for c in v6.global_coefficients(i))
    assert global_max > 10 * local_max
