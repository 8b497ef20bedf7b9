"""Lifted basis functions, cardinal interpolant, Kronecker pairing."""

import math
from fractions import Fraction

import numpy as np
import pytest

from fabersplines import basis as basis_mod
from fabersplines.basis import DyadicIndex, build_basis, eval_L, eval_s, truncation_window
from fabersplines.piecewise import InvariantError, bspline
from fabersplines.sampling import SampledFunction, lambda_coeff

F = Fraction
S3 = math.sqrt(3.0)


@pytest.fixture(scope="module")
def basis2():
    return build_basis(2)


@pytest.fixture(scope="module")
def basis3():
    return build_basis(3)


class TestDyadicIndex:
    def test_interval_fine_levels(self):
        assert DyadicIndex(2, 5).interval() == (F(5, 4), F(6, 4))
        assert DyadicIndex(0, -3).interval() == (F(-3), F(-2))

    def test_interval_coarse_level(self):
        assert DyadicIndex(-1, 2).interval() == (F(3, 2), F(5, 2))
        assert DyadicIndex(-1, 0).measure == 1

    def test_level_bound(self):
        with pytest.raises(ValueError):
            DyadicIndex(-2, 0)


class TestBuildBasis:
    def test_v_golden_piece_m2(self, basis2):
        # third branch of the lifted cubic: (-22 + 63t - 57t^2 + 16t^3)/36
        got = basis2.v.global_coefficients(2)
        assert basis2.v.breakpoints[2] == 1
        assert got == (F(-22, 36), F(63, 36), F(-57, 36), F(16, 36))

    def test_v_golden_piece_m3(self, basis3):
        # last branch of the lifted quintic; overall scale 1/14400 for the
        # textbook wavelet normalization (the reference table's 1/7200
        # corresponds to a doubled wavelet; see the quintic-lift tests)
        got = basis3.v.global_coefficients(9)
        want = tuple(F(c, 14400) for c in (3125, -3125, 1250, -250, 25, -1))
        assert got == want

    def test_truncation_window_m2(self, basis2):
        n_max = truncation_window(basis2.dual_table.decay_rate, 1e-12)
        assert n_max == math.ceil(math.log(1e-12) / math.log(2 - S3))
        assert 20 <= n_max <= 22
        assert basis2.n_max == n_max

    def test_tolerance_validation(self):
        with pytest.raises(ValueError):
            build_basis(2, tolerance=0.0)

    def test_lift_support_change_raises(self, monkeypatch):
        # a lift that moved the support would break the shift-sum width; the
        # uncached build_basis is called so the patched lift never enters the cache
        monkeypatch.setattr(basis_mod, "taylor_lift", lambda p, m: bspline(2))
        with pytest.raises(InvariantError):
            build_basis.__wrapped__(2)

    def test_v_support(self, basis2, basis3):
        assert basis2.v.support == (F(0), F(3))
        assert basis3.v.support == (F(0), F(5))


class TestCardinalInterpolant:
    def test_delta_property(self, basis2):
        assert eval_L(basis2, 0.0) == pytest.approx(1.0, abs=1e-12)
        for j in [-6, -3, -1, 1, 2, 5, 9]:
            assert eval_L(basis2, float(j)) == pytest.approx(0.0, abs=1e-10)

    def test_half_integer_value(self, basis2):
        assert eval_L(basis2, 0.5) == pytest.approx(1.25 - 0.375 * S3, abs=1e-10)

    def test_delta_property_higher_order(self, basis3):
        assert eval_L(basis3, 0.0) == pytest.approx(1.0, abs=1e-10)
        for j in range(1, 8):
            assert eval_L(basis3, float(j)) == pytest.approx(0.0, abs=1e-10)

    def test_even_symmetry(self, basis2):
        xs = np.linspace(0.1, 4.9, 25)
        assert eval_L(basis2, xs) == pytest.approx(eval_L(basis2, -xs), abs=1e-12)


class TestEvalS:
    def test_vanishes_at_integers(self, basis2):
        for n in range(-3, 9):
            assert eval_s(basis2, DyadicIndex(0, 0), float(n)) == pytest.approx(0.0, abs=1e-10)

    def test_level_minus_one_is_cardinal(self, basis2):
        assert eval_s(basis2, DyadicIndex(-1, 0), 0.0) == pytest.approx(1.0, abs=1e-10)
        for n in [-4, -1, 1, 3]:
            assert eval_s(basis2, DyadicIndex(-1, 0), float(n)) == pytest.approx(0.0, abs=1e-10)
        assert eval_s(basis2, DyadicIndex(-1, 2), 2.5) == pytest.approx(eval_L(basis2, 0.5), abs=1e-14)

    def test_dyadic_shift_scale_structure(self, basis2):
        xs = np.linspace(0.7, 2.9, 41)
        lhs = eval_s(basis2, DyadicIndex(1, 3), xs)
        rhs = eval_s(basis2, DyadicIndex(0, 0), 2 * xs - 3)
        assert lhs == pytest.approx(rhs, abs=1e-14)

    def test_scalar_and_array_agree(self, basis2):
        xs = np.array([0.3, 1.7])
        arr = eval_s(basis2, DyadicIndex(0, 0), xs)
        assert arr[0] == eval_s(basis2, DyadicIndex(0, 0), 0.3)
        assert arr[1] == eval_s(basis2, DyadicIndex(0, 0), 1.7)

    def test_odd_order_vanishes_at_integers(self, basis3):
        for n in range(-2, 7):
            assert eval_s(basis3, DyadicIndex(0, 0), float(n)) == pytest.approx(0.0, abs=1e-10)


def sample_basis_function(basis, idx, level):
    f = lambda x: eval_s(basis, idx, x)
    reach = basis.n_max + 2 * basis.m + 2
    lo = (idx.k - reach) / 2.0**idx.j if idx.j >= 0 else idx.k - reach
    hi = (idx.k + reach) / 2.0**idx.j if idx.j >= 0 else idx.k + reach
    return SampledFunction.from_callable(f, level, min(lo, -reach), max(hi, reach))


class TestKroneckerPairing:
    @pytest.mark.parametrize("m", [2, 3])
    def test_diagonal_and_off_diagonal(self, m):
        basis = build_basis(m)
        pairs = [(0, 0), (0, 2), (1, -1), (2, 3)]
        for (j, k) in pairs:
            for (l, n) in pairs + [(1, 0), (2, -4)]:
                f = sample_basis_function(basis, DyadicIndex(j, k), l + 3)
                got = lambda_coeff(f, m, DyadicIndex(l, n))
                want = 1.0 if (j, k) == (l, n) else 0.0
                assert got == pytest.approx(want, abs=1e-8), (m, j, k, l, n)


class TestTruncationHonesty:
    def test_doubling_window_moves_less_than_bound(self, basis2):
        from fabersplines.basis import FaberBasisSpec
        from fabersplines.dualcoeffs import dual_scaling_coeffs, dual_wavelet_coeffs

        wide = FaberBasisSpec(
            m=2,
            v=basis2.v,
            dual_table=dual_wavelet_coeffs(2, 2 * basis2.n_max),
            cardinal_table=dual_scaling_coeffs(2, 2 * basis2.n_max),
            tolerance=basis2.tolerance,
        )
        rng = np.random.default_rng(7)
        xs = rng.uniform(-3.0, 6.0, 100)
        for idx in [DyadicIndex(0, 0), DyadicIndex(2, -1)]:
            delta = np.abs(eval_s(basis2, idx, xs) - eval_s(wide, idx, xs))
            assert np.max(delta) < 10 * basis2.dual_table.truncation_bound
