"""Wavelet construction, orthogonality, and correlation sequences."""

from fractions import Fraction

import pytest

from fabersplines import wavelets as wavelets_mod
from fabersplines.piecewise import InvariantError, OrderError, bspline, inner_product, moments
from fabersplines.wavelets import AutocorrSequence, autocorr, scaling_crosscorr, wavelet

F = Fraction


class TestWaveletConstruction:
    @pytest.mark.parametrize("m", range(2, 6))
    def test_support(self, m):
        assert wavelet(m).psi.support == (F(0), F(2 * m - 1))

    @pytest.mark.parametrize("m", range(2, 6))
    def test_degree_and_knots(self, m):
        psi = wavelet(m).psi
        assert psi.degree == m - 1
        assert all(t.denominator in (1, 2) for t in psi.breakpoints)

    def test_wrong_support_raises(self, monkeypatch):
        # N_1 in place of the m-th derivative of N_2m shrinks psi to [0, 3/2];
        # the uncached constructor keeps the patched value out of the cache
        monkeypatch.setattr(wavelets_mod, "differentiate", lambda p, order: bspline(1))
        with pytest.raises(InvariantError):
            wavelet.__wrapped__(2)

    def test_haar_rejected(self):
        with pytest.raises(OrderError):
            wavelet(1)

    def test_known_value(self):
        assert wavelet(2).psi(F(1, 2)) == F(1, 12)

    def test_scaling_is_bspline(self):
        assert wavelet(3).scaling == bspline(3)

    @pytest.mark.parametrize("m", range(2, 6))
    def test_vanishing_moments(self, m):
        assert moments(wavelet(m).psi, m - 1) == (F(0),) * m

    @pytest.mark.parametrize("m", range(2, 6))
    def test_orthogonal_to_scaling_translates(self, m):
        # W_0 perpendicular to V_0, exactly, over every overlapping shift
        psi = wavelet(m).psi
        nm = bspline(m)
        for k in range(-m, 2 * m):
            assert inner_product(psi, nm.translate(k)) == 0

    @pytest.mark.parametrize("m", range(2, 6))
    def test_cross_scale_orthogonality(self, m):
        # semi-orthogonality: <psi, psi(2 . - k)> = 0 for all overlapping k
        psi = wavelet(m).psi
        for k in range(-(2 * m - 1), 2 * (2 * m - 1) + 1):
            assert inner_product(psi, psi.compose_dyadic(2, k)) == 0

    @pytest.mark.parametrize("m", [2, 3])
    def test_parity_about_support_midpoint(self, m):
        psi = wavelet(m).psi
        mid = F(2 * m - 1)
        for x in [F(1, 4), F(3, 4), F(5, 4), F(2)]:
            assert psi(mid - x) == (-1) ** m * psi(x)


class TestAutocorr:
    def test_m2_exact_values(self):
        lags = autocorr(2).lags()
        assert lags[0] == F(1, 4)
        assert lags[1] == lags[-1] == F(5, 108)
        assert lags[2] == lags[-2] == F(-1, 216)
        assert autocorr(2).lag(3) == 0

    def test_m2_normalized(self):
        assert autocorr(2).normalized == (-1, 10, 54, 10, -1)

    def test_m3_normalized_integer_sequence(self):
        assert autocorr(3).normalized == (
            1, -518, -11072, 41734, 170110, 41734, -11072, -518, 1,
        )

    @pytest.mark.parametrize("m", range(2, 6))
    def test_palindromic(self, m):
        seq = autocorr(m)
        deg = seq.degree
        assert deg == 4 * (m - 1)
        assert all(seq.values[n] == seq.values[deg - n] for n in range(deg + 1))

    @pytest.mark.parametrize("m", range(2, 6))
    def test_increasing_symmetric_magnitudes(self, m):
        assert autocorr(m).is_increasing_symmetric()

    @pytest.mark.parametrize("m", range(2, 6))
    def test_matches_brute_force_inner_products(self, m):
        psi = wavelet(m).psi
        seq = autocorr(m)
        for n in range(seq.degree + 1):
            shift = n - 2 * (m - 1)
            assert seq.values[n] == inner_product(psi.translate(-shift), psi)

    def test_non_palindromic_rejected(self):
        with pytest.raises(ValueError):
            AutocorrSequence.from_values(2, [1, 2, 3])


class TestScalingCrosscorr:
    def test_m2_proportional_to_1_4_1(self):
        seq = scaling_crosscorr(2)
        assert seq.normalized == (1, 4, 1)
        assert seq.values == (F(1, 6), F(2, 3), F(1, 6))

    @pytest.mark.parametrize("m", range(2, 6))
    def test_length(self, m):
        assert len(scaling_crosscorr(m).values) == 2 * (m - 1) + 1

    @pytest.mark.parametrize("m", range(2, 6))
    def test_palindrome(self, m):
        seq = scaling_crosscorr(m)
        deg = seq.degree
        assert all(seq.values[n] == seq.values[deg - n] for n in range(deg + 1))

    @pytest.mark.parametrize("m", range(2, 6))
    def test_equals_double_order_bspline_values(self, m):
        # <N_m(. + n - (m-1)), N_m> = N_{2m}(n + 1)
        seq = scaling_crosscorr(m)
        n2m = bspline(2 * m)
        for n in range(seq.degree + 1):
            assert seq.values[n] == n2m(n + 1)

    def test_scale_invariant_normalization(self):
        seq = scaling_crosscorr(2)
        scaled = AutocorrSequence.from_values(2, [7 * v for v in seq.values])
        assert scaled.normalized == seq.normalized
