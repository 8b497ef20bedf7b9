"""Biorthogonal analysis/synthesis: pairings, round trips, the sampled filter bank."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fabersplines import wavetransform
from fabersplines.basis import DyadicIndex, build_basis
from fabersplines.dualcoeffs import MAX_ORDER, dual_wavelet_coeffs
from fabersplines.piecewise import OrderError, PiecewisePolynomial, bspline, inner_product, taylor_lift
from fabersplines.sampling import Expansion, ResolutionError, SampledFunction, spline_interpolate
from fabersplines.wavelets import two_scale_taps, wavelet
from fabersplines.wavetransform import (
    mu_coeff,
    wavelet_analyze,
    wavelet_synthesize,
)

F = Fraction


@pytest.fixture(scope="module")
def basis2():
    return build_basis(2)


def exact_dual_wavelet(m, window):
    """Truncated psi* as an exact piecewise polynomial (float coefficients
    promoted to rationals)."""
    table = dual_wavelet_coeffs(m, window)
    psi = wavelet(m).psi
    out = PiecewisePolynomial.zero()
    for n, a in table.items():
        out = out + F(a) * psi.translate(n)
    return out


def exact_mu(f, m, j, k):
    """mu_{j,k}(f) by the definition, one exact pairing: 2^j <f, psi(2^j . - k)>, or <f, N_m(. + c - k)> at j = -1."""
    if j == -1:
        return inner_product(f, bspline(m).translate(k - m // 2))
    return 2**j * inner_product(f, wavelet(m).psi.compose_dyadic(2**j, k))


def no_integration(*args):
    raise AssertionError("integration began before the order check")


def random_v_space_element(rng, m, J, n_coeffs=8):
    pp = PiecewisePolynomial.zero()
    for i in range(n_coeffs):
        c = F(rng.integers(-64, 64), 64)
        pp = pp + c * bspline(m).compose_dyadic(2**J, i)
    return pp


class TestMuCoeff:
    def test_truncated_dual_pairs_to_delta(self, basis2):
        f = exact_dual_wavelet(2, 40)
        assert mu_coeff(f, 2, DyadicIndex(0, 0)) == pytest.approx(1.0, abs=1e-8)
        for idx in (DyadicIndex(0, 1), DyadicIndex(0, -1), DyadicIndex(1, 0), DyadicIndex(1, 2)):
            assert mu_coeff(f, 2, idx) == pytest.approx(0.0, abs=1e-8)

    def test_scaling_translate_orthogonal_to_all_levels(self):
        f = bspline(2).translate(-1)  # N_2(. + 1), an element of V_0
        for j in (0, 1, 2):
            for k in (-4, -2, 0, 1):
                assert mu_coeff(f, 2, DyadicIndex(j, k)) == 0.0

    def test_zero_function(self):
        assert mu_coeff(PiecewisePolynomial.zero(), 2, DyadicIndex(0, 0)) == 0.0

    def test_coarse_level_pairing_is_unweighted(self):
        # <N*(. - k'), N_m(. + c - k)> = delta requires the unweighted
        # coarse pairing; verified by the round trip below, here the dual
        # scaling identity on a single N_m shift (c = floor(m/2))
        from fabersplines.dualcoeffs import dual_scaling_coeffs

        m = 3
        table = dual_scaling_coeffs(m, 40)
        dual = PiecewisePolynomial.zero()
        for n, b in table.items():
            dual = dual + F(b) * bspline(m).translate(n - m // 2)
        for k in (-2, 0, 3):
            got = mu_coeff(dual, m, DyadicIndex(-1, k))
            assert got == pytest.approx(1.0 if k == 0 else 0.0, abs=1e-8)

    def test_sampled_quadrature_matches_exact(self, basis2):
        # the sampled route goes through the order-2m interpolant, which
        # reproduces order-2m splines of the sample level exactly, so for
        # such inputs the filter bank and exact pairing agree to rounding
        rng = np.random.default_rng(21)
        f = PiecewisePolynomial.zero()
        for i in range(8):
            c = F(int(rng.integers(-64, 64)), 64)
            f = f + c * bspline(4).compose_dyadic(4, i)
        lo, hi = (float(t) for t in f.support)
        fs = SampledFunction.from_callable(f.eval_array, 4, lo - 1, hi + 1)
        for idx in (DyadicIndex(-1, 1), DyadicIndex(0, 0), DyadicIndex(1, 3), DyadicIndex(2, -1)):
            exact = mu_coeff(f, 2, idx)
            quad = mu_coeff(fs, 2, idx, basis2)
            assert quad == pytest.approx(exact, abs=1e-10)

    def test_exact_input_checks_its_order_first(self, monkeypatch):
        # it used to integrate for about a second, then return an Expansion(m=13) no basis synthesizes
        monkeypatch.setattr(wavetransform, "inner_product", no_integration)
        with pytest.raises(OrderError):
            wavelet_analyze(bspline(4), 13, 0)

    def test_exact_mu_coeff_checks_its_order_first(self, monkeypatch):
        # it used to build wavelet(13) and integrate for about 0.6 s, then return a float
        monkeypatch.setattr(wavetransform, "inner_product", no_integration)
        with pytest.raises(OrderError):
            mu_coeff(bspline(4), 13, DyadicIndex(0, 0))

    @pytest.mark.parametrize("m, J", [(m, 0) for m in range(2, MAX_ORDER + 1)] + [(2, 3), (3, 3), (5, 3)])
    def test_exact_analysis_is_the_rounded_definition(self, m, J):
        # the pyramid carries Fractions and rounds each mu once, so it is float(exact_mu) bit for bit
        f = bspline(m + 1).compose_dyadic(2, 1)
        exp = wavelet_analyze(f, m, J)
        for j, ks in primal_ranges(*f.support, m, J).items():
            assert set(exp.levels[j]) <= set(ks)
            for k in ks:
                assert exp.coeff(j, k) == float(exact_mu(f, m, j, k)), (j, k)

    def test_exact_analysis_reads_b_splines_only(self, monkeypatch):
        # only the finest level is integrated, against N_m; no wavelet is built or composed
        f = bspline(5).compose_dyadic(4, 4001)  # shifts no other test asks for, so no cached primal stands in
        want = {j: {k: float(exact_mu(f, 4, j, k)) for k in ks} for j, ks in primal_ranges(*f.support, 4, 3).items()}

        def no_wavelet(m):
            raise AssertionError("exact analysis built a wavelet")

        monkeypatch.setattr(wavetransform, "wavelet", no_wavelet)
        exp = wavelet_analyze(f, 4, 3)
        assert {j: {k: exp.coeff(j, k) for k in lev} for j, lev in want.items()} == want
        assert mu_coeff(f, 4, DyadicIndex(2, 4001)) == want[2][4001]

    def test_negative_finest_level_rejected(self, basis2):
        fs = SampledFunction(N=4, k_lo=0, values=(1.0,) * 17)
        with pytest.raises(ValueError):
            wavelet_analyze(fs, 2, -1, basis2)

    def test_quadrature_resolution_guard(self, basis2):
        fs = SampledFunction(N=1, k_lo=0, values=(1.0,) * 9)
        with pytest.raises(ResolutionError):
            mu_coeff(fs, 2, DyadicIndex(3, 0), basis2)


def level_ranges(f, m, J, basis):
    """{j: k range} of the shifts whose primal meets the support of J_N f strictly.

    J_N f = sum_i h_i N_2m(2^N x + m - c0 - i) is supported on
    [(c0 - m) / 2^N, (c0 + len(h) - 1 + m) / 2^N].
    """
    b0, b = basis.cardinal_table.window[0], basis.cardinal_table.coeffs.cs
    c0, n = f.k_lo + b0, len(f.values) + len(b) - 1
    return primal_ranges(F(c0 - m, 2**f.N), F(c0 + n - 1 + m, 2**f.N), m, J)


def primal_ranges(lo, hi, m, J):
    """{j: k range} of the shifts whose primal meets (lo, hi), at levels -1..J."""
    c = m // 2
    # N_m(x + c - k) lives on [k - c, k - c + m], psi(2^j x - k) on [k, k + 2m - 1] / 2^j
    ranges = {-1: range(math.floor(lo + c - m) + 1, math.ceil(hi + c))}
    for j in range(J + 1):
        ranges[j] = range(math.floor(lo * 2**j) - (2 * m - 1) + 1, math.ceil(hi * 2**j))
    return ranges


def exact_interpolant(f, m, basis):
    """J_N f as an exact piecewise polynomial: sum_c Fraction(h_c) N_2m(2^N x + m - c).

    h is the samples convolved with the dual scaling table, as float
    values promoted to rationals.
    """
    b0, b = basis.cardinal_table.window[0], basis.cardinal_table.coeffs.cs
    out = PiecewisePolynomial.zero()
    for i, h in enumerate(np.convolve(np.asarray(f.values), b)):
        out = out + F(h) * bspline(2 * m).compose_dyadic(2**f.N, f.k_lo + b0 + i - m)
    return out


class TestSampledMu:
    def test_jump_window_is_the_exact_pairing_of_the_interpolant(self, basis2):
        # mu of sampled input is the pairing of J_N f with each primal over
        # its whole support, also where that support leaves the window
        f = SampledFunction(N=3, k_lo=0, values=(1.0,) * 8 + (0.0,))
        jn = exact_interpolant(f, 2, basis2)
        xs = np.linspace(-3.0, 4.0, 113)
        assert np.max(np.abs(jn.eval_array(xs) - spline_interpolate(f, 2, xs, basis2))) < 1e-14
        exp = wavelet_analyze(f, 2, 2, basis2)
        for j, ks in level_ranges(f, 2, 2, basis2).items():
            for k in ks:
                assert abs(exp.coeff(j, k) - exact_mu(jn, 2, j, k)) <= 1e-13, (j, k)

    @pytest.mark.parametrize("m", [2, 5, 12])
    def test_deep_sample_levels_keep_their_precision(self, m):
        # the same samples at level N and at level 10: mu^(N)_{j+N-10,k} = mu^(10)_{j,k}, and in
        # float the two pyramids differ only by powers of two; a pyramid on the unscaled pairings
        # 2^-N (h * gram) loses them to subnormals
        values = tuple(np.random.default_rng(m).normal(size=40))
        basis = build_basis(m)
        ref = wavelet_analyze(SampledFunction(N=10, k_lo=-7, values=values), m, 9, basis)
        for N in (40, 1000, 1075):
            exp = wavelet_analyze(SampledFunction(N=N, k_lo=-7, values=values), m, N - 1, basis)
            for j in range(10):
                assert list(exp.levels[j + N - 10].items()) == list(ref.levels[j].items()), (N, j)

    def test_non_finite_samples_rejected(self, basis2):
        # sampling a function that is not finite on the grid fails there, before any pairing
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                SampledFunction.from_callable(lambda x: np.where(x == 0.25, bad, 1.0), 2, 0.0, 1.0)

    @pytest.mark.parametrize("m", [2, 5])
    def test_default_basis_is_build_basis(self, m):
        rng = np.random.default_rng(m)
        f = SampledFunction(N=5, k_lo=-7, values=rng.normal(size=60))
        xs = np.linspace(-1.0, 3.0, 97)
        basis = build_basis(m)
        assert spline_interpolate(f, m, xs).tobytes() == spline_interpolate(f, m, xs, basis).tobytes()
        got, want = wavelet_analyze(f, m, 3), wavelet_analyze(f, m, 3, basis)
        assert repr(sorted(got.levels.items())) == repr(sorted(want.levels.items()))
        for j, k in ((-1, 0), (0, 1), (3, 5)):
            assert mu_coeff(f, m, DyadicIndex(j, k)).hex() == mu_coeff(f, m, DyadicIndex(j, k), basis).hex()

    def test_basis_of_another_order_rejected(self, basis2):
        f = SampledFunction(N=3, k_lo=0, values=tuple(np.linspace(0.0, 1.0, 17)))
        with pytest.raises(ValueError, match="order"):
            mu_coeff(f, 3, DyadicIndex(1, 0), basis2)
        with pytest.raises(ValueError, match="order"):
            wavelet_analyze(f, 3, 1, basis2)


def test_synthesis_rejects_tables_of_another_order_or_kind(basis2):
    basis3 = build_basis(3)
    exp = Expansion(2, {-1: {0: 1.0}, 0: {1: 0.5}})
    xs = np.linspace(-2.0, 4.0, 13)
    assert np.any(wavelet_synthesize(exp, basis2.dual_table, xs, basis2.cardinal_table))
    for dual, scaling in [
        (basis3.dual_table, basis3.cardinal_table),
        (basis3.dual_table, basis2.cardinal_table),
        (basis2.dual_table, basis3.cardinal_table),
        (basis2.cardinal_table, basis2.dual_table),
    ]:
        with pytest.raises(ValueError, match="table"):
            wavelet_synthesize(exp, dual, xs, scaling)


sample_windows = st.builds(
    SampledFunction,
    N=st.integers(1, 4),
    k_lo=st.integers(-40, 40),
    values=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=48).map(tuple),
)


@settings(max_examples=40, deadline=None)
@given(f=sample_windows, m=st.integers(2, MAX_ORDER))
def test_mu_coeff_matches_wavelet_analyze_bit_for_bit(f, m):
    basis = build_basis(m)
    J = f.N - 1
    exp = wavelet_analyze(f, m, J, basis)
    for j, ks in level_ranges(f, m, J, basis).items():
        assert set(exp.levels[j]) <= set(ks)
        for k in range(ks.start - 2, ks.stop + 2):
            assert mu_coeff(f, m, DyadicIndex(j, k), basis) == exp.coeff(j, k), (j, k)


class TestFilterBank:
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_taps_are_the_exact_two_scale_and_gram_sequences(self, m):
        gram, p, q, r, w = two_scale_taps(m)
        nm, n2m = bspline(m), bspline(2 * m)

        def refined(taps, piece=nm):
            out = PiecewisePolynomial.zero()
            for n, t in enumerate(taps):
                out = out + t * piece.compose_dyadic(2, n)
            return out

        assert (refined(q) + wavelet(m).psi * -1).is_zero
        assert (refined(p) + nm * -1).is_zero
        assert (refined(r, n2m) + n2m * -1).is_zero
        assert (refined(w, n2m) + taylor_lift(wavelet(m).psi, m) * -1).is_zero
        # gram[i - 1] = <N_2m(. + m - d), N_m> at d = 2m - i, i.e. reversed in d
        assert gram == tuple(inner_product(bspline(2 * m).translate(d - m), nm) for d in range(2 * m - 1, -m, -1))


@settings(max_examples=15, deadline=None)
@given(
    m=st.sampled_from([2, 3]),
    N=st.integers(1, 3),
    k_lo=st.integers(-8, 8),
    values=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=10).map(tuple),
)
def test_sampled_mu_is_the_exact_pairing_of_the_interpolant(m, N, k_lo, values):
    # every key the pyramid can return, against exact integration of the
    # rational J_N f, including the shifts that reach past the window
    f = SampledFunction(N=N, k_lo=k_lo, values=values)
    basis = build_basis(m)
    jn = exact_interpolant(f, m, basis)
    exp = wavelet_analyze(f, m, N - 1, basis)
    for j, ks in level_ranges(f, m, N - 1, basis).items():
        assert set(exp.levels[j]) <= set(ks)
        for k in ks:
            assert abs(exp.coeff(j, k) - exact_mu(jn, m, j, k)) <= 1e-13, (j, k)


@pytest.mark.parametrize("e, kept", [(1100, [0, 0, 0]), (1070, [2, 2, 3])])
def test_an_exact_mu_is_rounded_before_its_zero_test(e, kept):
    # at 2^-1100 every mu is a nonzero Fraction that rounds to 0.0, and takes no entry;
    # at 2^-1070 the survivors are subnormal
    exp = wavelet_analyze(bspline(3).compose_dyadic(2, 1) * Fraction(1, 2**e), 2, 1)
    assert [len(exp.levels[j]) for j in (-1, 0, 1)] == kept
    assert all(0.0 < abs(c) < 2.0**-1022 for lev in exp.levels.values() for c in lev.cs)


class TestRoundTrip:
    @pytest.mark.parametrize("m", range(2, MAX_ORDER + 1))
    def test_spline_space_element(self, m):
        rng = np.random.default_rng(30 + m)
        J = 2
        f = random_v_space_element(rng, m, J)
        basis = build_basis(m)
        exp = wavelet_analyze(f, m, J - 1)
        lo, hi = (float(t) for t in f.support)
        xs = np.linspace(lo - 1, hi + 1, 400)
        rec = wavelet_synthesize(exp, basis.dual_table, xs, basis.cardinal_table)
        grid_l2 = np.sqrt(np.mean((rec - f.eval_array(xs)) ** 2))
        assert grid_l2 < 1e-6

    @pytest.mark.parametrize("J", [1, 2])
    @pytest.mark.parametrize("m", range(2, MAX_ORDER + 1))
    def test_reconstruction_bounded_by_truncation(self, m, J):
        # exact-mode coefficients of f in V_{J+1} reconstruct f with a
        # sup residual within 10x the dual-table truncation bound
        rng = np.random.default_rng(33 + 10 * m + J)
        f = random_v_space_element(rng, m, J)
        basis = build_basis(m)
        exp = wavelet_analyze(f, m, J - 1)
        lo, hi = (float(t) for t in f.support)
        xs = np.linspace(lo - 1, hi + 1, 257)
        rec = wavelet_synthesize(exp, basis.dual_table, xs, basis.cardinal_table)
        sup = np.max(np.abs(rec - f.eval_array(xs)))
        assert sup <= 10 * basis.dual_table.truncation_bound

    def test_energy_ratio_diagnostic(self, capsys):
        # Riesz-bound sanity: coefficient energy sits within a fixed factor
        # of the function energy.  Diagnostic only (the frame bounds are
        # not equalities), so it is logged, never asserted as an identity.
        rng = np.random.default_rng(40)
        f = random_v_space_element(rng, 2, 2)
        exp = wavelet_analyze(f, 2, 1)
        from fabersplines.piecewise import inner_product

        energy_f = float(inner_product(f, f))
        energy_mu = sum(v * v for lev in exp.levels.values() for v in lev.values())
        ratio = energy_mu / energy_f
        print(f"wavelet coefficient energy / ||f||_2^2 = {ratio:.4f}")
        assert 1e-4 < ratio < 1e4

    def test_finer_level_wavelet_invisible_below(self):
        # psi at level J+1 is orthogonal to every level <= J
        m = 2
        J = 1
        f = wavelet(m).psi.compose_dyadic(2 ** (J + 1), 0)
        exp = wavelet_analyze(f, m, J)
        for j, lev in exp.levels.items():
            for k, v in lev.items():
                assert v == 0.0, (j, k)

    def test_zero_expansion_synthesizes_zero(self, basis2):
        exp = Expansion(2, {-1: {}, 0: {}})
        out = wavelet_synthesize(exp, basis2.dual_table, np.linspace(0, 1, 9), basis2.cardinal_table)
        assert np.all(out == 0.0)


class TestSerialization:
    def test_round_trip(self):
        exp = Expansion(2, {-1: {0: 0.5}, 1: {2: -0.25}})
        back = Expansion.from_json_dict(exp.to_json_dict())
        assert back.levels == exp.levels
        assert back.m == 2
