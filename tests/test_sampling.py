"""Sampling functionals, the operator S_N, and the spline interpolant."""

import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fabersplines.basis import DyadicIndex, _dense, build_basis, eval_L, eval_s
from fabersplines.piecewise import bspline
from fabersplines.sampling import (
    FaberExpansion,
    ResolutionError,
    SampledFunction,
    analyze,
    lambda_coeff,
    spline_interpolate,
    stencil_weights,
    synthesize,
)
from fabersplines.wavetransform import wavelet_synthesize

F = Fraction


@pytest.fixture(scope="module")
def basis2():
    return build_basis(2)


def term_by_term(pp, h, c0, t):
    """sum_i h[i] pp(t - c0 - i), one ``eval_array`` call per term."""
    out = np.zeros_like(t)
    for i, hc in enumerate(h):
        out += hc * pp.eval_array(t - (c0 + i))  # c0 + i first: no rounding of t - c0
    return out


def random_spline(rng, m, N, n_coeffs=12):
    """Random element of the order-2m spline space at level N, with its span."""
    coeffs = rng.uniform(-1.0, 1.0, n_coeffs)
    pp = bspline(2 * m).as_float()

    def f(x):
        x = np.asarray(x, dtype=float)
        acc = np.zeros_like(x)
        for i, c in enumerate(coeffs):
            acc += c * pp.eval_array(np.ldexp(x, N) - i)
        return acc

    hi = (n_coeffs + 2 * m) / 2.0**N
    return f, (0.0, hi)


class TestSampledFunction:
    def test_window_and_zeros(self):
        f = SampledFunction(N=2, k_lo=-1, values=(1.0, 2.0, 3.0))
        assert f.k_hi == 1
        assert f.value_at(0) == 2.0
        assert f.value_at(5) == 0.0
        assert f.spacing == F(1, 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            SampledFunction(N=-1, k_lo=0, values=(1.0,))
        with pytest.raises(ValueError):
            SampledFunction(N=0, k_lo=0, values=())

    def test_from_callable(self):
        f = SampledFunction.from_callable(lambda x: np.asarray(x) * 2, 1, 0.0, 1.5)
        assert f.k_lo == 0 and f.k_hi == 3
        assert f.values == (0.0, 1.0, 2.0, 3.0)


class TestStencilWeights:
    def test_m2_reduces_to_quoted_combination(self):
        # (1/6) (Delta^4 at 2k) - (4/6) (at 2k+1) + (1/6) (at 2k+2)
        d4 = [1, -4, 6, -4, 1]
        explicit = [F(0)] * 7
        for shift, w in ((0, F(1, 6)), (1, F(-4, 6)), (2, F(1, 6))):
            for s, c in enumerate(d4):
                explicit[shift + s] += w * c
        assert stencil_weights(2) == tuple(explicit)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_weights_kill_low_degree_polynomials(self, m):
        # sum_o W_o q((2k+o)/2) = 0 for every polynomial of degree < 2m
        ws = stencil_weights(m)
        for deg in range(2 * m):
            assert sum(w * F(o, 2) ** deg for o, w in enumerate(ws)) == 0

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_weight_count(self, m):
        assert len(stencil_weights(m)) == 4 * m - 1


class TestLambdaCoeff:
    def test_level_minus_one_reads_integers(self):
        f = SampledFunction(N=2, k_lo=0, values=tuple(float(i) for i in range(9)))
        assert lambda_coeff(f, 2, DyadicIndex(-1, 1)) == 4.0
        assert lambda_coeff(f, 2, DyadicIndex(-1, 3)) == 0.0

    def test_constant_annihilated(self):
        f = SampledFunction(N=4, k_lo=-40, values=(3.25,) * 120)
        for j in (0, 1, 3):
            assert abs(lambda_coeff(f, 2, DyadicIndex(j, 0))) < 1e-14

    def test_cubic_annihilated_in_interior(self):
        g = lambda x: 1.0 + x - 2.0 * x**2 + 0.5 * x**3
        f = SampledFunction.from_callable(g, 3, -10.0, 10.0)
        for k in (-4, 0, 5):
            assert abs(lambda_coeff(f, 2, DyadicIndex(2, k))) < 1e-12

    def test_resolution_guard(self):
        f = SampledFunction(N=2, k_lo=0, values=(1.0,) * 9)
        with pytest.raises(ResolutionError):
            lambda_coeff(f, 2, DyadicIndex(2, 0))

    def test_basis_function_pairing(self, basis2):
        # the binding oracle: lambda picks out exactly its own basis function
        f = SampledFunction.from_callable(
            lambda x: eval_s(basis2, DyadicIndex(0, 0), x), 6, -30.0, 33.0
        )
        exp = analyze(f, 2)
        for j in range(-1, 6):
            for k, v in exp.levels.get(j, {}).items():
                want = 1.0 if (j, k) == (0, 0) else 0.0
                assert v == pytest.approx(want, abs=1e-8), (j, k)

    def test_locality_bit_exact(self):
        rng = np.random.default_rng(3)
        vals = list(rng.uniform(-1, 1, 65))
        f = SampledFunction(N=3, k_lo=0, values=tuple(vals))
        idx = DyadicIndex(1, 2)  # reads indices (2k+o)*2^{N-j-1} = 8..36 step 2
        before = lambda_coeff(f, 2, idx)
        vals2 = list(vals)
        vals2[50] += 100.0  # index 50 > 36: outside the dependence interval
        f2 = SampledFunction(N=3, k_lo=0, values=tuple(vals2))
        assert lambda_coeff(f2, 2, idx) == before
        vals3 = list(vals)
        vals3[8] += 1.0  # inside: must change
        f3 = SampledFunction(N=3, k_lo=0, values=tuple(vals3))
        assert lambda_coeff(f3, 2, idx) != before

    def test_linearity(self):
        rng = np.random.default_rng(4)
        a = rng.uniform(-1, 1, 40)
        b = rng.uniform(-1, 1, 40)
        fa = SampledFunction(N=2, k_lo=-5, values=tuple(a))
        fb = SampledFunction(N=2, k_lo=-5, values=tuple(b))
        fc = SampledFunction(N=2, k_lo=-5, values=tuple(2.0 * a - 0.5 * b))
        for idx in (DyadicIndex(0, 1), DyadicIndex(1, -2), DyadicIndex(-1, 2)):
            lhs = lambda_coeff(fc, 2, idx)
            rhs = 2.0 * lambda_coeff(fa, 2, idx) - 0.5 * lambda_coeff(fb, 2, idx)
            assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-14)


class TestAnalyze:
    def test_zero_function(self):
        f = SampledFunction(N=2, k_lo=0, values=(0.0,) * 9)
        exp = analyze(f, 2)
        assert all(not lev for lev in exp.levels.values())

    def test_needs_positive_level(self):
        f = SampledFunction(N=0, k_lo=0, values=(1.0, 0.0))
        with pytest.raises(ResolutionError):
            analyze(f, 2)

    def test_cardinal_interpolant_is_its_own_level(self, basis2):
        f = SampledFunction.from_callable(lambda x: eval_L(basis2, x), 4, -22.0, 22.0)
        exp = analyze(f, 2)
        for k, v in exp.levels[-1].items():
            assert v == pytest.approx(1.0 if k == 0 else 0.0, abs=1e-10)
        for j in range(0, 4):
            for k, v in exp.levels.get(j, {}).items():
                assert abs(v) < 1e-8, (j, k)

    def test_linearity_of_expansions(self):
        rng = np.random.default_rng(5)
        a = rng.uniform(-1, 1, 33)
        fa = SampledFunction(N=2, k_lo=0, values=tuple(a))
        exp1 = analyze(fa, 2).scaled(3.0)
        exp2 = analyze(SampledFunction(N=2, k_lo=0, values=tuple(3.0 * a)), 2)
        for j in exp2.levels:
            for k, v in exp2.levels[j].items():
                assert exp1.coeff(j, k) == pytest.approx(v, rel=1e-13, abs=1e-15)


def lambda_bound(exact, f):
    """Accuracy contract of every lambda: 2^-51 |exact| + 1e-20 max(1, max|v|)."""
    return 2.0**-51 * abs(exact) + 1e-20 * max(1.0, max(abs(v) for v in f.values))


def exact_lambda(f, m, j, k):
    """sum_o W_o v_o in rational arithmetic on the float samples v_o."""
    step = 2 ** (f.N - j - 1)
    return sum(w * F(f.value_at((2 * k + o) * step)) for o, w in enumerate(stencil_weights(m)))


def level_range(f, m, j):
    """Every k whose level-j stencil touches the sample window."""
    step = 2 ** (f.N - j - 1)
    return range(-(-(f.k_lo - (4 * m - 2) * step) // (2 * step)), f.k_hi // (2 * step) + 1)


scaled_windows = st.builds(
    lambda N, k_lo, terms: SampledFunction(N=N, k_lo=k_lo, values=tuple(x * 10.0**e for x, e in terms)),
    N=st.integers(1, 4),
    k_lo=st.integers(-40, 40),
    terms=st.lists(st.tuples(st.floats(-1.0, 1.0), st.integers(-8, 8)), min_size=1, max_size=48),
)


@settings(max_examples=60, deadline=None)
@given(f=scaled_windows, m=st.sampled_from([2, 3, 5]))
def test_every_lambda_meets_the_accuracy_contract(f, m):
    exp = analyze(f, m)
    for j in range(f.N):
        for k in level_range(f, m, j):
            lam = exp.coeff(j, k)
            exact = exact_lambda(f, m, j, k)
            assert abs(F(lam) - exact) <= lambda_bound(exact, f), (j, k)
            assert lambda_coeff(f, m, DyadicIndex(j, k)) == lam, (j, k)
        assert set(exp.levels[j]) <= set(level_range(f, m, j))


@settings(max_examples=40, deadline=None)
@given(
    f=scaled_windows,
    g=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=48),
    a=st.floats(-4.0, 4.0),
    b=st.floats(-4.0, 4.0),
    m=st.sampled_from([2, 3, 5]),
)
def test_analyze_is_linear(f, g, a, b, m):
    # h = a f + b g sample by sample; lambda_h - (a lambda_f + b lambda_g)
    # may differ only by the three contracts, the rounding of the samples
    # of h (at most 2^-53 |h_o| each, weighted by sum |W_o| = 4^m) and the
    # rounding of the right-hand side
    g = SampledFunction(N=f.N, k_lo=f.k_lo, values=tuple(g[: len(f.values)] + [0.0] * (len(f.values) - len(g))))
    h = SampledFunction(N=f.N, k_lo=f.k_lo, values=tuple(a * u + b * v for u, v in zip(f.values, g.values)))
    eh, ef, eg = analyze(h, m), analyze(f, m), analyze(g, m)
    h_max = max(abs(v) for v in h.values)
    for j in eh.levels:
        for k in set(eh.levels[j]) | set(ef.levels[j]) | set(eg.levels[j]):
            lh, lf, lg = eh.coeff(j, k), ef.coeff(j, k), eg.coeff(j, k)
            rhs = a * lf + b * lg
            tol = (
                lambda_bound(lh, h)
                + abs(a) * lambda_bound(lf, f)
                + abs(b) * lambda_bound(lg, g)
                + 2.0**-53 * 4**m * h_max
                + 2.0**-52 * (abs(a * lf) + abs(b * lg))
            )
            assert abs(lh - rhs) <= tol, (j, k)


def test_non_finite_samples_rejected():
    for bad in (float("nan"), float("inf"), 2.0**1000):
        f = SampledFunction(N=2, k_lo=0, values=(1.0, bad, 0.5))
        with pytest.raises(ValueError):
            analyze(f, 2)
        with pytest.raises(ValueError):
            lambda_coeff(f, 2, DyadicIndex(1, 0))


class TestSynthesize:
    def test_zero_expansion(self, basis2):
        exp = FaberExpansion(2, {-1: {}, 0: {}})
        assert np.all(synthesize(exp, basis2, np.linspace(0, 1, 11)) == 0.0)

    def test_order_mismatch(self, basis2):
        with pytest.raises(ValueError):
            synthesize(FaberExpansion(3, {}), basis2, np.array([0.0]))

    def test_interpolation_at_grid_points(self, basis2):
        # S_N f(k/2^N) = f(k/2^N), for smooth and jump data alike
        from fabersplines.families import gaussian_bump, jump_function

        for fam in (gaussian_bump(), jump_function()):
            for N in (3, 4):
                f = SampledFunction.from_callable(fam.f, N, *fam.support)
                exp = analyze(f, 2)
                ks = np.arange(f.k_lo, f.k_hi + 1)
                got = synthesize(exp, basis2, ks / 2.0**N)
                assert got == pytest.approx(np.asarray(f.values), abs=1e-8)

    @pytest.mark.parametrize("m", [2, 3])
    def test_reproduces_spline_space(self, m):
        basis = build_basis(m)
        rng = np.random.default_rng(11 + m)
        for trial in range(3):
            N = rng.integers(2, 5)
            f, (lo, hi) = random_spline(rng, m, N)
            fs = SampledFunction.from_callable(f, N, lo - 1, hi + 1)
            exp = analyze(fs, m)
            xs = np.linspace(lo - 0.5, hi + 0.5, 257)
            assert np.max(np.abs(synthesize(exp, basis, xs) - f(xs))) < 1e-8

    def test_agrees_with_spline_interpolant_everywhere(self, basis2):
        from fabersplines.families import gaussian_bump

        fam = gaussian_bump()
        f = SampledFunction.from_callable(fam.f, 4, *fam.support)
        exp = analyze(f, 2)
        rng = np.random.default_rng(12)
        xs = rng.uniform(-1.0, 5.0, 100)
        s_vals = synthesize(exp, basis2, xs)
        j_vals = spline_interpolate(f, 2, xs, basis2)
        assert np.max(np.abs(s_vals - j_vals)) < 2e-8

    @pytest.mark.parametrize(
        "levels",
        [{-1: {0: 1.0, 1000: 1.0}, 40: {0: 1.0}}, {-1: {0: 1.0, 1000: 1.0}, 39: {0: 1.0}, 40: {1000 * 2**40: 1.0}}],
        ids=["deep", "deep_and_far_apart"],
    )
    def test_deep_levels_stay_small_and_exact(self, basis2, levels):
        # refining level -1 to level 41 would take 2^41 coefficients per unit,
        # and joining levels 39 and 40 would span 1000 * 2^41 of them
        xs = np.linspace(-5.0, 1005.0, 2001)
        xs[1], xs[-2] = 1.5 * 2.0**-40, 1000 + 1.5 * 2.0**-40  # where the deep functions are not small
        tracemalloc.start()
        start = time.perf_counter()
        got = synthesize(FaberExpansion(2, levels), basis2, xs)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert elapsed < 1.0
        assert peak < 10 * 2**20
        b0, b = _dense(basis2.cardinal_table.coeffs)
        a0, a = _dense(basis2.dual_table.coeffs)
        ref = np.zeros_like(xs)
        for j, lev in levels.items():
            k0, c = _dense(lev)
            if j == -1:
                ref += term_by_term(bspline(4).as_float(), np.convolve(c, b), k0 + b0, xs + 2)
            else:
                deep = term_by_term(basis2.v.as_float(), np.convolve(c, a), k0 + a0, np.ldexp(xs, j))
                assert np.max(np.abs(deep)) > 0.01
                ref += deep
        assert np.max(np.abs(got - ref)) <= 1e-14 * max(1.0, np.max(np.abs(ref)))


def _both_syntheses(m, levels, xs):
    basis = build_basis(m)
    exp = FaberExpansion(m, levels)
    return synthesize(exp, basis, xs), wavelet_synthesize(exp, basis.dual_table, xs, basis.cardinal_table)


@pytest.mark.filterwarnings("ignore:overflow encountered in ldexp:RuntimeWarning")
@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("extra", [{1100: {0: 1.0}}, {10**6: {3: 2.0}}], ids=["level_1100", "level_1e6"])
def test_levels_past_the_float_range_add_exact_zeros(m, extra):
    # 2^j x leaves the float range at every x != 0 there, and the term reads 0
    xs = np.array([-1.0, 0.5, 3.0])
    levels = {-1: {0: 1.0, 2: -0.5}, 1: {1: 0.25, 3: 1.5}}
    for got, want in zip(_both_syntheses(m, {**levels, **extra}, xs), _both_syntheses(m, levels, xs)):
        assert np.all(np.isfinite(got))
        assert np.array_equal(got, want)


spline_coeffs = st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=12)


@settings(max_examples=40, deadline=None)
@given(m=st.sampled_from([2, 3, 5]), N=st.integers(1, 6), k=st.integers(-20, 20), coeffs=spline_coeffs)
def test_synthesis_reproduces_random_splines(m, N, k, coeffs):
    # f = sum_i c_i N_2m(2^N x - k - i) lies in the level-N spline space, so S_N f = f
    pp = bspline(2 * m).as_float()

    def f(x):
        return sum(c * pp.eval_array(np.ldexp(x, N) - k - i) for i, c in enumerate(coeffs))

    lo, hi = k / 2.0**N, (k + len(coeffs) + 2 * m) / 2.0**N
    basis = build_basis(m)
    exp = analyze(SampledFunction.from_callable(f, N, lo - 1, hi + 1), m)
    xs = np.linspace(lo - 0.5, hi + 0.5, 257)
    assert np.max(np.abs(synthesize(exp, basis, xs) - f(xs))) < 1e-8


sample_windows = st.builds(
    SampledFunction,
    N=st.integers(1, 4),
    k_lo=st.integers(-40, 40),
    values=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=48).map(tuple),
)


@settings(max_examples=60, deadline=None)
@given(f=sample_windows, m=st.sampled_from([2, 3]))
def test_round_trip_hits_samples_and_equals_interpolant(f, m):
    basis = build_basis(m)
    exp = analyze(f, m)
    ks = np.arange(f.k_lo, f.k_hi + 1)
    assert synthesize(exp, basis, ks / 2.0**f.N) == pytest.approx(np.asarray(f.values), abs=1e-8)
    xs = np.linspace(f.k_lo / 2.0**f.N - 2.0, f.k_hi / 2.0**f.N + 2.0, 97)
    assert np.max(np.abs(synthesize(exp, basis, xs) - spline_interpolate(f, m, xs, basis))) < 2e-8


class TestSplineInterpolate:
    def test_memory_is_linear_in_points(self):
        # the kernel keeps O(points) arrays per B-spline piece, not a (points x 2m) block
        basis = build_basis(5)
        rng = np.random.default_rng(15)
        f = SampledFunction(N=6, k_lo=-50, values=tuple(rng.uniform(-1, 1, 400)))
        xs = np.linspace(-1.0, 7.0, 200_000)
        tracemalloc.start()
        spline_interpolate(f, 5, xs, basis)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak <= 200 * xs.size

    def test_interpolates_samples(self, basis2):
        rng = np.random.default_rng(13)
        f = SampledFunction(N=3, k_lo=0, values=tuple(rng.uniform(-1, 1, 25)))
        ks = np.arange(f.k_lo, f.k_hi + 1)
        got = spline_interpolate(f, 2, ks / 8.0, basis2)
        assert got == pytest.approx(np.asarray(f.values), abs=1e-8)

    def test_reproduces_spline_space(self, basis2):
        rng = np.random.default_rng(14)
        f, (lo, hi) = random_spline(rng, 2, 3)
        fs = SampledFunction.from_callable(f, 3, lo - 1, hi + 1)
        xs = np.linspace(lo, hi, 301)
        assert np.max(np.abs(spline_interpolate(fs, 2, xs, basis2) - f(xs))) < 1e-8


class TestExpansionSerialization:
    def test_round_trip(self):
        exp = FaberExpansion(2, {-1: {0: 1.5}, 0: {-2: 0.25, 3: -1.0}})
        doc = exp.to_json_dict()
        assert doc["m"] == 2
        back = FaberExpansion.from_json_dict(doc)
        assert back.levels == exp.levels
