"""Sampling functionals, the operator S_N, and the spline interpolant."""

import math
import time
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fabersplines.basis import DyadicIndex, build_basis, eval_L, eval_s
from fabersplines import sampling
from fabersplines.dualcoeffs import MAX_ORDER, Coeffs
from fabersplines.families import get_family
from fabersplines.piecewise import OrderError, bspline, taylor_lift
from fabersplines.sampling import (
    Expansion,
    ResolutionError,
    SampledFunction,
    _float_taps,
    _integer_stencil,
    _split,
    _strided_samples,
    analyze,
    lambda_coeff,
    spline_interpolate,
    stencil_weights,
    synthesize,
)
from fabersplines.wavelets import wavelet
from fabersplines.wavetransform import wavelet_analyze, wavelet_synthesize
from series_oracle import exact_values, interpolant_series, synthesis_series

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
    pp = bspline(2 * m)

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

    def test_validation(self):
        with pytest.raises(ValueError):
            SampledFunction(N=-1, k_lo=0, values=(1.0,))
        with pytest.raises(ValueError):
            SampledFunction(N=0, k_lo=0, values=())
        # past the float64 dyadic lattice: level N = 1076, and window indices k_lo or k_hi at +-2^52
        for N, k_lo, size in [(1076, 0, 1), (2, -(2**52), 1), (2, 2**52 - 1, 2), (2, 2**52, 1), (2, -(2**60), 3)]:
            with pytest.raises(ValueError):
                SampledFunction(N=N, k_lo=k_lo, values=(1.0,) * size)

    def test_range_limits_themselves_build(self):
        assert SampledFunction(N=1075, k_lo=0, values=(1.0,)).N == 1075
        assert SampledFunction(N=2, k_lo=-(2**52) + 1, values=(1.0,)).k_lo == -(2**52) + 1
        assert SampledFunction(N=2, k_lo=2**52 - 2, values=(1.0, 2.0)).k_hi == 2**52 - 1

    def test_from_callable(self):
        f = SampledFunction.from_callable(lambda x: np.asarray(x) * 2, 1, 0.0, 1.5)
        assert f.k_lo == 0 and f.k_hi == 3
        assert f.values.tolist() == [0.0, 1.0, 2.0, 3.0]

    @pytest.mark.parametrize("N", [0, 1, 7, 30, 52, 200, 1000, 1023])
    def test_from_callable_points_as_before(self, N):
        # below level 1024 the window and the points are those of lo * 2**N and k / float(2**N)
        rng = np.random.default_rng(N)
        for lo in np.ldexp([-37.5, 0.0, 12.25, *rng.uniform(-1000.0, 1000.0, 4)], -N).tolist():
            hi = lo + 40.0 * 2.0**-N
            seen = []
            f = SampledFunction.from_callable(lambda x: seen.append(x) or np.ones_like(x), N, lo, hi)
            k_lo, k_hi = math.ceil(lo * 2**N), math.floor(hi * 2**N)
            assert (f.k_lo, f.k_hi) == (k_lo, k_hi)
            assert seen[0].tobytes() == (np.arange(k_lo, k_hi + 1) / float(2**N)).tobytes()

    @pytest.mark.parametrize(
        "f, shape",
        [(lambda x: np.ones(3), r"\(3,\)"), (lambda x: np.ones((x.size, 2)), r"\(33, 2\)"), (lambda x: 1.0, r"\(\)")],
        ids=["too_short", "two_columns", "scalar"],
    )
    def test_from_callable_refuses_an_output_of_another_shape(self, f, shape):
        # a flattened output of another size used to sample another window
        with pytest.raises(ValueError, match=rf"\(33,\).*{shape}"):
            SampledFunction.from_callable(f, 4, 0, 2)

    def test_from_callable_refuses_before_calling_f(self):
        # lo * 2**N and float(2**N) used to raise OverflowError at N >= 1024
        def never(x):
            raise AssertionError("called")

        with pytest.raises(ValueError, match="2\\^52"):
            SampledFunction.from_callable(never, 1030, 0.0, 1.0)
        with pytest.raises(ValueError, match="0..1075"):
            SampledFunction.from_callable(never, 1076, 0.0, 0.0)
        for lo in (-math.inf, math.nan):  # Fraction(-inf) raised OverflowError
            with pytest.raises(ValueError, match="finite"):
                SampledFunction.from_callable(never, 3, lo, 1.0)
        f = SampledFunction.from_callable(lambda x: np.ldexp(x, 1030), 1030, 0.0, 5 * 2.0**-1030)
        assert (f.k_lo, f.k_hi) == (0, 5) and f.values.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]


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

    def test_levels_hold_only_nonzero_lambda_in_read_only_int64_arrays(self):
        # a cubic is annihilated by the m = 2 stencil: every lambda whose stencil sits inside the window is
        # an exact zero, so each level keeps only the stencils that reach past an end of the window
        f = SampledFunction.from_callable(lambda x: x**3 - 2.0 * x, 6, -2.0, 2.0)
        exp = analyze(f, 2)
        for j in range(f.N):
            lev, ks = exp.levels[j], level_range(f, 2, j)
            assert 0 < len(lev) < len(ks)
            assert lev.ks.dtype == np.int64 and not lev.ks.flags.writeable and not lev.cs.flags.writeable
            assert lev.cs.dtype == np.float64 and np.all(lev.cs != 0.0)
            assert set(lev) < set(ks) and lev.ks[0] == ks[0] and lev.ks[-1] == ks[-1]
            zero = [k for k in ks if k not in lev]
            assert zero and all(exact_lambda(f, 2, j, k) == 0 for k in zero)
            assert all(v == float(exact_lambda(f, 2, j, k)) for k, v in lev.items())
            with pytest.raises(ValueError):
                lev.ks[0] = 0
            with pytest.raises(ValueError):
                lev.cs[0] = 0.0
        assert exp.levels[-1].ks.dtype == np.int64 and not exp.levels[-1].cs.flags.writeable

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
@given(f=scaled_windows, m=st.integers(2, MAX_ORDER))
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
    m=st.integers(2, MAX_ORDER),
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


def per_level_analyze(f, m):
    """``analyze`` as one Dot2 pass per level with Dekker's full TwoProduct on every tap."""
    denom, taps, _ = _integer_stencil(m)
    step0 = 2**f.N
    k_lo = -(-f.k_lo // step0)
    levels = {-1: Coeffs.nonzero(k_lo, _strided_samples(f, step0, k_lo, f.k_hi // step0))}
    span = 4 * m - 2
    for j in range(f.N):
        step = 2 ** (f.N - j - 1)
        k_min = -(-(f.k_lo - span * step) // (2 * step))
        k_max = f.k_hi // (2 * step)
        count = k_max - k_min + 1
        y = _strided_samples(f, step, 2 * k_min, 2 * k_max + span)
        y_hi, y_lo = _split(y)
        p, s = np.zeros(count), np.zeros(count)
        for o, w, w_hi, w_lo in taps:
            taken = slice(o, o + 2 * count - 1, 2)
            x_hi, x_lo = y_hi[taken], y_lo[taken]
            h = w * y[taken]
            r = w_lo * x_lo - (((h - w_hi * x_hi) - w_lo * x_hi) - w_hi * x_lo)
            t = p + h
            z = t - p
            s += ((p - (t - z)) + (h - z)) + r
            p = t
        levels[j] = Coeffs.nonzero(k_min, (p + s) / denom)
    return levels


def float_bits(levels):
    """Levels, keys in order and every value's exact bits."""
    return [(j, [(k, v.hex()) for k, v in lev.items()]) for j, lev in levels.items()]


wide_windows = st.builds(
    lambda N, k_lo, terms: SampledFunction(N=N, k_lo=k_lo, values=tuple(x * 10.0**e for x, e in terms)),
    N=st.integers(1, 9),
    k_lo=st.integers(-3000, 3000),
    terms=st.lists(st.tuples(st.floats(-1.0, 1.0), st.integers(-300, 200)), min_size=1, max_size=64),
)


@settings(max_examples=80, deadline=None)
@given(f=wide_windows, m=st.integers(2, 12))
@example(f=SampledFunction(N=1, k_lo=1, values=(4.04662498048734e-309,)), m=12)  # lambda_{0,-22} rounds to a zero
def test_one_pass_analyze_is_bit_identical_to_the_per_level_passes(f, m):
    exp = analyze(f, m)
    assert float_bits(exp.levels) == float_bits(per_level_analyze(f, m))
    for j in range(f.N):
        ks = level_range(f, m, j)
        for k in (ks[0], ks[len(ks) // 2], ks[-1]):
            # analyze keeps no zeros, so a zero lambda must be +0.0 as coeff reads it
            assert lambda_coeff(f, m, DyadicIndex(j, k)).hex() == exp.coeff(j, k).hex(), (j, k)


@pytest.mark.parametrize("block", [1, 2, 3, 7, 64])
@settings(max_examples=30, deadline=None)
@given(f=wide_windows, m=st.integers(2, MAX_ORDER))
def test_blocks_of_any_size_give_the_per_level_passes_bit_for_bit(block, f, m):
    # the windows are at most 64 samples, so only a small block puts junctions inside them
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sampling, "_BLOCK", block)
        assert float_bits(analyze(f, m).levels) == float_bits(per_level_analyze(f, m))


@pytest.mark.parametrize("m", [2, 5, 8, 12])
def test_a_window_of_several_blocks_gives_the_per_level_passes_bit_for_bit(m):
    rng = np.random.default_rng(26)
    n = 40_001
    f = SampledFunction(N=12, k_lo=-7, values=rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.integers(-300, 200, n))
    assert n // 2 > 2 * sampling._BLOCK  # level N - 1 alone fills more than two blocks
    assert float_bits(analyze(f, m).levels) == float_bits(per_level_analyze(f, m))


@pytest.mark.parametrize("block", [1, 7])
@pytest.mark.parametrize("at", [0, 20, 40])
def test_oversized_sample_in_any_block_rejected(block, at, monkeypatch):
    monkeypatch.setattr(sampling, "_BLOCK", block)
    values = [0.5] * 41
    values[at] = -(2.0 ** _integer_stencil(5)[2])
    with pytest.raises(ValueError, match="below"):
        analyze(SampledFunction(N=3, k_lo=-3, values=tuple(values)), 5)


@pytest.mark.parametrize("m", [2, 12])
def test_analyze_memory_is_a_few_times_the_samples(m):
    # the blocks keep O(_BLOCK + m) floats beside the laid-out samples (2x) and lambda (1x)
    f = SampledFunction.from_callable(get_family("gaussian").f, 16, -1, 9)
    tracemalloc.start()
    analyze(f, m)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak <= 4.5 * f.values.nbytes


@pytest.mark.parametrize("m", [2, 5, 12])
def test_oversized_sample_on_the_coarse_grid_rejected(m):
    # sample index 16 = 2^(N-1) lies on the level-0 grid, so the coarsest
    # stencil reads it as well as every finer one
    f = SampledFunction(N=5, k_lo=0, values=(0.5,) * 16 + (2.0 ** _integer_stencil(m)[2],) + (0.5,) * 16)
    with pytest.raises(ValueError):
        analyze(f, m)
    with pytest.raises(ValueError):
        lambda_coeff(f, m, DyadicIndex(0, 0))


def test_non_finite_samples_rejected():
    # the window refuses them, so no analysis or interpolation ever reads one
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="finite"):
            SampledFunction(N=2, k_lo=0, values=(1.0, bad, 0.5))
    # a finite sample too large for the stencil pass is the analysis's to refuse
    f = SampledFunction(N=2, k_lo=0, values=(1.0, 2.0**1000, 0.5))
    with pytest.raises(ValueError):
        analyze(f, 2)
    with pytest.raises(ValueError):
        lambda_coeff(f, 2, DyadicIndex(1, 0))
    with pytest.raises(ValueError):  # (-1, 0) reads only the sample at x = 0, but analyze reads them all
        lambda_coeff(SampledFunction(N=1, k_lo=-1, values=(1.0, 0.5, 2.0**1000)), 2, DyadicIndex(-1, 0))


@pytest.mark.parametrize("m", [0, 1, 13])
def test_unsupported_orders_rejected(m):
    f = SampledFunction(N=2, k_lo=0, values=(1.0, 0.5, 0.25))
    with pytest.raises(OrderError):
        analyze(f, m)
    for idx in (DyadicIndex(-1, 0), DyadicIndex(0, 0)):
        with pytest.raises(OrderError):
            lambda_coeff(f, m, idx)


class TestSynthesize:
    @pytest.mark.parametrize("shape", [(0,), (0, 3)])
    def test_empty_grid_gives_an_empty_array_of_its_shape(self, basis2, shape):
        xs = np.zeros(shape)
        f = SampledFunction(N=3, k_lo=0, values=(1.0, 2.0, 0.5, 0.0, -1.0, 0.25, 3.0, 1.0, 0.0))
        mu = wavelet_analyze(f, 2, 1, basis2)
        for got in (
            synthesize(analyze(f, 2), basis2, xs),
            spline_interpolate(f, 2, xs, basis2),
            wavelet_synthesize(mu, basis2.dual_table, xs, basis2.cardinal_table),
            eval_s(basis2, DyadicIndex(1, 0), xs),
        ):
            assert isinstance(got, np.ndarray) and got.shape == shape

    def test_zero_expansion(self, basis2):
        exp = Expansion(2, {-1: {}, 0: {}})
        assert np.all(synthesize(exp, basis2, np.linspace(0, 1, 11)) == 0.0)

    def test_order_mismatch(self, basis2):
        with pytest.raises(ValueError):
            synthesize(Expansion(3, {}), basis2, np.array([0.0]))

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
        got = synthesize(Expansion(2, levels), basis2, xs)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert elapsed < 1.0
        assert peak < 10 * 2**20
        b0, b = basis2.cardinal_table.window[0], basis2.cardinal_table.coeffs.cs
        a0, a = basis2.dual_table.window[0], basis2.dual_table.coeffs.cs
        ref = np.zeros_like(xs)
        for j, lev in levels.items():
            ((k0, c),) = Coeffs.of(lev).runs(math.inf)
            if j == -1:
                ref += term_by_term(bspline(4), np.convolve(c, b), k0 + b0, xs + 2)
            else:
                deep = term_by_term(taylor_lift(wavelet(2).psi, 2), np.convolve(c, a), k0 + a0, np.ldexp(xs, j))
                assert np.max(np.abs(deep)) > 0.01
                ref += deep
        assert np.max(np.abs(got - ref)) <= 1e-14 * max(1.0, np.max(np.abs(ref)))


def _both_syntheses(m, levels, xs):
    basis = build_basis(m)
    exp = Expansion(m, levels)
    return synthesize(exp, basis, xs), wavelet_synthesize(exp, basis.dual_table, xs, basis.cardinal_table)


@pytest.mark.parametrize("j", [-1, 0, 3])
def test_far_apart_keys_in_one_level_stay_small(j):
    # keys 0 and 10^15 in one level: a dense level would span 10^15 coefficients;
    # as two runs each key's series equals its one-key expansion bit for bit
    far = 10**15
    near_x = np.linspace(-3.0, 6.0, 1001)
    xs = np.concatenate([near_x, np.ldexp(float(far), -max(j, 0)) + near_x[:1000]])
    tracemalloc.start()
    start = time.perf_counter()
    got = _both_syntheses(2, {j: {0: 1.0, far: -2.0}}, xs)
    elapsed = time.perf_counter() - start
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert elapsed < 1.0
    assert peak < 2**20
    for both, near, apart in zip(got, _both_syntheses(2, {j: {0: 1.0}}, xs), _both_syntheses(2, {j: {far: -2.0}}, xs)):
        assert np.max(np.abs(near[:1001])) > 0.01 and np.max(np.abs(apart[1001:])) > 0.01
        assert np.array_equal(both, near + apart)


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("extra", [{1074: {0: 1.0}}, {1074: {-5: 1.0, 3: 2.0}}], ids=["level_1074", "level_1074_two_keys"])
def test_levels_past_the_float_range_add_exact_zeros(m, extra):
    # 2^j x leaves the float range at every test point x there, and the term reads 0
    xs = np.array([-1.0, 0.5, 3.0])
    levels = {-1: {0: 1.0, 2: -0.5}, 1: {1: 0.25, 3: 1.5}}
    for got, want in zip(_both_syntheses(m, {**levels, **extra}, xs), _both_syntheses(m, levels, xs)):
        assert np.all(np.isfinite(got))
        assert np.array_equal(got, want)


@pytest.mark.parametrize("levels", [{0: {0: 1.0}}, {1: {0: 1.0}}], ids=["T1_finite", "T2_overflows"])
def test_points_at_the_edge_of_the_float_range_warn_nothing(basis2, levels):
    # 2^T x is finite at T = 1 for |x| = 1.5 * 2^1022 and overflows at T = 2; an
    # overflowed point reads 0 and neither case warns
    xs = np.array([0.5, 1.5 * 2.0**1022, -1.5 * 2.0**1022])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = synthesize(Expansion(2, levels), basis2, xs)
    assert np.array_equal(got, [synthesize(Expansion(2, levels), basis2, xs[:1])[0], 0.0, 0.0])


def test_interpolant_past_the_float_range_reads_zero_without_warning(basis2):
    f = SampledFunction(N=8, k_lo=0, values=(1.0, 2.0, 0.5))
    xs = np.array([0.004, 1e308, -1e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = spline_interpolate(f, 2, xs, basis2)
    assert np.array_equal(got, [spline_interpolate(f, 2, xs[:1], basis2)[0], 0.0, 0.0])


def test_far_apart_runs_read_only_the_points_in_their_support(basis2, monkeypatch):
    # 1000 keys 30000 apart at level 10 are 1000 runs on a 20001-point grid;
    # each run's sum reads the few points it covers, not the whole grid
    calls = []

    def counted(order, h, c0, t):
        calls.append(t.size)
        return kernel(order, h, c0, t)

    kernel = sampling.shift_sum
    monkeypatch.setattr(sampling, "shift_sum", counted)
    keys = 30000 * np.arange(1000)
    coeffs = {int(k): 1.0 + i % 7 for i, k in enumerate(keys)}
    xs = np.linspace(0.0, 29300.0, 20001)
    got = synthesize(Expansion(2, {10: coeffs}), basis2, xs)
    a0, a = basis2.dual_table.window[0], basis2.dual_table.coeffs.cs
    v = taylor_lift(wavelet(2).psi, 2)
    # s_{10,k} lives on [(k + a0) / 2^10, (k + a0 + len(a) + 2) / 2^10]
    lo = np.searchsorted(xs, (keys + a0) / 1024.0)
    hi = np.searchsorted(xs, (keys + a0 + len(a) + 2) / 1024.0, side="right")
    near = np.zeros(xs.size, dtype=bool)
    for k, i, i_end in zip(keys, lo, hi):
        if i < i_end:
            near[i:i_end] = True
            want = term_by_term(v, coeffs[k] * a, k + a0, np.ldexp(xs[i:i_end], 10))
            assert np.max(np.abs(got[i:i_end] - want)) <= 1e-14 * max(1.0, np.max(np.abs(want)))
    assert np.count_nonzero(got[near]) > 10
    assert not np.any(got[~near])
    assert 0 < sum(calls) <= np.count_nonzero(near)


@pytest.mark.parametrize("m", [2, 5, 9, 12])
@pytest.mark.parametrize("name", ["jump", "bump"])
def test_sn_and_jn_round_only_their_terms(name, m):
    # each level summed exactly at its own level, from the same float lambda, tables
    # and taps: what is left is rounding, bounded by the size of the terms at each
    # point (``series_oracle``); it reads at most about 1 eps of that size
    fam = get_family(name)
    lo, hi = fam.support
    f = SampledFunction.from_callable(fam.f, 8, lo, hi)
    basis = build_basis(m)
    exp = analyze(f, m)
    rng = np.random.default_rng(m)
    # 52 points at random, and 12 just below 2^p / 2^8, where 2^8 x + m crosses a power of two
    below = np.repeat(2.0 ** np.arange(6, 12), 2) - rng.uniform(0, m, 12)
    xs = np.sort(np.concatenate([rng.uniform(lo - 1.0, hi + 1.0, 52), np.ldexp(below, -8)]))
    for got, series in (
        (synthesize(exp, basis, xs), synthesis_series(exp, basis, _float_taps(m)[4])),
        (spline_interpolate(f, m, xs, basis), [interpolant_series(f, basis)]),
    ):
        exact, size = exact_values(series, xs)
        err = np.array([float(abs(Fraction(g) - e)) for g, e in zip(got.tolist(), exact)])
        assert np.all(err <= 8 * 2.0**-52 * size)
    assert np.max(size) > 0.1


@pytest.mark.parametrize("m", [2, 3, 5])
@pytest.mark.parametrize("N", [8, 9])
@pytest.mark.parametrize("name", ["jump", "bump", "gaussian"])
def test_a_dense_grid_takes_one_shift_sum_pass(name, N, m, monkeypatch):
    # every level refines to the finest one and the grid is read once, as in the
    # benchmark's S_N requests: 4 * 2^N points over the support widened by 1
    calls = []

    def counted(order, h, c0, t):
        calls.append(t.size)
        return kernel(order, h, c0, t)

    kernel = sampling.shift_sum
    monkeypatch.setattr(sampling, "shift_sum", counted)
    fam = get_family(name)
    lo, hi = fam.support
    f = SampledFunction.from_callable(fam.f, N, lo, hi)
    xs = np.linspace(lo - 1.0, hi + 1.0, 4 * 2**N)
    synthesize(analyze(f, m), build_basis(m), xs)
    assert calls == [xs.size]


spline_coeffs = st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=12)


@settings(max_examples=40, deadline=None)
@given(m=st.integers(2, MAX_ORDER), N=st.integers(1, 6), k=st.integers(-20, 20), coeffs=spline_coeffs)
def test_synthesis_reproduces_random_splines(m, N, k, coeffs):
    # f = sum_i c_i N_2m(2^N x - k - i) lies in the level-N spline space, so S_N f = f
    pp = bspline(2 * m)

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
@given(f=sample_windows, m=st.integers(2, MAX_ORDER))
def test_round_trip_hits_samples_and_equals_interpolant(f, m):
    basis = build_basis(m)
    exp = analyze(f, m)
    ks = np.arange(f.k_lo, f.k_hi + 1)
    assert synthesize(exp, basis, ks / 2.0**f.N) == pytest.approx(np.asarray(f.values), abs=1e-8)
    xs = np.linspace(f.k_lo / 2.0**f.N - 2.0, f.k_hi / 2.0**f.N + 2.0, 97)
    assert np.max(np.abs(synthesize(exp, basis, xs) - spline_interpolate(f, m, xs, basis))) < 2e-8


class TestSplineInterpolate:
    def test_memory_is_linear_in_points(self):
        # the kernel keeps a few O(points) arrays and (2m x 2048) blocks, not a (points x 2m) array
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

    @pytest.mark.parametrize("family", ["bump", "jump"])
    @pytest.mark.parametrize("m", range(2, MAX_ORDER + 1))
    def test_interpolation_and_s_n_equals_j_n_at_every_order(self, m, family):
        # S_N meets the samples and J_N everywhere, to the size of the dual tables' truncation
        basis = build_basis(m)
        T = max(basis.dual_table.truncation_bound, basis.cardinal_table.truncation_bound)
        fam = get_family(family)
        f = SampledFunction.from_callable(fam.f, 8, *fam.support)
        scale = float(np.max(np.abs(f.values)))
        exp = analyze(f, m)
        ks = np.arange(f.k_lo, f.k_hi + 1)
        assert np.max(np.abs(synthesize(exp, basis, np.ldexp(ks, -8)) - f.values)) <= T * scale
        lo, hi = fam.support
        xs = np.linspace(lo - 1.0, hi + 1.0, 4001)
        assert np.max(np.abs(synthesize(exp, basis, xs) - spline_interpolate(f, m, xs, basis))) <= T * scale

    @pytest.mark.parametrize("m", range(2, MAX_ORDER + 1))
    def test_s_n_reproduces_splines_at_every_order(self, m):
        # S_N f = f on the level-N order-2m splines, to the size of the dual tables' truncation
        basis = build_basis(m)
        T = max(basis.dual_table.truncation_bound, basis.cardinal_table.truncation_bound)
        rng = np.random.default_rng(m)
        for _ in range(3):
            N = int(rng.integers(2, 5))
            f, (lo, hi) = random_spline(rng, m, N)
            fs = SampledFunction.from_callable(f, N, lo - 1.0, hi + 1.0)
            xs = np.linspace(lo - 0.5, hi + 0.5, 401)
            err = np.max(np.abs(synthesize(analyze(fs, m), basis, xs) - f(xs)))
            assert err <= T * float(np.max(np.abs(fs.values))), N

    def test_basis_of_another_order_rejected(self, basis2):
        f = SampledFunction(N=3, k_lo=0, values=tuple(np.linspace(0.0, 1.0, 17)))
        with pytest.raises(ValueError, match="order"):
            spline_interpolate(f, 3, np.linspace(0.0, 2.0, 9), basis2)


class TestExpansionSerialization:
    def test_round_trip(self):
        exp = Expansion(2, {-1: {0: 1.5}, 0: {-2: 0.25, 3: -1.0}})
        doc = exp.to_json_dict()
        assert doc["m"] == 2
        back = Expansion.from_json_dict(doc)
        assert back.levels == exp.levels
