"""The shift-sum kernel against plain term-by-term sums."""

import numpy as np
import pytest

from fabersplines.basis import DyadicIndex, build_basis, eval_L, eval_s
from fabersplines.piecewise import bspline, shift_sum
from fabersplines.wavelets import two_scale_taps, wavelet

# name -> (P, order, taps) with P(x) = sum_l taps[l] N_order(2x - l); B-splines enter
# unrefined, the wavelet and its lift through their two-scale coefficients
PIECES = {
    "N_2m": lambda m: (bspline(2 * m), 2 * m, None),
    "N_m": lambda m: (bspline(m), m, None),
    "v": lambda m: (build_basis(m).v, 2 * m, two_scale_taps(m)[4]),
    "psi": lambda m: (wavelet(m).psi, m, two_scale_taps(m)[2]),
}


def term_by_term(pp, h, c0, t):
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    for i, hc in enumerate(h):
        out += hc * pp.eval_array(t - (c0 + i))
    return out


def assert_close(got, ref):
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref), initial=0.0) <= 1e-14 * max(1.0, float(np.max(np.abs(ref), initial=0.0)))


@pytest.mark.parametrize("m", [2, 3, 5])
@pytest.mark.parametrize("piece", sorted(PIECES))
def test_matches_term_by_term(m, piece):
    pp, order, taps = PIECES[piece](m)
    pp = pp.as_float()
    rng = np.random.default_rng(m)
    h = rng.uniform(-1.0, 1.0, 17)
    c0 = -4
    knots = np.arange(-30.0, 40.0, 0.5)  # integer and half-integer knots, both sides of the support
    t = np.concatenate([knots, rng.uniform(-30.0, 40.0, 200)])
    if taps is None:
        got = shift_sum(order, h, c0, t)
    else:  # sum_i h_i P(t - c0 - i) = sum_i g_i N(2t - 2c0 - i), g = (h upsampled by 2) * taps
        up = np.zeros(2 * len(h) - 1)
        up[::2] = h
        got = shift_sum(order, np.convolve(up, [float(x) for x in taps]), 2 * c0, 2 * t)
    ref = term_by_term(pp, h, c0, t)
    assert_close(got, ref)
    outside = (t < c0) | (t >= c0 + len(h) + float(pp.support[1]))
    assert np.all(got[outside] == 0.0)


def test_empty_series_is_zero():
    assert np.all(shift_sum(4, [], 3, np.linspace(-2, 9, 23)) == 0.0)


@pytest.mark.parametrize("order", [1, 4, 10])
def test_non_finite_points_read_zero(order):
    t = np.array([-np.inf, np.nan, np.inf, 0.5, 2.5])
    with np.errstate(all="raise"):
        got = shift_sum(order, np.ones(2 * order), -order, t)
    assert np.array_equal(got[:3], np.zeros(3))
    assert_close(got[3:], term_by_term(bspline(order).as_float(), np.ones(2 * order), -order, t[3:]))


@pytest.mark.parametrize("m", [2, 3, 5])
def test_eval_L_shapes(m):
    spec = build_basis(m)
    n2m = bspline(2 * m).as_float()
    items = spec.cardinal_table.items()
    n0 = items[0][0]
    b = [v for _, v in items]
    grid = np.arange(-12.0, 12.0, 0.25).reshape(8, 12)
    assert_close(eval_L(spec, grid), term_by_term(n2m, b, n0, grid + m))
    scalar = eval_L(spec, 0.5)
    assert isinstance(scalar, float)
    assert_close(np.asarray(scalar), term_by_term(n2m, b, n0, np.asarray(0.5 + m)))
    assert isinstance(eval_L(spec, np.float64(1.0)), float)


@pytest.mark.parametrize("m", [2, 3, 5])
@pytest.mark.parametrize("j, k", [(0, 0), (2, -3)])
def test_eval_s_shapes(m, j, k):
    spec = build_basis(m)
    v = spec.v.as_float()
    items = spec.dual_table.items()
    n0 = items[0][0]
    a = [spec.pairing_sign * val for _, val in items]
    grid = np.arange(-6.0, 6.0, 0.125).reshape(4, 3, 8)
    ref = term_by_term(v, a, n0, np.ldexp(grid, j) - k)
    assert_close(eval_s(spec, DyadicIndex(j, k), grid), ref)
    x = 0.375
    scalar = eval_s(spec, DyadicIndex(j, k), x)
    assert isinstance(scalar, float)
    assert_close(np.asarray(scalar), term_by_term(v, a, n0, np.asarray(np.ldexp(x, j) - k)))
