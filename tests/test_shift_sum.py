"""The shift-sum kernel against a plain term-by-term sum."""

import numpy as np
import pytest

from fabersplines.basis import DyadicIndex, build_basis, eval_L, eval_s
from fabersplines.piecewise import bspline, shift_sum
from fabersplines.wavelets import wavelet

PIECES = {
    "N_2m": lambda m: bspline(2 * m),
    "v": lambda m: build_basis(m).v,
    "psi": lambda m: wavelet(m).psi,
    "N_m": lambda m: bspline(m),
}


def term_by_term(pp, h, c0, t):
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    for i, hc in enumerate(h):
        out += hc * pp.eval_array(t - c0 - i)
    return out


def assert_close(got, ref):
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref), initial=0.0) <= 1e-14 * max(1.0, float(np.max(np.abs(ref), initial=0.0)))


@pytest.mark.parametrize("m", [2, 3, 5])
@pytest.mark.parametrize("piece", sorted(PIECES))
def test_matches_term_by_term(m, piece):
    pp = PIECES[piece](m).as_float()
    rng = np.random.default_rng(m)
    h = rng.uniform(-1.0, 1.0, 17)
    c0 = -4
    knots = np.arange(-30.0, 40.0, 0.5)  # integer and half-integer knots, both sides of the support
    t = np.concatenate([knots, rng.uniform(-30.0, 40.0, 200)])
    got = shift_sum(pp, h, c0, t)
    ref = term_by_term(pp, h, c0, t)
    assert_close(got, ref)
    outside = (t < c0) | (t >= c0 + len(h) + 2 * m)
    assert np.all(got[outside] == 0.0)


def test_empty_series_is_zero():
    assert np.all(shift_sum(bspline(4).as_float(), [], 3, np.linspace(-2, 9, 23)) == 0.0)


@pytest.mark.parametrize("pp", [bspline(2).translate(1), wavelet(2).psi.compose_dyadic(2, 0)], ids=["shifted", "half_width"])
def test_rejects_support_not_zero_to_integer(pp):
    with pytest.raises(ValueError):
        shift_sum(pp.as_float(), [1.0], 0, np.zeros(3))


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
