"""Sampling analysis and synthesis on dyadic grids: the operator S_N.

A compactly supported function enters as a finite window of samples on
2^-N Z.  Analysis produces the level -1 coefficients f(k) plus, for
0 <= j <= N-1, the finite-difference functionals

    lambda_{j,k}(f) = sum_{l=0}^{2m-2} (-1)^l N_{2m}(l+1)
                      * Delta_{2^{-j-1}}^{2m} f((2k + l) / 2^{j+1}),

a fixed stencil of at most (2m-1)(2m+1) samples at level j+1 (collapsed
here to 4m-1 combined weights).  Synthesis evaluates

    S_N f = sum_k f(k) L(. - k) + sum_{j<N} sum_k lambda_{j,k}(f) s_{j,k},

which interpolates f at every point of 2^-N Z and reproduces splines of
order 2m at level N exactly; it coincides with the fundamental spline
interpolant J_N of the same samples.  Samples outside the window are
treated as exact zeros (compact support is a standing assumption).

Accuracy contract of lambda.  The weights are integers over one common
denominator, W_o = I_o / D with D = (2m-1)!, so each level is a single
array pass: the level's samples are read with stride 2^{N-j-1}, and the
4m-1 products I_o x are accumulated with the compensated dot product Dot2
of Ogita, Rump and Oishi ("Accurate sum and dot product", SIAM J. Sci.
Comput. 26, 2005): Dekker's error-free TwoProduct on pre-split halves and
Knuth's TwoSum, followed by one division by D.  Every returned lambda
differs from the exact rational stencil sum S = sum_o W_o v_o of the
float samples v by at most 2^-51 |S| + 1e-20 max(1, max|v|), and
``lambda_coeff`` returns bit for bit the value ``analyze`` produces.  Samples must be
finite and small enough that no step of the pass can overflow:
|v| < 2^(990 - bits(D 4^m)), which is 2^961 at m = 5 and 2^891 at
m = 12 (sum_o |W_o| = 4^m); anything else raises ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .basis import DyadicIndex, FaberBasisSpec, _dense
from .piecewise import InvariantError, bspline, shift_sum
from .wavelets import two_scale_taps

__all__ = [
    "ResolutionError",
    "SampledFunction",
    "Expansion",
    "FaberExpansion",
    "stencil_weights",
    "lambda_coeff",
    "analyze",
    "synthesize",
    "spline_interpolate",
]


class ResolutionError(ValueError):
    """Coefficient level requires samples finer than the provided grid."""


@dataclass(frozen=True)
class SampledFunction:
    """Window of values of a compactly supported function on 2^-N Z.

    ``values[i]`` is f(2^-N (k_lo + i)); the function is assumed to vanish
    outside [2^-N k_lo, 2^-N k_hi].
    """

    N: int
    k_lo: int
    values: tuple

    def __post_init__(self):
        if self.N < 0:
            raise ValueError("resolution level must be >= 0")
        if len(self.values) == 0:
            raise ValueError("sample window must be nonempty")

    @property
    def k_hi(self) -> int:
        return self.k_lo + len(self.values) - 1

    @property
    def spacing(self) -> Fraction:
        return Fraction(1, 2**self.N)

    def value_at(self, k: int) -> float:
        if self.k_lo <= k <= self.k_hi:
            return self.values[k - self.k_lo]
        return 0.0

    @classmethod
    def from_callable(cls, f, N: int, lo, hi) -> "SampledFunction":
        """Sample f on the level-N grid covering [lo, hi]."""
        k_lo = math.ceil(lo * 2**N)
        k_hi = math.floor(hi * 2**N)
        ks = np.arange(k_lo, k_hi + 1)
        vals = np.asarray(f(ks / float(2**N)), dtype=float)
        return cls(N=N, k_lo=k_lo, values=tuple(vals.tolist()))


MAX_LEVEL = 1074  # 2^-j is the smallest positive float64 at j = 1074 and 0.0 past it


@dataclass(frozen=True)
class Expansion:
    """Level-indexed sparse coefficient map {j: {k: c_{j,k}}}, j from -1 up.

    Holds either the sampling coefficients lambda of S_N or the
    biorthogonal coefficients mu; which one travels only as the ``"kind"``
    key of the CLI's JSON files.
    """

    m: int
    levels: dict = field(repr=False)

    @property
    def max_level(self) -> int:
        return max(self.levels, default=-1)

    def coeff(self, j: int, k: int) -> float:
        return self.levels.get(j, {}).get(k, 0.0)

    def scaled(self, factor: float) -> "Expansion":
        return Expansion(self.m, {j: {k: factor * v for k, v in lev.items()} for j, lev in self.levels.items()})

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "levels": [
                {"j": j, "coeffs": {str(k): v for k, v in sorted(lev.items())}}
                for j, lev in sorted(self.levels.items())
            ],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "Expansion":
        levels = {int(entry["j"]): {int(k): float(v) for k, v in entry["coeffs"].items()} for entry in doc["levels"]}
        return cls(m=int(doc["m"]), levels=levels)


FaberExpansion = Expansion


@lru_cache(maxsize=None)
def stencil_weights(m: int) -> tuple:
    """Combined sample weights W_0..W_{4m-2} of the level-j functional.

    W_o = (-1)^o sum_l N_{2m}(l+1) C(2m, o-l); the lambda functional reads
    sum_o W_o f((2k+o)/2^{j+1}).  Exact rationals; they sum to zero, so
    constants (indeed all polynomials of degree < 2m) are annihilated.
    """
    n2m = bspline(2 * m)
    weights = []
    for o in range(4 * m - 1):
        acc = Fraction(0)
        for l in range(max(0, o - 2 * m), min(2 * m - 2, o) + 1):
            acc += n2m(l + 1) * math.comb(2 * m, o - l)
        weights.append((-1) ** o * acc)
    if sum(weights) != 0:
        raise InvariantError(f"order-{m} stencil weights sum to {sum(weights)}, not 0")
    return tuple(weights)


_SPLITTER = 134217729.0  # Veltkamp's 2^27 + 1 for float64


def _split(a):
    """Dekker split a = hi + lo, exact, each half with at most 26 significant bits."""
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


@lru_cache(maxsize=None)
def _integer_stencil(m: int) -> tuple:
    """The stencil as integers over one denominator: (float(D), taps, max_exp).

    D is the common denominator of the W_o, which is (2m-1)!.  Each tap
    (o, w, w_hi, w_lo) is an exact float piece w of I_o = D W_o with its
    Dekker halves; I_o that need more than 53 bits (m >= 8) take several
    pieces.  Samples below 2^max_exp keep every product, partial sum and
    split at least 2^30 below overflow.
    """
    weights = stencil_weights(m)
    denom = math.lcm(*(w.denominator for w in weights))
    taps = []
    for o, w in enumerate(weights):
        rest = int(w * denom)
        while rest:
            piece = float(rest)
            rest -= int(piece)
            taps.append((o, piece, *_split(piece)))
    max_exp = 990 - (denom * sum(abs(w) for w in weights)).numerator.bit_length()
    return float(denom), tuple(taps), max_exp


def _stencil_pass(y: np.ndarray, m: int, count: int) -> np.ndarray:
    """lambda_i = sum_o W_o y[2i + o] for 0 <= i < count, in one compensated pass.

    Dot2 over the taps: p + s carries sum_o I_o y[2i + o] with the error
    of every product (TwoProduct) and every addition (TwoSum) collected in
    s, so the sum is as accurate as if computed in twice the working
    precision and then rounded once.
    """
    denom, taps, max_exp = _integer_stencil(m)
    if not np.all(np.abs(y) < 2.0**max_exp):
        raise ValueError(f"samples must be finite and below 2^{max_exp} in magnitude at m = {m}, got {np.max(np.abs(y))}")
    y_hi, y_lo = _split(y)
    p = np.zeros(count)
    s = np.zeros(count)
    for o, w, w_hi, w_lo in taps:
        taken = slice(o, o + 2 * count - 1, 2)
        x_hi, x_lo = y_hi[taken], y_lo[taken]
        h = w * y[taken]
        r = w_lo * x_lo - (((h - w_hi * x_hi) - w_lo * x_hi) - w_hi * x_lo)
        t = p + h
        z = t - p
        s += ((p - (t - z)) + (h - z)) + r
        p = t
    return (p + s) / denom


def _strided_samples(f: SampledFunction, step: int, i_lo: int, i_hi: int) -> np.ndarray:
    """f at the grid indices i * step for i_lo <= i <= i_hi, zero outside the window."""
    y = np.zeros(i_hi - i_lo + 1)
    a = max(i_lo, -(-f.k_lo // step))
    b = min(i_hi, f.k_hi // step)
    if a <= b:
        y[a - i_lo : b - i_lo + 1] = f.values[a * step - f.k_lo : b * step - f.k_lo + 1 : step]
    return y


def lambda_coeff(f: SampledFunction, m: int, idx: DyadicIndex) -> float:
    """Sampling coefficient lambda_{j,k}(f); level -1 reads f at the integers."""
    if idx.j == -1:
        step = 2**f.N
        return f.value_at(idx.k * step)
    if idx.j > f.N - 1:
        raise ResolutionError(
            f"level {idx.j} stencil needs grid 2^-{idx.j + 1}, samples are at 2^-{f.N}"
        )
    y = _strided_samples(f, 2 ** (f.N - idx.j - 1), 2 * idx.k, 2 * idx.k + 4 * m - 2)
    return float(_stencil_pass(y, m, 1)[0])


def _nonzero(k0: int, vals: np.ndarray) -> dict:
    """{k0 + i: vals[i]} over the nonzero entries, as Python ints and floats."""
    (nz,) = np.nonzero(vals)
    return dict(zip((nz + k0).tolist(), vals[nz].tolist()))


def analyze(f: SampledFunction, m: int) -> Expansion:
    """All sampling coefficients of S_N for levels -1 .. N-1.

    Level j covers every k whose stencil touches the window; each level is
    one ``_stencil_pass`` over its strided, zero-padded samples.
    """
    if f.N < 1:
        raise ResolutionError("analysis needs resolution N >= 1")
    step0 = 2**f.N
    k_lo = -(-f.k_lo // step0)
    levels = {-1: _nonzero(k_lo, _strided_samples(f, step0, k_lo, f.k_hi // step0))}
    span = 4 * m - 2
    for j in range(f.N):
        step = 2 ** (f.N - j - 1)
        k_min = -(-(f.k_lo - span * step) // (2 * step))
        k_max = f.k_hi // (2 * step)
        y = _strided_samples(f, step, 2 * k_min, 2 * k_max + span)
        levels[j] = _nonzero(k_min, _stencil_pass(y, m, k_max - k_min + 1))
    return Expansion(m=m, levels=levels)


@lru_cache(maxsize=None)
def _float_taps(m: int) -> tuple:
    """``two_scale_taps(m)`` rounded to float arrays once."""
    return tuple(np.array(taps, dtype=float) for taps in two_scale_taps(m))


def _upsample_filter(h: np.ndarray, taps) -> np.ndarray:
    """g with sum_i g_i N(2y - i) = sum_c h_c P(y - c), for P = sum_l taps_l N(2y - l)."""
    up = np.zeros(2 * len(h) - 1)
    up[::2] = h
    return np.convolve(up, taps)


def _two_scale_series(levels: dict, xs, refine, coarse, fine) -> np.ndarray:
    """Sum over the levels j of their shift series on a grid, as one series of a B-spline N.

    A level's coefficients convolved with its table are coefficients of
    N(x - i) at j = -1 (``coarse`` = (n0, table, shift)), and of P(2^j x - c),
    P = sum_l taps_l N(2x - l), so of N(2^(j+1) x - i), at j >= 0 (``fine`` =
    (n0, table, taps)).  Their running sum is refined with N = sum_l refine_l
    N(2x - l), kept where its support meets [min xs, max xs], and summed by
    ``shift_sum`` at the end, or early when refining or joining it would make
    it longer than xs has points: memory is O(points + coefficients).  Where
    2^T x is infinite (a level past the float range) the series reads 0.
    """
    order = len(refine) - 1
    xs = np.asarray(xs, dtype=float)
    out = np.zeros_like(xs)
    if not xs.size:
        return out
    lo, hi = float(xs.min()), float(xs.max())

    def meets(T, a, b):
        try:  # no cut where 2^T x leaves the float range, or at a NaN point
            a = max(a, math.floor(math.ldexp(lo, T)) - order)
            b = min(b, math.floor(math.ldexp(hi, T)) + 1)
        except (OverflowError, ValueError):
            pass
        return a, max(a, b)

    T, i0, g = 0, 0, np.zeros(0)
    for j in sorted(j for j in levels if levels[j]):
        k0, c = _dense(levels[j])
        n0, table, last = coarse if j == -1 else fine
        h = np.convolve(c, table)
        L, s, h = (0, k0 + n0 - last, h) if j == -1 else (j + 1, 2 * (k0 + n0), _upsample_filter(h, last))
        a, b = meets(L, s, s + len(h))
        s, h = a, h[a - s : b - s]
        if not len(h):
            continue
        while len(g) and T < L:
            a, b = meets(T + 1, 2 * i0, 2 * i0 + 2 * len(g) - 1 + order)
            if b - a > xs.size:
                break
            i0, g, T = a, _upsample_filter(g, refine)[a - 2 * i0 : b - 2 * i0], T + 1
        if len(g) and (T < L or max(i0 + len(g), s + len(h)) - min(i0, s) > max(xs.size, len(h))):
            out += shift_sum(order, g, i0, np.ldexp(xs, T))
            g = g[:0]
        i0 = i0 if len(g) else s
        a, b = min(i0, s), max(i0 + len(g), s + len(h))
        acc = np.zeros(b - a)
        acc[i0 - a : i0 - a + len(g)] = g
        acc[s - a : s - a + len(h)] += h
        T, i0, g = L, a, acc
    if len(g):
        out += shift_sum(order, g, i0, np.ldexp(xs, T))
    return out


def synthesize(exp: Expansion, basis: FaberBasisSpec, xs) -> np.ndarray:
    """Evaluate S_N f on a grid of points.

    Each level is folded into one shift series: the coefficient sequence
    is convolved with the dual table into h, and the level contributes
    sum_c h_c v(2^j x - c) (the cardinal level sum_c h_c N_{2m}(x + m - c)).
    With v = sum_l w_l N_{2m}(2x - l) every level becomes N_{2m}
    coefficients, summed at the finest level by ``_two_scale_series``.
    """
    if basis.m != exp.m:
        raise ValueError("basis order does not match expansion order")
    _, _, _, r, w = _float_taps(basis.m)
    a0, a_arr = _dense(basis.dual_table.coeffs)
    coarse = (*_dense(basis.cardinal_table.coeffs), basis.m)
    return _two_scale_series(exp.levels, xs, r, coarse, (a0, basis.pairing_sign * a_arr, w))


def _interp_coeffs(f: SampledFunction, basis: FaberBasisSpec):
    """(c0, h) with J_N f = sum_i h[i] N_{2m}(2^N x + m - c0 - i); non-finite samples raise ValueError."""
    values = np.asarray(f.values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise ValueError("samples must be finite")
    b0, b_arr = _dense(basis.cardinal_table.coeffs)
    return f.k_lo + b0, np.convolve(values, b_arr)


def spline_interpolate(f: SampledFunction, m: int, xs, basis: FaberBasisSpec = None) -> np.ndarray:
    """Fundamental spline interpolant J_N f on a grid.

    J_N f(x) = sum_n f(2^-N n) L(2^N x - n), folded like the cardinal level
    of synthesize into one series sum_c h_c N_{2m}(2^N x + m - c) with h
    the samples convolved with the dual scaling table, summed by
    ``shift_sum`` over the 2m pieces of N_{2m}.  Interpolates the samples
    and reproduces order-2m splines of level N.  Non-finite samples raise
    ValueError.
    """
    from .basis import build_basis

    if basis is None:
        basis = build_basis(m)
    c0, h = _interp_coeffs(f, basis)
    return shift_sum(2 * basis.m, h, c0, np.ldexp(np.asarray(xs, dtype=float), f.N) + basis.m)
