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
denominator, W_o = I_o / D with D = (2m-1)!, so all levels take a single
pass: each level's samples are read with stride 2^{N-j-1} into one
block, the blocks are laid end to end in one buffer, and the 4m-1
products I_o x are accumulated with the compensated dot product Dot2 of
Ogita, Rump and Oishi ("Accurate sum and dot product", SIAM J. Sci.
Comput. 26, 2005): Dekker's error-free TwoProduct on split halves and
Knuth's TwoSum, followed by one division by D.  The pass runs in blocks
of B = _BLOCK outputs that stay in cache, so analysis holds
O(samples + B m) floats, and each lambda takes the same operations as a
pass over its level alone would.  Every returned lambda differs from the
exact rational stencil sum S = sum_o W_o v_o of the float samples v by at
most 2^-51 |S| + 1e-20 max(1, max|v|); ``lambda_coeff`` reads its value
off ``analyze``.  Samples must be small enough that no step of the pass
can overflow: |v| < 2^(990 - bits(D 4^m)), which is 2^961 at m = 5 and
2^891 at m = 12 (sum_o |W_o| = 4^m); anything else raises ValueError.

Range contract.  The dyadic lattice of float64 ends at level
MAX_LEVEL = 1074, where 2^-j is the last positive float, and at shift
|k| < SHIFT_BOUND = 2^52, below which k - 1/2, k and k + 1 are exact
floats.  ``SampledFunction`` and ``Expansion`` refuse with ValueError,
at construction, whatever lies past it: non-finite samples, a sample
level N > MAX_LEVEL + 1 (analysis would write level N - 1), a window
index |k| >= 2^52, a coefficient level j > MAX_LEVEL and a shift
|k| >= 2^52.  No other layer checks these rules again.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .basis import DyadicIndex, FaberBasisSpec, build_basis
from .dualcoeffs import Coeffs, require_supported_order
from .piecewise import InvariantError, cardinal_values, shift_sum
from .wavelets import two_scale_taps

__all__ = [
    "ResolutionError",
    "SampledFunction",
    "Expansion",
    "stencil_weights",
    "lambda_coeff",
    "analyze",
    "synthesize",
    "spline_interpolate",
]


class ResolutionError(ValueError):
    """Coefficient level requires samples finer than the provided grid."""


MAX_LEVEL = 1074  # 2^-j is the smallest positive float64 at j = 1074 and 0.0 past it
SHIFT_BOUND = 2**52  # below it the interval endpoints k - 1/2, k, k + 1 (times 2^-j) are exact floats


@dataclass(frozen=True, eq=False)
class SampledFunction:
    """Window of values of a compactly supported function on 2^-N Z.

    ``values[i]`` is f(2^-N (k_lo + i)); the function is assumed to vanish
    outside [2^-N k_lo, 2^-N k_hi].  Any sequence of numbers is held as a
    read-only float64 array; windows are equal when N, k_lo and values are.
    An empty window, a non-finite value, N outside 0..MAX_LEVEL + 1 and an
    index |k| >= SHIFT_BOUND raise ValueError.
    """

    N: int
    k_lo: int
    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        if values.ndim != 1 or not values.size:
            raise ValueError("sample window must be a nonempty sequence of numbers")
        if not np.isfinite(values).all():
            raise ValueError(f"samples must be finite, got {values[~np.isfinite(values)][0]}")
        _require_grid(self.N, self.k_lo, len(values))
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def __eq__(self, other):
        if not isinstance(other, SampledFunction):
            return NotImplemented
        return (self.N, self.k_lo) == (other.N, other.k_lo) and np.array_equal(self.values, other.values)

    @property
    def k_hi(self) -> int:
        return self.k_lo + len(self.values) - 1

    def value_at(self, k: int) -> float:
        if self.k_lo <= k <= self.k_hi:
            return float(self.values[k - self.k_lo])
        return 0.0

    @classmethod
    def from_callable(cls, f, N: int, lo, hi) -> "SampledFunction":
        """Sample f on the level-N grid covering [lo, hi].

        The window is found in exact arithmetic and the points are scaled by
        ``np.ldexp``, so every level N up to MAX_LEVEL + 1 samples, and a
        level or window out of range, like a non-finite end, raises
        ValueError before f is called.  An output of f whose shape is not
        that of the points raises ValueError.
        """
        _require_grid(N, 0, 1)  # N first: 2**N is small only for N in range
        try:
            lo, hi = Fraction(lo), Fraction(hi)
        except (OverflowError, ValueError):
            raise ValueError(f"window ends must be finite numbers, got {lo} and {hi}") from None
        k_lo = math.ceil(lo * 2**N)
        k_hi = math.floor(hi * 2**N)
        _require_grid(N, k_lo, k_hi - k_lo + 1)
        x = np.ldexp(np.arange(k_lo, k_hi + 1), -N)
        values = f(x)
        if np.shape(values) != x.shape:
            raise ValueError(f"f must return one value per point, in the points' shape {x.shape}, got shape {np.shape(values)}")
        return cls(N=N, k_lo=k_lo, values=values)


def _require_grid(N: int, k_lo: int, count: int):
    """Raise ValueError unless 0 <= N <= MAX_LEVEL + 1 and the indices k_lo .. k_lo + count - 1
    stay below SHIFT_BOUND in magnitude."""
    if not 0 <= N <= MAX_LEVEL + 1:
        raise ValueError(f"resolution level N must be in 0..{MAX_LEVEL + 1}, got {N}")
    if not -SHIFT_BOUND < k_lo <= SHIFT_BOUND - count:
        k_max = max(abs(int(k_lo)), abs(int(k_lo) + count - 1))
        raise ValueError(f"sample indices must stay below 2^52 in magnitude, got |k| >= 2^{k_max.bit_length() - 1}")


class _Levels(Mapping):
    """The read-only {j: Coeffs} of an Expansion; it compares equal to a dict, pickles and prints as one."""

    def __init__(self, levels: dict):
        self._levels = levels

    def __getitem__(self, j) -> Coeffs:
        return self._levels[j]

    def __iter__(self):
        return iter(self._levels)

    def __len__(self) -> int:
        return len(self._levels)

    def __repr__(self) -> str:
        return repr(self._levels)


@dataclass(frozen=True)
class Expansion:
    """Level-indexed sparse coefficient map {j: {k: c_{j,k}}}, j from -1 up.

    Holds either the sampling coefficients lambda of S_N or the
    biorthogonal coefficients mu; which one travels only as the ``"kind"``
    key of the CLI's JSON files.  ``levels`` is a read-only mapping {j: Coeffs},
    each level converted once, here; an order m that is not an integer in
    2..MAX_ORDER, a level j that is a bool or not an integer in -1..MAX_LEVEL,
    and a shift |k| >= SHIFT_BOUND raise ValueError.  As nothing
    can change the levels after that, the norms' parameter-free tables are
    built on first use and held here; they take no part in equality, repr
    or pickling.
    """

    m: int
    levels: Mapping = field(repr=False)

    def __post_init__(self):
        require_supported_order(self.m)
        if not all(type(j) is not bool and isinstance(j, numbers.Integral) and -1 <= j <= MAX_LEVEL for j in self.levels):
            raise ValueError(f"every level must be an integer in -1..{MAX_LEVEL}, got {list(self.levels)}")
        levels = {int(j): Coeffs.of(lev) for j, lev in self.levels.items()}
        for j, lev in levels.items():
            if len(lev) and (lev.ks[0] <= -SHIFT_BOUND or lev.ks[-1] >= SHIFT_BOUND):
                raise ValueError(f"shifts must stay below 2^52 in magnitude, got level {j} from {lev.ks[0]} to {lev.ks[-1]}")
        object.__setattr__(self, "levels", _Levels(levels))

    def __getstate__(self):
        return {"m": self.m, "levels": self.levels}  # not the norms' tables: a copy builds its own

    @cached_property
    def _scaled_levels(self):
        """The norms' ``norms.ScaledLevels``, built on the first norm call and held: O(coefficients)."""
        from .norms import _scaled_levels  # norms imports this module

        return _scaled_levels(self)

    @cached_property
    def _segment_layout(self):
        """``f_norm``'s ``norms.SegmentLayout``, built on its first call and held: O(coefficients)."""
        from .norms import _segment_layout

        return _segment_layout(self)

    def coeff(self, j: int, k: int) -> float:
        return self.levels.get(j, {}).get(k, 0.0)

    def scaled(self, factor: float) -> "Expansion":
        return Expansion(self.m, {j: Coeffs(lev.ks, factor * lev.cs) for j, lev in self.levels.items()})

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "levels": [{"j": j, "coeffs": {str(k): v for k, v in lev.items()}} for j, lev in sorted(self.levels.items())],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "Expansion":
        """The Expansion of a ``to_json_dict`` document, its ``m`` and each ``j`` passed on as given.  A shift key that
        is not spelled as ``str(k)`` spells it ("03", "+3", " 3 ", "1_0", "-0"), a value that is not a JSON number (a bool
        or a string) or is past the float range, and a level or a shift within a level given twice, raise ValueError."""
        levels = {}
        for entry in doc["levels"]:
            j, given = entry["j"], entry["coeffs"]
            if not all(type(v) in (int, float) for v in given.values()):
                raise ValueError(f"level {j!r:.40}: every coefficient must be a JSON number, not a bool or a string")
            ks = [int(k) for k in given]
            bad = [key for k, key in zip(ks, given) if str(k) != str(key)]
            if bad:
                raise ValueError(f"level {j!r:.40}: shift key {bad[0]!r:.40} is not an integer in its plain spelling, like '3' or '-3'")
            try:
                coeffs = dict(zip(ks, map(float, given.values())))
            except OverflowError:
                raise ValueError(f"level {j!r:.40}: a coefficient is past the float range") from None
            if j in levels or len(coeffs) != len(given):
                raise ValueError(f"level {j!r:.40}: a level j, or a shift k within a level, is given twice")
            levels[j] = coeffs
        return cls(m=doc["m"], levels=levels)


@lru_cache(maxsize=None)
def stencil_weights(m: int) -> tuple:
    """Combined sample weights W_0..W_{4m-2} of the level-j functional.

    W_o = (-1)^o sum_l N_{2m}(l+1) C(2m, o-l); the lambda functional reads
    sum_o W_o f((2k+o)/2^{j+1}).  Exact rationals; they sum to zero, so
    constants (indeed all polynomials of degree < 2m) are annihilated.
    """
    n2m = cardinal_values(2 * m)
    weights = []
    for o in range(4 * m - 1):
        acc = Fraction(0)
        for l in range(max(0, o - 2 * m), min(2 * m - 2, o) + 1):
            acc += n2m[l + 1] * math.comb(2 * m, o - l)
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


_BLOCK = 8192  # outputs per block of _stencil_pass: its 13 rows of _BLOCK floats (832 KiB) stay in L2 cache


def _stencil_pass(y: np.ndarray, m: int, count: int) -> np.ndarray:
    """lambda_i = sum_o W_o y[2i + o] for 0 <= i < count, from the 2 count + 4m - 2 samples y.

    Dot2 over the taps: p + s carries sum_o I_o y[2i + o] with the error
    of every product (TwoProduct) and every addition (TwoSum) collected in
    s, so the sum is as accurate as if computed in twice the working
    precision and then rounded once.  Each lambda_i is elementwise in i:
    it reads y[2i .. 2i + 4m - 2] only, so ``analyze`` runs every level
    through one pass over their blocks laid end to end, and the pass runs
    in blocks of ``_BLOCK`` outputs.  A block copies its samples once as
    an even and an odd row, so that tap o reads row o % 2 from o // 2 on,
    splits them, and accumulates into rows of ``_BLOCK`` floats reused by
    every tap and block: the memory beyond y and lambda is O(_BLOCK + m), and
    every output takes the same operations in the same order as a pass
    over its level alone.  A tap whose integer fits 26 bits (w_lo = 0,
    every tap for m <= 5) drops the w_lo products of TwoProduct, which
    changes no bit of the result.  A sample not below 2^max_exp in
    magnitude raises ValueError.
    """
    denom, taps, max_exp = _integer_stencil(m)
    lam = np.empty(count)
    size = min(_BLOCK, count)
    x, x_hi, x_lo = np.empty((3, 2, size + 2 * m - 1))  # samples and their halves, even and odd rows
    p, s, t, h, r, z, u = np.empty((7, size))
    for a in range(0, count, size):
        n = min(size, count - a)
        width = n + 2 * m - 1
        xs, hi, lo = x[:, :width], x_hi[:, :width], x_lo[:, :width]
        xs[...] = y[2 * a : 2 * (a + width)].reshape(width, 2).T
        if not -(2.0**max_exp) < xs.min() <= xs.max() < 2.0**max_exp:
            raise ValueError(f"samples must be below 2^{max_exp} in magnitude at m = {m}, got {np.abs(xs).max()}")
        np.multiply(xs, _SPLITTER, out=hi)  # _split in place: hi = c - (c - x), lo = x - hi
        np.subtract(hi, xs, out=lo)
        np.subtract(hi, lo, out=hi)
        np.subtract(xs, hi, out=lo)
        pb, sb, tb, hb, rb, zb, ub = (row[:n] for row in (p, s, t, h, r, z, u))
        pb[...] = sb[...] = 0.0
        for o, w, w_hi, w_lo in taps:
            row, q = o % 2, o // 2
            xv, xh, xl = xs[row, q : q + n], hi[row, q : q + n], lo[row, q : q + n]
            np.multiply(xv, w, out=hb)  # h = w x
            if w_lo:  # r = w_lo x_lo - (((h - w_hi x_hi) - w_lo x_hi) - w_hi x_lo)
                np.subtract(hb, np.multiply(xh, w_hi, out=rb), out=rb)
                np.subtract(rb, np.multiply(xh, w_lo, out=ub), out=rb)
                np.subtract(rb, np.multiply(xl, w_hi, out=ub), out=rb)
                np.subtract(np.multiply(xl, w_lo, out=ub), rb, out=rb)
            else:  # r = w x_lo - (h - w x_hi)
                np.subtract(hb, np.multiply(xh, w, out=rb), out=rb)
                np.subtract(np.multiply(xl, w, out=ub), rb, out=rb)
            np.add(pb, hb, out=tb)  # TwoSum: t = p + h, z = t - p, s += ((p - (t - z)) + (h - z)) + r
            np.subtract(tb, pb, out=zb)
            np.subtract(pb, np.subtract(tb, zb, out=ub), out=ub)
            np.add(ub, np.subtract(hb, zb, out=zb), out=ub)
            np.add(sb, np.add(ub, rb, out=ub), out=sb)
            pb, tb = tb, pb
        np.divide(np.add(pb, sb, out=lam[a : a + n]), denom, out=lam[a : a + n])
    return lam


def _strided_samples(f: SampledFunction, step: int, i_lo: int, i_hi: int, out=None) -> np.ndarray:
    """f at the grid indices i * step for i_lo <= i <= i_hi, zero outside the window.

    ``out``, if given, is a zeroed array that starts at i_lo; the window's
    samples are written into it and it is returned.
    """
    y = np.zeros(i_hi - i_lo + 1) if out is None else out
    a = max(i_lo, -(-f.k_lo // step))
    b = min(i_hi, f.k_hi // step)
    if a <= b:
        y[a - i_lo : b - i_lo + 1] = f.values[a * step - f.k_lo : b * step - f.k_lo + 1 : step]
    return y


def lambda_coeff(f: SampledFunction, m: int, idx: DyadicIndex) -> float:
    """Sampling coefficient lambda_{j,k}(f): ``analyze(f, m).coeff(j, k)``, bit for bit.

    A level past N - 1 raises ResolutionError, and so does analyze at N = 0.
    """
    if idx.j > f.N - 1:
        raise ResolutionError(
            f"level {idx.j} stencil needs grid 2^-{idx.j + 1}, samples are at 2^-{f.N}"
        )
    return analyze(f, m).coeff(idx.j, idx.k)


def analyze(f: SampledFunction, m: int) -> Expansion:
    """All sampling coefficients of S_N for levels -1 .. N-1.

    Level j covers every k whose stencil touches the window.  Its strided,
    zero-padded samples make one block of even length 2 * count + 4m - 2,
    written in place into one buffer that holds the blocks of all levels
    end to end and 4m - 2 trailing zeros.  A single ``_stencil_pass`` runs
    over the buffer, and level j reads its lambda at half its block's
    offset.  The 2m - 1 outputs past each level's count straddle two
    blocks and are dropped.  One ``Coeffs.nonzero_spans`` over lambda
    builds every level, so a level costs a slice, not a pass of its own.
    The memory is O(samples + _BLOCK m).
    """
    require_supported_order(m)
    if f.N < 1:
        raise ResolutionError("analysis needs resolution N >= 1")
    step0 = 2**f.N
    k_lo = -(-f.k_lo // step0)
    levels = {-1: Coeffs.nonzero(k_lo, _strided_samples(f, step0, k_lo, f.k_hi // step0))}
    span = 4 * m - 2
    layout, size = [], 0  # size: the outputs so far, half the samples laid so far
    for j in range(f.N):
        step = 2 ** (f.N - j - 1)
        k_min = -(-(f.k_lo - span * step) // (2 * step))
        count = f.k_hi // (2 * step) - k_min + 1
        layout.append((step, k_min, count, size))
        size += count + span // 2
    y = np.zeros(2 * size + span)
    for step, k_min, count, at in layout:
        _strided_samples(f, step, 2 * k_min, 2 * (k_min + count) + span - 1, out=y[2 * at :])
    lam = _stencil_pass(y, m, size)
    del y  # the levels below are built beside lambda alone
    spans = [(k_min, at, count) for _, k_min, count, at in layout]
    levels.update(zip(range(f.N), Coeffs.nonzero_spans(lam, spans)))
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
    (n0, table, taps)).  A level is read as its ``Coeffs.runs`` with the gap
    max(table length, points): far-apart keys never fill the span between
    them, and nearer keys stay one dense run, which costs less than joining
    them one by one.  The running sum is refined with N = sum_l refine_l
    N(2x - l), kept where its support meets [min xs, max xs], and summed by
    ``shift_sum`` at the end, or early when refining or joining it would
    make it longer than points * order (or than the next run), or when
    joining would leave more than xs.size zeros between the two.  A pass of
    ``shift_sum`` costs O(points * order^2) and a refinement O(length *
    order), so a dense run is refined down to the finest level and summed
    in one pass; memory is O(points * order + coefficients).  xs is sorted
    once, so each ``shift_sum`` reads only the points inside its sum's
    support, found by bisection.  Where 2^T x is infinite (a level past the
    float range) the series reads 0.
    """
    order = len(refine) - 1
    xs = np.asarray(xs, dtype=float)
    if not xs.size:
        return np.zeros_like(xs)
    perm = xs.argsort(axis=None, kind="stable")
    sorted_xs = xs.ravel()[perm]
    hi = float(sorted_xs[-1])  # NaN sorts last; as with min and max, lo and hi are NaN if any point is
    lo = float(sorted_xs[0]) if hi == hi else hi
    out = np.zeros(xs.size)  # the series at sorted_xs
    scaled = [None, None]  # (T, 2^T sorted_xs) of the last sum

    def add_sum(T, i0, g):  # out += sum_i g[i] N(2^T x - i0 - i) where it can be nonzero
        if scaled[0] != T:
            with np.errstate(over="ignore"):
                scaled[:] = T, np.ldexp(sorted_xs, T)
        t = scaled[1]
        # shift_sum rounds i0 to float as here, so no point below float(i0) reads g;
        # the far end is widened past the rounding of indices beyond 2^53
        end = float(i0 + len(g) + order)
        a, b = t.searchsorted((float(i0), end + abs(end) * 2.0**-50))
        if a < b:
            out[a:b] += shift_sum(order, g, i0, t[a:b])

    def meets(T, a, b):
        try:  # no cut where 2^T x leaves the float range, or at a NaN point
            a = max(a, math.floor(math.ldexp(lo, T)) - order)
            b = min(b, math.floor(math.ldexp(hi, T)) + 1)
        except (OverflowError, ValueError):
            pass
        return a, max(a, b)

    def series():  # (level L, first index s, N coefficients h) of every run, by level
        for j in sorted(j for j in levels if levels[j]):
            n0, table, last = coarse if j == -1 else fine
            for k0, c in levels[j].runs(max(len(table), xs.size)):
                h = np.convolve(c, table)
                yield (0, k0 + n0 - last, h) if j == -1 else (j + 1, 2 * (k0 + n0), _upsample_filter(h, last))

    T, i0, g = 0, 0, np.zeros(0)
    for L, s, h in series():
        a, b = meets(L, s, s + len(h))
        s, h = a, h[a - s : b - s]
        if not len(h):
            continue
        while len(g) and T < L:
            a, b = meets(T + 1, 2 * i0, 2 * i0 + 2 * len(g) - 1 + order)
            if b - a > xs.size * order:
                break
            i0, g, T = a, _upsample_filter(g, refine)[a - 2 * i0 : b - 2 * i0], T + 1
        span = max(i0 + len(g), s + len(h)) - min(i0, s)
        if len(g) and (T < L or span > max(xs.size * order, len(h)) or span - len(g) - len(h) > xs.size):
            add_sum(T, i0, g)
            g = g[:0]
        i0 = i0 if len(g) else s
        a, b = min(i0, s), max(i0 + len(g), s + len(h))
        acc = np.zeros(b - a)
        acc[i0 - a : i0 - a + len(g)] = g
        acc[s - a : s - a + len(h)] += h
        T, i0, g = L, a, acc
    if len(g):
        add_sum(T, i0, g)
    result = np.empty(xs.size)
    result[perm] = out
    return result.reshape(xs.shape)


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
    a, b = basis.dual_table, basis.cardinal_table
    coarse = (b.window[0], b.coeffs.cs, basis.m)
    return _two_scale_series(exp.levels, xs, r, coarse, (a.window[0], basis.pairing_sign * a.coeffs.cs, w))


def _basis_for(m: int, basis: FaberBasisSpec | None) -> FaberBasisSpec:
    """``build_basis(m)`` when basis is None, else basis, which must be of order m."""
    if basis is None:
        return build_basis(m)
    if basis.m != m:
        raise ValueError(f"basis order {basis.m} does not match order {m}")
    return basis


def _interp_coeffs(f: SampledFunction, basis: FaberBasisSpec):
    """(c0, h) with J_N f = sum_i h[i] N_{2m}(2^N x + m - c0 - i)."""
    return f.k_lo + basis.cardinal_table.window[0], np.convolve(f.values, basis.cardinal_table.coeffs.cs)


def spline_interpolate(f: SampledFunction, m: int, xs, basis: FaberBasisSpec = None) -> np.ndarray:
    """Fundamental spline interpolant J_N f on a grid.

    J_N f(x) = sum_n f(2^-N n) L(2^N x - n), folded like the cardinal level
    of synthesize into one series sum_c h_c N_{2m}(2^N x + m - c) with h
    the samples convolved with the dual scaling table, summed by
    ``shift_sum`` over the 2m pieces of N_{2m}.  The shift m joins c as an
    integer: adding it to 2^N x in float would round every point where the
    sum crosses a power of two.  Interpolates the samples and reproduces
    order-2m splines of level N; a point whose 2^N x is past the float
    range reads 0, as in synthesize.  A basis of another order raises
    ValueError.
    """
    basis = _basis_for(m, basis)
    c0, h = _interp_coeffs(f, basis)
    with np.errstate(over="ignore"):
        t = np.ldexp(np.asarray(xs, dtype=float), f.N)
    return shift_sum(2 * basis.m, h, c0 - basis.m, t)
