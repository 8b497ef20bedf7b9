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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .basis import DyadicIndex, FaberBasisSpec, _dense
from .piecewise import InvariantError, bspline, shift_sum

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
        return cls(N=N, k_lo=k_lo, values=tuple(float(v) for v in vals))


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


def lambda_coeff(f: SampledFunction, m: int, idx: DyadicIndex) -> float:
    """Sampling coefficient lambda_{j,k}(f); level -1 reads f at the integers."""
    if idx.j == -1:
        step = 2**f.N
        return f.value_at(idx.k * step)
    if idx.j > f.N - 1:
        raise ResolutionError(
            f"level {idx.j} stencil needs grid 2^-{idx.j + 1}, samples are at 2^-{f.N}"
        )
    step = 2 ** (f.N - idx.j - 1)
    base = 2 * idx.k * step
    weights = stencil_weights(m)
    return math.fsum(float(w) * f.value_at(base + o * step) for o, w in enumerate(weights) if w)


def analyze(f: SampledFunction, m: int) -> Expansion:
    """All sampling coefficients of S_N for levels -1 .. N-1."""
    if f.N < 1:
        raise ResolutionError("analysis needs resolution N >= 1")
    levels = {}
    step0 = 2**f.N
    lev = {}
    for k in range(math.ceil(f.k_lo / step0), math.floor(f.k_hi / step0) + 1):
        v = f.value_at(k * step0)
        if v != 0.0:
            lev[k] = v
    levels[-1] = lev
    span = 4 * m - 2
    for j in range(f.N):
        step = 2 ** (f.N - j - 1)
        k_min = math.ceil((f.k_lo - span * step) / (2 * step))
        k_max = math.floor(f.k_hi / (2 * step))
        lev = {}
        for k in range(k_min, k_max + 1):
            v = lambda_coeff(f, m, DyadicIndex(j, k))
            if v != 0.0:
                lev[k] = v
        levels[j] = lev
    return Expansion(m=m, levels=levels)


def synthesize(exp: Expansion, basis: FaberBasisSpec, xs) -> np.ndarray:
    """Evaluate S_N f on a grid of points.

    Each level is folded into one shift series: the coefficient sequence
    is convolved with the dual table into h, and the level contributes
    sum_c h_c v(2^j x - c) (the cardinal level sum_c h_c N_{2m}(x + m - c)).
    ``shift_sum`` gathers, for every point, only the 2m - 1 shifts of v
    (2m of N_{2m}) whose support holds it, so a level costs
    O(points * m) however many coefficients it has.
    """
    if basis.m != exp.m:
        raise ValueError("basis order does not match expansion order")
    xs = np.asarray(xs, dtype=float)
    out = np.zeros_like(xs)
    b0, b_arr = _dense(basis.cardinal_table.coeffs)
    a0, a_arr = _dense(basis.dual_table.coeffs)
    for j in sorted(exp.levels):
        lev = exp.levels[j]
        if not lev:
            continue
        k0, lam = _dense(lev)
        if j == -1:
            out += shift_sum(basis._n2m_float, np.convolve(lam, b_arr), k0 + b0, xs + basis.m)
        else:
            h = np.convolve(lam, a_arr) * basis.pairing_sign
            out += shift_sum(basis._v_float, h, k0 + a0, np.ldexp(xs, j))
    return out


def spline_interpolate(f: SampledFunction, m: int, xs, basis: FaberBasisSpec = None) -> np.ndarray:
    """Fundamental spline interpolant J_N f on a grid.

    J_N f(x) = sum_n f(2^-N n) L(2^N x - n), folded like the cardinal level
    of synthesize into one series sum_c h_c N_{2m}(2^N x + m - c) with h
    the samples convolved with the dual scaling table; each point gathers
    only the 2m shifts of N_{2m} that cover it.  Interpolates the samples
    and reproduces order-2m splines of level N.
    """
    from .basis import build_basis

    if basis is None:
        basis = build_basis(m)
    b0, b_arr = _dense(basis.cardinal_table.coeffs)
    h = np.convolve(np.asarray(f.values, dtype=float), b_arr)
    return shift_sum(basis._n2m_float, h, f.k_lo + b0, np.ldexp(np.asarray(xs, dtype=float), f.N) + basis.m)
