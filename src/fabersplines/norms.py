"""Discrete Besov and Triebel-Lizorkin sequence (quasi-)norms.

Coefficients live on the dyadic intervals I_{j,k} = [2^-j k, 2^-j (k+1)]
for j >= 0 and [k - 1/2, k + 1/2] for j = -1.  With chi_{j,k} the
indicator of I_{j,k},

    b-norm:  ( sum_j 2^{theta r j} || sum_k lam_{j,k} chi_{j,k} ||_p^theta )^{1/theta}
    f-norm:  || ( sum_j 2^{theta r j} | sum_k lam_{j,k} chi_{j,k} |^theta )^{1/theta} ||_p

with sup forms when p or theta is infinite (p < infinity for the f-case).
Because the I_{j,k} tile each level, the b-norm inner L_p is the exact
weighted lp sum (measure 2^-j per interval, 1 at level -1), and the
f-norm integrand is a step function on the segments between consecutive
interval endpoints of the coefficients, so both are evaluated exactly:
no quadrature, no tolerance knob.  The quasi-norm regime 0 < p, theta < 1
goes through the same formulas.  Level weights and coefficients are held
as mantissas times integer powers of two, and the largest power is
factored out before any power is taken: a norm is returned whenever it
is representable and is inf otherwise, never an OverflowError.

A probe evaluates many (r, p, theta) on one expansion, and most of the
work does not depend on them: the scaled levels (mantissas and top
exponents per level, both norms) and the segment layout of the f-norm
(where each coefficient sits in the level x segment table, and the
segment lengths).  The expansion builds each on the first call that
needs it and holds it (``Expansion._scaled_levels`` and
``Expansion._segment_layout``), in O(coefficients) memory; a call then
does only what depends on the parameters.  Its cost is a fixed number of
whole-array passes, whatever the size: ``b_norm`` makes at most two over
the coefficients, ``f_norm`` three over the coefficients, eight over the
(level x segment) table (seven when theta is infinite) and about ten
over the segments, and both a few over the levels.  The held layout saves
every call after the first the sort of the interval endpoints and the
placing of each coefficient in the table, which cost more than the rest
of an ``f_norm`` call.  The calls go to ufuncs and array methods, not to
numpy's Python-level helpers, whose overhead would otherwise be about a
third of a call on a few hundred coefficients.  The values are those of
building everything afresh on every call, bit for bit
(``tests/norm_oracle.py`` keeps that form).

The norm-equivalence content of the sampling characterization is probed
empirically: the discrete norm of analyze(f, N) is reported across N and
checked for stabilization of consecutive ratios.  Equivalence constants
are never reported; they are not desk-scale observables.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .sampling import SampledFunction, analyze

__all__ = ["ParameterError", "NormParams", "b_norm", "f_norm", "equivalence_probe", "besov_admissible_range"]

INF = math.inf


class ParameterError(ValueError):
    """Norm parameters outside the admissible domain."""


@dataclass(frozen=True)
class NormParams:
    """Smoothness r (finite), integrability p, summability theta (0 < p, theta <= inf)."""

    r: float
    p: float
    theta: float

    def __post_init__(self):
        if not math.isfinite(self.r):
            raise ParameterError(f"r must be finite, got {self.r}")
        if not self.p > 0:
            raise ParameterError(f"p must be positive, got {self.p}")
        if not self.theta > 0:
            raise ParameterError(f"theta must be positive, got {self.theta}")


def _times_pow2(x: float, e: float) -> float:
    """x * 2^e for x >= 0, inf where that passes the float range: never OverflowError."""
    try:
        n = math.floor(e)
        return math.ldexp(x * 2.0 ** (e - n), n)
    except OverflowError:
        return INF if e > 0 and x > 0 else 0.0


_RJ_BOUND = 2.0**29  # |r j| past it is taken at it: 2^(2^29) is past any float anyway
_NO_TERM = np.int32(-(2**30))  # the exponent of a zero or missing term, below every level's


def _live_levels(exp) -> list:
    """The (j, Coeffs) pairs of the nonempty levels, in increasing j."""
    return [(j, lev) for j, lev in sorted(exp.levels.items()) if lev]


def _held(tables):
    """The tables, their arrays made read-only: an expansion holds them for every later call."""
    for a in tables:
        if isinstance(a, np.ndarray):
            a.flags.writeable = False
    return tables


class ScaledLevels(NamedTuple):
    """The |c| of the nonempty levels, each level's largest power of two factored out.

    Level i (in increasing j) is ``j[i]``; its |c|, in shift order, are
    x[s : s + sizes[i]] 2^top[i] with s = starts[i] and x in [0, 1), so no
    weight or coefficient overflows before the last step of a norm.  Zeros
    add nothing to a norm and take no part in top; a level of zeros only
    has top = _NO_TERM.
    """

    j: np.ndarray
    sizes: np.ndarray
    starts: np.ndarray
    x: np.ndarray
    top: np.ndarray


def _scaled_levels(exp) -> ScaledLevels:
    """The expansion's ScaledLevels: built once, on first use, by ``Expansion._scaled_levels``."""
    levels = _live_levels(exp)
    if not levels:
        return _held(ScaledLevels(*[np.zeros(0, dtype=int)] * 5))
    sizes = [len(lev) for _, lev in levels]
    starts = np.cumsum([0] + sizes[:-1])
    mant, e = np.frexp(np.abs(np.concatenate([lev.cs for _, lev in levels])))
    e[mant == 0] = _NO_TERM
    top = np.maximum.reduceat(e, starts)
    x = np.ldexp(mant, e - np.repeat(top, sizes))
    return _held(ScaledLevels(np.array([j for j, _ in levels]), np.array(sizes), starts, x, top))


class SegmentLayout(NamedTuple):
    """Where the f-norm integrand's terms sit: the parameter-free part of ``f_norm``.

    The sorted distinct interval endpoints y cut the line into n_seg
    segments.  In the flat (level x segment) table of terms, coefficient c
    of level i covers the segments between its endpoints: ``runs`` holds,
    coefficient after coefficient, the length of the run of zeros before
    it and of its own run, then the zeros after the last one, so
    ``np.repeat`` of (0, x_c) pairs and a final 0 over ``runs`` fills the
    table.  The segment lengths np.diff(y) are held as frexp's ``mant`` 2^``exps``.
    """

    runs: np.ndarray
    n_seg: int
    mant: np.ndarray
    exps: np.ndarray


def _segment_layout(exp) -> SegmentLayout:
    """The expansion's SegmentLayout: built once, on first use, by ``Expansion._segment_layout``.

    Each level's (lo_c, hi_c) endpoints are written into its rows of one
    preallocated (coefficients x 2) array; read row by row they form one
    sorted run per level, as shifts increase strictly within a level.  One
    stable argsort over the runs gives y, and the running count of new
    values the rank of every endpoint in y.  The endpoints 2^-j k
    (k - 1/2 at level -1) are exact floats, and every segment length a
    nonzero one, because ``Expansion`` holds no level past 1074 and no
    shift |k| >= 2^52.
    """
    levels = _live_levels(exp)
    bounds = [0, *itertools.accumulate(len(lev) for _, lev in levels)]  # level i: coefficients bounds[i] to bounds[i + 1]
    ends = np.empty((bounds[-1], 2))  # row c: (lo_c, hi_c)
    for (j, lev), a, b in zip(levels, bounds, bounds[1:]):
        lo, hi = ends[a:b].T
        if j == -1:
            np.subtract(lev.ks, 0.5, out=lo)
        else:
            np.ldexp(lev.ks, -j, out=lo)
        np.add(lo, math.ldexp(1.0, -max(j, 0)), out=hi)
    ends = ends.ravel()
    order = ends.argsort(kind="stable")
    ends = ends[order]
    new = np.empty(len(ends), dtype=bool)
    new[0] = True
    np.not_equal(ends[1:], ends[:-1], out=new[1:])
    y = ends[new]
    n_seg = len(y) - 1
    flat = np.empty(len(ends) + 2, dtype=np.intp)  # 0, a_c and b_c in the flat table, the table's size
    flat[0], flat[-1] = 0, len(levels) * n_seg
    rank = flat[1:-1]
    rank[order] = new.cumsum() - 1
    del order, ends, new
    for i, (a, b) in enumerate(zip(bounds, bounds[1:])):
        rank[2 * a : 2 * b] += i * n_seg
    runs = np.subtract(flat[1:], flat[:-1])
    return _held(SegmentLayout(runs, n_seg, *np.frexp(np.subtract(y[1:], y[:-1]))))


def _clipped_rj(r: float, j: np.ndarray) -> np.ndarray:
    """``np.clip(r * j, -_RJ_BOUND, _RJ_BOUND)``, bit for bit, without its Python-level wrapper."""
    return np.minimum(np.maximum(r * j, -_RJ_BOUND), _RJ_BOUND)


def b_norm(exp, params: NormParams) -> float:
    """Exact discrete Besov sequence norm of a finite expansion.

    Level j contributes 2^(rj) ||c_j||_p 2^(-j/p) (2^(rj) max|c_j| when
    p = inf), held as y 2^e with the level's largest power of two in e.
    The scaled levels are the expansion's, built on its first norm call.
    """
    r, p, theta = float(params.r), float(params.p), float(params.theta)
    j, _, starts, x, top = exp._scaled_levels
    if not len(j):
        return 0.0
    e = top + _clipped_rj(r, j)
    if p == INF:
        y = np.maximum.reduceat(x, starts)
    else:
        y = np.add.reduceat(x**p, starts) ** (1.0 / p)
        e -= np.maximum(j, 0) / p
    if theta == INF:
        return max(_times_pow2(*term) for term in zip(y.tolist(), e.tolist()))
    e_max = float(e.max())
    total = math.fsum((y**theta * np.exp2(theta * (e - e_max))).tolist())
    return _times_pow2(total ** (1.0 / theta), e_max)


def f_norm(exp, params: NormParams) -> float:
    """Exact discrete Triebel-Lizorkin sequence norm (p < infinity).

    Between consecutive endpoints of the intervals of the coefficients
    every indicator is constant, so the integrand is a step function on
    those segments and is integrated exactly, segment by segment.  On each
    segment the largest power of two among the nonzero terms 2^(rj) |c| is
    factored out before any power is taken.

    The sorting and placing does not depend on (r, p, theta): the
    expansion builds its scaled levels and its segment layout on its first
    norm call, in O(coefficients log coefficients) time and O(coefficients)
    memory, and holds them, so a later call sorts and places nothing.  A
    call writes the weighted terms between the zeros of one preallocated
    array (three passes over the coefficients), fills the (level x segment)
    table with one ``repeat`` and makes seven more passes over it (the
    nonzero mask, its product with the level exponents and their column
    max, the exponent gaps, ``ldexp``, the power and the column sum; six,
    ending in the column max, when theta is infinite), then about ten over
    the segments: O(levels * segments) time in a fixed number of numpy
    calls.  The values are those of computing everything afresh on every
    call, bit for bit.
    """
    r, p, theta = float(params.r), float(params.p), float(params.theta)
    if p == INF:
        raise ParameterError("f-norm requires p < infinity")
    j, sizes, _, x, top = exp._scaled_levels
    if not len(j):
        return 0.0
    runs, n_seg, mant, exps = exp._segment_layout
    rj = _clipped_rj(r, j)
    weight = np.floor(rj)
    values = np.zeros(2 * len(x) + 1)  # a zero before each term and after the last: the table's runs
    np.multiply(x, np.exp2(rj - weight).repeat(sizes), out=values[1:-1:2])  # 2^(rj) |c| = x 2^e, x in [0, 2)
    e = (top + weight).astype(np.int32)[:, None]
    terms = values.repeat(runs).reshape(len(j), n_seg)  # level i: terms[i] 2^e[i]
    del values
    # a level with a nonzero term has e > _NO_TERM, so the masked max of e is that of (mask * (e - _NO_TERM)) >= 0
    seg_top = ((terms != 0) * (e - _NO_TERM)).max(axis=0) + _NO_TERM
    np.ldexp(terms, e - seg_top, out=terms)  # below 2
    if theta == INF:
        inner = terms.max(axis=0)
    else:
        inner = np.power(terms, theta, out=terms).sum(axis=0) ** (1.0 / theta)
    lam = p * seg_top + exps  # segment term: mant inner^p 2^lam
    lam_max = float(lam.max())
    whole = p * math.floor(lam_max / p)  # 2^whole has an integer p-th root
    total = _times_pow2(float((mant * inner**p * np.exp2(lam - lam_max)).sum()), lam_max - whole)
    return _times_pow2(total ** (1.0 / p), whole / p)


def besov_admissible_range(m: int, params: NormParams) -> bool:
    """Parameter region of the sampling characterization for B-spaces:
    p > 1/(2m) and 1/p < r < min(2m - 1 + 1/p, 2m)."""
    inv_p = 0.0 if params.p == INF else 1.0 / params.p
    if not params.p > 1.0 / (2 * m):
        return False
    return inv_p < params.r < min(2 * m - 1 + inv_p, 2 * m)


def _at_noise_floor(exp, fs: SampledFunction) -> bool:
    """True when level N - 1 of ``exp = analyze(fs, m)`` is at most the rounding of nonzero samples."""
    peak = float(np.max(np.abs(fs.values)))
    finest = exp.levels.get(fs.N - 1, ())
    top = float(np.max(np.abs(finest.cs))) if len(finest) else 0.0
    return peak > 0.0 and top <= 4.0**exp.m * 2.0**-52 * peak


def equivalence_probe(f_family, m: int, params: NormParams, N_range) -> dict:
    """Stabilization probe for the discrete-norm characterization.

    For each N in N_range, samples the test function at level N, runs the
    sampling analysis and reports the b-norm of the coefficients plus the
    ratio to the previous level.  Ratios approaching 1 are the desk-scale
    signature of the norm equivalence; for inadmissible parameters (for
    example a jump function probed with r > 1/p) the ratios stay bounded
    away from 1 and the output carries a warning flag instead of an error:
    probing outside the range is how the restriction is demonstrated.

    A row is ``at_noise_floor`` when its finest level N - 1 holds nothing
    above the rounding of the samples: max|lambda_{N-1}| <= 4^m 2^-52
    max|samples| (each sample carries about 2^-52 of its size in rounding,
    and the stencil's weights sum to 4^m in magnitude).  Such a row's
    norm and ratio measure that rounding, weighted by 2^{j(r - 1/p)}, not
    f.  A window of zeros is never flagged.

    Returns ``{"in_admissible_range": bool, "rows": [...]}``, one row
    ``{"N", "norm", "ratio", "at_noise_floor"}`` per N.
    """
    f, (lo, hi) = f_family.f, f_family.support
    rows = []
    prev = None
    for N in N_range:
        fs = SampledFunction.from_callable(f, N, lo, hi)
        exp = analyze(fs, m)
        norm = b_norm(exp, params)
        ratio = None if prev in (None, 0.0) else norm / prev
        rows.append({"N": N, "norm": norm, "ratio": ratio, "at_noise_floor": _at_noise_floor(exp, fs)})
        prev = norm
    return {"in_admissible_range": besov_admissible_range(m, params), "rows": rows}
