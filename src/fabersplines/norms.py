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

The norm-equivalence content of the sampling characterization is probed
empirically: the discrete norm of analyze(f, N) is reported across N and
checked for stabilization of consecutive ratios.  Equivalence constants
are never reported; they are not desk-scale observables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sampling import MAX_LEVEL, SampledFunction, analyze

__all__ = ["ParameterError", "NormParams", "b_norm", "f_norm", "equivalence_probe", "besov_admissible_range"]

INF = math.inf


class ParameterError(ValueError):
    """Norm parameters outside the admissible domain."""


@dataclass(frozen=True)
class NormParams:
    """Smoothness r, integrability p, summability theta (0 < p, theta <= inf)."""

    r: float
    p: float
    theta: float

    def __post_init__(self):
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
_EXACT_KEY = 2**52  # below it the interval endpoints k - 1/2, k, k + 1 (times 2^-j) are exact floats
_NO_TERM = np.int32(-(2**30))  # the exponent of a zero or missing term, below every level's


def _scaled_levels(exp):
    """(levels, sizes, x, top) over the nonempty levels, in increasing j.

    ``levels`` holds the (j, {k: c}) pairs; the |c| of level i, in its key
    order, are x[s : s + sizes[i]] 2^top[i] with s = sum(sizes[:i]) and x in
    [0, 1): the level's largest power of two is factored out, so no weight
    or coefficient overflows before the last step of a norm.  Zeros add
    nothing to a norm and take no part in top; a level of zeros only has
    top = _NO_TERM.
    """
    levels = [(j, lev) for j, lev in sorted(exp.levels.items()) if lev]
    sizes = [len(lev) for _, lev in levels]
    if not levels:
        return levels, sizes, np.zeros(0), np.zeros(0, dtype=np.int32)
    mant, e = np.frexp(np.abs(np.concatenate([np.fromiter(lev.values(), dtype=float, count=len(lev)) for _, lev in levels])))
    e[mant == 0] = _NO_TERM
    top = np.maximum.reduceat(e, np.cumsum([0] + sizes[:-1]))
    return levels, sizes, np.ldexp(mant, e - np.repeat(top, sizes)), top


def b_norm(exp, params: NormParams) -> float:
    """Exact discrete Besov sequence norm of a finite expansion.

    Level j contributes 2^(rj) ||c_j||_p 2^(-j/p) (2^(rj) max|c_j| when
    p = inf), held as y 2^e with the level's largest power of two in e.
    """
    r, p, theta = float(params.r), float(params.p), float(params.theta)
    levels, sizes, x, top = _scaled_levels(exp)
    if not levels:
        return 0.0
    j = np.array([j for j, _ in levels])
    starts = np.cumsum([0] + sizes[:-1])
    e = top + np.clip(r * j, -_RJ_BOUND, _RJ_BOUND)
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
    those segments and is integrated exactly, segment by segment: the work
    is O(coefficients log coefficients + levels * segments) however deep
    the levels or far apart the keys.  On each segment the largest power
    of two among the nonzero terms 2^(rj) |c| is factored out before any
    power is taken.
    """
    r, p, theta = float(params.r), float(params.p), float(params.theta)
    if p == INF:
        raise ParameterError("f-norm requires p < infinity")
    levels, sizes, x, top = _scaled_levels(exp)
    if not levels:
        return 0.0
    j = np.array([j for j, _ in levels])
    rj = np.clip(r * j, -_RJ_BOUND, _RJ_BOUND)
    weight = np.floor(rj)
    x = x * np.repeat(np.exp2(rj - weight), sizes)  # 2^(rj) |c| = x 2^e, x in [0, 2)
    e = (top + weight).astype(np.int32)
    rows = np.repeat(np.arange(len(levels)), sizes)
    try:
        k = np.concatenate([np.fromiter(lev, dtype=np.int64, count=len(lev)) for _, lev in levels])
    except OverflowError:  # a shift past int64
        k = None
    if k is None or k.min() <= -_EXACT_KEY or k.max() >= _EXACT_KEY:
        raise ValueError("f-norm needs every shift |k| < 2^52, where the interval endpoints are exact floats")
    # interval endpoints, scaled by 2^shift so that every segment length is a nonzero float
    shift = max(0, int(j[-1]) - MAX_LEVEL)
    scale = (shift - np.maximum(j, 0)).astype(np.int32)[rows]
    lo = np.ldexp(k - np.where(j[rows] == -1, 0.5, 0.0), scale)
    hi = lo + np.ldexp(1.0, scale)
    y = np.sort(np.concatenate([lo, hi]))
    y = y[np.append(True, y[1:] != y[:-1])]  # not np.unique, whose first call imports numpy.ma
    # coefficient c holds the segments a[c] .. b[c] - 1 between consecutive y: in the
    # flat (level x segment) table of terms, a run of zeros and then a run of its value
    n_seg = len(y) - 1
    a = np.searchsorted(y, lo) + rows * n_seg
    b = np.searchsorted(y, hi) + rows * n_seg
    del rows, k, scale, lo, hi  # per-coefficient arrays: free them before the per-segment ones
    order = np.argsort(a)
    a, b, x = a[order], b[order], x[order]
    runs = np.append(np.column_stack([a - np.append(0, b[:-1]), b - a]), len(levels) * n_seg - b[-1])
    values = np.append(np.column_stack([np.zeros_like(x), x]), 0.0)
    del order, a, b, x
    terms = np.repeat(values, runs).reshape(len(levels), n_seg)  # level i: terms[i] 2^e[i]
    del values, runs
    seg_top = np.full(n_seg, _NO_TERM)
    for row, e_i in zip(terms, e):
        np.maximum(seg_top, np.where(row != 0, e_i, _NO_TERM), out=seg_top)
    for row, e_i in zip(terms, e):
        np.ldexp(row, e_i - seg_top, out=row)  # below 2
    if theta == INF:
        inner = terms.max(axis=0)
    else:
        inner = np.sum(np.power(terms, theta, out=terms), axis=0) ** (1.0 / theta)
    mant, exps = np.frexp(np.diff(y))
    lam = p * seg_top + (exps - shift)  # segment term: mant inner^p 2^lam
    lam_max = float(lam.max())
    whole = p * math.floor(lam_max / p)  # 2^whole has an integer p-th root
    total = _times_pow2(float(np.sum(mant * inner**p * np.exp2(lam - lam_max))), lam_max - whole)
    return _times_pow2(total ** (1.0 / p), whole / p)


def besov_admissible_range(m: int, params: NormParams) -> bool:
    """Parameter region of the sampling characterization for B-spaces:
    p > 1/(2m) and 1/p < r < min(2m - 1 + 1/p, 2m)."""
    inv_p = 0.0 if params.p == INF else 1.0 / params.p
    if not params.p > 1.0 / (2 * m):
        return False
    return inv_p < params.r < min(2 * m - 1 + inv_p, 2 * m)


def equivalence_probe(f_family, m: int, params: NormParams, N_range) -> dict:
    """Stabilization probe for the discrete-norm characterization.

    For each N in N_range, samples the test function at level N, runs the
    sampling analysis and reports the b-norm of the coefficients plus the
    ratio to the previous level.  Ratios approaching 1 are the desk-scale
    signature of the norm equivalence; for inadmissible parameters (for
    example a jump function probed with r > 1/p) the ratios stay bounded
    away from 1 and the output carries a warning flag instead of an error:
    probing outside the range is how the restriction is demonstrated.
    """
    f, (lo, hi) = f_family.f, f_family.support
    rows = []
    prev = None
    for N in N_range:
        fs = SampledFunction.from_callable(f, N, lo, hi)
        norm = b_norm(analyze(fs, m), params)
        ratio = None if prev in (None, 0.0) else norm / prev
        rows.append({"N": N, "norm": norm, "ratio": ratio})
        prev = norm
    return {
        "family": f_family.name,
        "m": m,
        "r": params.r,
        "p": params.p,
        "theta": params.theta,
        "in_admissible_range": besov_admissible_range(m, params),
        "rows": rows,
    }
