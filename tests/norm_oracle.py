"""The b- and f-norms as written before their parameter-free work was held per expansion.

Every call recomputes the scaled levels and the segment layout from the
levels: the f-norm sorts the interval endpoints and places each
coefficient with two binary searches, and it finds the largest power of
two of each segment and rescales the table one level row at a time.
``fabersplines.norms`` must return the same floats, bit for bit, however
its work is split between an expansion's first norm call and the later
ones.
"""

import math

import numpy as np

INF = math.inf
_RJ_BOUND = 2.0**29
_NO_TERM = np.int32(-(2**30))


def _times_pow2(x, e):
    try:
        n = math.floor(e)
        return math.ldexp(x * 2.0 ** (e - n), n)
    except OverflowError:
        return INF if e > 0 and x > 0 else 0.0


def _scaled_levels(exp):
    levels = [(j, lev) for j, lev in sorted(exp.levels.items()) if lev]
    sizes = [len(lev) for _, lev in levels]
    if not levels:
        return levels, sizes, np.zeros(0), np.zeros(0, dtype=np.int32)
    mant, e = np.frexp(np.abs(np.concatenate([lev.cs for _, lev in levels])))
    e[mant == 0] = _NO_TERM
    top = np.maximum.reduceat(e, np.cumsum([0] + sizes[:-1]))
    return levels, sizes, np.ldexp(mant, e - np.repeat(top, sizes)), top


def b_norm(exp, r, p, theta):
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


def f_norm(exp, r, p, theta):
    levels, sizes, x, top = _scaled_levels(exp)
    if not levels:
        return 0.0
    j = np.array([j for j, _ in levels])
    rj = np.clip(r * j, -_RJ_BOUND, _RJ_BOUND)
    weight = np.floor(rj)
    x = x * np.repeat(np.exp2(rj - weight), sizes)
    e = (top + weight).astype(np.int32)
    rows = np.repeat(np.arange(len(levels)), sizes)
    k = np.concatenate([lev.ks for _, lev in levels])
    scale = (-np.maximum(j, 0)).astype(np.int32)[rows]
    lo = np.ldexp(k - np.where(j[rows] == -1, 0.5, 0.0), scale)
    hi = lo + np.ldexp(1.0, scale)
    y = np.sort(np.concatenate([lo, hi]))
    y = y[np.append(True, y[1:] != y[:-1])]
    n_seg = len(y) - 1
    a = np.searchsorted(y, lo) + rows * n_seg
    b = np.searchsorted(y, hi) + rows * n_seg
    runs = np.append(np.column_stack([a - np.append(0, b[:-1]), b - a]), len(levels) * n_seg - b[-1])
    values = np.append(np.column_stack([np.zeros_like(x), x]), 0.0)
    terms = np.repeat(values, runs).reshape(len(levels), n_seg)
    seg_top = np.full(n_seg, _NO_TERM)
    for row, e_i in zip(terms, e):
        np.maximum(seg_top, np.where(row != 0, e_i, _NO_TERM), out=seg_top)
    for row, e_i in zip(terms, e):
        np.ldexp(row, e_i - seg_top, out=row)
    if theta == INF:
        inner = terms.max(axis=0)
    else:
        inner = np.sum(np.power(terms, theta, out=terms), axis=0) ** (1.0 / theta)
    mant, exps = np.frexp(np.diff(y))
    lam = p * seg_top + exps
    lam_max = float(lam.max())
    whole = p * math.floor(lam_max / p)
    total = _times_pow2(float(np.sum(mant * inner**p * np.exp2(lam - lam_max))), lam_max - whole)
    return _times_pow2(total ** (1.0 / p), whole / p)
