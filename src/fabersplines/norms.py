"""Discrete Besov and Triebel-Lizorkin sequence (quasi-)norms.

Coefficients live on the dyadic intervals I_{j,k} = [2^-j k, 2^-j (k+1)]
for j >= 0 and [k - 1/2, k + 1/2] for j = -1.  With chi_{j,k} the
indicator of I_{j,k},

    b-norm:  ( sum_j 2^{theta r j} || sum_k lam_{j,k} chi_{j,k} ||_p^theta )^{1/theta}
    f-norm:  || ( sum_j 2^{theta r j} | sum_k lam_{j,k} chi_{j,k} |^theta )^{1/theta} ||_p

with sup forms when p or theta is infinite (p < infinity for the f-case).
Because the I_{j,k} tile each level, the b-norm inner L_p is the exact
weighted lp sum (measure 2^-j per interval, 1 at level -1), and the
f-norm integrand is a step function on the common dyadic refinement, so
both are evaluated exactly: no quadrature, no tolerance knob.  The
quasi-norm regime 0 < p, theta < 1 goes through the same formulas.

The norm-equivalence content of the sampling characterization is probed
empirically: the discrete norm of analyze(f, N) is reported across N and
checked for stabilization of consecutive ratios.  Equivalence constants
are never reported; they are not desk-scale observables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import _dense
from .sampling import SampledFunction, analyze

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


def _level_measure(j: int) -> float:
    return 1.0 if j == -1 else 2.0 ** (-j)


def b_norm(exp, params: NormParams) -> float:
    """Exact discrete Besov sequence norm of a finite expansion."""
    r, p, theta = params.r, params.p, params.theta
    level_terms = []
    for j, lev in sorted(exp.levels.items()):
        if not lev:
            continue
        vals = np.abs(np.array(list(lev.values())))
        if p == INF:
            inner = float(vals.max())
        else:
            inner = float((vals**p).sum() * _level_measure(j)) ** (1.0 / p)
        level_terms.append((j, inner))
    if not level_terms:
        return 0.0
    if theta == INF:
        return max(2.0 ** (r * j) * s for j, s in level_terms)
    return math.fsum((2.0 ** (r * j) * s) ** theta for j, s in level_terms) ** (1.0 / theta)


def _refinement(exp):
    """Common dyadic refinement of all intervals: level M and cell range."""
    M = max([1] + [j for j, lev in exp.levels.items() if lev])
    ends = []
    for j, lev in exp.levels.items():
        if not lev:
            continue
        k_min, k_max = min(lev), max(lev)
        if j == -1:
            ends.append((k_min * 2**M - 2 ** (M - 1), k_max * 2**M + 2 ** (M - 1)))
        else:
            ends.append((k_min * 2 ** (M - j), (k_max + 1) * 2 ** (M - j)))
    return M, min(a for a, _ in ends), max(b for _, b in ends)


def f_norm(exp, params: NormParams) -> float:
    """Exact discrete Triebel-Lizorkin sequence norm (p < infinity).

    All indicators at levels <= M are constant on the level-M dyadic
    cells (M = max(level, 1); the half-integer endpoints of level -1 fall
    on the level-1 grid), so the integrand is a step function that is
    integrated exactly cell by cell.
    """
    r, p, theta = params.r, params.p, params.theta
    if p == INF:
        raise ParameterError("f-norm requires p < infinity")
    if all(not lev for lev in exp.levels.values()):
        return 0.0
    M, i_lo, i_hi = _refinement(exp)
    cells = np.arange(i_lo, i_hi)
    inner = np.zeros(len(cells))
    for j, lev in sorted(exp.levels.items()):
        if not lev:
            continue
        if j == -1:
            ks = (2 * cells + 1 + 2**M) // 2 ** (M + 1)
        else:
            ks = cells // 2 ** (M - j)
        k0, dense = _dense(lev)
        ks = ks - k0
        inside = (ks >= 0) & (ks < len(dense))
        g = np.zeros(len(cells))
        g[inside] = dense[ks[inside]]
        contrib = (2.0 ** (r * j) * np.abs(g))
        if theta == INF:
            inner = np.maximum(inner, contrib)
        else:
            inner += contrib**theta
    if theta != INF:
        inner = inner ** (1.0 / theta)
    return float((inner**p).sum() * 2.0 ** (-M)) ** (1.0 / p)


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
