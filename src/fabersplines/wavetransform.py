"""Biorthogonal Chui-Wang analysis and synthesis.

Analysis coefficients pair the input against the primal wavelets,

    mu_{j,k}(f) = <f, 2^j psi_m(2^j . - k)>          for j >= 0,
    mu_{-1,k}(f) = <f, N_m(. + c - k)>,  c = floor(m/2),   coarse level,

and synthesis expands against the duals, which are never materialized as
piecewise polynomials (their support is the whole line): psi*_{j,k} is
evaluated through the truncated series sum_n a_n psi(2^j x - k - n), and
the coarse dual N*_m(. - k) through sum_n b_n N_m(. - k + c - n).

Two deliberate normalizations, both pinned by the round-trip tests:

  * the coarse level carries no 2^j weight: with matching shifts,
    <N*_m(. - k'), N_m(. + c - k)> = delta_{k,k'} exactly, so the
    unweighted pairing reconstructs the V_0 part (a literal 2^j weight
    at j = -1 would halve it);
  * the centering shift is the *integer* floor(m/2), which equals the
    conventional m/2 for even orders.  For odd orders a literal m/2
    shift would put the coarse functions on the half-integer lattice,
    whose span is not the integer-knot space V_0 that the wavelet
    ladder complements: biorthogonality still holds shift-consistently,
    but expansions of V_0 elements then leak irrecoverably.

Exact inputs (piecewise polynomials) are paired by exact integration.
For sampled inputs mu is the exact pairing of the fundamental spline
interpolant J_N f with each primal over its whole support, with no
cut-off at the sample window, made one level at a time: J_N f is
evaluated once at Gauss-Legendre nodes that are exact for the products,
and ``shift_corr``, the transpose of ``shift_sum``, sums the weighted
values into every shift.  Levels j >= N raise QuadratureResolutionError.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .basis import FaberBasisSpec, build_basis, DyadicIndex, _dense
from .dualcoeffs import DualCoeffTable, dual_scaling_coeffs
from .piecewise import PiecewisePolynomial, bspline, inner_product, shift_corr
from .sampling import Expansion, _level_series, _nonzero, spline_interpolate
from .wavelets import wavelet

__all__ = [
    "QuadratureResolutionError",
    "WaveletExpansion",
    "mu_coeff",
    "wavelet_analyze",
    "wavelet_synthesize",
]


class QuadratureResolutionError(ValueError):
    """Samples are coarser than the wavelet knot spacing at this level."""


WaveletExpansion = Expansion  # the mu coefficients use the same map as lambda


def _center(m: int) -> int:
    return m // 2


@lru_cache(maxsize=None)
def _primal(m: int, j: int, k: int) -> PiecewisePolynomial:
    if j == -1:
        return bspline(m).translate(k - _center(m))
    return wavelet(m).psi.compose_dyadic(2**j, k)


@lru_cache(maxsize=None)
def _float_primals(m: int):
    """Float psi_m and N_m, the pieces every primal and dual of order m shifts."""
    return wavelet(m).psi.as_float(), bspline(m).as_float()


def _mu_exact(f: PiecewisePolynomial, m: int, idx: DyadicIndex) -> float:
    weight = Fraction(2) ** idx.j if idx.j >= 0 else Fraction(1)
    return float(weight * inner_product(f, _primal(m, idx.j, idx.k)))


def _mu_level(f, m: int, j: int, k_min: int, k_max: int, basis: FaberBasisSpec = None) -> np.ndarray:
    """mu_{j,k}(f) for k_min <= k <= k_max, as an array.

    Exact input is integrated one k at a time.  Sampled input evaluates
    J_N f at the 2m Gauss-Legendre nodes of every level-L cell under the
    shifts' supports, L = max(N, j + 1, 1), where J_N f and the primal are
    polynomials, and correlates the weighted values with the primal.
    """
    if isinstance(f, PiecewisePolynomial):
        return np.array([_mu_exact(f, m, DyadicIndex(j, k)) for k in range(k_min, k_max + 1)])
    if j >= 0 and f.N < j + 1:
        raise QuadratureResolutionError(
            f"level {j} knots at 2^-{j + 1} need samples at least that fine, got 2^-{f.N}"
        )
    if basis is None:
        basis = build_basis(m)
    # the primal of shift k is pp(2^scale x - k - lag), supported on [k + lag, k + lag + W] / 2^scale
    psi_f, nm_f = _float_primals(m)
    pp, scale, lag = (nm_f, 0, -_center(m)) if j == -1 else (psi_f, j, 0)
    level = max(f.N, j + 1, 1)
    per_unit = 2 ** (level - scale)
    cells = np.arange((k_min + lag) * per_unit, (k_max + lag + int(pp.support[1])) * per_unit)
    nodes, gl_w = np.polynomial.legendre.leggauss(2 * m)
    pts = np.ldexp(cells[:, None] + 0.5 * (1.0 + nodes), -level)
    g = spline_interpolate(f, m, pts, basis) * np.ldexp(gl_w, -level - 1)
    c0, r = shift_corr(pp, g, np.ldexp(pts, scale))
    return np.ldexp(r[k_min + lag - c0 : k_max + lag - c0 + 1], max(j, 0))


def mu_coeff(f, m: int, idx: DyadicIndex, basis: FaberBasisSpec = None) -> float:
    """Analysis coefficient mu_{j,k}(f).

    Exact for piecewise-polynomial f; for sampled f the value is the
    exact pairing of J_N f with the primal over its whole support, bit
    for bit the value ``wavelet_analyze`` gives, and levels j >= N raise
    QuadratureResolutionError.
    """
    return float(_mu_level(f, m, idx.j, idx.k, idx.k, basis)[0])


def wavelet_analyze(f, m: int, J: int, basis: FaberBasisSpec = None) -> Expansion:
    """All coefficients mu_{j,k}(f) for levels -1..J over the support of f, one pass per level."""
    if J < 0:
        raise ValueError("J must be >= 0")
    if isinstance(f, PiecewisePolynomial):
        lo, hi = (float(t) for t in f.support)
    else:
        lo, hi = f.k_lo / 2**f.N, f.k_hi / 2**f.N
    c = _center(m)
    ranges = {-1: (math.ceil(lo + c - m), math.floor(hi + c))}
    for j in range(J + 1):
        ranges[j] = (math.ceil(lo * 2**j) - (2 * m - 1), math.floor(hi * 2**j))
    levels = {j: _nonzero(k_min, _mu_level(f, m, j, k_min, k_max, basis)) for j, (k_min, k_max) in ranges.items()}
    return Expansion(m=m, levels=levels)


def wavelet_synthesize(
    exp: Expansion,
    dual_table: DualCoeffTable,
    xs,
    scaling_table: DualCoeffTable = None,
) -> np.ndarray:
    """Evaluate sum_{j,k} mu_{j,k} psi*_{j,k} on a grid.

    ``dual_table`` supplies the a_n window for the wavelet levels; the
    coarse level needs the scaling duals, built at a matching window when
    not provided.  Each level is one shift series of psi (or of N_m at the
    coarse level), summed with ``shift_sum``.
    """
    m = exp.m
    if scaling_table is None:
        w = (dual_table.window[1] - dual_table.window[0]) // 2
        scaling_table = dual_scaling_coeffs(m, w)
    psi_f, nm_f = _float_primals(m)
    coarse = (nm_f, _dense(scaling_table.coeffs), _center(m))
    return _level_series(exp.levels, xs, coarse, (psi_f, _dense(dual_table.coeffs), 0))
