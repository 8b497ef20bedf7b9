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

Exact inputs (piecewise polynomials) are paired by exact integration;
sampled inputs are routed through the fundamental spline interpolant of
their grid and then integrated with composite Gauss-Legendre that is
exact for the resulting piecewise polynomials, so quadrature error
inherits the interpolation error instead of adding a knob.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .basis import FaberBasisSpec, build_basis, DyadicIndex, _dense
from .dualcoeffs import DualCoeffTable, dual_scaling_coeffs
from .piecewise import PiecewisePolynomial, bspline, inner_product, shift_sum
from .sampling import Expansion, SampledFunction, spline_interpolate
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


def _mu_sampled(f: SampledFunction, m: int, idx: DyadicIndex, basis: FaberBasisSpec) -> float:
    if idx.j >= 0 and f.N < idx.j + 1:
        raise QuadratureResolutionError(
            f"level {idx.j} knots at 2^-{idx.j + 1} need samples at least that fine, got 2^-{f.N}"
        )
    # the primal is pp(2^scale x - shift), supported on [shift, shift + width] / 2^scale
    psi_f, nm_f = _float_primals(m)
    pp, scale, shift = (nm_f, 0, idx.k - _center(m)) if idx.j == -1 else (psi_f, idx.j, idx.k)
    lo = max(Fraction(shift, 2**scale), Fraction(f.k_lo, 2**f.N))
    hi = min(Fraction(shift + int(pp.support[1]), 2**scale), Fraction(f.k_hi, 2**f.N))
    if hi <= lo:
        return 0.0
    # partition at the finer of the sample grid and the knot grid
    level = max(f.N, idx.j + 1, 1)
    i_lo = int(lo * 2**level)
    i_hi = int(hi * 2**level)
    nodes, gl_w = np.polynomial.legendre.leggauss(2 * m)
    h = 0.5 / 2**level
    cells = (np.arange(i_lo, i_hi) + 0.5) / 2**level
    pts = (cells[:, None] + h * nodes[None, :]).ravel()
    interp = spline_interpolate(f, m, pts, basis)
    integrand = (interp * pp.eval_array(np.ldexp(pts, scale) - shift)).reshape(len(cells), -1)
    total = float(np.dot(integrand.sum(axis=0), gl_w) * h)
    return float(np.ldexp(total, max(idx.j, 0)))


def mu_coeff(f, m: int, idx: DyadicIndex, basis: FaberBasisSpec = None) -> float:
    """Analysis coefficient mu_{j,k}(f).

    Exact for piecewise-polynomial f; for sampled f the value is the
    exact pairing of the fundamental spline interpolant of the samples.
    """
    if isinstance(f, PiecewisePolynomial):
        return _mu_exact(f, m, idx)
    if basis is None:
        basis = build_basis(m)
    return _mu_sampled(f, m, idx, basis)


def wavelet_analyze(f, m: int, J: int, basis: FaberBasisSpec = None) -> Expansion:
    """All coefficients mu_{j,k}(f) for levels -1..J over the support of f."""
    if J < 0:
        raise ValueError("J must be >= 0")
    if isinstance(f, PiecewisePolynomial):
        lo, hi = (float(t) for t in f.support)
    else:
        lo, hi = f.k_lo / 2**f.N, f.k_hi / 2**f.N
        if basis is None:
            basis = build_basis(m)
    levels = {}
    c = _center(m)
    lev = {}
    for k in range(math.ceil(lo + c - m), math.floor(hi + c) + 1):
        v = mu_coeff(f, m, DyadicIndex(-1, k), basis)
        if v != 0.0:
            lev[k] = v
    levels[-1] = lev
    for j in range(J + 1):
        lev = {}
        k_min = math.ceil(lo * 2**j) - (2 * m - 1)
        k_max = math.floor(hi * 2**j)
        for k in range(k_min, k_max + 1):
            v = mu_coeff(f, m, DyadicIndex(j, k), basis)
            if v != 0.0:
                lev[k] = v
        levels[j] = lev
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
    xs = np.asarray(xs, dtype=float)
    out = np.zeros_like(xs)
    psi_f, nm_f = _float_primals(m)
    a0, a_arr = _dense(dual_table.coeffs)
    b0, b_arr = _dense(scaling_table.coeffs)
    for j in sorted(exp.levels):
        lev = exp.levels[j]
        if not lev:
            continue
        k0, mu = _dense(lev)
        if j == -1:
            out += shift_sum(nm_f, np.convolve(mu, b_arr), k0 + b0, xs + _center(m))
        else:
            out += shift_sum(psi_f, np.convolve(mu, a_arr), k0 + a0, np.ldexp(xs, j))
    return out
