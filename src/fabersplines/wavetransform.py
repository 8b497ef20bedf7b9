"""Biorthogonal Chui-Wang analysis and synthesis.

Analysis coefficients pair the input against the primal wavelets,

    mu_{j,k}(f) = <f, 2^j psi_m(2^j . - k)>          for j >= 0,
    mu_{-1,k}(f) = <f, N_m(. + c - k)>,  c = floor(m/2),   coarse level,

and synthesis expands against the duals, which are never materialized as
piecewise polynomials (their support is the whole line): psi*_{j,k} is
the truncated series sum_n a_n psi(2^j x - k - n), and the coarse dual
N*_m(. - k) the series sum_n b_n N_m(. - k + c - n).  Synthesis is the
transpose of the filter bank below: q turns a level into N_m coefficients
one level finer, p refines, and one shift sum of N_m evaluates the grid.

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
For sampled inputs mu pairs the fundamental spline interpolant
J_N f = sum_i h_i N_2m(2^N x + m - c0 - i) with each primal by a Mallat
filter bank on h (IEEE PAMI 1989), with no quadrature.  The level-N
pairings s_{N,k} = <J_N f, N_m(2^N . - k)> are 2^-N (h * gram) for one
exact Gram sequence, and the two-scale relations of N_m and psi_m (Chui
and Wang, Trans. AMS 1992; all taps in ``wavelets.two_scale_taps``) give
every coarser level:

    s_{j,k} = sum_l p_l s_{j+1,2k+l},        p_l = C(m, l) / 2^(m-1),
    mu_{j,k} = 2^j sum_n q_n s_{j+1,2k+n},   q_n = (-1)^n sum_i C(m, i) N_2m(n - i + 1) / 2^(m-1),
    mu_{-1,k} = s_{0,k-c}.

Every shift whose primal meets the support of J_N f is returned, also
past the sample window.  Levels j >= N raise ``sampling.ResolutionError``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .basis import FaberBasisSpec, DyadicIndex
from .dualcoeffs import Coeffs, DualCoeffTable, require_supported_order
from .piecewise import PiecewisePolynomial, bspline, inner_product
from .sampling import Expansion, ResolutionError, _basis_for, _float_taps, _interp_coeffs, _two_scale_series
from .wavelets import wavelet

__all__ = [
    "mu_coeff",
    "wavelet_analyze",
    "wavelet_synthesize",
]


def _center(m: int) -> int:
    return m // 2


@lru_cache(maxsize=None)
def _primal(m: int, j: int, k: int) -> PiecewisePolynomial:
    if j == -1:
        return bspline(m).translate(k - _center(m))
    return wavelet(m).psi.compose_dyadic(2**j, k)


def _mu_exact(f: PiecewisePolynomial, m: int, idx: DyadicIndex) -> float:
    weight = Fraction(2) ** idx.j if idx.j >= 0 else Fraction(1)
    return float(weight * inner_product(f, _primal(m, idx.j, idx.k)))


def _decimate(k0: int, s: np.ndarray, taps: np.ndarray):
    """(k1, r) with r[i] = sum_n taps[n] s[2(k1 + i) + n - k0], over every k1 + i whose taps meet s."""
    k1 = -((len(taps) - 1 - k0) // 2)
    return k1, np.convolve(s, taps[::-1])[2 * k1 - k0 + len(taps) - 1 :: 2]


def _sampled_levels(f, m: int, J: int, basis: FaberBasisSpec = None) -> dict:
    """{j: Coeffs {k: mu_{j,k}(f)}} over the nonzero mu of levels -1..J of sampled f, by the pyramid."""
    if J >= f.N:
        raise ResolutionError(f"level {J} knots at 2^-{J + 1} need samples at least that fine, got 2^-{f.N}")
    basis = _basis_for(m, basis)
    gram, p, q, _, _ = _float_taps(m)
    c0, h = _interp_coeffs(f, basis)
    k0, s = c0 - 2 * m + 1, np.ldexp(np.convolve(h, gram), -f.N)  # s_{N,k} = s[k - k0]
    levels = {}
    for j in range(f.N - 1, -1, -1):
        if j <= J:
            k1, d = _decimate(k0, s, q)
            levels[j] = Coeffs.nonzero(k1, np.ldexp(d, j))
        k0, s = _decimate(k0, s, p)
    levels[-1] = Coeffs.nonzero(k0 + _center(m), s)
    return dict(sorted(levels.items()))


def mu_coeff(f, m: int, idx: DyadicIndex, basis: FaberBasisSpec = None) -> float:
    """Analysis coefficient mu_{j,k}(f), exact for piecewise-polynomial f.

    Sampled f reads the pyramid of ``wavelet_analyze``, bit for bit its value.
    """
    require_supported_order(m)  # before the exact path, which integrates for about a second
    if isinstance(f, PiecewisePolynomial):
        return _mu_exact(f, m, idx)
    return _sampled_levels(f, m, idx.j, basis)[idx.j].get(idx.k, 0.0)


def wavelet_analyze(f, m: int, J: int, basis: FaberBasisSpec = None) -> Expansion:
    """All coefficients mu_{j,k}(f) for levels -1..J over the support of f (of J_N f if sampled)."""
    require_supported_order(m)  # before the exact path, which integrates for about a second
    if J < 0:
        raise ValueError("J must be >= 0")
    if not isinstance(f, PiecewisePolynomial):
        return Expansion(m=m, levels=_sampled_levels(f, m, J, basis))
    lo, hi = (float(t) for t in f.support)
    c = _center(m)
    ranges = {-1: (math.ceil(lo + c - m), math.floor(hi + c))}
    for j in range(J + 1):
        ranges[j] = (math.ceil(lo * 2**j) - (2 * m - 1), math.floor(hi * 2**j))
    levels = {
        j: Coeffs.nonzero(a, np.array([_mu_exact(f, m, DyadicIndex(j, k)) for k in range(a, b + 1)]))
        for j, (a, b) in ranges.items()
    }
    return Expansion(m=m, levels=levels)


def wavelet_synthesize(exp: Expansion, dual_table: DualCoeffTable, xs, scaling_table: DualCoeffTable) -> np.ndarray:
    """Evaluate sum_{j,k} mu_{j,k} psi*_{j,k} on a grid.

    ``dual_table`` supplies the a_n window for the wavelet levels and
    ``scaling_table`` the b_n of the coarse duals (``basis.cardinal_table``).
    Every level becomes N_m coefficients one level finer, and one
    ``shift_sum`` of N_m evaluates their refined sum.  Tables of another
    order or kind raise ValueError.
    """
    for table, kind in ((dual_table, "wavelet"), (scaling_table, "scaling")):
        if (table.m, table.kind) != (exp.m, kind):
            raise ValueError(f"need the {kind} table of order {exp.m}, got the {table.kind} table of order {table.m}")
    _, p, q, _, _ = _float_taps(exp.m)
    coarse = (scaling_table.window[0], scaling_table.coeffs.cs, _center(exp.m))
    return _two_scale_series(exp.levels, xs, p, coarse, (dual_table.window[0], dual_table.coeffs.cs, q))
