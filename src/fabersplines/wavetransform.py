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

One Mallat filter bank (IEEE PAMI 1989) gets every level, for exact and
sampled input alike, from the finest 2^j-scaled pairings t_{j,k} =
2^j <f, N_m(2^j . - k)>.  Each is a weighted mean of f, so t keeps the
size of f at every level.  The two-scale relations of N_m and psi_m (Chui
and Wang, Trans. AMS 1992; all taps in ``wavelets.two_scale_taps``) give

    t_{j,k} = 1/2 sum_l p_l t_{j+1,2k+l},      p_l = C(m, l) / 2^(m-1),
    mu_{j,k} = 1/2 sum_n q_n t_{j+1,2k+n},     q_n = (-1)^n sum_i C(m, i) N_2m(n - i + 1) / 2^(m-1),
    mu_{-1,k} = t_{0,k-c}.

Only the finest level L depends on the input.  Exact input (a piecewise
polynomial) is integrated against N_m(2^L . - k) at L = J + 1, and the
bank runs on its Fractions, rounding each mu once.  For sampled input mu
pairs the fundamental spline interpolant J_N f = sum_i h_i N_2m(2^N x +
m - c0 - i) with each primal, with no quadrature: L = N and t_N = h * gram
for one exact Gram sequence.

Every shift whose primal meets the support of f (of J_N f if sampled) is
returned, also past the sample window.  Levels j >= N raise ``sampling.ResolutionError``.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from .basis import FaberBasisSpec, DyadicIndex
from .dualcoeffs import Coeffs, DualCoeffTable, require_supported_order
from .piecewise import PiecewisePolynomial, bspline, inner_product
from .sampling import Expansion, ResolutionError, _basis_for, _float_taps, _interp_coeffs, _two_scale_series
from .wavelets import two_scale_taps, wavelet

__all__ = [
    "mu_coeff",
    "wavelet_analyze",
    "wavelet_synthesize",
]


def _center(m: int) -> int:
    return m // 2


@lru_cache(maxsize=None)
def _primal(m: int, j: int, k: int) -> PiecewisePolynomial:
    """The primal of mu_{j,k}; no library path calls it, but ``bench/serve.py`` reads its ``cache_info()``."""
    if j == -1:
        return bspline(m).translate(k - _center(m))
    return wavelet(m).psi.compose_dyadic(2**j, k)


def _decimate(k0: int, s: np.ndarray, taps: np.ndarray):
    """(k1, r) with r[i] = sum_n taps[n] s[2(k1 + i) + n - k0], over every k1 + i whose taps meet s."""
    k1 = -((len(taps) - 1 - k0) // 2)
    return k1, np.convolve(s, taps[::-1])[2 * k1 - k0 + len(taps) - 1 :: 2]


def _levels(f, m: int, J: int, basis: FaberBasisSpec = None) -> dict:
    """{j: Coeffs {k: mu_{j,k}(f)}} over the nonzero mu of levels -1..J, by the pyramid from t_{L,k} = t[k - k0]: its levels,
    joined coarse to fine in one array and rounded to float there once, go through one ``Coeffs.nonzero_spans`` call."""
    if isinstance(f, PiecewisePolynomial):
        L, (lo, hi) = J + 1, f.support
        p, q = (np.array(taps, dtype=object) for taps in two_scale_taps(m)[1:3])
        k0 = math.floor(lo * 2**L) - m + 1
        t = np.array([2**L * inner_product(f, bspline(m).compose_dyadic(2**L, k)) for k in range(k0, math.ceil(hi * 2**L))])
    else:
        if J >= f.N:
            raise ResolutionError(f"level {J} knots at 2^-{J + 1} need samples at least that fine, got 2^-{f.N}")
        c0, h = _interp_coeffs(f, _basis_for(m, basis))
        gram, p, q, _, _ = _float_taps(m)
        L, k0, t = f.N, c0 - 2 * m + 1, np.convolve(h, gram)
    p, q = p / 2, q / 2
    parts = []  # (first shift, mu) of levels J..0, then -1
    for j in range(L - 1, -1, -1):
        if j <= J:
            parts.append(_decimate(k0, t, q))
        k0, t = _decimate(k0, t, p)
    ks, mus = zip(*reversed([*parts, (k0 + _center(m), t)]))  # levels -1..J
    at = [0, *itertools.accumulate(map(len, mus))]
    vals = np.concatenate(mus).astype(float, copy=False)  # an exact mu rounds here, before its zero test
    return dict(zip(range(-1, J + 1), Coeffs.nonzero_spans(vals, list(zip(ks, at, map(len, mus))))))


def mu_coeff(f, m: int, idx: DyadicIndex, basis: FaberBasisSpec = None) -> float:
    """Analysis coefficient mu_{j,k}(f), exact for piecewise-polynomial f, bit for bit ``wavelet_analyze``'s.

    It costs a ``wavelet_analyze`` to level j, as it pairs f over its whole support at level j + 1
    (N if sampled): a caller that needs many coefficients calls ``wavelet_analyze`` once.
    """
    require_supported_order(m)  # before the exact path, which integrates for about a second
    return _levels(f, m, idx.j, basis)[idx.j].get(idx.k, 0.0)


def wavelet_analyze(f, m: int, J: int, basis: FaberBasisSpec = None) -> Expansion:
    """All coefficients mu_{j,k}(f) for levels -1..J over the support of f (of J_N f if sampled)."""
    require_supported_order(m)  # before the exact path, which integrates for about a second
    if J < 0:
        raise ValueError("J must be >= 0")
    return Expansion(m=m, levels=_levels(f, m, J, basis))


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
