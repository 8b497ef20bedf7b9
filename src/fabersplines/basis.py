"""The lifted Faber-spline basis and the cardinal interpolant.

For j >= 0 the basis function at dyadic position (j, k) is the truncated
series

    s_{j,k}(x) = kappa_m * sum_{|n| <= n_max} a_n v(2^j x - k - n),

where v is the m-fold Taylor-kernel lift of the order-m wavelet (an exact
piecewise polynomial of degree 2m-1 on half-integer knots, same support
[0, 2m-1], vanishing at the integers), a_n are the dual-wavelet
coefficients and kappa_m = (-1)^m.  The parity constant comes from m-fold
integration by parts: pairing the sampling functional of level l against
s_{j,k} produces (-1)^m * delta_{(j,k),(l,n)} for the raw series, so odd
orders need the sign flip to make the expansion coefficients match the
sampling functionals.  The Kronecker property is asserted numerically in
the test suite rather than trusted from this argument.  ``eval_s`` is the
one-coefficient case of ``sampling.synthesize``, which reads B-splines only.
v reaches the runtime only through its two-scale taps w (v = sum_l w_l
N_{2m}(2x - l), ``wavelets.two_scale_taps``), so no basis spec holds it:
``piecewise.taylor_lift(wavelets.wavelet(m).psi, m)`` builds it exactly,
and the tests check the taps against it.

Level j = -1 uses the cardinal interpolant of order 2m,

    L(x) = sum_n b_n N_{2m}(x + m - n),      L(j) = delta_{j,0},

built from the dual scaling coefficients; s_{-1,k}(x) = L(x - k).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dualcoeffs import (
    DualCoeffTable,
    dual_scaling_coeffs,
    dual_wavelet_coeffs,
    palindromic_roots,
    require_supported_order,
    truncation_window,
)
from .wavelets import autocorr, scaling_crosscorr

__all__ = ["DyadicIndex", "FaberBasisSpec", "build_basis", "eval_s", "eval_L"]

@dataclass(frozen=True)
class DyadicIndex:
    """Level/shift pair (j, k) with j >= -1.

    Its dyadic interval I_{j,k} is defined in ``norms``, which computes with it.
    """

    j: int
    k: int

    def __post_init__(self):
        if self.j < -1:
            raise ValueError("level must be >= -1")


@dataclass(frozen=True)
class FaberBasisSpec:
    """Everything needed to evaluate the basis at one spline order."""

    m: int
    dual_table: DualCoeffTable
    cardinal_table: DualCoeffTable

    @property
    def n_max(self) -> int:
        return (self.dual_table.window[1] - self.dual_table.window[0]) // 2

    @property
    def pairing_sign(self) -> int:
        return -1 if self.m % 2 else 1


def build_basis(m: int) -> FaberBasisSpec:
    """Construct the order-2m basis data, both series cut at ``dualcoeffs.TOLERANCE``; 2 <= m <= 12.

    Cached once per m, whether m is passed by position or by name.
    """
    return _build_basis(m)


@lru_cache(maxsize=None)
def _build_basis(m: int) -> FaberBasisSpec:
    require_supported_order(m)
    a_table = dual_wavelet_coeffs(m, truncation_window(palindromic_roots(autocorr(m)).decay_rate))
    b_table = dual_scaling_coeffs(m, truncation_window(palindromic_roots(scaling_crosscorr(m)).decay_rate))
    return FaberBasisSpec(m=m, dual_table=a_table, cardinal_table=b_table)


build_basis.cache_info = _build_basis.cache_info


def eval_L(spec: FaberBasisSpec, x) -> np.ndarray | float:
    """Cardinal interpolant L(x) = sum_n b_n N_{2m}(x + m - n), truncated: s_{-1,0}."""
    return eval_s(spec, DyadicIndex(-1, 0), x)


def eval_s(spec: FaberBasisSpec, idx: DyadicIndex, x) -> np.ndarray | float:
    """Basis function s_{j,k} at x, the one-coefficient case of ``sampling.synthesize``."""
    from .sampling import Expansion, synthesize

    xs = np.asarray(x, dtype=float)
    out = synthesize(Expansion(spec.m, {idx.j: {idx.k: 1.0}}), spec, xs)
    return float(out) if np.isscalar(x) or xs.ndim == 0 else out
