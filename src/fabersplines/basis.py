"""The lifted Faber-spline basis and the cardinal interpolant.

For j >= 0 the basis function at dyadic position (j, k) is the truncated
series

    s_{j,k}(x) = kappa_m * sum_{|n - c| <= n_max} a_n v(2^j x - k - n),

where v is the m-fold Taylor-kernel lift of the order-m wavelet (an exact
piecewise polynomial of degree 2m-1 on half-integer knots, same support
[0, 2m-1], vanishing at the integers), a_n are the dual-wavelet
coefficients and kappa_m = (-1)^m.  The parity constant comes from m-fold
integration by parts: pairing the sampling functional of level l against
s_{j,k} produces (-1)^m * delta_{(j,k),(l,n)} for the raw series, so odd
orders need the sign flip to make the expansion coefficients match the
sampling functionals.  The Kronecker property is asserted numerically in
the test suite rather than trusted from this argument.

Level j = -1 uses the cardinal interpolant of order 2m,

    L(x) = sum_n b_n N_{2m}(x + m - n),      L(j) = delta_{j,0},

built from the dual scaling coefficients; s_{-1,k}(x) = L(x - k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .dualcoeffs import DualCoeffTable, dual_scaling_coeffs, dual_wavelet_coeffs
from .piecewise import InvariantError, PiecewisePolynomial, bspline, shift_sum, taylor_lift
from .wavelets import wavelet

__all__ = ["DyadicIndex", "FaberBasisSpec", "build_basis", "eval_s", "eval_L"]

DEFAULT_TOLERANCE = 1e-12


@dataclass(frozen=True)
class DyadicIndex:
    """Level/shift pair (j, k) with j >= -1.

    The associated dyadic interval is [2^-j k, 2^-j (k+1)] for j >= 0 and
    [k - 1/2, k + 1/2] for the coarse level j = -1.
    """

    j: int
    k: int

    def __post_init__(self):
        if self.j < -1:
            raise ValueError("level must be >= -1")

    def interval(self):
        if self.j == -1:
            return (Fraction(self.k) - Fraction(1, 2), Fraction(self.k) + Fraction(1, 2))
        w = Fraction(1, 2**self.j)
        return (self.k * w, (self.k + 1) * w)

    @property
    def measure(self) -> Fraction:
        lo, hi = self.interval()
        return hi - lo


def truncation_window(decay_rate: float, tolerance: float) -> int:
    """Smallest n with decay_rate**n below tolerance."""
    return max(1, math.ceil(math.log(tolerance) / math.log(decay_rate)))


@dataclass(frozen=True)
class FaberBasisSpec:
    """Everything needed to evaluate the basis at one spline order."""

    m: int
    v: PiecewisePolynomial
    dual_table: DualCoeffTable
    cardinal_table: DualCoeffTable
    tolerance: float

    @property
    def n_max(self) -> int:
        return (self.dual_table.window[1] - self.dual_table.window[0]) // 2

    @property
    def pairing_sign(self) -> int:
        return -1 if self.m % 2 else 1

    @cached_property
    def _v_float(self) -> PiecewisePolynomial:
        return self.v.as_float()

    @cached_property
    def _n2m_float(self) -> PiecewisePolynomial:
        return bspline(2 * self.m).as_float()


@lru_cache(maxsize=None)
def build_basis(m: int, tolerance: float = DEFAULT_TOLERANCE) -> FaberBasisSpec:
    """Construct the order-2m basis data, truncating both series to tolerance."""
    if not 0 < tolerance < 1:
        raise ValueError("tolerance must be in (0, 1)")
    spec = wavelet(m)
    v = taylor_lift(spec.psi, m)
    if v.support != spec.psi.support:
        raise InvariantError(f"lift support {v.support} differs from the wavelet support {spec.psi.support}")
    rho_a = dual_wavelet_coeffs(m, 1).decay_rate
    rho_b = dual_scaling_coeffs(m, 1).decay_rate
    a_table = dual_wavelet_coeffs(m, truncation_window(rho_a, tolerance))
    b_table = dual_scaling_coeffs(m, truncation_window(rho_b, tolerance))
    return FaberBasisSpec(m=m, v=v, dual_table=a_table, cardinal_table=b_table, tolerance=tolerance)


def _dense(coeffs: dict):
    """A sparse {index: value} map as (first index, dense array with zeros in the gaps)."""
    k0 = min(coeffs)
    arr = np.zeros(max(coeffs) - k0 + 1)
    for k, v in coeffs.items():
        arr[k - k0] = v
    return k0, arr


def eval_L(spec: FaberBasisSpec, x) -> np.ndarray | float:
    """Cardinal interpolant L(x) = sum_n b_n N_{2m}(x + m - n), truncated."""
    xs = np.asarray(x, dtype=float)
    b0, b = _dense(spec.cardinal_table.coeffs)
    out = shift_sum(spec._n2m_float, b, b0, xs + spec.m)
    return float(out) if np.isscalar(x) or xs.ndim == 0 else out


def eval_s(spec: FaberBasisSpec, idx: DyadicIndex, x) -> np.ndarray | float:
    """Basis function s_{j,k} at x (truncated series; exact 0 tail outside)."""
    if idx.j == -1:
        return eval_L(spec, np.asarray(x, dtype=float) - idx.k)
    xs = np.asarray(x, dtype=float)
    a0, a = _dense(spec.dual_table.coeffs)
    out = shift_sum(spec._v_float, spec.pairing_sign * a, a0, np.ldexp(xs, idx.j) - idx.k)
    return float(out) if np.isscalar(x) or xs.ndim == 0 else out
