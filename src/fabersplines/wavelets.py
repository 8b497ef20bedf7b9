"""Chui-Wang spline wavelets and the correlation sequences of their shifts.

The order-m wavelet is the B-spline combination

    psi_m(x) = pref(m) * sum_{l=0}^{2m-2} (-1)^l N_{2m}(l+1) N_{2m}^{(m)}(2x - l),

supported on [0, 2m-1], piecewise of degree m-1 on half-integer knots,
with m vanishing moments, orthogonal to every integer shift of N_m and to
every other dyadic scale of itself (semi-orthogonality).  The m-fold
derivative is legal as a plain function since N_{2m} is C^{2m-2} and
m <= 2m-2 for m >= 2; the Haar case m = 1 is rejected throughout.

Two integer-normalizable correlation sequences feed the dual-coefficient
solver: the wavelet autocorrelation d_n = <psi_m(.+n-2(m-1)), psi_m> of
degree 4(m-1), and the B-spline autocorrelation g_n = <N_m(.+n-(m-1)), N_m>
of degree 2(m-1) whose inverse filter yields the cardinal-interpolant
coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .piecewise import (
    InvariantError,
    OrderError,
    PiecewisePolynomial,
    bspline,
    differentiate,
    inner_product,
)

__all__ = ["WaveletSpec", "AutocorrSequence", "wavelet", "autocorr", "scaling_crosscorr"]

def _prefactor(m: int) -> Fraction:
    return Fraction(1, 2 ** (m - 1))


def _require_order(m: int):
    if m < 2:
        raise OrderError(f"wavelet order must be >= 2 (Haar is unsupported), got {m}")


@dataclass(frozen=True)
class WaveletSpec:
    """Order-m wavelet psi (support [0, 2m-1]) and its scaling function N_m."""

    m: int
    psi: PiecewisePolynomial
    scaling: PiecewisePolynomial


@dataclass(frozen=True)
class AutocorrSequence:
    """Palindromic correlation sequence d_0..d_degree with exact values.

    ``normalized`` is the integer sequence obtained by multiplying with the
    positive common denominator and dividing by the gcd; roots of the
    associated polynomial are invariant under this rescaling.  ``center``
    is the peak index degree/2 (the zero-lag value).
    """

    m: int
    values: tuple
    normalized: tuple

    def __post_init__(self):
        deg = self.degree
        for n in range(deg + 1):
            if self.values[n] != self.values[deg - n]:
                raise ValueError("sequence is not palindromic")

    @classmethod
    def from_values(cls, m: int, values) -> "AutocorrSequence":
        vals = tuple(Fraction(v) for v in values)
        return cls(m=m, values=vals, normalized=_normalize(vals))

    @property
    def degree(self) -> int:
        return len(self.values) - 1

    @property
    def center(self) -> int:
        return self.degree // 2

    def lag(self, l: int) -> Fraction:
        """Recentred view: value at lag l in -center..center (0 outside)."""
        n = l + self.center
        if 0 <= n <= self.degree:
            return self.values[n]
        return Fraction(0)

    def lags(self) -> dict:
        return {n - self.center: v for n, v in enumerate(self.values)}

    def fraction_strings(self) -> list:
        return [str(v) for v in self.values]

    def is_increasing_symmetric(self) -> bool:
        """|d_center| > |d_{center-1}| > ... > |d_0|, with mirrored equality."""
        mags = [abs(self.values[self.center - i]) for i in range(self.center + 1)]
        return all(a > b for a, b in zip(mags, mags[1:]))


def _normalize(values) -> tuple:
    scale = math.lcm(*(v.denominator for v in values))
    ints = [int(v * scale) for v in values]
    g = math.gcd(*ints)
    if g > 1:
        ints = [i // g for i in ints]
    return tuple(ints)


@lru_cache(maxsize=None)
def wavelet(m: int) -> WaveletSpec:
    """Construct the order-m spline wavelet as an exact piecewise polynomial."""
    _require_order(m)
    n2m = bspline(2 * m)
    deriv = differentiate(n2m, m)
    pref = _prefactor(m)
    psi = PiecewisePolynomial.zero()
    for l in range(2 * m - 1):
        weight = pref * (-1) ** l * n2m(l + 1)
        psi = psi + weight * deriv.compose_dyadic(2, l)
    if psi.support != (Fraction(0), Fraction(2 * m - 1)):
        raise InvariantError(f"wavelet support {psi.support} is not [0, {2 * m - 1}]")
    return WaveletSpec(m=m, psi=psi, scaling=bspline(m))


@lru_cache(maxsize=None)
def autocorr(m: int) -> AutocorrSequence:
    """Exact wavelet autocorrelation d_n = <psi(.+n-2(m-1)), psi>, n = 0..4(m-1)."""
    _require_order(m)
    psi = wavelet(m).psi
    center = 2 * (m - 1)
    # palindromic, so compute lags 0..center and mirror
    half = [inner_product(psi.translate(-l), psi) for l in range(center + 1)]
    return AutocorrSequence.from_values(m, half[::-1] + half[1:])


@lru_cache(maxsize=None)
def scaling_crosscorr(m: int) -> AutocorrSequence:
    """Exact B-spline autocorrelation g_n = <N_m(.+n-(m-1)), N_m>, n = 0..2(m-1).

    This is the sequence whose inverse filter gives the dual-scaling
    coefficients b_n; it equals N_{2m}(n+1), which the tests verify
    independently.  (Pairing N_m against psi_m here instead would not
    produce an invertible palindromic sequence; see the
    cardinal-interpolation checks in the test suite.)
    """
    _require_order(m)
    nm = bspline(m)
    center = m - 1
    half = [inner_product(nm.translate(-l), nm) for l in range(center + 1)]
    return AutocorrSequence.from_values(m, half[::-1] + half[1:])
