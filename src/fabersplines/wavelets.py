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

Every exact rational the float paths run on (these two sequences, the
filter-bank taps and the sampling stencil) is an integer combination of
the cardinal B-spline values N_k(i), read from
``piecewise.cardinal_values``.  The piecewise wavelet, its Taylor lift
and the piecewise inner products are the paper's construction, kept as
the oracle the tests check them against.
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
    cardinal_values,
    differentiate,
)

__all__ = ["WaveletSpec", "AutocorrSequence", "wavelet", "two_scale_taps", "autocorr", "scaling_crosscorr"]

def _prefactor(m: int) -> Fraction:
    return Fraction(1, 2 ** (m - 1))


def _require_order(m: int):
    if m < 2:
        raise OrderError(f"wavelet order must be >= 2 (Haar is unsupported), got {m}")


@dataclass(frozen=True)
class WaveletSpec:
    """Order-m wavelet psi (support [0, 2m-1])."""

    m: int
    psi: PiecewisePolynomial


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
    return WaveletSpec(m=m, psi=psi)


@lru_cache(maxsize=None)
def two_scale_taps(m: int) -> tuple:
    """The exact taps (gram, p, q, r, w) that both transforms' filter banks run on.

    N_m = sum_l p_l N_m(2x - l), N_2m = sum_l r_l N_2m(2x - l), psi_m =
    sum_n q_n N_m(2x - n), and the Taylor lift v = sum_l w_l N_2m(2x - l),
    as the m-fold antiderivative of N_2m^(m)(2x - l) is 2^-m N_2m(2x - l);
    gram[i - 1] = N_3m(i) = <N_2m(. + m - d), N_m> at d = 2m - i.
    """
    _require_order(m)
    n2m, n3m = cardinal_values(2 * m), cardinal_values(3 * m)
    half = _prefactor(m)
    gram = n3m[1 : 3 * m]
    p = tuple(math.comb(m, l) * half for l in range(m + 1))
    q = tuple(
        (-1) ** n * sum(math.comb(m, i) * n2m[n - i + 1] for i in range(max(0, n + 1 - 2 * m), min(m, n + 1) + 1)) * half
        for n in range(3 * m - 1)
    )
    r = tuple(math.comb(2 * m, l) * _prefactor(2 * m) for l in range(2 * m + 1))
    w = tuple((-1) ** l * n2m[l + 1] * _prefactor(2 * m) for l in range(2 * m - 1))
    return gram, p, q, r, w


@lru_cache(maxsize=None)
def autocorr(m: int) -> AutocorrSequence:
    """Exact wavelet autocorrelation d_n = <psi(.+n-2(m-1)), psi>, n = 0..4(m-1).

    With psi = sum_a q_a N_m(2x - a) and <N_m(. + t), N_m> = N_2m(m + t),
    the lag-l value is 1/2 sum_t c_t N_2m(m + 2l + t) over the
    autocorrelation c_t = sum_a q_a q_{a+t} of the taps q (Chui, An
    Introduction to Wavelets, 1992, ch. 6).
    """
    _require_order(m)
    q, n2m = two_scale_taps(m)[2], cardinal_values(2 * m)
    c = [sum(q[a] * q[a + t] for a in range(len(q) - t)) for t in range(len(q))]  # c_{-t} = c_t
    # palindromic, so compute lags 0..2(m-1) and mirror; N_2m(m + s) is 0 unless |s| < m, s = 2l + t
    half = [
        sum(c[abs(s - 2 * l)] * n2m[m + s] for s in range(1 - m, m) if abs(s - 2 * l) < len(q)) / 2
        for l in range(2 * m - 1)
    ]
    return AutocorrSequence.from_values(m, half[::-1] + half[1:])


@lru_cache(maxsize=None)
def scaling_crosscorr(m: int) -> AutocorrSequence:
    """Exact B-spline autocorrelation g_n = <N_m(.+n-(m-1)), N_m> = N_2m(n+1), n = 0..2(m-1).

    This is the sequence whose inverse filter gives the dual-scaling
    coefficients b_n; the tests check it against the piecewise inner
    products.  (Pairing N_m against psi_m here instead would not produce
    an invertible palindromic sequence; see the cardinal-interpolation
    checks in the test suite.)
    """
    _require_order(m)
    return AutocorrSequence.from_values(m, cardinal_values(2 * m)[1 : 2 * m])
