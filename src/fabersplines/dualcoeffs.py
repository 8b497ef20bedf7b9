"""Dual wavelet and dual scaling coefficients: the inverse filters of two correlation sequences.

The dual of psi_m inside its own wavelet space is an infinite combination
psi*_m = sum_n a_n psi_m(. - n) whose coefficients invert the
autocorrelation filter:  sum_n a_n d(l - n) = delta_{0,l}.  Inverting the
degree-2(m-1) B-spline autocorrelation g_n the same way gives the dual
scaling coefficients b_n, which are also the coefficients of the cardinal
interpolant of order 2m.

The symbol of either sequence is positive, as the shifts form a Riesz
basis, so the filter inverts on a periodic grid of K points, the smallest
power of two above 2(n_window + 2W + deg/2), W = ``truncation_window``
of the decay rate.  One real-FFT division gives the circulant inverse,
which differs from a_n by about decay_rate**(4W) relative in the window.
Two refinement steps follow; each computes the cyclic residual exactly on
the integer sequence ``seq.normalized``, with the floats held as
integers over one power of two, and adds its FFT-inverted correction.
What error remains is absolute, 6e-34 to 4e-30 times max|a_n| at
m = 2..12, far below the ulp of every a_n with |n| <= W: those come out
rounded to nearest.  Past W the error is not relative to a_n; only
``faber coeffs --window`` and the tests read that far.  The interior
biorthogonality sums of the final table, exact on the same residual,
guard every build.

The decay rate is |z| of the dominant root inside the unit circle of the
palindromic polynomial sum d_n z^n: ``np.roots``, then one Newton step
on the exact integer polynomial.  The paper's explicit dual is a residue
sum over all these roots; its terms cancel by many orders of magnitude
near the junction of its two branches, so it needs far more digits than
the tables keep.  The tests run it at 90 digits (``tests/residue_oracle.py``)
as the oracle that every table is checked against to 1 ulp.  The tables
build for 2 <= m <= 12 (``MAX_ORDER``); other orders raise OrderError on entry.

``Coeffs``, the one sparse-sequence type, holds every table's a_n or b_n and
every level of lambda or mu in an ``Expansion``; float layers read its arrays.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .piecewise import InvariantError, OrderError
from .wavelets import AutocorrSequence, autocorr, scaling_crosscorr

__all__ = [
    "MAX_ORDER",
    "require_supported_order",
    "Coeffs",
    "RootSplit",
    "DualCoeffTable",
    "UnitCircleError",
    "palindromic_roots",
    "dual_wavelet_coeffs",
    "dual_scaling_coeffs",
    "verify_biorthogonality",
]

_REFINE_STEPS = 2
_PAIRING_TOL = 1e-9
_CIRCLE_GUARD = 1e-8
TOLERANCE = 1e-12  # both dual series of a basis are cut where decay_rate**n falls below this
# The tables solve past 12, but no layer's accuracy has been checked there: raising the
# bound waits on the paper's identities running at every order (ROADMAP.md).
MAX_ORDER = 12


def require_supported_order(m: int):
    """Raise OrderError unless m is an integer in 2..MAX_ORDER, the supported orders (a bool is 0 or 1)."""
    if not (isinstance(m, numbers.Integral) and 2 <= m <= MAX_ORDER):
        raise OrderError(f"spline wavelet order must be an integer in 2..{MAX_ORDER}, got {m!r:.40}")


def truncation_window(decay_rate: float) -> int:
    """Smallest n with decay_rate**n below TOLERANCE."""
    return max(1, math.ceil(math.log(TOLERANCE) / math.log(decay_rate)))


def _finite(cs: np.ndarray) -> np.ndarray:
    """cs, if every value is finite; else ValueError."""
    if not np.isfinite(cs).all():
        raise ValueError(f"coefficients must be finite, got {cs[~np.isfinite(cs)][0]}")
    return cs


class Coeffs(Mapping):
    """Read-only mapping {k: c_k} over strictly increasing int64 shifts ``ks`` and finite float64 values ``cs``;
    other input raises ValueError.  The arrays are copies of the caller's, so a later write to those
    changes nothing here.  Keys and items come out as Python ints and floats."""

    def __init__(self, ks, cs):
        ks, cs = np.array(ks), np.array(cs, dtype=float)
        # the dtype kind catches a float shift, one past int64 (uint64) and a mix (float64 or object)
        if (ks.size and ks.dtype.kind != "i") or ks.ndim != 1 or cs.shape != ks.shape or (ks[1:] <= ks[:-1]).any():
            raise ValueError(f"shifts must be strictly increasing integers in the int64 range, one per value, got {ks.dtype}")
        self._own(ks.astype(np.int64, copy=False), _finite(cs))

    def _own(self, ks: np.ndarray, cs: np.ndarray):
        """Hold ks and cs, finite arrays no caller can write, read-only."""
        self.ks, self.cs = ks, cs
        self.ks.flags.writeable = self.cs.flags.writeable = False

    @classmethod
    def of(cls, mapping) -> "Coeffs":
        """The {k: c} mapping as a Coeffs, in shift order; a Coeffs is returned as it is."""
        if isinstance(mapping, Coeffs):
            return mapping
        ks = np.array(list(mapping))
        order = ks.argsort()
        return cls(ks[order], np.array(list(mapping.values()), dtype=float)[order])

    @classmethod
    def nonzero_spans(cls, vals: np.ndarray, spans) -> list:
        """One Coeffs {k0 + i: vals[a + i]} per span (k0, a, count), 0 <= i < count, over its nonzero entries:
        an exact zero takes no entry and reads +0.0.  The one constructor from dense values.

        One ``nonzero`` and one finiteness check (ValueError) cover all of vals, and each span is then two
        slices of the results, its indices shifted in place to its keys, so a span costs a few Python steps
        and one numpy call.  The spans must be disjoint, in any order; the levels share one values and one
        shifts array, fresh and strictly increasing within a span, so they are held with no copy or check."""
        (nz,) = vals.nonzero()
        cs = _finite(vals[nz].astype(float, copy=False))
        cuts = nz.searchsorted([b for _, a, count in spans for b in (a, a + count)]).tolist()
        ks = nz.astype(np.int64, copy=False)
        levels = []
        for (k0, a, _), lo, hi in zip(spans, cuts[::2], cuts[1::2]):
            ks[lo:hi] += k0 - a
            coeffs = cls.__new__(cls)
            coeffs._own(ks[lo:hi], cs[lo:hi])
            levels.append(coeffs)
        ks.flags.writeable = cs.flags.writeable = False
        return levels

    def __getitem__(self, k) -> float:
        i = int(self.ks.searchsorted(k)) if isinstance(k, (int, float, np.number)) else len(self.ks)  # else: not a key
        if i < len(self.ks) and self.ks[i] == k:
            return float(self.cs[i])
        raise KeyError(k)

    def __iter__(self):
        return iter(self.ks.tolist())

    def __len__(self) -> int:
        return len(self.ks)

    def items(self) -> list:
        return list(zip(self.ks.tolist(), self.cs.tolist()))

    def __repr__(self) -> str:
        return f"Coeffs({dict(self.items())!r})"

    def __reduce__(self):
        return Coeffs, (self.ks, self.cs)

    def runs(self, gap) -> list:
        """(first shift, dense array with zeros in the gaps) pairs: one run if the shifts span at
        most gap plus twice their count, else one per stretch of shifts at most gap apart.
        Contiguous shifts, as ``analyze`` mostly leaves them, return the stored values as the run."""
        span = int(self.ks[-1]) - int(self.ks[0])
        if span + 1 == len(self):
            return [(int(self.ks[0]), self.cs)]
        parts = [(self.ks, self.cs)]
        if span > gap + 2 * len(self):  # too sparse for one run
            cuts = np.flatnonzero(np.diff(self.ks.view(np.uint64)) > gap) + 1  # uint64: exact differences
            parts = zip(np.split(self.ks, cuts), np.split(self.cs, cuts))
        runs = []
        for k, c in parts:
            run = np.zeros(int(k[-1]) - int(k[0]) + 1)
            run[k - k[0]] = c
            runs.append((int(k[0]), run))
        return runs


class UnitCircleError(ArithmeticError):
    """A root sits on (or too near) the unit circle; the filter is not invertible."""


@dataclass(frozen=True)
class RootSplit:
    """Roots of a palindromic polynomial split by the unit circle.

    Stored as Python complex numbers, sorted by (|z|, Re z, Im z); the
    inside and outside sets have equal size and, after one Newton step
    each on the exact integer polynomial, are reciprocal images of each
    other within ``pairing_tol``.  The last inside root, the dominant one,
    is stored after that step.
    """

    inside: tuple
    outside: tuple
    pairing_tol: float

    @property
    def decay_rate(self) -> float:
        """|z| of the dominant inside root: the dual coefficients decay like decay_rate**|n|."""
        return abs(self.inside[-1])


@dataclass(frozen=True)
class DualCoeffTable:
    """Window of exponentially decaying dual coefficients.

    ``coeffs[n]`` (a ``Coeffs`` dense over |n| <= n_window) multiplies the shift-n primal:
    the values peak at n = 0 and are even in n, so the window is centred
    there and both tails are cut at the same size.  ``center`` is the
    junction index of the paper's two residue branches (2(m-1)-1 for
    wavelet duals, m-2 for scaling duals).  ``truncation_bound`` is the
    fitted C * decay_rate**n_window tail estimate, C = max |a_n| /
    decay_rate**|n|.
    """

    m: int
    kind: str
    center: int
    coeffs: Coeffs = field(repr=False)
    decay_rate: float
    truncation_bound: float

    def __getitem__(self, n: int) -> float:
        return self.coeffs.get(n, 0.0)

    @property
    def window(self) -> tuple:
        return (int(self.coeffs.ks[0]), int(self.coeffs.ks[-1]))

    def items(self) -> list:
        return self.coeffs.items()


def _newton_step(ints, z: complex) -> complex:
    """z - p(z)/p'(z) for p(z) = sum_k ints[k] z^k, in exact rationals, rounded once.

    With z = Z / D, D a power of two and Z a Gaussian integer, Horner runs
    in integers on P = D^n p(z) and Q = D^(n-1) p'(z), and the step is
    (Z Q - P) / (D Q): one correctly rounded integer division per part.
    """
    (xn, xd), (yn, yd) = z.real.as_integer_ratio(), z.imag.as_integer_ratio()
    scale = max(xd, yd)
    zr, zi = xn * (scale // xd), yn * (scale // yd)
    pr, pi, qr, qi, power = ints[-1], 0, 0, 0, 1
    for c in reversed(ints[:-1]):
        qr, qi = qr * zr - qi * zi + pr, qr * zi + qi * zr + pi
        power *= scale
        pr, pi = pr * zr - pi * zi + c * power, pr * zi + pi * zr
    nr, ni = zr * qr - zi * qi - pr, zr * qi + zi * qr - pi
    norm = scale * (qr * qr + qi * qi)
    if norm == 0:
        return z
    return complex((nr * qr + ni * qi) / norm, (ni * qr - nr * qi) / norm)


@lru_cache(maxsize=None)
def palindromic_roots(seq: AutocorrSequence) -> RootSplit:
    """Find and split the roots of the integer-normalized sequence polynomial.

    The roots are the companion-matrix eigenvalues of ``np.roots``; the
    dominant inside root, which sets the decay rate, then takes one Newton
    step on the exact integer polynomial.  A root with ||z| - 1| < 1e-8
    aborts: it contradicts the Riesz-sequence lower bound and signals a
    broken input sequence.  So does a split whose roots, each after one
    exact Newton step, do not pair as z, 1/z within ``_PAIRING_TOL``: the
    step takes out the rounding of ``np.roots`` (up to 1.2e-9 of the pair
    scale at m = 13), so the pairing reads ~1e-16 when the split is right.
    Cached per sequence, so each sequence's roots are split once.
    """
    ints = seq.normalized
    if (len(ints) - 1) % 2 != 0:
        raise ValueError("palindromic sequence must have even degree")
    roots = [complex(z) for z in np.roots(np.array(ints[::-1], dtype=float))]
    for z in roots:
        if abs(abs(z) - 1) < _CIRCLE_GUARD:
            raise UnitCircleError(f"root {z} is within {_CIRCLE_GUARD} of the unit circle")
    inside = sorted((z for z in roots if abs(z) < 1), key=lambda z: (abs(z), z.real, z.imag))
    outside = sorted((z for z in roots if abs(z) > 1), key=lambda z: (abs(z), z.real, z.imag))
    if len(inside) != len(outside):
        raise UnitCircleError("inside/outside root counts differ")
    polished_in, polished_out = ([_newton_step(ints, z) for z in zs] for zs in (inside, outside))
    pair_dev = max(min(abs(1 / z - u) for u in polished_out) * abs(z) for z in polished_in)  # relative to the pair scale
    if pair_dev > _PAIRING_TOL:
        raise UnitCircleError(f"reciprocal pairing off by {pair_dev}")
    inside[-1] = polished_in[-1]
    return RootSplit(inside=tuple(inside), outside=tuple(outside), pairing_tol=pair_dev)


def _dual_table(seq: AutocorrSequence, n_window: int, kind: str, m: int, center: int) -> DualCoeffTable:
    """The inverse filter of ``seq`` over |n| <= n_window, by the refined circulant solve.

    With e_l = ``seq.normalized`` at lag l, the table solves
    sum_n a_n e_{l-n} = kappa delta_{0,l}, kappa = e_0 / d_0 > 0.
    """
    if n_window < 1:
        raise ValueError("n_window must be >= 1")
    rho = palindromic_roots(seq).decay_rate
    span, half = truncation_window(rho), seq.center
    kappa = Fraction(seq.normalized[half]) / seq.values[half]
    size = 1 << (2 * (n_window + 2 * span + half)).bit_length()
    e, exact_e = np.array(seq.normalized, dtype=float), np.array(seq.normalized, dtype=object)
    kernel = np.zeros(size)
    kernel[np.arange(-half, half + 1) % size] = e
    symbol = np.fft.rfft(kernel)

    def solve(r):
        return np.fft.irfft(np.fft.rfft(r) / symbol, size)

    def cyclic(x, taps):
        """sum_j taps_j x_{l-j} over |j| <= half on the size-cycle, l = 0..size-1."""
        return np.convolve(np.concatenate([x[size - half :], x, x[:half]]), taps, "valid")

    def residual(x):
        """kappa delta_{0,l} - sum_j e_j x_{l-j}, exact, each entry rounded once."""
        ratios = [v.as_integer_ratio() for v in x.tolist()]
        scale = max(q for _, q in ratios)  # every q is a power of two, so x = ints / scale exactly
        sums = cyclic(np.array([p * (scale // q) for p, q in ratios], dtype=object), exact_e).tolist()
        sums[0] -= kappa * scale
        return np.array([float(-s / scale) for s in sums])

    rhs = np.zeros(size)
    rhs[0] = float(kappa)
    x = solve(rhs)
    for _ in range(_REFINE_STEPS):
        x = x + solve(residual(x))
    # Interior biorthogonality, where every term lies in the window and above the
    # solve's absolute error: each sum is off by no more than the rounding of its terms.
    reach = min(n_window, span)
    inner = np.arange(half - reach, reach - half + 1) % size
    if (np.abs(residual(x)[inner]) > 2.0**-52 * cyclic(np.abs(x), np.abs(e))[inner]).any():
        raise InvariantError(f"interior biorthogonality of the {kind} table at m={m} is off by more than its rounding")

    n = np.arange(-n_window, n_window + 1)
    coeffs = Coeffs(n, x[n % size])
    # series tail C rho^w, floored at the float64 resolution of the table; C is fitted
    # over |n| <= W, as past W the solve's error is absolute, not relative to a_n
    fit_c = max(abs(v) / rho ** abs(n) for n, v in coeffs.items() if abs(n) <= reach)
    table = DualCoeffTable(
        m=m,
        kind=kind,
        center=center,
        coeffs=coeffs,
        decay_rate=rho,
        truncation_bound=fit_c * (rho**n_window + 2.0**-52),
    )
    # The zero-lag biorthogonality sum must come out +1, never -1.
    r0 = math.fsum(table[n] * float(seq.lag(-n)) for n in coeffs)
    if abs(r0 + 1.0) < 1e-6:
        raise InvariantError(f"zero-lag biorthogonality sum of the {kind} table at m={m} is {r0}, not +1")
    return table


@lru_cache(maxsize=None)
def dual_wavelet_coeffs(m: int, n_window: int) -> DualCoeffTable:
    """Coefficients a_n of psi*_m = sum a_n psi_m(. - n) for |n| <= n_window."""
    require_supported_order(m)
    return _dual_table(autocorr(m), n_window, "wavelet", m, center=2 * (m - 1) - 1)


@lru_cache(maxsize=None)
def dual_scaling_coeffs(m: int, n_window: int) -> DualCoeffTable:
    """Coefficients b_n of N*_m = sum b_n N_m(. + m/2 - n) for |n| <= n_window.

    These coincide with the cardinal-interpolant coefficients of order 2m:
    L^{2m}(x) = sum b_n N_{2m}(x + m - n) satisfies L^{2m}(j) = delta_{j0}.
    """
    require_supported_order(m)
    return _dual_table(scaling_crosscorr(m), n_window, "scaling", m, center=m - 2)


def verify_biorthogonality(table: DualCoeffTable, seq: AutocorrSequence, lags: int) -> float:
    """Max over |l| <= lags of |sum_n a_n c_{l-n} - delta_{0,l}|.

    Exact correlation values against the float table; the residual is
    dominated by the table truncation, so callers should size the window
    so that table.truncation_bound is below the tolerance they test.
    """
    c = {l: float(v) for l, v in seq.lags().items()}
    worst = 0.0
    for l in range(-lags, lags + 1):
        s = math.fsum(v * c.get(l - n, 0.0) for n, v in table.coeffs.items())
        worst = max(worst, abs(s - (1.0 if l == 0 else 0.0)))
    return worst
