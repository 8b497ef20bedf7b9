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

Both tables share one decay rate, ``decay_rate(m)``.  E, the polynomial of
``scaling_crosscorr(m).normalized``, is the monic Euler-Frobenius polynomial,
whose roots are real, negative and simple (Schoenberg, Cardinal Spline
Interpolation, 1973); the wavelet polynomial of ``autocorr(m).normalized``
is (-1)^(m-1) E(z) G(z) with G(z^2) = E(z) E(-z) (Chui, An Introduction to
Wavelets, 1992, ch. 6), so G's roots are the squares of E's and the dominant root
inside the unit circle of either sequence is E's root in (-1, 0) nearest
-1.  Its modulus comes out rounded to nearest, by an integer Sturm count
and a bisection with exact sign tests.  The paper's explicit dual is a
residue sum over all the roots; its terms cancel by many orders of
magnitude near the junction of its two branches, so it needs far more
digits than the tables keep.  The tests run it at 90 digits (``tests/residue_oracle.py``)
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
    "DualCoeffTable",
    "decay_rate",
    "dual_wavelet_coeffs",
    "dual_scaling_coeffs",
    "verify_biorthogonality",
]

_REFINE_STEPS = 2
TOLERANCE = 1e-12  # both dual series of a basis are cut where decay_rate**n falls below this
# Measured with the order check lifted: both tables build and pass the interior guard at every
# m up to 29, so the decay rate no longer bounds the order.  At m = 30 the scaling table trips
# that guard (its symbol spans E(1)/|E(-1)| = 2.9e11, more than two refinement steps take out;
# a third builds m = 30, 31), and from m = 37 the solve overflows float64.  The bound stays 12
# until ROADMAP item 6's tail cut (truncation_bound is 1.9 at m = 24 with today's cut) and
# item 4's identities are checked past it.
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


_ONE = 0x3FF << 52  # the bit pattern of 1.0; a positive float's bit pattern grows with its value


def _ratio(bits: int) -> tuple:
    """(p, s) with the positive float of bit pattern ``bits`` equal to p / 2**s."""
    e = bits >> 52
    return (bits & ((1 << 52) - 1)) | (bool(e) << 52), 1075 - max(e, 1)


def _sign(poly, p: int, s: int) -> int:
    """The sign of poly (integers, highest power first) at p / 2**s, exact."""
    acc = poly[0]
    for i, c in enumerate(poly[1:], 1):
        acc = acc * p + (c << s * i)
    return (acc > 0) - (acc < 0)


def _sturm_chain(f: list) -> list:
    """f, f' and the negated remainders down to gcd(f, f'), each an integer positive multiple of its Sturm polynomial."""
    chain = [f, [c * (len(f) - 1 - i) for i, c in enumerate(f[:-1])]]
    while True:
        a, b = chain[-2], chain[-1]
        while len(a) >= len(b):  # one pseudo-division step, scaled by |b_0| > 0
            q = a[0] if b[0] > 0 else -a[0]
            a = [abs(b[0]) * x - q * y for x, y in zip(a[1:], b[1:] + [0] * (len(a) - len(b)))]
        if not any(a):
            return chain
        a = a[next(i for i, c in enumerate(a) if c) :]
        g = math.gcd(*a)
        chain.append([-c // g for c in a])


@lru_cache(maxsize=None)
def decay_rate(m: int) -> float:
    """The shared decay rate of both dual tables of order m: |z| of E's root z in (-1, 0) nearest -1, rounded to nearest.

    E is the Euler-Frobenius polynomial of ``scaling_crosscorr(m).normalized``.  With F(t) = E(-t), a
    bisection over the bit patterns of the floats in (0, 1) keeps F's largest root there between lo and hi:
    by Sturm counts until it is the only root between them, then by exact integer sign tests, down to two
    neighbouring floats; the sign at their midpoint rounds.  E is monic, so no root in (-1, 0) is
    rational: no test meets a zero and no rounding ties.  A root at -1, a repeated root or none in
    (-1, 0) contradicts Schoenberg's theorem on E and raises InvariantError.
    """
    f = [-c if i % 2 else c for i, c in enumerate(scaling_crosscorr(m).normalized)][::-1]  # F, highest power first
    chain = _sturm_chain(f)

    def changes(bits):
        """Sign changes along the chain at the float of bit pattern bits."""
        p, s = _ratio(bits)
        signs = [v for v in (_sign(g, p, s) for g in chain) if v]
        return sum(u != v for u, v in zip(signs, signs[1:]))

    s_one, at_one = _sign(f, 1, 0), changes(_ONE)
    lo, hi, n = 0, _ONE, changes(0) - at_one  # n: the distinct roots of F in (lo, hi), all of F's in (lo, 1]
    if s_one == 0 or len(chain[-1]) > 1 or n == 0:
        raise InvariantError(f"the Euler-Frobenius polynomial of m={m} has a root at -1, a repeated root or none in (-1, 0)")
    while hi - lo > 1:  # with one root left, F has F(1)'s sign on (root, hi] and the other sign on (lo, root)
        mid = (lo + hi) // 2
        c = changes(mid) - at_one if n > 1 else int(_sign(f, *_ratio(mid)) != s_one)
        if c:
            lo, n = mid, c
        else:
            hi = mid
    p, s = _ratio(lo)
    return math.ldexp(p + (_sign(f, 2 * p + 1, s + 1) != s_one), -s)


palindromic_roots = decay_rate  # the benchmark's tracer wraps this name; ROADMAP item 2's benchmark refresh deletes it


def _dual_table(seq: AutocorrSequence, n_window: int, kind: str, m: int, center: int) -> DualCoeffTable:
    """The inverse filter of ``seq`` over |n| <= n_window, by the refined circulant solve.

    With e_l = ``seq.normalized`` at lag l, the table solves
    sum_n a_n e_{l-n} = kappa delta_{0,l}, kappa = e_0 / d_0 > 0.
    """
    if n_window < 1:
        raise ValueError("n_window must be >= 1")
    rho = decay_rate(m)
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
