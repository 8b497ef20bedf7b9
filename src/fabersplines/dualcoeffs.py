"""Dual wavelet and dual scaling coefficients via palindromic-root residues.

The dual of psi_m inside its own wavelet space is an infinite combination
psi*_m = sum_n a_n psi_m(. - n) whose coefficients invert the
autocorrelation filter:  sum_n a_n d(l - n) = delta_{0,l}.  Writing the
autocorrelation as a palindromic polynomial  t(z) = sum d_n z^n  of degree
4(m-1), the a_n are the Fourier coefficients of 1/t on the unit circle,
and a contour-integral evaluation turns them into residue sums over the
roots of t: with ``center = 2(m-1) - 1`` and d_top the leading
coefficient,

    a_n = +(1/d_top) * sum_{|z_i|<1} z_i^{center-n} / prod_{j != i}(z_i - z_j)   (n <= center)
    a_n = -(1/d_top) * sum_{|z_i|>1} z_i^{center-n} / prod_{j != i}(z_i - z_j)   (n >= center),

where each product runs over *all* other roots.  Both branches agree at
n = center because the residues of 1/t sum to zero.  The same machinery
with the degree-2(m-1) B-spline autocorrelation g_n and ``center = m - 2``
yields the dual scaling coefficients b_n, which are also the coefficients
of the cardinal interpolant of order 2m.

The roots come from one path at every degree: companion-matrix
eigenvalues as the start, polished by Newton's method on the exact
integer polynomial at 60 digits.  Everything is validated downstream
against the brute-force biorthogonality convolution, never trusted from
the formula alone.  The tables build for 2 <= m <= 12 (``MAX_ORDER``);
at m = 13 the two residue branches disagree, so larger orders raise
OrderError on entry.

``Coeffs``, the one sparse-sequence type, holds every table's a_n or b_n and
every level of lambda or mu in an ``Expansion``; float layers read its arrays.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import lru_cache

import mpmath as mp
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
    "ResidueConsistencyError",
    "palindromic_roots",
    "dual_wavelet_coeffs",
    "dual_scaling_coeffs",
    "verify_biorthogonality",
]

_POLISH_STEPS = 5
_POLISH_DPS = 60
_IMAG_DROP_TOL = 1e-10
_CONSISTENCY_TOL = 1e-9
_PAIRING_TOL = 1e-9
_CIRCLE_GUARD = 1e-8
MAX_ORDER = 12  # at m = 13 the residue branches disagree by 9e-6 relative


def require_supported_order(m: int):
    """Raise OrderError unless 2 <= m <= MAX_ORDER, the orders whose dual tables build."""
    if not 2 <= m <= MAX_ORDER:
        raise OrderError(f"spline wavelet order must be in 2..{MAX_ORDER}, got {m}")


class Coeffs(Mapping):
    """Read-only mapping {k: c_k} over strictly increasing int64 shifts ``ks`` and finite float64 values ``cs``;
    other input raises ValueError.  Keys and items come out as Python ints and floats."""

    def __init__(self, ks, cs):
        ks, cs = np.asarray(ks), np.asarray(cs, dtype=float)
        # the dtype kind catches a float shift, one past int64 (uint64) and a mix (float64 or object)
        if (ks.size and ks.dtype.kind != "i") or ks.ndim != 1 or cs.shape != ks.shape or (ks[1:] <= ks[:-1]).any():
            raise ValueError(f"shifts must be strictly increasing integers in the int64 range, one per value, got {ks.dtype}")
        if not np.isfinite(cs).all():
            raise ValueError(f"coefficients must be finite, got {cs[~np.isfinite(cs)][0]}")
        self.ks, self.cs = ks.astype(np.int64, copy=False).view(), cs.view()  # views: the caller's arrays stay writable
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
    def nonzero(cls, k0: int, vals: np.ndarray) -> "Coeffs":
        """{k0 + i: vals[i]} over the nonzero entries: an exact zero takes no entry and reads +0.0."""
        (nz,) = vals.nonzero()
        return cls(nz + k0, vals[nz])

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
        most gap plus twice their count, else one per stretch of shifts at most gap apart."""
        parts = [(self.ks, self.cs)]
        if int(self.ks[-1]) - int(self.ks[0]) > gap + 2 * len(self):  # too sparse for one run
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


class ResidueConsistencyError(ArithmeticError):
    """Inside and outside residue branches disagree at the junction index."""


@dataclass(frozen=True)
class RootSplit:
    """Roots of a palindromic polynomial split by the unit circle.

    Stored as mpmath complex numbers, sorted by (|z|, Re z, Im z); the
    inside and outside sets have equal size and are reciprocal images of
    each other within ``pairing_tol``.
    """

    inside: tuple
    outside: tuple
    pairing_tol: float

    @property
    def all_roots(self) -> tuple:
        return self.inside + self.outside

    def inside_floats(self) -> list:
        return [complex(z) for z in self.inside]

    def outside_floats(self) -> list:
        return [complex(z) for z in self.outside]

    @property
    def decay_rate(self) -> float:
        """max |z| inside the circle: the dual coefficients decay like decay_rate**|n|."""
        return max(float(abs(z)) for z in self.inside)


@dataclass(frozen=True)
class DualCoeffTable:
    """Window of exponentially decaying dual coefficients.

    ``coeffs[n]`` (a ``Coeffs`` dense over |n| <= n_window) multiplies the shift-n primal:
    the values peak at n = 0 and are even in n, so the window is centred
    there and both tails are cut at the same size.  ``center`` is the
    residue junction index (2(m-1)-1 for wavelet duals, m-2 for scaling
    duals) where the two residue branches meet.  ``truncation_bound`` is
    the fitted C * decay_rate**n_window tail estimate, C = max |a_n| /
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


def _polish(roots, ints):
    """Newton-polish float eigenvalue roots on the exact integer polynomial."""
    deg = len(ints) - 1

    def p(z):
        acc = mp.mpc(0)
        for c in reversed(ints):
            acc = acc * z + c
        return acc

    def dp(z):
        acc = mp.mpc(0)
        for k in range(deg, 0, -1):
            acc = acc * z + k * ints[k]
        return acc

    polished = []
    for z0 in roots:
        z = mp.mpc(z0)
        for _ in range(_POLISH_STEPS):
            pz, dpz = p(z), dp(z)
            if pz == 0 or dpz == 0:
                break  # exact root, or a multiple root (caught by the circle guard)
            z = z - pz / dpz
        if abs(z.imag) < mp.mpf(10) ** (-_POLISH_DPS + 15):
            z = mp.mpc(z.real, 0)
        polished.append(z)
    return polished


@lru_cache(maxsize=None)
def palindromic_roots(seq: AutocorrSequence) -> RootSplit:
    """Find and split the roots of the integer-normalized sequence polynomial.

    Every degree takes one path: companion-matrix eigenvalues as the
    start, then Newton polish on the exact integer polynomial at 60
    digits.  A root with ||z| - 1| < 1e-8 aborts: it contradicts the
    Riesz-sequence lower bound and signals a broken input sequence.
    Cached per sequence, so each sequence's roots are split once.
    """
    ints = list(seq.normalized)
    deg = len(ints) - 1
    if deg % 2 != 0:
        raise ValueError("palindromic sequence must have even degree")
    with mp.workdps(_POLISH_DPS):
        start = [mp.mpc(z) for z in np.roots(np.array(ints[::-1], dtype=float))]
        roots = _polish(start, ints)

        for z in roots:
            if abs(abs(z) - 1) < _CIRCLE_GUARD:
                raise UnitCircleError(
                    f"root {complex(z)} is within {_CIRCLE_GUARD} of the unit circle"
                )
        inside = sorted((z for z in roots if abs(z) < 1), key=lambda z: (abs(z), z.real, z.imag))
        outside = sorted((z for z in roots if abs(z) > 1), key=lambda z: (abs(z), z.real, z.imag))
        if len(inside) != len(outside):
            raise UnitCircleError("inside/outside root counts differ")
        pair_dev = 0.0
        for z in inside:
            w = 1 / z
            dev = min(float(abs(w - u)) for u in outside)
            pair_dev = max(pair_dev, dev * float(abs(z)))  # relative to the pair scale
        if pair_dev > _PAIRING_TOL:
            raise UnitCircleError(f"reciprocal pairing off by {pair_dev}")
        return RootSplit(inside=tuple(inside), outside=tuple(outside), pairing_tol=pair_dev)


def _residue_table(seq: AutocorrSequence, split: RootSplit, center: int, n_window: int, kind: str, m: int) -> DualCoeffTable:
    d_top = seq.values[-1]  # exact leading coefficient of sum d_n z^n
    with mp.workdps(_POLISH_DPS):
        roots = list(split.all_roots)
        inv_d_top = mp.mpf(d_top.denominator) / mp.mpf(d_top.numerator)
        denoms = []
        for i, z in enumerate(roots):
            den = mp.mpc(1)
            for j, w in enumerate(roots):
                if j != i:
                    den *= z - w
            denoms.append(den)
        n_in = len(split.inside)

        def branch(n, use_inside):
            idx = range(n_in) if use_inside else range(n_in, len(roots))
            s = mp.mpc(0)
            for i in idx:
                s += roots[i] ** (center - n) / denoms[i]
            s = s * inv_d_top
            return s if use_inside else -s

        lo, hi = -n_window, n_window
        coeffs = {}
        for n in range(lo, hi + 1):
            val = branch(n, use_inside=(n <= center))
            if abs(val.imag) > _IMAG_DROP_TOL:
                raise ResidueConsistencyError(
                    f"residue at n={n} has imaginary part {float(val.imag)}"
                )
            coeffs[n] = float(val.real)
        both = [branch(center, True), branch(center, False)]
        if abs(both[0] - both[1]) > _CONSISTENCY_TOL * max(1, abs(both[0])):
            raise ResidueConsistencyError(
                f"branch disagreement at n={center}: {complex(both[0])} vs {complex(both[1])}"
            )

    rho = split.decay_rate
    fit_c = max(abs(v) / rho ** abs(n) for n, v in coeffs.items())
    # series tail C rho^w, floored at the float64 resolution of the table
    table = DualCoeffTable(
        m=m,
        kind=kind,
        center=center,
        coeffs=Coeffs.of(coeffs),
        decay_rate=rho,
        truncation_bound=fit_c * (rho**n_window + 2.0**-52),
    )
    # The residue prefactor is validated, not trusted: the zero-lag
    # biorthogonality sum must come out +1, never -1.
    r0 = math.fsum(table[n] * float(seq.lag(-n)) for n in coeffs)
    if abs(r0 + 1.0) < 1e-6:
        raise InvariantError(f"zero-lag biorthogonality sum of the {kind} table at m={m} is {r0}, not +1")
    return table


@lru_cache(maxsize=None)
def dual_wavelet_coeffs(m: int, n_window: int) -> DualCoeffTable:
    """Coefficients a_n of psi*_m = sum a_n psi_m(. - n) for |n| <= n_window."""
    require_supported_order(m)
    if n_window < 1:
        raise ValueError("n_window must be >= 1")
    seq = autocorr(m)
    split = palindromic_roots(seq)
    return _residue_table(seq, split, center=2 * (m - 1) - 1, n_window=n_window, kind="wavelet", m=m)


@lru_cache(maxsize=None)
def dual_scaling_coeffs(m: int, n_window: int) -> DualCoeffTable:
    """Coefficients b_n of N*_m = sum b_n N_m(. + m/2 - n) for |n| <= n_window.

    These coincide with the cardinal-interpolant coefficients of order 2m:
    L^{2m}(x) = sum b_n N_{2m}(x + m - n) satisfies L^{2m}(j) = delta_{j0}.
    """
    require_supported_order(m)
    if n_window < 1:
        raise ValueError("n_window must be >= 1")
    seq = scaling_crosscorr(m)
    split = palindromic_roots(seq)
    return _residue_table(seq, split, center=m - 2, n_window=n_window, kind="scaling", m=m)


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
