"""Exact piecewise polynomials, and the B-spline numbers the float paths run on.

Two layers live here.  The runtime one is ``cardinal_values``, the exact
rational values N_k(i) that every filter tap, stencil and dual table is
built from, and ``shift_sum``, which sums a B-spline series on a grid
from a float table of the pieces of N_order derived from those values.
No sampled-input path builds a :class:`PiecewisePolynomial`.

The exact layer is the paper's construction, kept as the oracle the float
paths are tested against and as the exact-input analysis: B-splines,
spline wavelets and their Taylor-kernel lifts are carried by
:class:`PiecewisePolynomial`, which holds strictly increasing
dyadic-rational breakpoints ``t_0 < t_1 < ... < t_L`` and, for each
interval ``[t_i, t_{i+1})``, polynomial coefficients in the *local*
variable ``x - t_i``.  The local anchoring matters: lifted basis pieces
carry coefficients up to ~1e5 in the global variable, and re-anchoring at
the left endpoint keeps float conversions free of catastrophic
cancellation.

Conventions:
  * pieces are half-open ``[t_i, t_{i+1})``; the function is exactly 0
    outside ``[t_0, t_L]`` and also *at* ``t_L`` (matching ``N_1 =
    indicator of [0, 1)``),
  * coefficients and breakpoints are ``fractions.Fraction``, breakpoints
    with power-of-two denominators; :meth:`PiecewisePolynomial.eval_array`
    evaluates in float64 from arrays converted once per object,
  * all operations are pure and all values immutable, so everything here
    is safe to share across threads.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

__all__ = [
    "PiecewisePolynomial",
    "OrderError",
    "SmoothnessError",
    "MomentError",
    "InvariantError",
    "bspline",
    "differentiate",
    "inner_product",
    "taylor_lift",
    "moments",
    "cardinal_values",
    "shift_sum",
]


class OrderError(ValueError):
    """Spline order outside the supported range."""


class SmoothnessError(ValueError):
    """Differentiation would produce jumps or distributions, not a function."""


class MomentError(ValueError):
    """Taylor-kernel lift applied to a function with nonvanishing moments."""


class InvariantError(RuntimeError):
    """An exact identity that a construction guarantees did not hold."""


def _exact(x) -> Fraction:
    """Fraction(x) with Python-int numerator and denominator: a numpy integer kept inside would wrap past 2^63."""
    q = Fraction(x)
    return Fraction(int(q.numerator), int(q.denominator))


def _is_dyadic(q: Fraction) -> bool:
    d = q.denominator
    return d & (d - 1) == 0


def _trim(coeffs: list) -> tuple:
    """Drop trailing zero coefficients; () encodes the zero polynomial."""
    n = len(coeffs)
    while n > 0 and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


def _poly_eval(coeffs: Sequence, x):
    if not coeffs:
        return 0 * x
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * x + c
    return acc


def _poly_mul(a: Sequence, b: Sequence) -> tuple:
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return _trim(out)


def _poly_shift(coeffs: Sequence, delta: Fraction) -> tuple:
    """Coefficients of p(u + delta) given those of p(u)."""
    if delta == 0 or not coeffs:
        return _trim(list(coeffs))
    n = len(coeffs)
    out = [Fraction(0)] * n
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        for k in range(i + 1):
            out[k] += c * math.comb(i, k) * delta ** (i - k)
    return _trim(out)


def _poly_deriv(coeffs: Sequence) -> tuple:
    return _trim([k * coeffs[k] for k in range(1, len(coeffs))])


def _poly_antideriv(coeffs: Sequence) -> tuple:
    return _trim([Fraction(0)] + [Fraction(c, k + 1) for k, c in enumerate(coeffs)])


def _poly_defint(coeffs: Sequence, w: Fraction) -> Fraction:
    """Integral of the local polynomial over [0, w]."""
    acc = Fraction(0)
    for k, c in enumerate(coeffs):
        acc += Fraction(c, k + 1) * w ** (k + 1)
    return acc


@dataclass(frozen=True)
class PiecewisePolynomial:
    """Compactly supported piecewise polynomial on dyadic breakpoints.

    ``pieces[i]`` holds the coefficients (constant term first) of the
    polynomial on ``[breakpoints[i], breakpoints[i+1])`` in the local
    variable ``x - breakpoints[i]``.  An empty coefficient tuple encodes
    an identically-zero piece.
    """

    breakpoints: tuple
    pieces: tuple

    def __post_init__(self):
        if len(self.breakpoints) < 2:
            raise ValueError("need at least two breakpoints")
        if len(self.pieces) != len(self.breakpoints) - 1:
            raise ValueError("piece count must be breakpoint count - 1")
        for a, b in zip(self.breakpoints, self.breakpoints[1:]):
            if not a < b:
                raise ValueError("breakpoints must be strictly increasing")
        for t in self.breakpoints:
            if not isinstance(t, Fraction):
                raise TypeError("breakpoints must be Fractions")
            if not _is_dyadic(t):
                raise ValueError(f"breakpoint {t} is not a dyadic rational")

    # -- construction -------------------------------------------------

    @classmethod
    def make(cls, breakpoints, pieces) -> "PiecewisePolynomial":
        """Canonical exact constructor: trims zero pieces at both ends."""
        bp = [_exact(t) for t in breakpoints]
        pc = [_trim([_exact(c) for c in p]) for p in pieces]
        if len(pc) != len(bp) - 1:
            raise ValueError("piece count must be breakpoint count - 1")
        lo = 0
        while lo < len(pc) and not pc[lo]:
            lo += 1
        hi = len(pc)
        while hi > lo and not pc[hi - 1]:
            hi -= 1
        if lo == hi:
            return cls.zero()
        return cls(tuple(bp[lo : hi + 1]), tuple(pc[lo:hi]))

    @classmethod
    def zero(cls) -> "PiecewisePolynomial":
        return cls((Fraction(0), Fraction(1)), ((),))

    @property
    def is_zero(self) -> bool:
        return all(not p for p in self.pieces)

    @property
    def support(self):
        return (self.breakpoints[0], self.breakpoints[-1])

    @property
    def degree(self) -> int:
        return max((len(p) - 1 for p in self.pieces if p), default=-1)

    # -- evaluation ----------------------------------------------------

    @cached_property
    def _bp_float(self) -> np.ndarray:
        return np.array([float(t) for t in self.breakpoints])

    @cached_property
    def _coef_float(self) -> np.ndarray:
        width = max(1, self.degree + 1)
        mat = np.zeros((len(self.pieces), width))
        for i, p in enumerate(self.pieces):
            mat[i, : len(p)] = [float(c) for c in p]
        return mat

    def __call__(self, x):
        if isinstance(x, (int, Fraction)):
            x = Fraction(x)
            if x < self.breakpoints[0] or x >= self.breakpoints[-1]:
                return Fraction(0)
            i = bisect_right(self.breakpoints, x) - 1
            return _poly_eval(self.pieces[i], x - self.breakpoints[i])
        return float(self.eval_array(np.array([float(x)]))[0])

    def eval_array(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized float evaluation; exactly 0 outside the support."""
        xs = np.asarray(xs, dtype=float)
        shape = xs.shape
        flat = np.atleast_1d(xs).ravel()
        bp = self._bp_float
        idx = np.searchsorted(bp, flat, side="right") - 1
        inside = (idx >= 0) & (idx < len(self.pieces))
        safe = np.where(inside, idx, 0)
        u = np.where(inside, flat - bp[safe], 0.0)  # no 0 * inf in Horner at +-inf
        coef = self._coef_float[safe]
        out = np.zeros_like(flat)
        for k in range(coef.shape[1] - 1, -1, -1):
            out = out * u + coef[:, k]
        return np.where(inside, out, 0.0).reshape(shape)

    # -- algebra -------------------------------------------------------

    def _piece_on(self, a: Fraction, b: Fraction) -> tuple:
        """Local coefficients (anchored at a) of self restricted to [a, b)."""
        if a < self.breakpoints[0] or a >= self.breakpoints[-1]:
            return ()
        i = bisect_right(self.breakpoints, a) - 1
        return _poly_shift(self.pieces[i], a - self.breakpoints[i])

    def __add__(self, other: "PiecewisePolynomial") -> "PiecewisePolynomial":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        bp = sorted(set(self.breakpoints) | set(other.breakpoints))
        pieces = []
        for a, b in zip(bp, bp[1:]):
            pa = self._piece_on(a, b)
            pb = other._piece_on(a, b)
            n = max(len(pa), len(pb))
            pieces.append([ (pa[k] if k < len(pa) else 0) + (pb[k] if k < len(pb) else 0) for k in range(n) ])
        return PiecewisePolynomial.make(bp, pieces)

    def __neg__(self) -> "PiecewisePolynomial":
        return PiecewisePolynomial(self.breakpoints, tuple(tuple(-c for c in p) for p in self.pieces))

    def __sub__(self, other: "PiecewisePolynomial") -> "PiecewisePolynomial":
        return self + (-other)

    def __mul__(self, scalar) -> "PiecewisePolynomial":
        s = _exact(scalar)
        if s == 0:
            return PiecewisePolynomial.zero()
        return PiecewisePolynomial(self.breakpoints, tuple(tuple(s * c for c in p) for p in self.pieces))

    __rmul__ = __mul__

    def translate(self, shift) -> "PiecewisePolynomial":
        """The function x -> f(x - shift)."""
        s = _exact(shift)
        return PiecewisePolynomial(tuple(t + s for t in self.breakpoints), self.pieces)

    def compose_dyadic(self, a, b) -> "PiecewisePolynomial":
        """The function x -> f(a*x - b) for dyadic a > 0 and dyadic b."""
        a = _exact(a)
        b = _exact(b)
        if a <= 0:
            raise ValueError("scaling factor must be positive")
        bp = tuple((t + b) / a for t in self.breakpoints)
        pieces = tuple(tuple(c * a**k for k, c in enumerate(p)) for p in self.pieces)
        return PiecewisePolynomial(bp, pieces)

    def antiderivative(self):
        """Cumulative integral from -infinity.

        Returns ``(F, tail)`` where F carries the antiderivative on the
        support and ``tail`` is its constant value to the right of the
        support (the total integral).  F is compactly supported as a
        PiecewisePolynomial only when ``tail == 0``; callers must check.
        """
        run = Fraction(0)
        pieces = []
        for i, p in enumerate(self.pieces):
            anti = [run, *_poly_antideriv(p)[1:]]
            w = self.breakpoints[i + 1] - self.breakpoints[i]
            run = _poly_eval(anti, w)
            pieces.append(anti)
        return PiecewisePolynomial.make(self.breakpoints, pieces), run

    def smoothness_class(self, upto: int = None) -> int:
        """Largest q <= upto such that derivatives 0..q are continuous.

        Returns -1 for a discontinuous function.  Continuity is checked
        exactly at every breakpoint, including the support endpoints
        against the zero extension (the left value at t_0 and the right
        value at t_L are 0).  Each order derives the previous one's pieces.
        """
        limit = self.degree if upto is None else upto
        bp, pieces = self.breakpoints, self.pieces
        for order in range(limit + 1):
            left = [Fraction(0)] + [_poly_eval(p, b - a) for p, a, b in zip(pieces, bp, bp[1:])]
            right = [_poly_eval(p, Fraction(0)) for p in pieces] + [Fraction(0)]
            if left != right:
                return order - 1
            pieces = tuple(_poly_deriv(p) for p in pieces)
        return limit

    def integrate(self, a, b) -> Fraction:
        """Exact integral of self over [a, b]."""
        a, b = Fraction(a), Fraction(b)
        if b < a:
            return -self.integrate(b, a)
        lo = max(a, self.breakpoints[0])
        hi = min(b, self.breakpoints[-1])
        if hi <= lo:
            return Fraction(0)
        cuts = [lo] + [t for t in self.breakpoints if lo < t < hi] + [hi]
        acc = Fraction(0)
        for u, v in zip(cuts, cuts[1:]):
            acc += _poly_defint(self._piece_on(u, v), v - u)
        return acc

    # -- conversion -----------------------------------------------------

    def as_float(self) -> "PiecewisePolynomial":
        """Return self (``eval_array`` already evaluates in float64); ``bench/workloads.py`` calls it."""
        return self

    def global_coefficients(self, i: int) -> tuple:
        """Piece i rewritten in the global variable x (for golden tests)."""
        return _poly_shift(self.pieces[i], -self.breakpoints[i])


# -- named operations ----------------------------------------------------


@lru_cache(maxsize=None)
def bspline(m: int) -> PiecewisePolynomial:
    """Order-m cardinal B-spline: support [0, m], degree m-1, C^{m-2}.

    Built from the truncated-power representation
    ``sum_j (-1)^j C(m,j) (x-j)_+^{m-1} / (m-1)!``, which agrees with the
    indicator-convolution recursion (the recursion is kept as the test
    oracle).
    """
    if m < 1:
        raise OrderError(f"B-spline order must be >= 1, got {m}")
    fact = Fraction(1, math.factorial(m - 1))
    mono = [Fraction(0)] * (m - 1) + [Fraction(1)]
    pieces = []
    for i in range(m):
        acc = [Fraction(0)] * m
        for j in range(i + 1):
            c = fact * (-1) ** j * math.comb(m, j)
            for k, v in enumerate(_poly_shift(mono, Fraction(i - j))):
                acc[k] += c * v
        pieces.append(acc)
    return PiecewisePolynomial.make(range(m + 1), pieces)


@lru_cache(maxsize=None)
def cardinal_values(k: int) -> tuple:
    """Exact N_k(i) for i = 0..k, by the Cox-de Boor recurrence at the integers.

    N_k(i) = (i N_{k-1}(i) + (k - i) N_{k-1}(i - 1)) / (k - 1), from the
    indicator N_1 of [0, 1); the padded zero of N_{k-1}(k) is also read
    as N_{k-1}(-1) at i = 0.  These are the exact rationals every float
    path runs on; ``bspline`` is their oracle.
    """
    if k < 1:
        raise OrderError(f"B-spline order must be >= 1, got {k}")
    if k == 1:
        return (Fraction(1), Fraction(0))
    prev = cardinal_values(k - 1) + (Fraction(0),)
    return tuple((i * prev[i] + (k - i) * prev[i - 1]) / (k - 1) for i in range(k + 1))


@lru_cache(maxsize=None)
def _piece_table(order: int) -> np.ndarray:
    """coef[d, k]: the coefficient of u^k on piece d of N_order, d + u in [d, d + 1).

    It is N_order^(k)(d+) / k!, and de Boor's derivative formula
    N_m' = N_{m-1} - N_{m-1}(. - 1) gives N_order^(k)(d+) =
    sum_i (-1)^i C(k, i) N_{order-k}(d - i), the values read at the right
    (N_1 = (1, 0) is the right limit at 0 and 1).  Exact, then rounded
    once: the float of each piece coefficient of ``bspline(order)``.
    """
    coef = np.zeros((order, order))
    for k in range(order):
        n = (0,) * k + cardinal_values(order - k) + (0,) * k  # N_{order-k}(j) at n[k + j]
        diffs = (sum((-1) ** i * math.comb(k, i) * n[k + d - i] for i in range(k + 1)) for d in range(order))
        coef[:, k] = [float(v / math.factorial(k)) for v in diffs]
    coef.flags.writeable = False
    return coef


_BLOCK = 2048  # points per pass of shift_sum: its (order, block) arrays stay in cache


def shift_sum(order: int, h, c0: int, t) -> np.ndarray:
    """The B-spline series sum_i h[i] * N_order(t - c0 - i) at every point of t.

    The shift c = floor(t) - d, 0 <= d < order, meets t on piece d of
    N_order at u = t - floor(t), and no other shift meets t.  So the series
    is, at each point, the polynomial in u whose coefficient of u^k is
    sum_d coef[d, k] * h at shift d, coef = ``_piece_table(order)``:
    the order values of h are gathered as an (order, points) array, one
    ``np.einsum`` (numpy's own loops, no BLAS) turns them into the cell
    polynomial of every point, and one Horner pass over u evaluates it.
    That is O(order) numpy calls and O(points * order^2) operations,
    whatever the length of h.  Points go in blocks of ``_BLOCK``, so the
    arrays beyond t's own are O(order * _BLOCK).  Non-finite t reads 0.
    The result has the shape of t.
    """
    coef = _piece_table(order)
    t = np.asarray(t, dtype=float)
    finite = np.isfinite(t)
    t = np.where(finite, t, 0.0)  # masked before any subtraction: no inf - inf
    fl = np.floor(t)
    u = (t - fl).ravel()
    # hz[i - d] is h at the shift of piece d; i is clipped where every shift misses h
    hz = np.concatenate([np.zeros(order), np.asarray(h, dtype=float), np.zeros(order)])
    i = np.where(finite, np.clip(fl - c0, -1, len(h) + order - 1), -1).astype(np.intp).ravel() + order
    pieces = np.arange(order)[:, None]
    out = np.empty(u.size)
    for a in range(0, u.size, _BLOCK):
        b = a + _BLOCK
        cell = np.einsum("dk,dp->kp", coef, hz[i[a:b] - pieces])  # row k: each point's coefficient of u^k
        acc = cell[-1]
        for row in cell[-2::-1]:
            acc *= u[a:b]
            acc += row
        out[a:b] = acc
    return out.reshape(t.shape)


def differentiate(p: PiecewisePolynomial, order: int) -> PiecewisePolynomial:
    """Order-fold derivative, refusing inputs where it would not be a function.

    Requires derivatives 0..order to be continuous across every breakpoint
    (support endpoints included, against the zero extension): the hat
    function N_2 cannot be differentiated once, N_{2m} can be
    differentiated m times for m >= 2.  Distributional derivatives are
    deliberately unsupported.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if p.smoothness_class(upto=order) < order:
        raise SmoothnessError(
            f"input is not C^{order} across its breakpoints; "
            f"order-{order} derivative would not be a function"
        )
    pieces = p.pieces
    for _ in range(order):
        pieces = tuple(_poly_deriv(q) for q in pieces)
    return PiecewisePolynomial.make(p.breakpoints, pieces)


def inner_product(p: PiecewisePolynomial, q: PiecewisePolynomial) -> Fraction:
    """Exact integral of p*q over the intersection of supports."""
    lo = max(p.breakpoints[0], q.breakpoints[0])
    hi = min(p.breakpoints[-1], q.breakpoints[-1])
    if hi <= lo:
        return Fraction(0)
    cuts = sorted({lo, hi} | {t for t in p.breakpoints if lo < t < hi} | {t for t in q.breakpoints if lo < t < hi})
    acc = Fraction(0)
    for a, b in zip(cuts, cuts[1:]):
        acc += _poly_defint(_poly_mul(p._piece_on(a, b), q._piece_on(a, b)), b - a)
    return acc


def moments(p: PiecewisePolynomial, max_order: int) -> tuple:
    """Exact moments: the ``inner_product`` of p with x^a on its support, for a = 0..max_order."""
    bp = p.breakpoints
    # x^a = (u + t)^a in the local variable u of each piece [t, t') of p
    return tuple(
        inner_product(p, PiecewisePolynomial.make(bp, [_poly_shift((0,) * a + (1,), t) for t in bp[:-1]]))
        for a in range(max_order + 1)
    )


def taylor_lift(p: PiecewisePolynomial, m: int) -> PiecewisePolynomial:
    """m-fold Taylor-kernel integral x -> int_{-inf}^x p(t)(x-t)^{m-1}/(m-1)! dt.

    Defined only when p has m vanishing moments (checked exactly); the
    moment condition kills the tail, so the result is again compactly
    supported, with the same support and degree raised by m.  Inverse of
    m-fold differentiation on such inputs.
    """
    if m < 1:
        raise ValueError("lift order must be >= 1")
    ms = moments(p, m - 1)
    if any(v != 0 for v in ms):
        raise MomentError(
            f"not liftable: moments 0..{m - 1} must vanish exactly, got {ms}"
        )
    out = p
    for _ in range(m):
        out, tail = out.antiderivative()
        if tail != 0:
            raise InvariantError(f"vanishing moments guarantee a zero tail, got {tail}")
    return out
