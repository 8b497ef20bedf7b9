"""Exact values of the B-spline series that synthesis sums, from the same float coefficients.

Every float is a dyadic rational, so a convolution of float sequences is
held exactly as Python integers over one power of two, and a B-spline at a
dyadic point is an integer over (order-1)! 2^(s(order-1)) by its
truncated-power form.  Each level is evaluated at its own level, as the
series sum_c h_c P(2^j x - c) written out through P = sum_l w_l N(2y - l):
no refinement, no early evaluation.  The float coefficients (lambda, mu,
the dual tables, the two-scale taps) are those synthesis reads, so the
oracle is the exact value of what synthesis rounds.
"""

import math
from fractions import Fraction

import numpy as np

from fabersplines.piecewise import bspline


def _ints(values):
    """(ints, scale) with values[i] = ints[i] / scale exactly, scale a power of two."""
    ratios = [v.as_integer_ratio() for v in np.asarray(values, dtype=float).tolist()]
    scale = max(q for _, q in ratios)
    return np.array([p * (scale // q) for p, q in ratios], dtype=object), scale


class ExactSeries:
    """sum_i g[i] N_order(2^T x - i0 - i), g the exact convolution of float sequences.

    ``factors`` are float arrays convolved in turn; an ``ups`` entry of True
    upsamples the running result by 2 before that factor.  ``abs_g`` is the
    same convolution of the absolute values, in float: the size of the terms.
    """

    def __init__(self, order, T, i0, factors, ups=None):
        self.order, self.T, self.i0 = order, T, i0
        g, scale = _ints(factors[0])
        abs_g = np.abs(np.asarray(factors[0], dtype=float))
        for k, f in enumerate(factors[1:], 1):
            if ups and ups[k]:
                g, abs_g = _upsample(g), _upsample(abs_g)
            fi, fs = _ints(f)
            g, scale = np.convolve(g, fi), scale * fs
            abs_g = np.convolve(abs_g, np.abs(np.asarray(f, dtype=float)))
        self.g, self.scale, self.abs_g = g.tolist(), scale, abs_g

    def at(self, x: float):
        """(exact value, sum of |terms| in float) at the float point x.

        The terms are those a float sum adds: |g_i| times |c_k| u^k for each
        coefficient c_k of the piece of N that y = 2^T x meets, in the local
        variable u = y - floor(y).  Near the ends of N's support they exceed
        |N| by far, as the piece (1 - u)^(order-1) / (order-1)! does at u -> 1.
        """
        y = Fraction(x) * 2**self.T
        num, den = y.numerator, y.denominator
        s = den.bit_length() - 1
        top = math.floor(y)
        powers = float(y - top) ** np.arange(self.order)
        pieces = np.abs(bspline(self.order)._coef_float)
        value, size = 0, 0.0
        for n in range(max(top - self.order + 1, self.i0), min(top, self.i0 + len(self.g) - 1) + 1):
            value += self.g[n - self.i0] * _bspline_ints(self.order, num, s, n)
            size += float(self.abs_g[n - self.i0]) * float(pieces[top - n] @ powers)
        return Fraction(value, self.scale * math.factorial(self.order - 1) * den ** (self.order - 1)), size


def _upsample(g):
    up = np.zeros(2 * len(g) - 1, dtype=g.dtype)
    up[::2] = g
    return up


def _bspline_ints(order, num, s, n):
    """(order-1)! 2^(s(order-1)) N_order(num / 2^s - n): the truncated powers, in integers."""
    acc = 0
    for i in range(order + 1):
        d = num - ((n + i) << s)
        if d < 0:
            break
        acc += (-1) ** i * math.comb(order, i) * d ** (order - 1)
    return acc


def _dense(lev):
    """(first shift, values with zeros in the gaps) of a Coeffs level."""
    k0 = int(lev.ks[0])
    run = np.zeros(int(lev.ks[-1]) - k0 + 1)
    run[lev.ks - k0] = lev.cs
    return k0, run


def synthesis_series(exp, basis, taps):
    """The levels of ``sampling.synthesize(exp, basis, .)`` as ExactSeries; taps = its float w."""
    m = basis.m
    a, b = basis.dual_table, basis.cardinal_table
    out = []
    for j, lev in exp.levels.items():
        if not len(lev):
            continue
        k0, c = _dense(lev)
        if j == -1:
            out.append(ExactSeries(2 * m, 0, k0 + b.window[0] - m, [c, b.coeffs.cs]))
        else:
            table = basis.pairing_sign * a.coeffs.cs
            out.append(ExactSeries(2 * m, j + 1, 2 * (k0 + a.window[0]), [c, table, taps], ups=[False, False, True]))
    return out


def interpolant_series(f, basis):
    """``sampling.spline_interpolate(f, m, ., basis)`` as one ExactSeries."""
    m = basis.m
    return ExactSeries(2 * m, f.N, f.k_lo + basis.cardinal_table.window[0] - m, [f.values, basis.cardinal_table.coeffs.cs])


def exact_values(series, xs):
    """(exact values as Fractions, sums of |terms|) of the summed series at each float point."""
    values, sizes = [], []
    for x in np.asarray(xs, dtype=float).tolist():
        parts = [s.at(x) for s in series]
        values.append(sum(v for v, _ in parts))
        sizes.append(sum(t for _, t in parts))
    return values, np.array(sizes)
