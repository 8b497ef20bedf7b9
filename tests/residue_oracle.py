"""The paper's residue formula for the dual coefficients, at 90 digits: the oracle of the float tables.

With z_i the roots of t(z) = sum_n d_n z^n, d_top its leading coefficient
and ``center`` the junction index (2(m-1)-1 for the wavelet duals a_n,
m-2 for the scaling duals b_n),

    a_n = +(1/d_top) * sum_{|z_i|<1} z_i^{center-n} / prod_{j != i}(z_i - z_j)   (n <= center)
    a_n = -(1/d_top) * sum_{|z_i|>1} z_i^{center-n} / prod_{j != i}(z_i - z_j)   (n >= center),

where each product runs over all other roots.  Both branches agree at
n = center because the residues of 1/t sum to zero.  The roots start at
``np.roots`` and are Newton-polished on the exact integer polynomial.
Near ``center`` the terms cancel by many orders of magnitude: at 60
digits the inside branch gives a_21 of m = 12 off by 1.2e5 ulps and the
two branches of m = 13 disagree by 9e-6 relative, while at 90 digits
both come out exact to the float.
"""

from functools import lru_cache

import mpmath as mp
import numpy as np

DPS = 90
_POLISH_STEPS = 8  # from np.roots' ~1e-10, quadratic convergence passes 90 digits in four


@lru_cache(maxsize=None)
def _residues(seq) -> tuple:
    """(inside, outside) lists of (z_i, 1 / (d_top prod_{j != i}(z_i - z_j))) at DPS digits."""
    with mp.workdps(DPS):
        ints = [mp.mpf(c) for c in reversed(seq.normalized)]  # highest power first, exact at DPS digits
        roots = []
        for z0 in np.roots(np.array(seq.normalized[::-1], dtype=float)):
            z = mp.mpc(complex(z0))
            for _ in range(_POLISH_STEPS):
                p, dp = mp.polyval(ints, z, derivative=True)
                z -= p / dp
            roots.append(z)
        d_top = seq.values[-1]
        pairs = []
        for i, z in enumerate(roots):
            den = mp.mpf(d_top.numerator) / d_top.denominator
            for j, w in enumerate(roots):
                if j != i:
                    den *= z - w
            pairs.append((z, 1 / den))
    return [p for p in pairs if abs(p[0]) < 1], [p for p in pairs if abs(p[0]) > 1]


def residue_branch(seq, center: int, n: int, inside: bool) -> mp.mpc:
    """One branch of the residue formula at index n, as an mpmath complex number."""
    with mp.workdps(DPS):
        pairs = _residues(seq)[0 if inside else 1]
        s = mp.fsum(w * z ** (center - n) for z, w in pairs)
        return s if inside else -s


def residue_coeff(seq, center: int, n: int) -> float:
    """The dual coefficient at n, from the branch that converges there, rounded to float."""
    val = residue_branch(seq, center, n, inside=n <= center)
    if abs(val.imag) > abs(val.real) * mp.mpf(10) ** -30:
        raise ArithmeticError(f"residue sum at n={n} is not real: {val}")
    return float(val.real)
