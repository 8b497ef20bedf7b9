"""Biorthogonal wavelet analysis and synthesis.

Decomposes a spline into its coarse part plus wavelet details using
exact inner products against the primal wavelets, then reconstructs it
from the truncated dual series.
"""

from fractions import Fraction

import numpy as np

from fabersplines import PiecewisePolynomial, bspline, build_basis, wavelet_analyze, wavelet_synthesize

rng = np.random.default_rng(0)
J = 2
f = PiecewisePolynomial.zero()
for i in range(10):
    f = f + Fraction(int(rng.integers(-64, 64)), 64) * bspline(2).compose_dyadic(2**J, i)
print(f"f: random element of the level-{J} hat-spline space, support {tuple(map(str, f.support))}")

exp = wavelet_analyze(f, 2, J - 1)
for j in sorted(exp.levels):
    lev = exp.levels[j]
    mass = sum(abs(v) for v in lev.values())
    label = "scaling" if j == -1 else f"wavelet j={j}"
    print(f"  level {j:>2} ({label:>10}): {len(lev):>2} coefficients, l1 mass {mass:.4f}")

basis = build_basis(2)
xs = np.linspace(-1.0, 4.0, 400)
rec = wavelet_synthesize(exp, basis.dual_table, xs, basis.cardinal_table)
err = np.max(np.abs(rec - f.eval_array(xs)))
print(f"reconstruction sup error: {err:.2e} (truncation bound {basis.dual_table.truncation_bound:.1e})")

print("\nA wavelet one level finer is invisible to the analysis:")
from fabersplines import wavelet as make_wavelet

psi_fine = make_wavelet(2).psi.compose_dyadic(2 ** (J + 1), 0)
exp2 = wavelet_analyze(psi_fine, 2, J - 1)
print("  all coefficients zero:", all(not lev for lev in exp2.levels.values()))
