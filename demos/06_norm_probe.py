"""Discrete sequence norms and the stabilization probe.

Computes the b/f sequence norms of sampling coefficients, shows the
exact identities they satisfy, and contrasts the norm stabilization of a
smooth function with the divergence of a jump when the smoothness
parameter exceeds the sampling floor 1/p.
"""

import numpy as np

from fabersplines import Expansion, NormParams, b_norm, equivalence_probe, f_norm
from fabersplines.families import bspline_bump, jump_function

print("=== Exact identities ===")
rng = np.random.default_rng(1)
levels = {j: {int(k): float(v) for k, v in zip(rng.integers(-9, 9, 5), rng.normal(size=5))}
          for j in (-1, 0, 2)}
exp = Expansion(2, levels)
for p in (0.5, 1.0, 2.0):
    params = NormParams(0.8, p, p)
    print(f"  theta = p = {p}: b = {b_norm(exp, params):.12f}, f = {f_norm(exp, params):.12f}")

shifted = Expansion(2, {j + 1: dict(d) for j, d in levels.items() if j >= 0})
base = Expansion(2, {j: d for j, d in levels.items() if j >= 0})
params = NormParams(1.5, 2.0, 2.0)
print(f"  level shift: ratio {b_norm(shifted, params) / b_norm(base, params):.12f}"
      f" vs 2^(r-1/p) = {2 ** (1.5 - 0.5):.12f}")

print("\n=== Stabilization probe: smooth bump (admissible r=2, p=theta=2) ===")
report = equivalence_probe(bspline_bump(8), 2, NormParams(2.0, 2.0, 2.0), range(3, 9))
print(" N    b-norm        ratio")
for row in report["rows"]:
    ratio = "" if row["ratio"] is None else f"{row['ratio']:.4f}"
    print(f" {row['N']}    {row['norm']:.6f}    {ratio}")

print("\n=== The same probe on a jump: r=2 > 1/p, norms must diverge ===")
report = equivalence_probe(jump_function(), 2, NormParams(2.0, 2.0, 2.0), range(3, 9))
print(" N    b-norm        ratio   (2^(r-1/p) = 2.8284)")
for row in report["rows"]:
    ratio = "" if row["ratio"] is None else f"{row['ratio']:.4f}"
    print(f" {row['N']}    {row['norm']:.4f}    {ratio}")
