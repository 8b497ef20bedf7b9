"""Dual wavelet coefficients: the full pipeline, with every check shown.

autocorrelation (exact rationals) -> integer normalization -> palindromic
roots split by the unit circle (the decay rate) -> inverse filter ->
biorthogonality check, plus the m = 2 closed form as an external reference.
"""

import math

from fabersplines import (
    autocorr,
    dual_scaling_coeffs,
    dual_wavelet_coeffs,
    palindromic_roots,
    verify_biorthogonality,
)

S3 = math.sqrt(3.0)

print("=== Step 1: autocorrelation of psi_3 ===")
seq = autocorr(3)
print("exact:", seq.fraction_strings())
print("normalized integers:", seq.normalized)

print("\n=== Step 2/3: roots of the palindromic polynomial ===")
split = palindromic_roots(seq)
print("inside |z|<1 :", [f"{z.real:+.12f}" for z in split.inside])
print("outside |z|>1:", [f"{z.real:+.12f}" for z in split.outside])
print(f"reciprocal pairing deviation: {split.pairing_tol:.2e}")

print("\n=== Step 4: the inverse filter gives the dual coefficients ===")
table = dual_wavelet_coeffs(3, 16)
for n in range(0, 15):
    print(f"  a_{n:>2} = a_{-n:>3} = {table[n]:+.6g}")
print(f"decay rate {table.decay_rate:.6f}, truncation bound {table.truncation_bound:.2e}")

print("\n=== Validation: biorthogonality convolution ===")
for m in (2, 3, 4, 5):
    res = verify_biorthogonality(dual_wavelet_coeffs(m, 60), autocorr(m), 10)
    print(f"  m={m}: max |sum_n a_n c_(l-n) - delta| over |l|<=10 : {res:.2e}")

print("\n=== m=2 against the closed form ===")
t2 = dual_wavelet_coeffs(2, 21)
def closed(n):
    if n <= 1:
        return (-6 - 4 * S3) * (-2 - S3) ** (n - 1) + (6 + 7 * S3 / 2) * (7 + 4 * S3) ** (n - 1)
    return (6 - 4 * S3) * (-2 + S3) ** (n - 1) + (-6 + 7 * S3 / 2) * (7 - 4 * S3) ** (n - 1)
print("max |table - closed form| over n in [-20, 22]:",
      f"{max(abs(t2[n] - closed(n)) for n in range(-20, 23)):.2e}")

print("\n=== Dual scaling coefficients (cardinal interpolant weights) ===")
b = dual_scaling_coeffs(2, 10)
print("b_n vs (-1)^n sqrt(3) (2-sqrt3)^|n|:")
for n in range(0, 6):
    print(f"  b_{n} = {b[n]:+.10f}   closed {(-1) ** n * S3 * (2 - S3) ** n:+.10f}")
