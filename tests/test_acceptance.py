"""Acceptance suite: every exit criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one PASS/FAIL
line per criterion.  Two sub-criteria assert reference-table values
verbatim that are demonstrably misprinted in that table; they are
implemented verbatim and marked strict-xfail, each paired with a
passing companion that pins the oracle-verified value (details in the
repository decision notes):

  * 4b: the n = +-14 sixth-order dual coefficient as printed (7.04e-5)
    contradicts the decay ratio of the printed roots and the inverse
    filter defined by the printed integer sequence; the true value is
    7.4406e-5 (criterion 4c, two independent routes).
  * 6b: the printed quintic lift table (global factor 1/7200, and a
    +3895 t^4 term that breaks continuity at t = 2) is inconsistent
    with the printed sixth-order dual coefficients, which pin the
    wavelet normalization; the faithful lift is half the printed table
    with -3895 (criterion 6c, exact rational identity).
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from fabersplines import dualcoeffs as dc
from fabersplines import wavelets as wv
from fabersplines.basis import DyadicIndex, build_basis, eval_s
from fabersplines.dualcoeffs import (
    dual_wavelet_coeffs,
    palindromic_roots,
    verify_biorthogonality,
)
from fabersplines.families import bspline_bump, gaussian_bump, get_family, jump_function
from fabersplines.norms import NormParams, b_norm, f_norm
from fabersplines.piecewise import bspline, inner_product, moments, taylor_lift
from fabersplines.sampling import (
    Expansion,
    SampledFunction,
    analyze,
    lambda_coeff,
    spline_interpolate,
    synthesize,
)
from fabersplines.wavelets import autocorr, wavelet

F = Fraction
S3 = math.sqrt(3.0)


def report(number, name, note=""):
    suffix = f"  [{note}]" if note else ""
    print(f"\nACCEPTANCE {number:>3} {name}: PASS{suffix}")


def report_expected_failure(number, name, note):
    print(f"\nACCEPTANCE {number:>3} {name}: FAIL (expected — {note})")


def a2_closed_form(n):
    if n <= 1:
        return (-6 - 4 * S3) * (-2 - S3) ** (n - 1) + (6 + 7 * S3 / 2) * (7 + 4 * S3) ** (n - 1)
    return (6 - 4 * S3) * (-2 + S3) ** (n - 1) + (-6 + 7 * S3 / 2) * (7 - 4 * S3) ** (n - 1)


def test_criterion_01_dual_coefficient_closed_form_m2():
    """Algorithm output matches the two-branch m=2 closed form, under 1 s."""
    wv.autocorr.cache_clear()
    dc.dual_wavelet_coeffs.cache_clear()
    start = time.perf_counter()
    table = dual_wavelet_coeffs(2, 21)
    deviation = max(abs(table[n] - a2_closed_form(n)) for n in range(-20, 23))
    elapsed = time.perf_counter() - start
    assert deviation < 1e-10
    assert elapsed < 1.0
    report(1, "dual closed form (m=2)", f"max dev {deviation:.2e}, {elapsed * 1e3:.0f} ms")


def test_criterion_02_autocorrelation_values():
    lags = autocorr(2).lags()
    assert lags[0] == F(1, 4)
    assert lags[1] == lags[-1] == F(5, 108)
    assert lags[2] == lags[-2] == F(-1, 216)
    assert all(autocorr(2).lag(l) == 0 for l in range(3, 8))
    assert autocorr(3).normalized == (1, -518, -11072, 41734, 170110, 41734, -11072, -518, 1)
    report(2, "autocorrelation values (m=2 exact, m=3 integer)")


def test_criterion_03_roots():
    split2 = palindromic_roots(autocorr(2))
    inside2 = sorted(z.real for z in split2.inside)
    outside2 = sorted(z.real for z in split2.outside)
    dev2 = max(
        abs(inside2[0] - (-2 + S3)),
        abs(inside2[1] - (7 - 4 * S3)),
        abs(outside2[0] - (-2 - S3)),
        abs(outside2[1] - (7 + 4 * S3)),
    )
    assert dev2 < 1e-12

    r105 = math.sqrt(105.0)
    inside3_expected = sorted(
        [
            136 + 13 * r105 - 4 * math.sqrt(2265 + 221 * r105),
            (-13 - r105 + math.sqrt(2 * (135 + 13 * r105))) / 2,
            (-13 + r105 + math.sqrt(2 * (135 - 13 * r105))) / 2,
            136 - 13 * r105 - 4 * math.sqrt(2265 - 221 * r105),
        ]
    )
    outside3_expected = sorted(
        [
            136 + 13 * r105 + 4 * math.sqrt(2265 + 221 * r105),
            (-13 - r105 - math.sqrt(2 * (135 + 13 * r105))) / 2,
            (-13 + r105 - math.sqrt(2 * (135 - 13 * r105))) / 2,
            136 - 13 * r105 + 4 * math.sqrt(2265 - 221 * r105),
        ]
    )
    split3 = palindromic_roots(autocorr(3))
    inside3 = sorted(z.real for z in split3.inside)
    outside3 = sorted(z.real for z in split3.outside)
    dev3 = max(
        max(abs(a - b) for a, b in zip(inside3, inside3_expected)),
        max(abs(a - b) for a, b in zip(outside3, outside3_expected)),
    )
    assert dev3 < 1e-9
    report(3, "roots (m=2 to 1e-12, m=3 to 1e-9)", f"dev m2 {dev2:.1e}, m3 {dev3:.1e}")


def test_criterion_04a_sixth_order_coefficient_table():
    table = dual_wavelet_coeffs(3, 20)
    for n, printed, tol in ((0, 12.251, 5e-4), (1, -3.765, 5e-4), (2, 1.921, 5e-4)):
        assert table[n] == pytest.approx(printed, abs=tol)
        assert table[-n] == pytest.approx(printed, abs=tol)
    report(4, "sixth-order dual table a_0, a_+-1, a_+-2 at printed precision (4a)")


@pytest.mark.xfail(
    strict=True,
    reason="printed a_+-14 = 7.04e-5 is inconsistent with the printed roots "
    "and integer sequence; the inverse filter gives 7.4406e-5 (criterion 4c)",
)
def test_criterion_04b_sixth_order_tail_value_as_printed():
    report_expected_failure(4, "a_+-14 as printed (4b)", "reference-table misprint, see 4c")
    table = dual_wavelet_coeffs(3, 20)
    assert table[14] == pytest.approx(7.04e-5, abs=5e-8)


def test_criterion_04c_sixth_order_tail_value_oracle():
    # independent oracle: truncated Toeplitz solve of the biorthogonality
    # system with the exact integer autocorrelation
    seq = autocorr(3)
    lags = seq.lags()
    idx = range(-60, 61)
    A = np.array([[float(lags.get(i - j, 0)) for j in idx] for i in idx])
    rhs = np.zeros(len(A))
    rhs[60] = 1.0
    sol = np.linalg.solve(A, rhs)
    oracle_a14 = sol[60 + 14]
    table = dual_wavelet_coeffs(3, 20)
    assert table[14] == pytest.approx(oracle_a14, abs=1e-12)
    assert table[14] == pytest.approx(7.4405868e-5, abs=1e-11)
    # and the decay ratio matches the dominant inside root (up to the
    # subdominant-root correction ~3e-6 at this n), which the printed
    # 7.04e-5 violates by 2.3e-2
    rho = max(abs(z) for z in palindromic_roots(seq).inside)
    assert table[14] / table[13] == pytest.approx(-rho, abs=1e-4)
    assert abs(7.04e-5 / table[13] - (-rho)) > 1e-2
    report(4, "a_+-14 pinned by inverse-filter oracle at 7.4406e-5 (4c)")


def test_criterion_05_biorthogonality_residuals():
    residuals = {}
    residuals[2] = verify_biorthogonality(dual_wavelet_coeffs(2, 60), autocorr(2), 10)
    assert residuals[2] < 1e-10
    for m in (3, 4, 5):
        residuals[m] = verify_biorthogonality(dual_wavelet_coeffs(m, 60), autocorr(m), 10)
        assert residuals[m] < 1e-9
    worst = max(residuals.values())
    report(5, "biorthogonality residuals (m=2..5)", f"worst {worst:.1e}")


V4_PRINTED = [
    ((0, "1/2"), [0, 0, 0, 1]),
    (("1/2", 1), [1, -6, 12, -7]),
    ((1, "3/2"), [-22, 63, -57, 16]),
    (("3/2", 2), [86, -153, 87, -16]),
    ((2, "5/2"), [-98, 123, -51, 7]),
    (("5/2", 3), [27, -27, 9, -1]),
]

V6_PRINTED_VERBATIM = [
    ((0, "1/2"), [0, 0, 0, 0, 0, 1]),
    (("1/2", 1), [1, -10, 40, -80, 80, -31]),
    ((1, "3/2"), [-236, 1175, -2330, 2290, -1105, 206]),
    (("3/2", 2), [6082, -19885, 25750, -16430, 5135, -626]),
    ((2, "5/2"), [3 * c for c in [-15914, 38225, -36270, 16950, 3895, 352]]),
    (("5/2", 3), [3 * c for c in [52836, -99275, 73730, -27050, 4905, -352]]),
    ((3, "7/2"), [-250218, 383385, -232950, 70230, -10515, 626]),
    (("7/2", 4), [186764, -240875, 123770, -31690, 4045, -206]),
    ((4, "9/2"), [-55924, 62485, -27910, 6230, -695, 31]),
    (("9/2", 5), [3125, -3125, 1250, -250, 25, -1]),
]


def pieces_match(pp, table, factor):
    if len(pp.pieces) != len(table):
        return False
    for i, ((lo, hi), coeffs) in enumerate(table):
        if pp.breakpoints[i] != F(lo) or pp.breakpoints[i + 1] != F(hi):
            return False
        got = pp.global_coefficients(i)
        want = tuple(F(c) * factor for c in coeffs)
        got = got + (F(0),) * (len(want) - len(got))
        if got != want[: len(got)] or any(w != 0 for w in want[len(got):]):
            return False
    return True


def test_criterion_06a_cubic_lift_golden_pieces():
    v = taylor_lift(wavelet(2).psi, 2)
    assert pieces_match(v, V4_PRINTED, F(1, 36))
    report(6, "cubic lift reproduces all six printed branches exactly (6a)")


@pytest.mark.xfail(
    strict=True,
    reason="printed quintic table (factor 1/7200, +3895 t^4) is inconsistent "
    "with the printed dual-coefficient normalization; see criterion 6c",
)
def test_criterion_06b_quintic_lift_as_printed():
    report_expected_failure(6, "quintic lift as printed (6b)", "reference-table misprint, see 6c")
    v6 = taylor_lift(wavelet(3).psi, 3)
    assert pieces_match(v6, V6_PRINTED_VERBATIM, F(1, 7200))


def test_criterion_06c_quintic_lift_exact_relationship():
    # sign-corrected branch 5 (continuity at t = 2 forces -3895), and the
    # overall factor consistent with the printed dual table is 1/14400
    corrected = [row if i != 4 else (row[0], [3 * c for c in [-15914, 38225, -36270, 16950, -3895, 352]]) for i, row in enumerate(V6_PRINTED_VERBATIM)]
    v6 = taylor_lift(wavelet(3).psi, 3)
    assert pieces_match(v6, corrected, F(1, 14400))
    # the doubled lift reproduces the printed factor exactly
    assert pieces_match(2 * v6, corrected, F(1, 7200))
    report(6, "quintic lift equals sign-corrected table at factor 1/14400 (6c)")


def _test_functions():
    rng = np.random.default_rng(42)
    coeffs = rng.uniform(-1.0, 1.0, 10)
    pp = bspline(4)

    def spline_mix(x):
        x = np.asarray(x, dtype=float)
        acc = np.zeros_like(x)
        for i, c in enumerate(coeffs):
            acc += c * pp.eval_array(4.0 * x - i)
        return acc

    from fabersplines.families import TestFunction

    return [
        bspline_bump(8),
        bspline_bump(3),
        gaussian_bump(),
        jump_function(),
        TestFunction("spline_mix", spline_mix, (0.0, 3.5)),
    ]


def test_criterion_07_interpolation_identity():
    basis = build_basis(2)
    worst = 0.0
    for fam in _test_functions():
        for N in range(3, 7):
            f = SampledFunction.from_callable(fam.f, N, *fam.support)
            exp = analyze(f, 2)
            ks = np.arange(f.k_lo, f.k_hi + 1)
            got = synthesize(exp, basis, ks / 2.0**N)
            dev = float(np.max(np.abs(got - np.asarray(f.values))))
            worst = max(worst, dev)
            assert dev < 1e-8, (fam.name, N)
    report(7, "S_N interpolates every sample grid (5 functions, N=3..6)", f"worst {worst:.1e}")


def test_criterion_08_spline_space_reproduction():
    basis = build_basis(2)
    rng = np.random.default_rng(8)
    pp = bspline(4)
    start = time.perf_counter()
    worst_repro = worst_agree = 0.0
    for trial in range(20):
        N = int(rng.integers(2, 5))
        coeffs = rng.uniform(-1.0, 1.0, 12)

        def f(x):
            x = np.asarray(x, dtype=float)
            acc = np.zeros_like(x)
            for i, c in enumerate(coeffs):
                acc += c * pp.eval_array(np.ldexp(x, N) - i)
            return acc

        hi = (12 + 4) / 2.0**N
        fs = SampledFunction.from_callable(f, N, -1.0, hi + 1.0)
        exp = analyze(fs, 2)
        xs = np.linspace(-0.5, hi + 0.5, 401)
        s_vals = synthesize(exp, basis, xs)
        worst_repro = max(worst_repro, float(np.max(np.abs(s_vals - f(xs)))))
        worst_agree = max(worst_agree, float(np.max(np.abs(s_vals - spline_interpolate(fs, 2, xs, basis)))))
    elapsed = time.perf_counter() - start
    assert worst_repro < 1e-8
    assert worst_agree < 2e-8
    assert elapsed < 30.0
    report(
        8,
        "V_N^4 reproduction and S_N = J_N agreement (20 random trials)",
        f"repro {worst_repro:.1e}, agree {worst_agree:.1e}, {elapsed:.1f} s",
    )


def test_criterion_09_kronecker_pairing():
    basis = build_basis(2)
    worst = 0.0
    for j in (0, 1, 2):
        for k in range(-4, 5):
            reach = basis.n_max + 8
            lo = (k - reach) / 2.0**j
            hi = (k + reach) / 2.0**j
            f = SampledFunction.from_callable(
                lambda x: eval_s(basis, DyadicIndex(j, k), x), 3, min(lo, -reach), max(hi, reach)
            )
            for l in (0, 1, 2):
                for n in range(-4, 5):
                    got = lambda_coeff(f, 2, DyadicIndex(l, n))
                    want = 1.0 if (j, k) == (l, n) else 0.0
                    worst = max(worst, abs(got - want))
                    assert abs(got - want) < 1e-8, (j, k, l, n)
    report(9, "Kronecker pairing over j,l in {0,1,2}, |k|,|n| <= 4", f"worst dev {worst:.1e}")


def test_criterion_10_convergence_order():
    from fabersplines.cli import convergence_study

    rows = convergence_study(get_family("bump"), 2, range(3, 9))
    orders = [r["order"] for r in rows if r["order"] is not None]
    mean_order = sum(orders) / len(orders)
    assert abs(mean_order - 4.0) < 0.3
    assert abs(orders[-1] - 4.0) < 0.3
    report(10, "empirical order 4 +- 0.3 for a C^6 bump (m=2, N=3..8)", f"mean {mean_order:.3f}")


def test_criterion_11_norm_identities():
    rng = np.random.default_rng(11)
    worst = 0.0
    for trial in range(20):
        levels = {}
        for j in (-1, 0, 1, 3):
            ks = rng.choice(np.arange(-12, 12), size=5, replace=False)
            levels[j] = {int(k): float(v) for k, v in zip(ks, rng.normal(size=5))}
        exp = Expansion(2, levels)
        p = float(rng.uniform(0.4, 4.0))
        params = NormParams(float(rng.uniform(-1.0, 3.0)), p, p)
        bv, fv = b_norm(exp, params), f_norm(exp, params)
        dev = abs(bv - fv) / max(bv, 1e-30)
        worst = max(worst, dev)
        assert dev < 1e-12
    # level-shift covariance with the exact factor 2^(r - 1/p)
    lev = {j: {int(k): float(v) for k, v in zip(rng.integers(-9, 9, 4), rng.normal(size=4))} for j in (0, 1, 2)}
    exp = Expansion(2, lev)
    shifted = Expansion(2, {j + 1: dict(d) for j, d in lev.items()})
    for r, p, theta in ((1.5, 2.0, 2.0), (0.75, 1.0, 3.0), (2.0, 0.5, 0.5)):
        params = NormParams(r, p, theta)
        got = b_norm(shifted, params)
        want = 2.0 ** (r - 1.0 / p) * b_norm(exp, params)
        rel = abs(got - want) / want
        worst = max(worst, rel)
        assert rel < 1e-12
    report(11, "f = b at theta = p; level shift scales by 2^(r-1/p)", f"worst rel {worst:.1e}")


def test_criterion_12_vanishing_moments_and_orthogonality():
    for m in range(2, 6):
        psi = wavelet(m).psi
        assert moments(psi, m - 1) == (F(0),) * m
        nm = bspline(m)
        for k in range(-m, 2 * m):
            assert inner_product(psi, nm.translate(k)) == 0
    report(12, "m vanishing moments and exact W_0-perp-V_0 (m=2..5)")
