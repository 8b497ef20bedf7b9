"""Dual coefficients: roots, the residue oracle, closed forms, biorthogonality."""

import math
from fractions import Fraction

import numpy as np
import pytest

from fabersplines import basis as basis_mod
from fabersplines import dualcoeffs
from fabersplines.basis import build_basis, truncation_window
from fabersplines.dualcoeffs import (
    DualCoeffTable,
    UnitCircleError,
    _dual_table,
    dual_scaling_coeffs,
    dual_wavelet_coeffs,
    palindromic_roots,
    verify_biorthogonality,
)
from fabersplines.piecewise import InvariantError, OrderError
from fabersplines.wavelets import AutocorrSequence, autocorr, scaling_crosscorr
from residue_oracle import residue_branch, residue_coeff

S3 = math.sqrt(3.0)


def a2_closed_form(n):
    """Two-branch closed form for the m = 2 dual wavelet coefficients."""
    if n <= 1:
        return (-6 - 4 * S3) * (-2 - S3) ** (n - 1) + (6 + 7 * S3 / 2) * (7 + 4 * S3) ** (n - 1)
    return (6 - 4 * S3) * (-2 + S3) ** (n - 1) + (-6 + 7 * S3 / 2) * (7 - 4 * S3) ** (n - 1)


def b2_closed_form(n):
    return (-1) ** n * S3 * (2 - S3) ** abs(n)


def fraction_newton_step(ints, z):
    """z - p(z)/p'(z) for p(z) = sum_k ints[k] z^k, with Fraction real and imaginary parts, rounded once."""
    x, y = Fraction(z.real), Fraction(z.imag)
    pr = pi = dr = di = Fraction(0)
    for c in reversed(ints):
        dr, di = dr * x - di * y + pr, dr * y + di * x + pi
        pr, pi = pr * x - pi * y + c, pr * y + pi * x
    norm = dr * dr + di * di
    return complex(x - (pr * dr + pi * di) / norm, y - (pi * dr - pr * di) / norm)


def toeplitz_inverse_filter(seq, half_width):
    """Independent oracle: solve the truncated system sum a_n c_{l-n} = delta."""
    lags = seq.lags()
    c = lambda l: float(lags.get(l, 0))
    idx = range(-half_width, half_width + 1)
    A = np.array([[c(i - j) for j in idx] for i in idx])
    rhs = np.zeros(len(A))
    rhs[half_width] = 1.0
    sol = np.linalg.solve(A, rhs)
    return {n: sol[n + half_width] for n in idx}


# m = 3 root closed forms (nested radicals)
R105 = math.sqrt(105.0)
M3_INSIDE = sorted(
    [
        136 + 13 * R105 - 4 * math.sqrt(2265 + 221 * R105),
        (-13 - R105 + math.sqrt(2 * (135 + 13 * R105))) / 2,
        (-13 + R105 + math.sqrt(2 * (135 - 13 * R105))) / 2,
        136 - 13 * R105 - 4 * math.sqrt(2265 - 221 * R105),
    ]
)
M3_OUTSIDE = sorted(
    [
        136 + 13 * R105 + 4 * math.sqrt(2265 + 221 * R105),
        (-13 - R105 - math.sqrt(2 * (135 + 13 * R105))) / 2,
        (-13 + R105 - math.sqrt(2 * (135 - 13 * R105))) / 2,
        136 - 13 * R105 + 4 * math.sqrt(2265 - 221 * R105),
    ]
)


class TestPalindromicRoots:
    def test_m2_closed_form_roots(self):
        split = palindromic_roots(autocorr(2))
        inside = sorted(z.real for z in split.inside)
        outside = sorted(z.real for z in split.outside)
        assert inside == pytest.approx([-2 + S3, 7 - 4 * S3], abs=1e-12)
        assert outside == pytest.approx([-2 - S3, 7 + 4 * S3], abs=1e-12)

    def test_m3_nested_radical_roots(self):
        split = palindromic_roots(autocorr(3))
        inside = sorted(z.real for z in split.inside)
        outside = sorted(z.real for z in split.outside)
        assert inside == pytest.approx(M3_INSIDE, abs=1e-9)
        assert outside == pytest.approx(M3_OUTSIDE, abs=1e-9)

    def test_scalar_multiple_gives_identical_split(self):
        seq = autocorr(2)
        scaled = AutocorrSequence.from_values(2, [7 * v for v in seq.values])
        s1 = palindromic_roots(seq)
        s2 = palindromic_roots(scaled)
        assert s1.inside == s2.inside
        assert s1.outside == s2.outside

    @pytest.mark.parametrize("m", range(2, 7))
    def test_reciprocal_pairing(self, m):
        split = palindromic_roots(autocorr(m))
        assert len(split.inside) == len(split.outside) == 2 * (m - 1)
        outs = split.outside
        for z in split.inside:
            dev = min(abs(1 / z - w) * abs(z) for w in outs)
            assert dev < 1e-9

    @pytest.mark.parametrize("m", range(2, 13))
    @pytest.mark.parametrize("make", [autocorr, scaling_crosscorr], ids=["wavelet", "scaling"])
    def test_pairing_guard_has_tenfold_margin(self, m, make):
        # measured after one exact Newton step per root; the raw np.roots split of the
        # m = 12 wavelet sequence pairs only to 4.7e-10, half the guard
        split = palindromic_roots(make(m))
        assert 10 * split.pairing_tol <= dualcoeffs._PAIRING_TOL

    @pytest.mark.parametrize("m", [2, 5, 12])
    def test_split_keeps_the_np_roots_values_and_polishes_the_dominant_root(self, m):
        seq = autocorr(m)
        roots = [complex(z) for z in np.roots(np.array(seq.normalized[::-1], dtype=float))]
        inside, outside = (sorted(zs, key=lambda z: (abs(z), z.real, z.imag)) for zs in (
            [z for z in roots if abs(z) < 1], [z for z in roots if abs(z) > 1]))
        split = palindromic_roots(seq)
        assert split.outside == tuple(outside)
        assert split.inside[:-1] == tuple(inside[:-1])
        assert split.inside[-1] == fraction_newton_step(seq.normalized, inside[-1])

    def test_unit_circle_guard(self):
        # (z + 1)^2 has its double root on the circle
        bad = AutocorrSequence.from_values(2, [1, 2, 1])
        with pytest.raises(UnitCircleError):
            palindromic_roots(bad)


class TestDualWaveletCoeffs:
    def test_m2_center_value(self):
        table = dual_wavelet_coeffs(2, 25)
        assert table.center == 1
        assert table[1] == pytest.approx(-S3 / 2, abs=1e-14)

    def test_m2_matches_closed_form_branchwise(self):
        table = dual_wavelet_coeffs(2, 21)
        worst = max(abs(table[n] - a2_closed_form(n)) for n in range(-20, 23))
        assert worst < 1e-10

    def test_m2_decay_rate(self):
        assert dual_wavelet_coeffs(2, 5).decay_rate == pytest.approx(2 - S3, abs=1e-13)

    def test_m3_against_toeplitz_oracle(self):
        table = dual_wavelet_coeffs(3, 25)
        oracle = toeplitz_inverse_filter(autocorr(3), 60)
        for n in range(-15, 16):
            assert table[n] == pytest.approx(oracle[n], abs=1e-10)

    def test_m3_reference_table_values(self):
        # reference values carry 3-4 digits with truncation; allow one
        # unit in the last digit.  The n = 14 reference entry (7.04e-5)
        # is a misprint: the value consistent with the roots and with
        # the inverse-filter oracle is 7.44e-5, pinned by the oracle
        # test above instead.
        printed = {
            0: (12.251, 1e-3), 1: (-3.765, 1e-3), 2: (1.921, 1e-3),
            3: (-0.772, 1e-3), 4: (0.343, 1e-3), 5: (-0.145, 1e-3),
            6: (6.3e-2, 1e-3), 7: (-2.7e-2, 1e-3), 8: (1.1e-2, 1e-3),
            9: (-5.02e-3, 1e-5), 10: (2.1e-3, 1e-4), 11: (-9.3e-4, 1e-5),
            12: (4.01e-4, 1e-6), 13: (-1.7e-4, 1e-5),
        }
        table = dual_wavelet_coeffs(3, 20)
        for n, (value, tol) in printed.items():
            assert table[n] == pytest.approx(value, abs=tol)
            assert table[-n] == pytest.approx(value, abs=tol)

    @pytest.mark.parametrize("m", range(2, 7))
    def test_symmetric_about_lag_zero(self, m):
        # the inverse filter of a symmetric sequence is symmetric about 0
        # (not about the residue branch point)
        table = dual_wavelet_coeffs(m, 4 * (m - 1) + 6)
        span = min(-table.window[0], table.window[1])
        for n in range(1, span + 1):
            assert table[n] == pytest.approx(table[-n], abs=1e-9)

    @pytest.mark.parametrize("m", range(2, 7))
    def test_formula_constant_matches_source_sign(self, m):
        # the derived 1/d_top prefactor equals the quoted
        # (-1)^{m+1}/|d_0| exactly when sign(d_0) = (-1)^{m+1}, and it
        # yields a zero-lag biorthogonality sum of +1 with no sign fix-up
        basis = build_basis(m)
        for table, seq in ((basis.dual_table, autocorr(m)), (basis.cardinal_table, scaling_crosscorr(m))):
            r0 = math.fsum(table[n] * float(seq.lag(-n)) for n in table.coeffs)
            assert r0 == pytest.approx(1.0, abs=1e-12)
        assert (autocorr(m).values[0] > 0) == ((-1) ** (m + 1) > 0)

    def test_wrong_sign_raises(self, monkeypatch):
        # a residue prefactor of the wrong sign makes the zero-lag sum -1
        monkeypatch.setattr(DualCoeffTable, "__getitem__", lambda self, n: -self.coeffs.get(n, 0.0))
        with pytest.raises(InvariantError):
            dual_wavelet_coeffs.__wrapped__(2, 10)

    def test_bad_window(self):
        with pytest.raises(ValueError):
            dual_wavelet_coeffs(2, 0)

    @pytest.mark.parametrize("m", [2, 5, 12])
    def test_wide_window_keeps_the_basis_values_and_envelope(self, m):
        # past W the solve's error is about 1e-32 max|a_n| absolute, so the
        # envelope constant C is fitted inside W and the bound keeps falling
        for narrow, f in ((build_basis(m).dual_table, dual_wavelet_coeffs), (build_basis(m).cardinal_table, dual_scaling_coeffs)):
            wide, w = f(m, 200), narrow.window[1]
            assert [wide[n] for n in range(-w, w + 1)] == [narrow[n] for n in range(-w, w + 1)]
            assert wide.truncation_bound <= narrow.truncation_bound
            assert max(abs(v) for n, v in wide.items() if abs(n) > w) <= narrow.truncation_bound


class TestDualScalingCoeffs:
    def test_m2_closed_form(self):
        table = dual_scaling_coeffs(2, 25)
        assert table.center == 0
        for n in range(-20, 21):
            assert table[n] == pytest.approx(b2_closed_form(n), abs=1e-12)

    def test_m2_decay_rate(self):
        assert dual_scaling_coeffs(2, 5).decay_rate == pytest.approx(2 - S3, abs=1e-13)

    def test_inverts_bspline_autocorrelation(self):
        # brute-force convolution: sum_n b_n g_{l-n} = delta_{l,0}
        table = dual_scaling_coeffs(2, 50)
        assert verify_biorthogonality(table, scaling_crosscorr(2), 8) < 1e-12

    @pytest.mark.parametrize("m", range(2, 7))
    def test_toeplitz_oracle(self, m):
        table = dual_scaling_coeffs(m, 25)
        oracle = toeplitz_inverse_filter(scaling_crosscorr(m), 60)
        for n in range(-12, 13):
            assert table[n] == pytest.approx(oracle[n], abs=1e-10)


class TestBiorthogonality:
    @pytest.mark.parametrize("m, tol", [(2, 1e-10), (3, 1e-9), (4, 1e-9), (5, 1e-9)])
    def test_residual_small_at_window_60(self, m, tol):
        residual = verify_biorthogonality(dual_wavelet_coeffs(m, 60), autocorr(m), 10)
        assert residual < tol

    def test_under_truncation_is_honest(self):
        # window 3: the residual sits at the decay-rate^3 scale
        table = dual_wavelet_coeffs(2, 3)
        residual = verify_biorthogonality(table, autocorr(2), 10)
        assert 1e-4 < residual < 1.0
        assert residual < 10 * table.truncation_bound

    @pytest.mark.parametrize("m", range(2, 7))
    def test_residual_below_ten_times_truncation_bound(self, m):
        for window in (40, 50):
            table = dual_wavelet_coeffs(m, window)
            residual = verify_biorthogonality(table, autocorr(m), 10)
            assert residual <= 10 * table.truncation_bound

    @pytest.mark.parametrize("m", range(2, 7))
    def test_decay_envelope(self, m):
        table = dual_wavelet_coeffs(m, 30)
        rho = table.decay_rate
        fit_c = max(abs(v) / rho ** abs(n - table.center) for n, v in table.coeffs.items())
        for n, v in table.coeffs.items():
            assert abs(v) <= fit_c * rho ** abs(n - table.center) * (1 + 1e-12)


def test_cardinal_interpolant_coefficients_coincide():
    # order-2m cardinal interpolation uses exactly the dual scaling
    # coefficients: checked via the delta property in test_basis; here the
    # m = 2 table equals the classical alternating-geometric sequence.
    table = dual_scaling_coeffs(2, 12)
    for n in range(-10, 11):
        assert table[n] == pytest.approx((-1) ** n * S3 * (2 - S3) ** abs(n), abs=1e-12)


def ulps_from_oracle(table, seq):
    """The largest |a_n - oracle_n| over the table, in ulps of the oracle value."""
    worst = 0.0
    for n, v in table.items():
        o = residue_coeff(seq, table.center, n)
        worst = max(worst, abs(v - o) / math.ulp(o))
    return worst


def interior_residual_over_rounding(table, seq, reach):
    """Max over |l| <= reach - deg/2 of |sum_n a_n d_{l-n} - delta_{0,l}| / (2^-52 sum_n |a_n d_{l-n}|), exact."""
    lags, half = seq.lags(), seq.center
    worst = Fraction(0)
    for l in range(half - reach, reach - half + 1):
        terms = [Fraction(table[n]) * lags[l - n] for n in range(l - half, l + half + 1)]
        worst = max(worst, abs(sum(terms) - (l == 0)) * 2**52 / sum(map(abs, terms)))
    return worst


class TestResidueOracle:
    @pytest.mark.parametrize("m", range(2, 13))
    def test_tables_within_one_ulp_of_the_90_digit_residues(self, m):
        spec = build_basis(m)
        assert ulps_from_oracle(spec.dual_table, autocorr(m)) <= 1
        assert ulps_from_oracle(spec.cardinal_table, scaling_crosscorr(m)) <= 1

    @pytest.mark.parametrize("m", range(2, 13))
    def test_interior_biorthogonality_within_the_rounding_of_its_terms(self, m):
        # the residual of the exact sums is no larger than rounding each a_n allows;
        # a table off by 1.2e5 ulps at one coefficient reads 2.4e4 times the bound
        spec = build_basis(m)
        for table, seq in ((spec.dual_table, autocorr(m)), (spec.cardinal_table, scaling_crosscorr(m))):
            assert interior_residual_over_rounding(table, seq, truncation_window(table.decay_rate)) <= 1

    def test_unrefined_solve_fails_the_interior_guard(self, monkeypatch):
        # the plain FFT inverse is accurate only to eps * max|a_n|, which the small
        # coefficients of the window cannot carry
        monkeypatch.setattr(dualcoeffs, "_REFINE_STEPS", 0)
        with pytest.raises(InvariantError, match="interior biorthogonality"):
            dual_wavelet_coeffs.__wrapped__(5, 56)


class TestResidueGuard:
    def test_m12_builds(self):
        # a_21 sits at the residue junction 2(m-1)-1, where the residue terms cancel
        # most; the solve gives the 90-digit residue value, -6199.807899652501
        basis = build_basis(12)
        seq = autocorr(12)
        r0 = math.fsum(basis.dual_table[n] * float(seq.lag(-n)) for n in basis.dual_table.coeffs)
        assert r0 == pytest.approx(1.0, abs=1e-12)
        assert basis.dual_table[21] == -6199.807899652501 == residue_coeff(seq, 21, 21)

    def test_m13_oracle_branches_agree_and_match_the_solve(self, monkeypatch):
        # m = 13 is refused on entry, so the tables are built through the solve directly;
        # the uncached split leaves the cache clean
        monkeypatch.setattr(dualcoeffs, "palindromic_roots", palindromic_roots.__wrapped__)
        for seq, center in ((autocorr(13), 23), (scaling_crosscorr(13), 11)):
            inside, outside = (residue_branch(seq, center, center, side) for side in (True, False))
            assert abs(inside - outside) <= abs(inside) * 1e-30  # 9e-6 at 60 digits
            table = _dual_table(seq, truncation_window(palindromic_roots.__wrapped__(seq).decay_rate), "k", 13, center)
            assert ulps_from_oracle(table, seq) <= 1

    def test_m13_split_pairs_after_the_newton_steps(self):
        # the raw np.roots split pairs only to 1.2e-9, past the 1e-9 guard; the polished one
        # pairs to rounding, so the order bound, not the split, refuses m = 13
        assert palindromic_roots.__wrapped__(autocorr(13)).pairing_tol < 1e-15

    @pytest.mark.parametrize("build", [build_basis, lambda m: dual_wavelet_coeffs(m, 3), lambda m: dual_scaling_coeffs(m, 3)])
    def test_orders_past_12_refused_on_entry(self, build, monkeypatch):
        # refused before any root split or table solve begins
        def no_work(*args):
            raise AssertionError("work began before the order check")

        for owner in (dualcoeffs, basis_mod):
            monkeypatch.setattr(owner, "palindromic_roots", no_work)
        monkeypatch.setattr(dualcoeffs, "_dual_table", no_work)
        with pytest.raises(OrderError, match="2..12"):
            build(13)
