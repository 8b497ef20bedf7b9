"""Wavelet construction, orthogonality, and correlation sequences."""

import dataclasses
import math
import os
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache

import pytest

from fabersplines import dualcoeffs
from fabersplines import wavelets as wavelets_mod
from fabersplines.basis import FaberBasisSpec, build_basis, truncation_window
from fabersplines.piecewise import InvariantError, OrderError, bspline, cardinal_values, inner_product, moments
from fabersplines.sampling import stencil_weights
from fabersplines.wavelets import AutocorrSequence, autocorr, scaling_crosscorr, two_scale_taps, wavelet

F = Fraction


class TestWaveletConstruction:
    @pytest.mark.parametrize("m", range(2, 6))
    def test_support(self, m):
        assert wavelet(m).psi.support == (F(0), F(2 * m - 1))

    @pytest.mark.parametrize("m", range(2, 6))
    def test_degree_and_knots(self, m):
        psi = wavelet(m).psi
        assert psi.degree == m - 1
        assert all(t.denominator in (1, 2) for t in psi.breakpoints)

    def test_wrong_support_raises(self, monkeypatch):
        # N_1 in place of the m-th derivative of N_2m shrinks psi to [0, 3/2];
        # the uncached constructor keeps the patched value out of the cache
        monkeypatch.setattr(wavelets_mod, "differentiate", lambda p, order: bspline(1))
        with pytest.raises(InvariantError):
            wavelet.__wrapped__(2)

    def test_haar_rejected(self):
        with pytest.raises(OrderError):
            wavelet(1)

    def test_known_value(self):
        assert wavelet(2).psi(F(1, 2)) == F(1, 12)

    @pytest.mark.parametrize("m", range(2, 6))
    def test_vanishing_moments(self, m):
        assert moments(wavelet(m).psi, m - 1) == (F(0),) * m

    @pytest.mark.parametrize("m", range(2, 6))
    def test_orthogonal_to_scaling_translates(self, m):
        # W_0 perpendicular to V_0, exactly, over every overlapping shift
        psi = wavelet(m).psi
        nm = bspline(m)
        for k in range(-m, 2 * m):
            assert inner_product(psi, nm.translate(k)) == 0

    @pytest.mark.parametrize("m", range(2, 6))
    def test_cross_scale_orthogonality(self, m):
        # semi-orthogonality: <psi, psi(2 . - k)> = 0 for all overlapping k
        psi = wavelet(m).psi
        for k in range(-(2 * m - 1), 2 * (2 * m - 1) + 1):
            assert inner_product(psi, psi.compose_dyadic(2, k)) == 0

    @pytest.mark.parametrize("m", [2, 3])
    def test_parity_about_support_midpoint(self, m):
        psi = wavelet(m).psi
        mid = F(2 * m - 1)
        for x in [F(1, 4), F(3, 4), F(5, 4), F(2)]:
            assert psi(mid - x) == (-1) ** m * psi(x)


class TestAutocorr:
    def test_m2_exact_values(self):
        lags = autocorr(2).lags()
        assert lags[0] == F(1, 4)
        assert lags[1] == lags[-1] == F(5, 108)
        assert lags[2] == lags[-2] == F(-1, 216)
        assert autocorr(2).lag(3) == 0

    def test_m2_normalized(self):
        assert autocorr(2).normalized == (-1, 10, 54, 10, -1)

    def test_m3_normalized_integer_sequence(self):
        assert autocorr(3).normalized == (
            1, -518, -11072, 41734, 170110, 41734, -11072, -518, 1,
        )

    @pytest.mark.parametrize("m", range(2, 6))
    def test_palindromic(self, m):
        seq = autocorr(m)
        deg = seq.degree
        assert deg == 4 * (m - 1)
        assert all(seq.values[n] == seq.values[deg - n] for n in range(deg + 1))

    @pytest.mark.parametrize("m", range(2, 6))
    def test_increasing_symmetric_magnitudes(self, m):
        assert autocorr(m).is_increasing_symmetric()

    @pytest.mark.parametrize("m", range(2, 6))
    def test_matches_brute_force_inner_products(self, m):
        psi = wavelet(m).psi
        seq = autocorr(m)
        for n in range(seq.degree + 1):
            shift = n - 2 * (m - 1)
            assert seq.values[n] == inner_product(psi.translate(-shift), psi)

    def test_non_palindromic_rejected(self):
        with pytest.raises(ValueError):
            AutocorrSequence.from_values(2, [1, 2, 3])


class TestScalingCrosscorr:
    def test_m2_proportional_to_1_4_1(self):
        seq = scaling_crosscorr(2)
        assert seq.normalized == (1, 4, 1)
        assert seq.values == (F(1, 6), F(2, 3), F(1, 6))

    @pytest.mark.parametrize("m", range(2, 6))
    def test_length(self, m):
        assert len(scaling_crosscorr(m).values) == 2 * (m - 1) + 1

    @pytest.mark.parametrize("m", range(2, 6))
    def test_palindrome(self, m):
        seq = scaling_crosscorr(m)
        deg = seq.degree
        assert all(seq.values[n] == seq.values[deg - n] for n in range(deg + 1))

    @pytest.mark.parametrize("m", range(2, 6))
    def test_equals_double_order_bspline_values(self, m):
        # <N_m(. + n - (m-1)), N_m> = N_{2m}(n + 1)
        seq = scaling_crosscorr(m)
        n2m = bspline(2 * m)
        for n in range(seq.degree + 1):
            assert seq.values[n] == n2m(n + 1)

    def test_scale_invariant_normalization(self):
        seq = scaling_crosscorr(2)
        scaled = AutocorrSequence.from_values(2, [7 * v for v in seq.values])
        assert scaled.normalized == seq.normalized


# -- the piecewise construction as the oracle of the integer sequences ----


@lru_cache(maxsize=None)
def autocorr_by_inner_products(m):
    """d_n = <psi(. + n - 2(m-1)), psi> by exact piecewise inner products of the wavelet."""
    psi = wavelet(m).psi
    half = [inner_product(psi.translate(-l), psi) for l in range(2 * (m - 1) + 1)]
    return AutocorrSequence.from_values(m, half[::-1] + half[1:])


@lru_cache(maxsize=None)
def scaling_crosscorr_by_inner_products(m):
    """g_n = <N_m(. + n - (m-1)), N_m> by exact piecewise inner products of the B-spline."""
    nm = bspline(m)
    half = [inner_product(nm.translate(-l), nm) for l in range(m)]
    return AutocorrSequence.from_values(m, half[::-1] + half[1:])


class TestCardinalValues:
    @pytest.mark.parametrize("k", range(1, 37))
    def test_are_the_bspline_values_at_the_integers(self, k):
        n = bspline(k)
        assert cardinal_values(k) == tuple(n(i) for i in range(k + 1))

    @pytest.mark.parametrize("k", range(1, 37))
    def test_partition_of_unity_and_symmetry(self, k):
        values = cardinal_values(k)
        assert len(values) == k + 1
        assert all(type(v) is Fraction for v in values)
        assert sum(values) == 1
        if k > 1:  # N_1 is the indicator of [0, 1): 1 at 0, 0 at 1
            assert values == values[::-1]

    def test_order_below_one_rejected(self):
        with pytest.raises(OrderError):
            cardinal_values(0)


class TestIntegerSequencesAgainstThePiecewiseOracle:
    @pytest.mark.parametrize("m", range(2, 13))
    def test_autocorr(self, m):
        assert autocorr(m) == autocorr_by_inner_products(m)

    @pytest.mark.parametrize("m", range(2, 13))
    def test_scaling_crosscorr(self, m):
        assert scaling_crosscorr(m) == scaling_crosscorr_by_inner_products(m)

    @pytest.mark.parametrize("m", range(2, 13))
    def test_taps_and_stencil_read_the_bspline_values(self, m):
        n2m, n3m = bspline(2 * m), bspline(3 * m)
        gram, p, q, r, w = two_scale_taps(m)
        assert gram == tuple(n3m(i) for i in range(1, 3 * m))
        assert q == tuple(
            (-1) ** n * sum(math.comb(m, i) * n2m(n - i + 1) for i in range(m + 1)) / 2 ** (m - 1)
            for n in range(3 * m - 1)
        )
        assert w == tuple((-1) ** l * n2m(l + 1) / 2 ** (2 * m - 1) for l in range(2 * m - 1))
        assert stencil_weights(m) == tuple(
            (-1) ** o * sum(n2m(l + 1) * math.comb(2 * m, o - l) for l in range(max(0, o - 2 * m), min(2 * m - 2, o) + 1))
            for o in range(4 * m - 1)
        )

    @pytest.mark.parametrize("m", range(2, 13))
    def test_build_basis_tables_are_those_of_the_oracle_sequences(self, m, monkeypatch):
        # the uncached root split reruns the whole table construction on the oracle sequences
        spec = build_basis(m)
        monkeypatch.setattr(dualcoeffs, "palindromic_roots", dualcoeffs.palindromic_roots.__wrapped__)
        for table, seq in (
            (spec.dual_table, autocorr_by_inner_products(m)),
            (spec.cardinal_table, scaling_crosscorr_by_inner_products(m)),
        ):
            split = dualcoeffs.palindromic_roots(seq)
            want = dualcoeffs._dual_table(seq, truncation_window(split.decay_rate), table.kind, m, table.center)
            assert [(n, v.hex()) for n, v in table.coeffs.items()] == [(n, v.hex()) for n, v in want.coeffs.items()]
            assert table.decay_rate.hex() == want.decay_rate.hex()
            assert table.truncation_bound.hex() == want.truncation_bound.hex()


ORACLE_ONLY_RUN = """
import math
import os
import sys
import tempfile

import numpy as np

import fabersplines
from fabersplines import basis, cli, families, sampling, wavetransform

calls = []


def refuse(name):
    def call(*args, **kwargs):
        calls.append(name)
        raise RuntimeError(f"the runtime called the oracle {name}")

    return call


for name in ("bspline", "wavelet", "taylor_lift", "inner_product"):
    for mod in [mod for key, mod in sys.modules.items() if key.split(".")[0] == "fabersplines"]:
        if hasattr(mod, name):
            setattr(mod, name, refuse(name))

xs = np.linspace(-3.0, 3.0, 97)
for m in (2, 5, 12):
    spec = basis.build_basis(m)
    f = sampling.SampledFunction.from_callable(lambda x: np.exp(-4.0 * x * x), 4, -2.0, 2.0)
    sampling.synthesize(sampling.analyze(f, m), spec, xs)
    sampling.spline_interpolate(f, m, xs)
    mu = wavetransform.wavelet_analyze(f, m, 2)
    wavetransform.wavelet_synthesize(mu, spec.dual_table, xs, spec.cardinal_table)
for m in range(2, 13):
    basis.build_basis(m)
for name in ("bump", "bspline", "bspline3", "gaussian", "jump"):
    families.get_family(name).f(xs)
with tempfile.TemporaryDirectory() as tmp:
    samples, coeffs = os.path.join(tmp, "samples.csv"), os.path.join(tmp, "coeffs.json")
    with open(samples, "w") as fh:
        fh.write("N=4,k_lo=-32,k_hi=32\\nk,value\\n" + "".join(f"{k},{math.exp(-k * k / 64)}\\n" for k in range(-32, 33)))
    for argv in (
        ["coeffs", "--m", "12", "--window", "200", "--out", os.devnull],
        ["basis", "--m", "12", "--which", "L", "--grid=-8:8:0.0625", "--out", os.devnull],
        ["basis", "--m", "5", "--j", "2", "--k", "1", "--grid=-2:4:0.0625", "--out", os.devnull],
        ["analyze", "--m", "5", "--in", samples, "--out", coeffs],
        ["synthesize", "--coeffs", coeffs, "--grid=-2:2:0.01", "--out", os.devnull],
        ["probe", "--m", "3", "--family", "bump", "--r", "2", "--p", "2", "--theta", "2", "--levels", "3:6", "--out", os.devnull],
        ["convergence", "--m", "3", "--family", "bump", "--levels", "3:6", "--out", os.devnull],
    ):
        if cli.main(argv) != 0:
            sys.exit(f"the {argv[0]} command failed")
if calls:
    sys.exit(f"oracle calls: {calls}")
if "mpmath" in sys.modules:
    sys.exit("the runtime imported mpmath")
print("ok")
"""


def test_runtime_never_calls_the_piecewise_oracle():
    # a fresh interpreter, so every cache is cold, each build runs in full and no test has imported mpmath
    assert "v" not in {field.name for field in dataclasses.fields(FaberBasisSpec)}
    src = os.path.dirname(os.path.dirname(os.path.abspath(sys.modules["fabersplines"].__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", ORACLE_ONLY_RUN], capture_output=True, text=True, env=env)
    assert (done.returncode, done.stdout, done.stderr) == (0, "ok\n", "")
