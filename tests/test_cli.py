"""The faber command: formats, pipelines, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fabersplines import cli
from fabersplines.cli import (
    build_parser,
    convergence_study,
    main,
    read_samples_csv,
    run,
    write_samples_csv,
)
from fabersplines.dualcoeffs import UnitCircleError
from fabersplines.families import bspline_bump, get_family
from fabersplines.piecewise import InvariantError
from fabersplines.sampling import SampledFunction


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().strip().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


class TestCoeffs:
    def test_json_output(self, tmp_path):
        out = tmp_path / "c.json"
        rc = main(["coeffs", "--m", "2", "--window", "20", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        a = {row["n"]: row["a_n"] for row in doc["coeffs"]}
        assert a[1] == pytest.approx(-0.866025, abs=1e-6)
        assert doc["provenance"]["version"]
        assert set(doc["provenance"]) == {"m", "tolerance", "truncation_bound", "version"}
        assert doc["input_polynomial"] == ["-1/216", "5/108", "1/4", "5/108", "-1/216"]

    def test_json_to_stdout_without_out(self, capsys):
        assert main(["coeffs", "--m", "2", "--window", "3"]) == 0
        doc = json.loads(capsys.readouterr().out, parse_constant=lambda token: pytest.fail(f"non-standard JSON {token}"))
        assert [row["n"] for row in doc["coeffs"]] == list(range(-3, 4))

    def test_csv_output(self, tmp_path):
        out = tmp_path / "c.csv"
        rc = main(["coeffs", "--m", "3", "--window", "6", "--format", "csv", "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["n", "a_n"]
        assert len(rows) == 13
        raw = out.read_text().splitlines()
        assert raw[0].startswith("# decay_rate=")
        assert raw[1].startswith("# truncation_bound=")
        assert raw[2].startswith("# input_polynomial=1/1728000;")

    def test_scaling_kind(self, tmp_path):
        out = tmp_path / "b.json"
        rc = main(["coeffs", "--m", "2", "--window", "8", "--kind", "scaling", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        a = {row["n"]: row["a_n"] for row in doc["coeffs"]}
        assert a[0] == pytest.approx(math.sqrt(3.0), abs=1e-10)

    def test_order_guard_exits_2(self, capsys):
        assert main(["coeffs", "--m", "1", "--window", "5"]) == 2
        assert "order" in capsys.readouterr().err


class TestBasisCommand:
    def test_s_grid(self, tmp_path):
        out = tmp_path / "s.csv"
        rc = main(["basis", "--m", "2", "--j", "0", "--k", "0", "--grid=-1:4:0.25", "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["x", "s_0_0"]
        values = {float(x): float(v) for x, v in rows}
        assert values[0.0] == pytest.approx(0.0, abs=1e-10)
        assert values[2.0] == pytest.approx(0.0, abs=1e-10)

    def test_cardinal_interpolant(self, tmp_path):
        out = tmp_path / "L.csv"
        rc = main(["basis", "--m", "2", "--which", "L", "--grid", "0:1:0.5", "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out)
        values = {float(x): float(v) for x, v in rows}
        assert values[0.0] == pytest.approx(1.0, abs=1e-10)
        assert values[0.5] == pytest.approx(1.25 - 0.375 * math.sqrt(3.0), abs=1e-10)

    def test_bad_grid_exits_2(self):
        assert main(["basis", "--m", "2", "--grid", "nonsense"]) == 2

    @pytest.mark.parametrize("grid", ["1:0:1", "0:1:0", "0:1:-1"])
    def test_reversed_grid_or_non_positive_step_exits_2(self, grid, capsys):
        assert main(["basis", "--m", "2", f"--grid={grid}"]) == 2
        assert capsys.readouterr().err.startswith("faber: ")

    @pytest.mark.parametrize("j, k", [(3, 10**20), (3, -(2**52)), (1075, 0), (5000, 0)])
    def test_index_past_the_coefficient_file_limits_exits_2(self, j, k, capsys):
        # the limits of a coefficient file: |k| < 2^52 and j <= MAX_LEVEL
        assert main(["basis", "--m", "2", "--j", str(j), "--k", str(k), "--grid", "0:1:0.5"]) == 2
        assert capsys.readouterr().err.startswith("faber: ")

    def test_index_at_the_coefficient_file_limits_runs(self, tmp_path):
        out = tmp_path / "s.csv"
        rc = main(["basis", "--m", "2", "--j", "1074", "--k", str(2**52 - 1), "--grid", "0:1:0.5", "--out", str(out)])
        assert rc == 0
        assert [float(v) for _, v in read_csv(out)[1]] == [0.0, 0.0, 0.0]


class TestSamplesFormat:
    def test_round_trip(self, tmp_path):
        f = SampledFunction(N=3, k_lo=-2, values=(0.5, -1.25, 3.0))
        path = tmp_path / "s.csv"
        write_samples_csv(str(path), f)
        text = path.read_text()
        assert text.splitlines()[0] == "N=3,k_lo=-2,k_hi=0"
        assert text.splitlines()[1] == "k,value"
        back = read_samples_csv(str(path))
        assert back == f

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("N=3,k_lo=0,k_hi=1\nwrong,header\n0,1.0\n")
        with pytest.raises(ValueError):
            read_samples_csv(str(path))

    def test_window_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("N=3,k_lo=0,k_hi=1\nk,value\n0,1.0\n7,1.0\n")
        with pytest.raises(ValueError, match="outside declared window"):
            read_samples_csv(str(path))


@pytest.fixture
def sample_file(tmp_path):
    fam = bspline_bump(8)
    f = SampledFunction.from_callable(fam.f, 4, *fam.support)
    path = tmp_path / "samples.csv"
    write_samples_csv(str(path), f)
    return path, fam, f


class TestAnalyzeSynthesizePipeline:
    def test_round_trip_interpolates(self, tmp_path, sample_file):
        path, fam, f = sample_file
        coeffs = tmp_path / "coeffs.json"
        assert main(["analyze", "--m", "2", "--in", str(path), "--out", str(coeffs)]) == 0
        doc = json.loads(coeffs.read_text())
        assert doc["kind"] == "lambda"
        assert {"m", "tolerance", "truncation_bound", "version"} == set(doc["provenance"])
        vals = tmp_path / "vals.csv"
        assert main(["synthesize", "--coeffs", str(coeffs), "--grid", "0:8:0.0625", "--out", str(vals)]) == 0
        _, rows = read_csv(vals)
        xs = np.array([float(r[0]) for r in rows])
        ys = np.array([float(r[1]) for r in rows])
        ref = fam.f(xs)
        on_grid = np.isclose((xs * 16) % 1.0, 0.0)
        assert np.max(np.abs(ys[on_grid] - ref[on_grid])) < 1e-8

    def test_kind_mismatch_rejected(self, tmp_path, sample_file):
        path, _, _ = sample_file
        coeffs = tmp_path / "coeffs.json"
        main(["analyze", "--m", "2", "--in", str(path), "--out", str(coeffs)])
        assert main(["wavelet-synthesize", "--coeffs", str(coeffs), "--grid", "0:1:0.5"]) == 2

    def test_deterministic(self, tmp_path, sample_file):
        path, _, _ = sample_file
        coeffs = tmp_path / "coeffs.json"
        main(["analyze", "--m", "2", "--in", str(path), "--out", str(coeffs)])
        outs = []
        for run_no in (1, 2):
            out = tmp_path / f"v{run_no}.csv"
            assert main(["synthesize", "--coeffs", str(coeffs), "--grid", "0:8:0.001", "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


# Inputs the CLI must refuse: a NaN or an overwritten sample would corrupt the
# output silently, and no input may end in a traceback.
MALFORMED_INPUTS = {
    "nan_sample": ("analyze", "N=2,k_lo=0,k_hi=2\nk,value\n0,1.0\n1,nan\n2,0.5\n"),
    "duplicate_k": ("analyze", "N=2,k_lo=0,k_hi=2\nk,value\n0,1.0\n1,2.0\n1,3.0\n"),
    "missing_k_hi": ("analyze", "N=2,k_lo=0\nk,value\n0,1.0\n"),
    "empty_file": ("analyze", ""),
    "no_levels": ("synthesize", '{"m": 2, "kind": "lambda"}\n'),
    "level_below_coarse": ("synthesize", '{"m": 2, "kind": "lambda", "levels": [{"j": -3, "coeffs": {"0": 1.0}}]}\n'),
    "level_past_float_range": ("synthesize", '{"m": 2, "kind": "lambda", "levels": [{"j": 1075, "coeffs": {"0": 1.0}}]}\n'),
    "level_past_int32": ("synthesize", '{"m": 2, "kind": "lambda", "levels": [{"j": 3000000001, "coeffs": {"0": 1.0}}]}\n'),
    "nan_coeff": ("synthesize", '{"m": 2, "kind": "lambda", "levels": [{"j": 0, "coeffs": {"0": NaN}}]}\n'),
    "overflowing_coeff": ("synthesize", '{"m": 2, "kind": "lambda", "levels": [{"j": 0, "coeffs": {"0": 1e999}}]}\n'),
    "huge_window": ("analyze", "N=2,k_lo=0,k_hi=1000000000000\nk,value\n0,1.0\n"),
    "missing_row": ("analyze", "N=2,k_lo=0,k_hi=2\nk,value\n0,1.0\n2,0.5\n"),
    "repeated_level": (
        "synthesize",
        '{"m": 2, "kind": "lambda", "levels": [{"j": 0, "coeffs": {"0": 1.0}}, {"j": 0, "coeffs": {"1": 5.0}}]}\n',
    ),
    "repeated_key": ("synthesize", '{"m": 2, "kind": "lambda", "levels": [{"j": 0, "coeffs": {"0": 1.0, "0": 5.0}}]}\n'),
    "non_canonical_shift": ("synthesize", '{"m": 2, "kind": "lambda", "levels": [{"j": 0, "coeffs": {"1_0": 1.0}}]}\n'),
    "repeated_shift": ("synthesize", '{"m": 2, "kind": "lambda", "levels": [{"j": 0, "coeffs": {"0": 1.0, "00": 5.0}}]}\n'),
    "infinite_grid_end": ("synthesize", '{"m": 2, "kind": "lambda", "levels": [{"j": 0, "coeffs": {"0": 1.0}}]}\n', "0:inf:1"),
    "infinite_grid_start": ("synthesize", '{"m": 2, "kind": "lambda", "levels": [{"j": 0, "coeffs": {"0": 1.0}}]}\n', "-inf:0:1"),
    "overflowing_m": ("synthesize", '{"m": 1e999, "kind": "lambda", "levels": [{"j": 0, "coeffs": {"0": 1.0}}]}\n'),
    "overflowing_j": ("synthesize", '{"m": 2, "kind": "lambda", "levels": [{"j": 1e999, "coeffs": {"0": 1.0}}]}\n'),
    "fractional_m": ("synthesize", '{"m": 2.7, "kind": "lambda", "levels": [{"j": 0, "coeffs": {"0": 1.0}}]}\n'),
    "order_past_12": ("synthesize", '{"m": 13, "kind": "lambda", "levels": [{"j": 0, "coeffs": {"0": 1.0}}]}\n'),
    "bool_j": ("synthesize", '{"m": 2, "kind": "lambda", "levels": [{"j": true, "coeffs": {"0": 1.0}}]}\n'),
    "bool_coeff": ("synthesize", '{"m": 2, "kind": "lambda", "levels": [{"j": 0, "coeffs": {"0": true}}]}\n'),
    "string_coeff": ("synthesize", '{"m": 2, "kind": "lambda", "levels": [{"j": 0, "coeffs": {"0": "1.0"}}]}\n'),
    "overflowing_int_coeff": ("synthesize", '{"m": 2, "kind": "lambda", "levels": [{"j": 0, "coeffs": {"0": 1%s}}]}\n' % ("0" * 400)),
    "shift_past_2_52": ("synthesize", '{"m": 2, "kind": "lambda", "levels": [{"j": 0, "coeffs": {"100000000000000000000": 1.0}}]}\n'),
    "level_N_past_max_level": ("analyze", "N=5000,k_lo=0,k_hi=2\nk,value\n0,1.0\n1,2.0\n2,3.0\n"),
    "sample_index_past_2_52": ("analyze", "N=2,k_lo=4503599627370496,k_hi=4503599627370496\nk,value\n4503599627370496,1.0\n"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_exits_2_with_one_line(tmp_path, capsys, case):
    command, text, *rest = MALFORMED_INPUTS[case]
    grid = rest[0] if rest else "0:1:0.5"
    path = tmp_path / "input"
    path.write_text(text)
    out = tmp_path / "out"
    if command == "analyze":
        argv = ["analyze", "--m", "2", "--in", str(path), "--out", str(out)]
    else:
        argv = ["synthesize", "--coeffs", str(path), f"--grid={grid}", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("command, kind", [("synthesize", "lambda"), ("wavelet-synthesize", "mu")])
def test_far_apart_shifts_in_one_level_synthesize(tmp_path, command, kind):
    # keys 0 and 10^15 in level 0 are two runs, not a 10^15-long dense level
    coeffs = tmp_path / "coeffs.json"
    coeffs.write_text('{"m": 2, "kind": "%s", "levels": [{"j": 0, "coeffs": {"0": 1.0, "1000000000000000": 1.0}}]}\n' % kind)
    out = tmp_path / "vals.csv"
    assert main([command, "--coeffs", str(coeffs), "--grid", "0:3:0.5", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert len(rows) == 7 and max(abs(float(v)) for _, v in rows) > 0.01


def test_level_past_the_exponent_range_keeps_stderr_empty(tmp_path):
    # 2^1074 x overflows at every x >= 1; the documented zeros come without a numpy warning
    coeffs = tmp_path / "coeffs.json"
    coeffs.write_text('{"m": 2, "kind": "lambda", "levels": [{"j": 1074, "coeffs": {"0": 1.0}}]}\n')
    out = tmp_path / "vals.csv"
    argv = ["synthesize", "--coeffs", str(coeffs), "--grid", "0:3:1", "--out", str(out)]
    src = os.path.dirname(os.path.dirname(os.path.abspath(sys.modules["fabersplines"].__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-m", "fabersplines.cli", *argv], capture_output=True, text=True, env=env)
    assert (done.returncode, done.stderr) == (0, "")
    _, rows = read_csv(out)
    assert [float(v) for _, v in rows[1:]] == [0.0] * 3


@pytest.mark.parametrize("argv", [
    ["coeffs", "--m", "13", "--window", "3"],
    ["coeffs", "--m", "20", "--window", "3", "--kind", "scaling"],
    ["basis", "--m", "13", "--grid", "0:1:0.5"],
    ["probe", "--family", "bump", "--m", "13", "--r", "2", "--p", "2", "--theta", "2", "--levels", "3:4"],
    ["convergence", "--m", "13", "--family", "bump", "--levels", "3:4"],
])
def test_orders_past_12_exit_2_at_once(capsys, monkeypatch, argv):
    # refused before any table, basis, analysis or probe begins
    def no_work(*args):
        raise AssertionError("work began before the order check")

    for name in ("build_basis", "dual_wavelet_coeffs", "dual_scaling_coeffs", "analyze", "equivalence_probe"):
        monkeypatch.setattr(cli, name, no_work)
    assert main(argv) == 2
    assert "2..12" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["basis", "--m", "2", "--which", "L", "--grid=0:1e14:1"],
    ["coeffs", "--m", "2", "--window", "100000000000000"],
    ["probe", "--family", "bump", "--m", "2", "--r", "2", "--p", "2", "--theta", "2", "--levels", "45:45"],
    ["convergence", "--family", "bump", "--m", "2", "--levels", "45:45"],
    ["probe", "--family", "bump", "--m", "2", "--r", "2", "--p", "2", "--theta", "2", "--levels", "1030:1030"],
    ["convergence", "--family", "bump", "--m", "2", "--levels", "1030:1030"],
], ids=["basis_grid", "coeffs_window", "probe_level_45", "convergence_level_45", "probe_level_1030", "convergence_level_1030"])
def test_requests_past_memory_or_the_float_range_exit_2(capsys, argv):
    # each asks for 2^48 bytes or more, past any 64-bit address space, or for 2^1030 as a float
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("faber: ") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["convergence", "--family", "bump", "--m", "2", "--levels", "8:3"],
    ["probe", "--family", "bump", "--m", "2", "--r", "2", "--p", "2", "--theta", "2", "--levels", "3"],
    ["probe", "--family", "bump", "--m", "2", "--r", "2", "--p", "2", "--theta", "2", "--levels", "5:3"],
    ["probe", "--family", "bump", "--m", "2", "--r", "2", "--p", "2", "--theta", "2", "--levels", "3:x"],
], ids=["convergence_reversed", "probe_one_level", "probe_reversed", "probe_not_an_integer"])
def test_malformed_levels_exit_2_with_one_line(tmp_path, capsys, argv):
    # these read "max() arg is an empty sequence" and "not enough values to unpack", or (probe 5:3) exited 0
    out = tmp_path / "out.csv"
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("faber: --levels") and len(err.strip().splitlines()) == 1
    assert not out.exists()


def test_tolerance_flag_is_gone():
    # the dual series are cut at the fixed basis.TOLERANCE; argparse refuses the old flag
    with pytest.raises(SystemExit) as exc:
        main(["basis", "--m", "2", "--grid", "0:1:0.5", "--tolerance", "1e-8"])
    assert exc.value.code == 2


SAMPLES_TEXT = "N=2,k_lo=-1,k_hi=5\nk,value\n-1,0.0\n0,0.25\n1,1.0\n2,-0.5\n3,0.75\n4,0.125\n5,0.0\n"
COEFFS_TEXT = '{"m": %s, "kind": "lambda", "levels": [{"j": -1, "coeffs": {"0": 1.5, "2": -0.25}}, {"j": 1, "coeffs": {"-2": 0.25, "3": -1.0}}]}\n'
PIECES = ["", "0", "1", "9", "-", ".", "e", ",", "=", "\n", '"', "{", "}", "[", "]", ":", " ", "x", "true", "null", "NaN", "1e999", "99999999999999999999"]
edits = st.lists(st.tuples(st.integers(0, 2**16), st.sampled_from(PIECES)), max_size=4)


def _mutate(text, changes):
    """Replace the character at each position (taken modulo the length) with a piece of junk."""
    for pos, piece in changes:
        i = pos % (len(text) + 1)
        text = text[:i] + piece + text[i + 1 :]
    return text


@settings(max_examples=150, deadline=None)
@given(
    reader=st.sampled_from(["samples", "coeffs"]),
    m=st.sampled_from(["2", "3", "1", "13", "2.7", "1e999", "true", '"2"', "null", "[2]", "-4"]),
    changes=edits,
)
def test_fuzzed_inputs_exit_0_or_2(reader, m, changes):
    # mutated samples.csv and coeffs.json text: a result or exit 2, never an escaping exception
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "input"), os.path.join(tmp, "out")
        if reader == "samples":
            text = _mutate(SAMPLES_TEXT, changes)
            argv = ["analyze", "--m", "2" if m == "2" else "3", "--in", path, "--out", out]
        else:
            text = _mutate(COEFFS_TEXT % m, changes)
            argv = ["synthesize", "--coeffs", path, "--grid=-1:2:0.25", "--out", out]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        assert main(argv) in (0, 2)


class TestWaveletPipeline:
    def test_mu_round_trip(self, tmp_path, sample_file):
        path, fam, f = sample_file
        mu = tmp_path / "mu.json"
        assert main(["wavelet-analyze", "--m", "2", "--in", str(path), "--J", "3", "--out", str(mu)]) == 0
        doc = json.loads(mu.read_text())
        assert doc["kind"] == "mu"
        vals = tmp_path / "w.csv"
        assert main(["wavelet-synthesize", "--coeffs", str(mu), "--grid", "0:8:0.125", "--out", str(vals)]) == 0
        _, rows = read_csv(vals)
        xs = np.array([float(r[0]) for r in rows])
        ys = np.array([float(r[1]) for r in rows])
        # levels through J=3 capture the level-4 interpolant up to its
        # level-4 wavelet detail; at this smoothness that detail is tiny
        assert np.max(np.abs(ys - fam.f(xs))) < 5e-4


class TestNormCommand:
    def test_norm_of_coeff_file(self, tmp_path, sample_file):
        path, _, _ = sample_file
        coeffs = tmp_path / "coeffs.json"
        main(["analyze", "--m", "2", "--in", str(path), "--out", str(coeffs)])
        out = tmp_path / "norm.json"
        rc = main(["norm", "--space", "b", "--r", "2", "--p", "2", "--theta", "2", "--coeffs", str(coeffs), "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["norm"] > 0
        assert doc["provenance"]["m"] == 2

    def test_infinite_parameters(self, tmp_path, sample_file):
        path, _, _ = sample_file
        coeffs = tmp_path / "coeffs.json"
        main(["analyze", "--m", "2", "--in", str(path), "--out", str(coeffs)])
        out = tmp_path / "norm.json"
        rc = main(["norm", "--space", "b", "--r", "1", "--p", "inf", "--theta", "inf", "--coeffs", str(coeffs), "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["p"] == "inf"

    @pytest.mark.parametrize("space", ["b", "f"])
    def test_deep_level_norm_is_exact(self, tmp_path, space):
        # one unit coefficient at level 600: 2^(r j) 2^(-j/p) = 2^900 at (2, 2, 2)
        coeffs = tmp_path / "coeffs.json"
        coeffs.write_text('{"m": 2, "kind": "lambda", "levels": [{"j": 600, "coeffs": {"0": 1.0}}]}\n')
        out = tmp_path / "norm.json"
        argv = ["norm", "--space", space, "--r", "2", "--p", "2", "--theta", "2", "--coeffs", str(coeffs), "--out", str(out)]
        assert main(argv) == 0
        assert json.loads(out.read_text())["norm"] == 2.0**900

    def test_norm_past_the_float_range_exits_2(self, tmp_path, capsys):
        coeffs = tmp_path / "coeffs.json"
        coeffs.write_text('{"m": 2, "kind": "lambda", "levels": [{"j": 1000, "coeffs": {"0": 1.0}}]}\n')
        out = tmp_path / "norm.json"
        argv = ["norm", "--space", "b", "--r", "2", "--p", "2", "--theta", "2", "--coeffs", str(coeffs), "--out", str(out)]
        assert main(argv) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("space", ["b", "f"])
    @pytest.mark.parametrize("r", ["inf", "-inf", "nan"])
    def test_non_finite_r_exits_2_with_one_line(self, tmp_path, space, r):
        # r = inf used to reach the norms: RuntimeWarnings on stderr, then a JSON error or nan
        coeffs = tmp_path / "coeffs.json"
        coeffs.write_text('{"m": 2, "kind": "lambda", "levels": [{"j": 3, "coeffs": {"0": 1.0}}]}\n')
        argv = ["norm", "--space", space, f"--r={r}", "--p", "2", "--theta", "2", "--coeffs", str(coeffs)]
        src = os.path.dirname(os.path.dirname(os.path.abspath(sys.modules["fabersplines"].__file__)))
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-W", "error", "-m", "fabersplines.cli", *argv], capture_output=True, text=True, env=env)
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr.startswith("faber: r must be finite") and len(done.stderr.splitlines()) == 1

    def test_f_norm_p_inf_exits_2(self, tmp_path, sample_file):
        path, _, _ = sample_file
        coeffs = tmp_path / "coeffs.json"
        main(["analyze", "--m", "2", "--in", str(path), "--out", str(coeffs)])
        assert main(["norm", "--space", "f", "--r", "1", "--p", "inf", "--theta", "2", "--coeffs", str(coeffs)]) == 2


class TestProbeCommand:
    def test_out_of_range_warns_but_succeeds(self, tmp_path, capsys):
        out = tmp_path / "probe.csv"
        rc = main(["probe", "--family", "jump", "--m", "2", "--r", "2", "--p", "2",
                   "--theta", "2", "--levels", "3:5", "--out", str(out)])
        assert rc == 0
        err = capsys.readouterr().err
        # r=2 is admissible for m=2; no warning expected here
        assert "warning" not in err
        assert not out.read_text().startswith("#")
        rc = main(["probe", "--family", "bump", "--m", "2", "--r", "9", "--p", "2",
                   "--theta", "2", "--levels", "3:4", "--out", str(out)])
        assert rc == 0
        assert "warning" in capsys.readouterr().err
        assert out.read_text().startswith("# warning")

    def test_noise_floor_warns_but_succeeds(self, tmp_path, capsys):
        out = tmp_path / "probe.csv"
        rc = main(["probe", "--family", "bump", "--m", "5", "--r", "6", "--p", "2",
                   "--theta", "2", "--levels", "3:13", "--out", str(out)])
        assert rc == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "N=7" in err[0]
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# warning") and "N=7" in lines[0]
        assert lines[1] == "N,b_norm,ratio" and len(lines) == 2 + 11

    def test_no_warning_below_the_noise_floor(self, tmp_path, capsys):
        # the command of the cli-batch workload: no comment line, no stderr
        out = tmp_path / "probe.csv"
        assert main(["probe", "--family", "gaussian", "--m", "2", "--r", "2", "--p", "2",
                     "--theta", "2", "--levels", "3:8", "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert out.read_text().splitlines()[0] == "N,b_norm,ratio"

    def test_unknown_family_exits_2(self):
        assert main(["probe", "--family", "nope", "--m", "2", "--r", "2", "--p", "2",
                     "--theta", "2", "--levels", "3:4"]) == 2


class TestConvergenceCommand:
    def test_rough_family_quadratic_order(self, tmp_path):
        out = tmp_path / "conv.csv"
        rc = main(["convergence", "--m", "2", "--family", "bspline3", "--levels", "4:6", "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["N", "sup_error", "order"]
        orders = [float(r[2]) for r in rows if r[2]]
        assert orders[-1] == pytest.approx(2.0, abs=0.3)


class TestDispatch:
    def test_numerical_guard_exit_code(self):
        class Args:
            @staticmethod
            def func(args):
                raise UnitCircleError("root on circle")

        assert run(Args) == 3

    def test_invariant_failure_exit_code(self):
        class Args:
            @staticmethod
            def func(args):
                raise InvariantError("support moved")

        assert run(Args) == 3

    def test_parser_smoke(self):
        parser = build_parser()
        args = parser.parse_args(["coeffs", "--m", "2", "--window", "4"])
        assert args.command == "coeffs"


def test_convergence_study_smooth_bump_order():
    rows = convergence_study(get_family("bump"), 2, range(4, 7))
    orders = [r["order"] for r in rows if r["order"] is not None]
    assert orders[-1] == pytest.approx(4.0, abs=0.3)


def test_convergence_study_jump_does_not_converge():
    # interpolation cannot converge uniformly at a discontinuity; the
    # study reports the stalled sup error rather than hiding it
    rows = convergence_study(get_family("jump"), 2, range(3, 6))
    errors = [r["sup_error"] for r in rows]
    assert all(e > 0.1 for e in errors)
    orders = [r["order"] for r in rows if r["order"] is not None]
    assert all(abs(o) < 1.0 for o in orders)
