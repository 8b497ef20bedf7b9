"""The faber command: formats, pipelines, exit codes, determinism."""

import json
import math

import numpy as np
import pytest

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
    lines = [ln for ln in open(path, encoding="utf-8").read().strip().splitlines() if not ln.startswith("#")]
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

    def test_deterministic_and_thread_invariant(self, tmp_path, sample_file, monkeypatch):
        path, _, _ = sample_file
        coeffs = tmp_path / "coeffs.json"
        main(["analyze", "--m", "2", "--in", str(path), "--out", str(coeffs)])
        outs = []
        for threads in ("1", "3"):
            monkeypatch.setenv("FABER_THREADS", threads)
            out = tmp_path / f"v{threads}.csv"
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
    "repeated_shift": ("synthesize", '{"m": 2, "kind": "lambda", "levels": [{"j": 0, "coeffs": {"0": 1.0, "00": 5.0}}]}\n'),
    "infinite_grid_end": ("synthesize", '{"m": 2, "kind": "lambda", "levels": [{"j": 0, "coeffs": {"0": 1.0}}]}\n', "0:inf:1"),
    "infinite_grid_start": ("synthesize", '{"m": 2, "kind": "lambda", "levels": [{"j": 0, "coeffs": {"0": 1.0}}]}\n', "-inf:0:1"),
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
