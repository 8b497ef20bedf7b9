"""The benchmark's own checks.  Run from the root of a checkout:

    python3 bench/selftest.py

Checks that the generator is deterministic for a seed, that self-time
arithmetic is right on a synthetic span tree, that every oracle rejects an
output with one value moved by 1e-6 (and the run's fail fraction then reads
above 0), that the strict-JSON check rejects a bare NaN token, and that
BENCHMARK.json names exactly the metrics run.py prints.
"""

from __future__ import annotations

import json
import pickle
import sys
import tempfile
import types
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import numpy as np  # noqa: E402

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SHIFT = 1e-6


def _mods():
    from fabersplines import basis, cli, norms, sampling, wavetransform

    return types.SimpleNamespace(basis=basis, sampling=sampling, wavetransform=wavetransform, norms=norms, cli=cli)


def _class_index(job, key):
    return next(i for i, c in enumerate(job["classes"]) if c["key"] == key)


def test_generator_deterministic():
    for name in ("sn-grid", "norm-probe", "cli-batch"):
        first, again, other = (pickle.dumps(workloads.build(name, s)) for s in (5, 5, 6))
        assert first == again, f"{name}: same seed gave different inputs"
        assert first != other, f"{name}: different seeds gave the same inputs"
    assert workloads.round_order(5, 24, 3) == workloads.round_order(5, 24, 3)
    assert sorted(workloads.round_order(5, 24, 3)) == list(range(24))


def test_self_time_arithmetic():
    # root [0, 10] with children b [1, 4] and c [3, 6] overlapping (union 5),
    # d [2, 3] inside b, and e [9, 12] running past the root's end (clipped to 1)
    req = (0, 0, 0)
    records = [
        [0, "a", 0.0, 10.0, None, req, 0],
        [1, "b", 1.0, 4.0, 0, req, 0],
        [2, "c", 3.0, 6.0, 0, req, 0],
        [3, "d", 2.0, 3.0, 1, req, 0],
        [4, "e", 9.0, 12.0, 0, req, 0],
    ]
    got = tracer.self_times(records)
    want = {0: 10.0 - 6.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 3.0}
    for sid, value in want.items():
        assert abs(got[sid] - value) < 1e-12, (sid, got[sid], value)
    assert tracer.covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == 4.0


def _assert_rejects(job, ci, inp, out, oracle):
    errs = workloads.check(job, ci, inp, out)
    assert errs[oracle] > workloads.TOLERANCES[oracle], (oracle, errs)
    assert not workloads.passes(errs)
    good = workloads.Record(0, ci, 0, 0.1, None, {}, "x")
    bad = workloads.Record(0, ci, 0, 0.1, f"oracle outside tolerance: {errs}", errs, "y")
    stats = run.request_stats([good, bad, good], 50.0)
    assert stats["failed"] / stats["n"] > 0


def test_oracles_reject_perturbed_outputs():
    mods = _mods()
    job = workloads.build("sn-grid", 3)
    ci = _class_index(job, "m2-N8-spline")
    cls = job["classes"][ci]
    inp = workloads.prepare(job, ci, 0)
    out = workloads.call(mods, job, ci, inp)
    assert workloads.passes(workloads.check(job, ci, inp, out))
    i_sample = int(np.flatnonzero(cls["sample_mask"])[10])
    i_off = int(np.flatnonzero(~cls["sample_mask"])[10])

    def moved(arr, i):
        arr = arr.copy()
        arr[i] += SHIFT
        return arr

    _assert_rejects(job, ci, inp, {"s": moved(out["s"], i_sample), "j": moved(out["j"], i_sample)}, "interpolation")
    _assert_rejects(job, ci, inp, {"s": out["s"], "j": moved(out["j"], i_off)}, "sn_vs_jn")
    _assert_rejects(job, ci, inp, {"s": moved(out["s"], i_off), "j": moved(out["j"], i_off)}, "reproduction")

    job = workloads.build("wavelet-rt", 3)
    ci = _class_index(job, "m2-N4-w10")
    inp = workloads.prepare(job, ci, 0)
    out = workloads.call(mods, job, ci, inp)
    assert workloads.passes(workloads.check(job, ci, inp, out))
    levels = {j: dict(lev) for j, lev in out["levels"].items()}
    k = sorted(levels[1])[len(levels[1]) // 2]
    levels[1][k] += SHIFT
    _assert_rejects(job, ci, inp, {"levels": levels, "rec": out["rec"]}, "mu_sampled_vs_exact")
    _assert_rejects(job, ci, inp, {"levels": out["levels"], "rec": moved(out["rec"], 7)}, "synthesis_vs_direct")

    job = workloads.build("norm-probe", 3)
    ci = _class_index(job, "jump-m3-N11")
    inp = workloads.prepare(job, ci, 0)
    out = workloads.call(mods, job, ci, inp)
    assert workloads.passes(workloads.check(job, ci, inp, out))
    rows = list(out["norms"])
    i = next(i for i, row in enumerate(rows) if row[1] == row[2])
    N, p, theta, b, f = rows[i]
    rows[i] = (N, p, theta, b + SHIFT, f)
    _assert_rejects(job, ci, inp, {"norms": rows}, "b_eq_f")


def test_strict_json_rejects_nan():
    for text in ('{"norm": NaN}', '{"norm": Infinity}', '[-Infinity]'):
        try:
            workloads.strict_json(text)
        except ValueError:
            continue
        raise AssertionError(f"strict JSON accepted {text}")
    assert workloads.strict_json('{"norm": 1.5}') == {"norm": 1.5}
    argv = ["norm", "--space", "b", "--coeffs", "c.json", "--out", "nb.json"]
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        Path(tmp, "nb.json").write_text('{"norm": NaN}\n', encoding="utf-8")
        error, _ = workloads.cli_result(argv, 0, tmp)
        assert error and "NaN" in error, error
        Path(tmp, "nb.json").write_text('{"norm": 2.0}\n', encoding="utf-8")
        assert workloads.cli_result(argv, 0, tmp)[0] is None
        assert workloads.cli_result(argv, 2, tmp)[0] == "exit code 2"


def test_benchmark_json_declares_every_metric():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert doc["paths"] == [BENCH.name]
    req = (0, 0, 0)
    records = [
        [0, "cli.main", 0.0, 2.0, None, req, "synthesize"],
        [1, "sampling.synthesize", 0.5, 1.5, 0, req, 8],
        [2, "piecewise.eval_array", 0.6, 0.7, 1, req, 8],
        [3, "wavetransform.wavelet_analyze", 1.5, 1.9, 0, req, 0],
    ]
    computed = set(tracer.summarize(records, 0))
    computed |= {f"oracle.{name}.max_err" for name in workloads.TOLERANCES}
    computed |= {"cli.import_s", "cli.pool_workers", "trace.req_per_s.untraced", "trace.req_per_s.traced", "trace.overhead"}
    assert computed <= set(run.PER_LAYER), sorted(computed - set(run.PER_LAYER))


def main() -> int:
    failures = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
            except AssertionError as exc:
                failures += 1
                print(f"FAIL {name}: {exc}")
            else:
                print(f"PASS {name}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
