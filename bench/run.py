"""The fabersplines benchmark: four closed-loop workloads from one command.

Run from the root of a checkout:

    python3 bench/run.py --workload sn-grid --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1      # every workload, one table
    python3 bench/selftest.py                         # the benchmark's own checks

Workloads (one client each; the next request goes out when the previous
one has returned): ``sn-grid`` (analyze, S_N and J_N on a grid),
``wavelet-rt`` (sampled biorthogonal analysis and dual synthesis),
``norm-probe`` (analysis plus b/f norms across levels) and ``cli-batch``
(``python -m fabersplines.cli`` children, one at a time).  Inputs come from
``--seed``; the program only sees the generated inputs, and every output
is checked against the paper's identities outside the request clock.

With ``--trace 0`` the run reports the end-to-end metrics: ``setup_s``
(median of cold starts before and after the request loop, each an import
through a ready ``build_basis`` for every order the workload uses), ``req_p50_s``, ``req_tail_s`` (the workload's fixed
tail percentile), ``req_per_s`` (requests per second of request time),
``peak_rss_mb`` (the serving process; for ``cli-batch`` the largest
child) and ``ok_frac`` (requests that passed every check over requests
attempted).  With ``--trace 1`` it serves the workload untraced, replays
round 0 traced in two fresh processes, checks that the traced outputs are
bit-identical to the untraced ones and that the named counts repeat
exactly, and reports the per-layer metrics.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Cold starts on each side of the request loop, so that set-up is sampled
# at both ends of the run rather than in one burst.
COLD_STARTS = 3
CHILD_TIMEOUT_S = 150

# Metric names and units come from BENCHMARK.json, the benchmark's contract.
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}
# Counts that must repeat exactly for a fixed seed (from round 0 of a traced serve).
REPEATED_COUNTS = (
    "piecewise.eval_array.calls",
    "piecewise.eval_array.points",
    "sampling.lambda_coeff.calls",
    "wavetransform.mu_coeff.calls",
    "wavetransform.interp_per_mu",
    "wavetransform.primal_cache_entries",
)

COLD_START_CODE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "import fabersplines\n"
    "from fabersplines.basis import build_basis\n"
    "for m in sys.argv[1:]:\n"
    "    build_basis(int(m))\n"
    "print(time.perf_counter() - t0, fabersplines.__file__)\n"
)


class BenchError(RuntimeError):
    """The benchmark could not measure: a child failed or the checkout is incomplete."""


def child_env() -> dict:
    """Environment of every child: the checkout's sources, the library's default thread count."""
    env = {k: v for k, v in os.environ.items() if k not in ("FABER_THREADS", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    return env


def cold_starts(orders) -> list:
    """Seconds from ``import fabersplines`` to a ready basis of every order, in fresh interpreters."""
    times = []
    for _ in range(COLD_STARTS):
        proc = subprocess.run(
            [sys.executable, "-c", COLD_START_CODE, *map(str, orders)],
            env=child_env(),
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise BenchError(f"cold start failed:\n{proc.stderr}")
        seconds, path = proc.stdout.split()
        if not Path(path).resolve().is_relative_to(SRC):
            raise BenchError(f"cold start imported fabersplines from {path}, not from {SRC}")
        times.append(float(seconds))
    return times


def serve(job: dict, tmp: Path, *, trace: bool, rounds, spans_path=None) -> dict:
    """Run the job in a fresh serving process (serve.py) and return its result."""
    own = Path(tempfile.mkdtemp(dir=tmp))
    job_path, result_path = own / "job.pkl", own / "result.pkl"
    with open(job_path, "wb") as fh:
        pickle.dump(dict(job, trace=trace, rounds=rounds, spans_path=spans_path, cwd=str(tmp / "cli")), fh)
    proc = subprocess.run(
        [sys.executable, str(BENCH / "serve.py"), str(job_path), str(result_path)],
        env=child_env(),
        cwd=ROOT,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"serving process exited with {proc.returncode}")
    with open(result_path, "rb") as fh:
        return pickle.load(fh)


def write_cli_inputs(job: dict, tmp: Path) -> Path:
    cwd = tmp / "cli"
    cwd.mkdir(exist_ok=True)
    for name, text in job["files"].items():
        (cwd / name).write_text(text, encoding="utf-8")
    return cwd


def cli_loop(job: dict, cwd: Path, seconds: float) -> dict:
    """cli-batch: one ``python -m fabersplines.cli`` child per request, one at a time."""
    from workloads import Record, cli_result, round_order

    env = child_env()
    records, peak_kb, r = [], 0, 0
    start = time.perf_counter()
    while True:
        for ci in round_order(job["seed"], len(job["classes"]), r):
            for si, argv in enumerate(job["classes"][ci]["argvs"]):
                with open(cwd / "stderr.txt", "wb") as err:
                    t0 = time.perf_counter()
                    child = subprocess.Popen(
                        [sys.executable, "-m", "fabersplines.cli", *argv],
                        cwd=cwd,
                        env=env,
                        stdin=subprocess.DEVNULL,
                        stdout=subprocess.DEVNULL,
                        stderr=err,
                    )
                    watchdog = threading.Timer(CHILD_TIMEOUT_S, child.kill)
                    watchdog.start()
                    try:
                        _, status, usage = os.wait4(child.pid, 0)
                    finally:
                        watchdog.cancel()
                    elapsed = time.perf_counter() - t0
                child.returncode = os.waitstatus_to_exitcode(status)
                peak_kb = max(peak_kb, usage.ru_maxrss)
                error, fingerprint = cli_result(argv, child.returncode, str(cwd))
                records.append(Record(r, ci, si, elapsed, error, {}, fingerprint))
        r += 1
        if time.perf_counter() - start >= seconds:
            break
    return {"records": records, "rounds": r, "maxrss_kb": peak_kb}


def request_stats(records, tail_pct: float) -> dict:
    times = [rec.seconds for rec in records]
    tail = float(np.percentile(times, tail_pct))
    return {
        "n": len(times),
        "failed": sum(1 for rec in records if rec.error),
        "p50": statistics.median(times),
        "tail": tail,
        "beyond": sum(1 for t in times if t > tail),
        "per_s": len(times) / sum(times),
    }


def oracle_max_errs(records) -> dict:
    worst = {}
    for rec in records:
        for name, err in rec.errs.items():
            key = f"oracle.{name}.max_err"
            worst[key] = max(worst.get(key, 0.0), err)
    return worst


def report_failures(label: str, records):
    for rec in [rec for rec in records if rec.error][:5]:
        print(f"# {label}: request (round {rec.round}, class {rec.cls}, step {rec.step}) failed: {rec.error}", file=sys.stderr)


def run_untraced(job: dict, tmp: Path, seconds: float):
    starts = cold_starts(job["orders"])
    if job["workload"] == "cli-batch":
        result = cli_loop(job, write_cli_inputs(job, tmp), seconds)
    else:
        result = serve(job, tmp, trace=False, rounds=None)
    setup = statistics.median(starts + cold_starts(job["orders"]))
    records = result["records"]
    report_failures(job["workload"], records)
    st = request_stats(records, job["tail_pct"])
    metrics = {
        "setup_s": setup,
        "req_p50_s": st["p50"],
        "req_tail_s": st["tail"],
        "req_per_s": st["per_s"],
        "peak_rss_mb": result["maxrss_kb"] / 1024.0,
        "ok_frac": (st["n"] - st["failed"]) / st["n"],
    }
    notes = [
        f"req_tail_s is p{job['tail_pct']:.4g} of {st['n']} requests ({st['beyond']} beyond it)",
        f"fail_frac = {st['failed']}/{st['n']} = {st['failed'] / st['n']:.4g}",
        f"rounds = {result['rounds']}, classes per round = {len(job['classes'])}",
    ]
    for name, value in oracle_max_errs(records).items():
        notes.append(f"{job['workload']}.{name[len('oracle.'):]} = {value:.3g}")
    correct = st["failed"] == 0
    return correct, st["n"], st["failed"], metrics, END_TO_END, notes


def run_traced(job: dict, tmp: Path, seconds: float):
    """Untraced pass for ``seconds``, then round 0 traced in two fresh processes.

    The traced round must give bit-identical outputs to the untraced round 0,
    and its counts must repeat exactly in the second traced process.
    """
    workload = job["workload"]
    WORK.mkdir(exist_ok=True)
    spans_path = str(WORK / f"spans-{workload}.jsonl")
    if workload == "cli-batch":
        untraced = cli_loop(job, write_cli_inputs(job, tmp), seconds)
        # in-process replay of round 0: the base that tracing is compared with
        plain = serve(job, tmp, trace=False, rounds=1)["records"]
    else:
        untraced = serve(job, tmp, trace=False, rounds=None)
        plain = [rec for rec in untraced["records"] if rec.round == 0]
    traced = serve(job, tmp, trace=True, rounds=1, spans_path=spans_path)
    again = serve(job, tmp, trace=True, rounds=1)
    passes = {"untraced": untraced["records"], "round 0 untraced": plain, "traced": traced["records"], "traced again": again["records"]}
    correct = True
    for label, records in passes.items():
        report_failures(f"{workload} {label}", records)
        correct &= not any(rec.error for rec in records)
    round0 = [rec.digest for rec in untraced["records"] if rec.round == 0]
    identical = all([rec.digest for rec in records] == round0 for label, records in passes.items() if label != "untraced")
    repeated = all(traced["layers"][k] == again["layers"][k] for k in REPEATED_COUNTS)
    correct &= identical and repeated
    st_u = request_stats(plain, job["tail_pct"])
    st_t = request_stats(traced["records"], job["tail_pct"])
    notes = [
        f"traced outputs bit-identical to untraced: {identical} (round 0, {len(round0)} requests)",
        f"round-0 counts repeat exactly in a second fresh traced process: {repeated}",
        f"untraced pass: {len(untraced['records'])} requests in {untraced['rounds']} rounds",
    ]
    metrics = {name: 0.0 for name in PER_LAYER}
    metrics.update({k: v for k, v in traced["layers"].items() if k in PER_LAYER})
    metrics.update(oracle_max_errs(untraced["records"]))
    metrics["trace.req_per_s.untraced"] = st_u["per_s"]
    metrics["trace.req_per_s.traced"] = st_t["per_s"]
    metrics["trace.overhead"] = st_u["per_s"] / st_t["per_s"]
    if workload == "cli-batch":
        metrics["cli.import_s"] = traced["import_s"]
        metrics["cli.pool_workers"] = traced["pool_workers"]
        if traced["pool_workers"] > (os.cpu_count() or 1):
            notes.append(f"pool of {traced['pool_workers']} workers exceeds nproc")
            correct = False
    notes.append(f"spans written to {Path(spans_path).relative_to(ROOT)}")
    n = len(untraced["records"])
    failed = sum(1 for rec in untraced["records"] if rec.error)
    return correct, n, failed, metrics, PER_LAYER, notes


def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    import workloads

    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        job = workloads.build(workload, seed)
        job["seconds"] = seconds
        runner = run_traced if trace else run_untraced
        return runner(job, Path(tmp), seconds)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fabersplines closed-loop benchmark")
    parser.add_argument("--workload", required=True, help="sn-grid, wavelet-rt, norm-probe, cli-batch or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fabersplines" / "__init__.py").is_file():
        print(f"bench: no fabersplines sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import workloads

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    if any(name not in workloads.WORKLOADS for name in names):
        parser.error(f"unknown workload {args.workload!r}")
    all_ok, attempted, failed, out = True, 0, 0, {}
    try:
        for name in names:
            ok, n, n_failed, metrics, units, notes = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print(f"== {name} (seed {args.seed}, {'traced' if args.trace else 'untraced'}, nproc {os.cpu_count()})")
            for metric, value in metrics.items():
                print(f"{name} {metric} = {value:.6g} {units[metric]}")
            for note in notes:
                print(f"{name} # {note}")
            all_ok &= ok
            attempted += n
            failed += n_failed
            prefix = f"{name}." if len(names) > 1 else ""
            out.update({prefix + k: {"value": v, "unit": units[k]} for k, v in metrics.items()})
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": all_ok, "attempted": attempted, "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
