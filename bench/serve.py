"""Serve one benchmark job in a fresh interpreter: the process whose peak RSS is reported.

Usage: python serve.py JOB RESULT

JOB and RESULT are pickle files written and read by run.py (the benchmark's
own bytes, never outside input).  The process imports fabersplines from
PYTHONPATH, optionally installs the tracer, builds the basis of every order
the workload uses (set-up, outside the request clock), then runs the closed
loop: one client, each request sent after the previous one returned.  With
``rounds`` unset it runs whole rounds until ``seconds`` have passed; with
``rounds`` set it replays exactly that many rounds of the same seeded
schedule.  Oracle checks run between requests, outside the clock.
"""

from __future__ import annotations

import json
import os
import pickle
import resource
import sys
import time
import traceback
import types


def main(job_path: str, result_path: str) -> int:
    t0 = time.perf_counter()
    import fabersplines.cli

    import_s = time.perf_counter() - t0
    from fabersplines import basis, cli, norms, sampling, wavetransform

    import workloads

    with open(job_path, "rb") as fh:
        job = pickle.load(fh)
    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    mods = types.SimpleNamespace(basis=basis, sampling=sampling, wavetransform=wavetransform, norms=norms, cli=cli)
    for m in job["orders"]:
        mods.basis.build_basis(m)

    is_cli = job["workload"] == "cli-batch"
    if is_cli:
        os.chdir(job["cwd"])
    classes = job["classes"]
    records = []
    primal_entries = 0
    loop_start = time.perf_counter()
    r = 0
    while True:
        for ci in workloads.round_order(job["seed"], len(classes), r):
            inp = workloads.prepare(job, ci, r)
            for si, argv in enumerate(inp["argvs"] if is_cli else [None]):
                if tracer:
                    tracer.request = (r, ci, si)
                error = None
                start = time.perf_counter()
                try:
                    out = mods.cli.main(list(argv)) if is_cli else workloads.call(mods, job, ci, inp)
                except Exception:
                    out, error = None, traceback.format_exc(limit=4)
                elapsed = time.perf_counter() - start
                if tracer:
                    tracer.request = None
                errs, fingerprint = {}, None
                if error is None and is_cli:
                    error, fingerprint = workloads.cli_result(argv, out, ".")
                elif error is None:
                    errs = workloads.check(job, ci, inp, out)
                    fingerprint = workloads.digest(out)
                    if not workloads.passes(errs):
                        error = f"oracle outside tolerance: {errs}"
                records.append(workloads.Record(r, ci, si, elapsed, error, errs, fingerprint))
        if r == 0:
            primal_entries = wavetransform._primal.cache_info().currsize
        r += 1
        if job["rounds"] is None and time.perf_counter() - loop_start >= job["seconds"]:
            break
        if job["rounds"] is not None and r >= job["rounds"]:
            break
    result = {
        "records": records,
        "rounds": r,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "import_s": import_s,
        "pool_workers": cli.worker_count(),
        "primal_entries": primal_entries,
    }
    if tracer:
        from tracer import summarize

        spans = tracer.records()
        result["layers"] = summarize(spans, primal_entries)
        if job.get("spans_path"):
            with open(job["spans_path"], "w", encoding="utf-8") as fh:
                for rec in spans:
                    fh.write(json.dumps(rec) + "\n")
    with open(result_path, "wb") as fh:
        pickle.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
