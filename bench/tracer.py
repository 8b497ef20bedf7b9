"""In-memory spans around the public functions of each fabersplines module.

Wrappers are installed only in a traced run, from the benchmark's own
files: each wrapper replaces the original function in every module
namespace that bound it (``sampling.synthesize`` is also ``cli.synthesize``
and ``fabersplines.synthesize``; ``norms.analyze`` is its own binding), and
``PiecewisePolynomial.eval_array`` is replaced on the class.  A span is
``[name, start, end, parent, request, size]``; ``size`` holds a count taken
at the boundary (points evaluated, coefficients produced, cache hit, CLI
subcommand).  Spans started in a worker thread with no open span of their
own take the main thread's innermost open span as parent, which is the
call that is waiting on the pool.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import sys
import threading
import time

import numpy as np

from workloads import refinement_cells


def _points(pos):
    return lambda args, kwargs, result: int(np.size(args[pos])) if len(args) > pos else int(np.size(kwargs["xs"]))


def _coeff_count(args, kwargs, result):
    return sum(len(lev) for lev in result.levels.values())


def _cells(args, kwargs, result):
    return refinement_cells(args[0])


def _subcommand(args, kwargs, result):
    argv = args[0] if args else kwargs.get("argv")
    return argv[0] if argv else ""


# module -> {public function: size hook}
TARGETS = {
    "piecewise": {"taylor_lift": None},
    "piecewise.PiecewisePolynomial": {"eval_array": _points(1)},
    "wavelets": {"wavelet": None},
    "dualcoeffs": {"palindromic_roots": None, "dual_wavelet_coeffs": None, "dual_scaling_coeffs": None},
    "basis": {"build_basis": None, "eval_L": None, "eval_s": None},
    "sampling": {"lambda_coeff": None, "analyze": _coeff_count, "synthesize": _points(2), "spline_interpolate": _points(2)},
    "wavetransform": {"mu_coeff": None, "wavelet_analyze": None, "wavelet_synthesize": _points(2)},
    "norms": {"b_norm": None, "f_norm": _cells, "equivalence_probe": None},
    "cli": {"main": _subcommand, "convergence_study": None},
}


class Tracer:
    """Collects spans in memory; ``request`` tags every span opened while it is set."""

    def __init__(self):
        self.spans = {}
        self.request = None
        self._ids = itertools.count()
        self._main = threading.main_thread()
        self._main_stack = []
        self._local = threading.local()

    def _stack(self):
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, size=None):
        tracer = self
        cached = hasattr(fn, "cache_info")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else (tracer._main_stack[-1] if tracer._main_stack else None)
            sid = next(tracer._ids)
            rec = [name, 0.0, 0.0, parent, tracer.request, 0]
            tracer.spans[sid] = rec
            misses = fn.cache_info().misses if cached else 0
            stack.append(sid)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if cached:
                rec[5] = int(fn.cache_info().misses == misses)
            elif size is not None:
                rec[5] = size(args, kwargs, result)
            return result

        return traced

    def install(self, package: str = "fabersplines"):
        """Replace every target in every module of the package that bound it."""
        modules = [mod for name, mod in list(sys.modules.items()) if name == package or name.startswith(package + ".")]
        for owner_path, hooks in TARGETS.items():
            modname, _, clsname = owner_path.partition(".")
            owner = sys.modules[f"{package}.{modname}"]
            if clsname:
                owner = getattr(owner, clsname)
            for fname, hook in hooks.items():
                original = owner.__dict__[fname] if clsname else getattr(owner, fname)
                wrapper = self.wrap(f"{modname}.{fname}", original, hook)
                if clsname:
                    setattr(owner, fname, wrapper)
                    continue
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is original:
                            setattr(mod, attr, wrapper)

    def records(self) -> list:
        return [[sid, *rec] for sid, rec in sorted(self.spans.items())]


# -- arithmetic on span lists ------------------------------------------------------
# A record is [id, name, start, end, parent, request, size].


def covered(intervals) -> float:
    """Length of the union of [start, end] intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(records) -> dict:
    """Span id -> duration minus the part of its interval that its child spans cover."""
    children = {}
    for sid, _, t0, t1, parent, _, _ in records:
        if parent is not None:
            children.setdefault(parent, []).append((t0, t1))
    out = {}
    for sid, _, t0, t1, _, _, _ in records:
        clipped = [(max(a, t0), min(b, t1)) for a, b in children.get(sid, ()) if min(b, t1) > max(a, t0)]
        out[sid] = (t1 - t0) - covered(clipped)
    return out


def _ancestors(records):
    by_id = {rec[0]: rec for rec in records}

    def names(sid):
        seen = []
        parent = by_id[sid][4]
        while parent is not None:
            seen.append(by_id[parent][1])
            parent = by_id[parent][4]
        return seen

    return names


def _outermost(records, name, names_of):
    """Spans of ``name`` not nested inside another span of the same name."""
    return [rec for rec in records if rec[1] == name and name not in names_of(rec[0])]


def summarize(records, primal_entries: int) -> dict:
    """Per-layer metrics of one traced round: counts and seconds over its requests.

    Spans opened outside a request (``request`` None) are the serving
    process's cold set-up, before the round.
    """
    names_of = _ancestors(records)
    selfs = self_times(records)
    setup = [r for r in records if r[5] is None]
    r0 = [r for r in records if r[5] is not None]

    def calls(name, recs=r0):
        return sum(1 for rec in recs if rec[1] == name)

    def busy(name, recs=r0):
        return sum(rec[3] - rec[2] for rec in _outermost(recs, name, names_of))

    def self_s(name, recs=r0):
        return sum(selfs[rec[0]] for rec in recs if rec[1] == name)

    def sizes(name, recs=r0):
        return sum(rec[6] for rec in recs if rec[1] == name)

    grid_calls = [rec for rec in r0 if rec[1] in ("sampling.synthesize", "sampling.spline_interpolate")]
    under_grid = sum(
        rec[6]
        for rec in r0
        if rec[1] == "piecewise.eval_array" and {"sampling.synthesize", "sampling.spline_interpolate"} & set(names_of(rec[0]))
    )
    grid_points = sum(rec[6] for rec in grid_calls)
    in_analysis = [rec for rec in r0 if "wavetransform.wavelet_analyze" in names_of(rec[0])]
    mu_calls = sum(1 for rec in in_analysis if rec[1] == "wavetransform.mu_coeff")
    interp_calls = sum(1 for rec in in_analysis if rec[1] == "sampling.spline_interpolate")
    bb_all = [rec for rec in setup + r0 if rec[1] == "basis.build_basis"]
    cli_main = [rec for rec in r0 if rec[1] == "cli.main"]
    per_sub = {}
    for rec in cli_main:
        per_sub.setdefault(rec[6], []).append(rec[3] - rec[2])
    metrics = {
        "piecewise.eval_array.calls": calls("piecewise.eval_array"),
        "piecewise.eval_array.points": sizes("piecewise.eval_array"),
        "piecewise.eval_array.busy_s": busy("piecewise.eval_array"),
        "sampling.synthesize.busy_s": busy("sampling.synthesize"),
        "sampling.synthesize.self_s": self_s("sampling.synthesize"),
        "sampling.spline_interpolate.busy_s": busy("sampling.spline_interpolate"),
        "sampling.evals_per_point": under_grid / grid_points if grid_points else 0.0,
        "sampling.analyze.busy_s": busy("sampling.analyze"),
        "sampling.lambda_coeff.calls": calls("sampling.lambda_coeff"),
        "sampling.analyze.coeffs": sizes("sampling.analyze"),
        "norms.b_norm.busy_s": busy("norms.b_norm"),
        "norms.f_norm.busy_s": busy("norms.f_norm"),
        "norms.f_norm.cells": sizes("norms.f_norm"),
        "wavetransform.wavelet_analyze.busy_s": busy("wavetransform.wavelet_analyze"),
        "wavetransform.wavelet_analyze.self_s": self_s("wavetransform.wavelet_analyze"),
        "wavetransform.mu_coeff.calls": calls("wavetransform.mu_coeff"),
        "wavetransform.interp_per_mu": interp_calls / mu_calls if mu_calls else 0.0,
        "wavetransform.primal_cache_entries": primal_entries,
        "wavetransform.wavelet_synthesize.busy_s": busy("wavetransform.wavelet_synthesize"),
        "basis.build_basis.busy_s": busy("basis.build_basis", setup),
        "basis.build_basis.self_s": self_s("basis.build_basis", setup),
        "dualcoeffs.palindromic_roots.busy_s": busy("dualcoeffs.palindromic_roots", setup),
        "dualcoeffs.dual_wavelet_coeffs.busy_s": busy("dualcoeffs.dual_wavelet_coeffs", setup),
        "dualcoeffs.dual_scaling_coeffs.busy_s": busy("dualcoeffs.dual_scaling_coeffs", setup),
        "wavelets.wavelet.busy_s": busy("wavelets.wavelet", setup),
        "piecewise.taylor_lift.busy_s": busy("piecewise.taylor_lift", setup),
        "basis.build_basis.hit_ratio": sum(rec[6] for rec in bb_all) / len(bb_all) if bb_all else 0.0,
        "cli.self_s": self_s("cli.main"),
    }
    for sub, durations in per_sub.items():
        metrics[f"cli.{sub}.p50_s"] = statistics.median(durations)
    return metrics

