"""Seeded workloads for the fabersplines benchmark: inputs, oracles, requests.

A workload is a list of request classes.  Every run executes whole rounds,
and each round runs every class once in an order drawn from the seed, so
each class appears in the same proportion in every run and the median and
the tail do not flip between classes from one run to the next.  Within a
run a class keeps its seeded base input; requests differ by a seeded
integer offset that shifts the input and the output grid.  Shifting by an
integer keeps the cost of a request fixed while the keys of the program's
own caches (``wavetransform._primal``) keep changing, as they would under
a stream of real inputs.

The oracles are computed here, before any clock starts, from exact
rational arithmetic: exact spline values from a rational
``PiecewisePolynomial``, exact mu from ``mu_coeff`` on the exact input,
and a plain direct dual-series sum.  ``build`` runs in the benchmark's
parent process; ``prepare``, ``call`` and ``check`` run in the process
that serves the requests.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from collections import namedtuple
from fractions import Fraction

import numpy as np

WORKLOADS = ("sn-grid", "wavelet-rt", "norm-probe", "cli-batch")

# One served request: round, class index, step within a cli-batch unit, wall
# seconds, why it failed (None when it passed), oracle errors, output digest.
Record = namedtuple("Record", "round cls step seconds error errs digest")

# Tolerances anchored on the tier-1 tests: interpolation, spline
# reproduction and S_N vs J_N at 1e-8 (unit scale), sampled vs exact mu at
# 1e-10, and b = f at p = theta far above the 7e-16 seen at the seed.
INTERP_TOL = 1e-8
MU_TOL = 1e-10
NORM_REL_TOL = 1e-12

# The tail percentile is fixed per workload at the middle of the k-th
# slowest request class, 100 * (1 - (k - 1/2) / classes), so that it reads
# the middle of one class's samples, not the boundary between two.  k is the
# smallest class rank with at least ten requests beyond it at the seed
# commit in a 20 s run (sn-grid 72 requests, norm-probe 40, cli-batch 44).
# wavelet-rt completes 12 to 16 requests per run there, so no percentile
# above the median has ten beyond it; it reads the slowest class.  A fixed
# percentile keeps the definition the same when a faster commit completes
# more rounds.
TAIL_CLASS_RANK = {"sn-grid": 6, "wavelet-rt": 1, "norm-probe": 3, "cli-batch": 3}

SN_ORDERS = (2, 3, 5)
SN_LEVELS = (8, 9)
SN_KINDS = ("spline", "family", "jump", "uniform")
WR_CLASSES = ((2, 4, 10), (2, 5, 6), (3, 4, 10), (3, 5, 6))  # (m, N, support width)
NP_FAMILIES = ("bump", "gaussian", "jump", "spline")
NP_TOPS = {2: 12, 3: 11}  # m -> finest level N_max of the probe
NP_PARAMS = ((2.0, 2.0, 2.0), (1.5, 1.0, math.inf), (2.5, 0.5, 0.5))

OFFSET_RANGE = 2000


def rng_for(seed: int, *path: int) -> np.random.Generator:
    """Independent stream per (seed, path), so classes do not depend on each other's draws."""
    return np.random.default_rng([seed, *path])


def round_order(seed: int, n_classes: int, r: int) -> list:
    """The seeded order of the classes in round r."""
    return [int(i) for i in rng_for(seed, 7, r).permutation(n_classes)]


def _offsets(seed: int, ci: int) -> np.ndarray:
    return rng_for(seed, 11, ci).permutation(np.arange(-OFFSET_RANGE, OFFSET_RANGE + 1))


def request_offset(cls: dict, r: int) -> int:
    offsets = cls["offsets"]
    return int(offsets[r % len(offsets)])


# -- exact inputs --------------------------------------------------------------


def exact_spline(m: int, level: int, coeffs) -> "PiecewisePolynomial":
    """sum_i c_i N_2m(2^level x - i) as an exact rational piecewise polynomial.

    Built cell by cell: on [t/2^L, (t+1)/2^L) the term of shift i is piece
    t - i of N_2m in the local variable 2^L u, so the cell's local
    coefficients are 2^(Lk) sum_d c_(t-d) p_d[k].
    """
    from fabersplines.piecewise import PiecewisePolynomial, bspline

    order = 2 * m
    base = bspline(order).pieces
    scale = [Fraction(2) ** (level * k) for k in range(order)]
    n = len(coeffs)
    pieces = []
    for t in range(n + order - 1):
        acc = [Fraction(0)] * order
        for d in range(order):
            i = t - d
            if 0 <= i < n and coeffs[i]:
                for k, c in enumerate(base[d]):
                    acc[k] += coeffs[i] * c
        pieces.append([a * s for a, s in zip(acc, scale)])
    breakpoints = [Fraction(t, 2**level) for t in range(n + order)]
    return PiecewisePolynomial.make(breakpoints, pieces)


def random_coeffs(rng, n: int) -> list:
    return [Fraction(int(v), 64) for v in rng.integers(-64, 65, n)]


def exact_values(pp, points) -> np.ndarray:
    """Exact values of a rational piecewise polynomial at dyadic float points, rounded once."""
    return np.array([float(pp(Fraction(float(x)))) for x in points])


def dyadic_grid(rng, lo: int, hi: int, N: int, n_points: int):
    """n_points grid points on [lo, hi]: a seeded half on 2^-N Z, the rest strictly between.

    Returns the sorted grid and the lattice index k of every sample point
    (-1 for the off-lattice points).
    """
    half = n_points // 2
    lattice = np.arange(lo * 2**N, hi * 2**N + 1)
    ks = rng.choice(lattice, size=half, replace=False)
    fine = 16
    cells = rng.integers(lo * 2**N, hi * 2**N, n_points - half)
    sub = rng.integers(1, fine, n_points - half)
    off = (cells * fine + sub) / float(2**N * fine)
    xs = np.concatenate([ks / float(2**N), off])
    kidx = np.concatenate([ks, np.full(n_points - half, -1)])
    order = np.argsort(xs, kind="stable")
    return xs[order], kidx[order]


# -- build: inputs and oracles per class ---------------------------------------


def build(workload: str, seed: int) -> dict:
    """All classes of a workload with their inputs and oracle values, from the seed."""
    builder = {"sn-grid": _build_sn, "wavelet-rt": _build_wr, "norm-probe": _build_np, "cli-batch": _build_cli}
    if workload not in builder:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    job = builder[workload](seed)
    per_round = sum(len(c.get("argvs", [None])) for c in job["classes"])
    tail_pct = 100.0 * (1.0 - (TAIL_CLASS_RANK[workload] - 0.5) / per_round)
    job.update(workload=workload, seed=seed, tail_pct=tail_pct)
    return job


def _build_sn(seed: int) -> dict:
    from fabersplines.families import get_family
    from fabersplines.sampling import SampledFunction

    classes = []
    for m in SN_ORDERS:
        for N in SN_LEVELS:
            for kind in SN_KINDS:
                ci = len(classes)
                rng = rng_for(seed, 1, ci)
                exact_pp = None
                if kind == "spline":
                    # order-2m spline at level N-2 on a 4-unit support
                    level = N - 2
                    exact_pp = exact_spline(m, level, random_coeffs(rng, 4 * 2**level - 2 * m))
                    lo, hi = 0, 4
                    k_lo = 0
                    values = exact_values(exact_pp, np.arange(0, 4 * 2**N + 1) / float(2**N))
                elif kind == "uniform":
                    lo, hi = 0, 2
                    k_lo = 0
                    values = rng.uniform(-1.0, 1.0, 2 * 2**N + 1)
                else:
                    name = "jump" if kind == "jump" else ("bump" if N == SN_LEVELS[0] else "gaussian")
                    fam = get_family(name)
                    f = SampledFunction.from_callable(fam.f, N, *fam.support)
                    lo, hi = (int(v) for v in fam.support)
                    k_lo, values = f.k_lo, np.asarray(f.values)
                xs, kidx = dyadic_grid(rng, lo - 1, hi + 1, N, 4 * 2**N)
                inside = (kidx >= k_lo) & (kidx < k_lo + len(values))
                sample_vals = np.where(inside, values[np.clip(kidx - k_lo, 0, len(values) - 1)], 0.0)
                classes.append(
                    {
                        "key": f"m{m}-N{N}-{kind}",
                        "m": m,
                        "N": N,
                        "k_lo": k_lo,
                        "values": values,
                        "grid": xs,
                        "sample_mask": kidx >= 0,
                        "sample_vals": sample_vals[kidx >= 0],
                        "exact": None if exact_pp is None else exact_values(exact_pp, xs),
                        "scale": max(1.0, float(np.max(np.abs(values)))),
                        "offsets": _offsets(seed, ci),
                    }
                )
    return {"orders": list(SN_ORDERS), "classes": classes}


def _build_wr(seed: int) -> dict:
    from fabersplines.basis import build_basis
    from fabersplines.piecewise import bspline
    from fabersplines.wavelets import wavelet
    from fabersplines.wavetransform import wavelet_analyze

    classes = []
    for ci, (m, N, width) in enumerate(WR_CLASSES):
        rng = rng_for(seed, 2, ci)
        level = N - 1
        pp = exact_spline(m, level, random_coeffs(rng, width * 2**level - 2 * m))
        values = exact_values(pp, np.arange(0, width * 2**N + 1) / float(2**N))
        xs, _ = dyadic_grid(rng, -1, width + 1, N, 4 * 2**N)
        exact = wavelet_analyze(pp, m, N - 1)
        mu = {(j, k): v for j, lev in exact.levels.items() for k, v in lev.items()}
        basis = build_basis(m)
        classes.append(
            {
                "key": f"m{m}-N{N}-w{width}",
                "m": m,
                "N": N,
                "k_lo": 0,
                "values": values,
                "grid": xs,
                "mu": mu,
                "direct": direct_dual_sum(mu, m, basis.dual_table, basis.cardinal_table, xs, wavelet(m).psi, bspline(m)),
                "offsets": _offsets(seed, ci),
            }
        )
    return {"orders": sorted({c["m"] for c in classes}), "classes": classes}


def direct_dual_sum(mu: dict, m: int, dual_table, scaling_table, xs, psi, nm) -> np.ndarray:
    """sum mu_jk sum_n a_n psi(2^j x - k - n) + sum mu_-1k sum_n b_n N_m(x + m//2 - k - n), term by term."""
    psi_f, nm_f = psi.as_float(), nm.as_float()
    out = np.zeros_like(xs)
    for (j, k), v in sorted(mu.items()):
        if j == -1:
            for n, b in scaling_table.items():
                out += v * b * nm_f.eval_array(xs + m // 2 - k - n)
        else:
            arg = np.ldexp(xs, j)
            for n, a in dual_table.items():
                out += v * a * psi_f.eval_array(arg - k - n)
    return out


def _build_np(seed: int) -> dict:
    classes = []
    for family in NP_FAMILIES:
        for m, top in NP_TOPS.items():
            ci = len(classes)
            spline = None
            if family == "spline":
                # order-2m spline at level 3 on a 4-unit support
                spline = exact_spline(m, 3, random_coeffs(rng_for(seed, 3, ci), 4 * 8 - 2 * m)).as_float()
            classes.append({"key": f"{family}-m{m}-N{top}", "family": family, "m": m, "top": top, "spline": spline})
    return {"orders": sorted(NP_TOPS), "classes": classes}


# cli-batch: units of argv lists; a unit whose second command reads the
# first one's output runs as a chain, one child process per command.
CLI_GRID_L = "-8:8:0.0078125"  # 2049 points
CLI_GRID_SYN = "-1:5:0.00390625"  # 1537 points
CLI_GRID_WSYN = "-1:9:0.0078125"  # 1281 points
CLI_UNITS = (
    (("coeffs", "--m", "2", "--window", "21", "--out", "c2.json"),),
    (("coeffs", "--m", "5", "--window", "40", "--format", "csv", "--out", "c5.csv"),),
    (("basis", "--m", "2", "--which", "L", f"--grid={CLI_GRID_L}", "--out", "L.csv"),),
    (
        ("analyze", "--m", "2", "--in", "s8.csv", "--out", "a.json"),
        ("synthesize", "--coeffs", "a.json", f"--grid={CLI_GRID_SYN}", "--out", "syn.csv"),
    ),
    (
        ("wavelet-analyze", "--m", "2", "--J", "3", "--in", "s4.csv", "--out", "mu.json"),
        ("wavelet-synthesize", "--coeffs", "mu.json", f"--grid={CLI_GRID_WSYN}", "--out", "wsyn.csv"),
    ),
    (("norm", "--space", "b", "--r", "2", "--p", "2", "--theta", "2", "--coeffs", "norm.json", "--out", "nb.json"),),
    (("norm", "--space", "f", "--r", "2", "--p", "2", "--theta", "2", "--coeffs", "norm.json", "--out", "nf.json"),),
    (("probe", "--family", "gaussian", "--m", "2", "--r", "2", "--p", "2", "--theta", "2", "--levels", "3:8", "--out", "probe.csv"),),
    (("convergence", "--m", "2", "--family", "bump", "--levels", "3:6", "--out", "conv.csv"),),
)
CSV_HEADERS = {
    "c5.csv": "n,a_n",
    "L.csv": "x,L",
    "syn.csv": "x,value",
    "wsyn.csv": "x,value",
    "probe.csv": "N,b_norm,ratio",
    "conv.csv": "N,sup_error,order",
}


def _samples_csv(N: int, k_lo: int, values) -> str:
    lines = [f"N={N},k_lo={k_lo},k_hi={k_lo + len(values) - 1}", "k,value"]
    lines += [f"{k_lo + i},{format(float(v), '.17g')}" for i, v in enumerate(values)]
    return "\n".join(lines) + "\n"


def _build_cli(seed: int) -> dict:
    from fabersplines.sampling import SampledFunction, analyze

    rng = rng_for(seed, 4, 0)
    s8 = exact_spline(2, 6, random_coeffs(rng, 4 * 2**6 - 4))
    v8 = exact_values(s8, np.arange(0, 4 * 2**8 + 1) / 2.0**8)
    s4 = exact_spline(2, 3, random_coeffs(rng, 8 * 2**3 - 4))
    v4 = exact_values(s4, np.arange(0, 8 * 2**4 + 1) / 2.0**4)
    doc = analyze(SampledFunction(N=8, k_lo=0, values=tuple(v8)), 2).to_json_dict()
    doc["kind"] = "lambda"
    files = {
        "s8.csv": _samples_csv(8, 0, v8),
        "s4.csv": _samples_csv(4, 0, v4),
        "norm.json": json.dumps(doc, allow_nan=False) + "\n",
    }
    classes = []
    for unit in CLI_UNITS:
        classes.append({"key": "+".join(argv[0] for argv in unit), "argvs": [list(a) for a in unit]})
    return {"orders": [2, 5], "classes": classes, "files": files}


# -- requests: prepare (untimed), call (timed), check (untimed) ------------------


def prepare(job: dict, ci: int, r: int):
    """The request's input, built before the clock starts."""
    cls = job["classes"][ci]
    wl = job["workload"]
    if wl in ("sn-grid", "wavelet-rt"):
        from fabersplines.sampling import SampledFunction

        off = request_offset(cls, r)
        f = SampledFunction(N=cls["N"], k_lo=cls["k_lo"] + off * 2 ** cls["N"], values=tuple(cls["values"].tolist()))
        return {"f": f, "xs": cls["grid"] + off, "offset": off}
    if wl == "norm-probe":
        if cls["spline"] is not None:
            lo, hi = (float(t) for t in cls["spline"].support)
            return {"f": cls["spline"].eval_array, "support": (lo, hi)}
        from fabersplines.families import get_family

        fam = get_family(cls["family"])
        return {"f": fam.f, "support": fam.support}
    return {"argvs": cls["argvs"]}


def call(mods, job: dict, ci: int, inp: dict):
    """One request against the library; module attributes are looked up per call."""
    cls = job["classes"][ci]
    wl = job["workload"]
    m = cls["m"]
    if wl == "sn-grid":
        basis = mods.basis.build_basis(m)
        exp = mods.sampling.analyze(inp["f"], m)
        s = mods.sampling.synthesize(exp, basis, inp["xs"])
        j = mods.sampling.spline_interpolate(inp["f"], m, inp["xs"], basis)
        return {"s": s, "j": j}
    if wl == "wavelet-rt":
        basis = mods.basis.build_basis(m)
        exp = mods.wavetransform.wavelet_analyze(inp["f"], m, cls["N"] - 1, basis)
        rec = mods.wavetransform.wavelet_synthesize(exp, basis.dual_table, inp["xs"], basis.cardinal_table)
        return {"levels": exp.levels, "rec": rec}
    if wl == "norm-probe":
        lo, hi = inp["support"]
        norms = []
        for N in range(3, cls["top"] + 1):
            fs = mods.sampling.SampledFunction.from_callable(inp["f"], N, lo, hi)
            exp = mods.sampling.analyze(fs, m)
            for r, p, theta in NP_PARAMS:
                params = mods.norms.NormParams(r=r, p=p, theta=theta)
                norms.append((N, p, theta, mods.norms.b_norm(exp, params), mods.norms.f_norm(exp, params)))
        return {"norms": norms}
    raise ValueError(f"workload {wl!r} has no in-process call")


def check(job: dict, ci: int, inp: dict, out: dict) -> dict:
    """Oracle errors of one request: {oracle: max error}; each must stay within its tolerance."""
    cls = job["classes"][ci]
    wl = job["workload"]
    if wl == "sn-grid":
        scale = cls["scale"]
        s, j = out["s"], out["j"]
        errs = {
            "interpolation": float(np.max(np.abs(s[cls["sample_mask"]] - cls["sample_vals"]))) / scale,
            "sn_vs_jn": float(np.max(np.abs(s - j))) / scale,
        }
        if cls["exact"] is not None:
            errs["reproduction"] = float(np.max(np.abs(s - cls["exact"]))) / scale
        return errs
    if wl == "wavelet-rt":
        off = inp["offset"]
        shifted = {(j, k + off * 2 ** max(j, 0)): v for (j, k), v in cls["mu"].items()}
        got = {(j, k): v for j, lev in out["levels"].items() for k, v in lev.items()}
        mu_err = max(abs(got.get(key, 0.0) - shifted.get(key, 0.0)) for key in set(got) | set(shifted))
        scale = max(1.0, float(np.max(np.abs(cls["direct"]))))
        return {
            "mu_sampled_vs_exact": mu_err,
            "synthesis_vs_direct": float(np.max(np.abs(out["rec"] - cls["direct"]))) / scale,
        }
    if wl == "norm-probe":
        worst = 0.0
        for N, p, theta, b, f in out["norms"]:
            if not (math.isfinite(b) and math.isfinite(f) and b > 0 and f > 0):
                return {"b_eq_f": math.inf}
            if p == theta:
                worst = max(worst, abs(b - f) / b)
        return {"b_eq_f": worst}
    raise ValueError(f"workload {wl!r} is checked through check_cli")


TOLERANCES = {
    "interpolation": INTERP_TOL,
    "sn_vs_jn": INTERP_TOL,
    "reproduction": INTERP_TOL,
    "mu_sampled_vs_exact": MU_TOL,
    "synthesis_vs_direct": INTERP_TOL,
    "b_eq_f": NORM_REL_TOL,
}


def passes(errs: dict) -> bool:
    return all(e <= TOLERANCES[name] for name, e in errs.items())


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def strict_json(text: str):
    """json.loads that refuses the bare NaN, Infinity and -Infinity tokens."""
    return json.loads(text, parse_constant=_reject_constant)


def cli_result(argv, rc: int, cwd: str):
    """(why the CLI request failed or None, digest of its output file).

    A request passes when it exits 0, its JSON is strict and its CSV
    carries the expected header.
    """
    if rc != 0:
        return f"exit code {rc}", None
    name = argv[argv.index("--out") + 1]
    try:
        with open(os.path.join(cwd, name), "rb") as fh:
            data = fh.read()
    except OSError as exc:
        return f"{name}: {exc}", None
    text = data.decode("utf-8", errors="replace")
    if name.endswith(".json"):
        try:
            strict_json(text)
        except ValueError as exc:
            return f"{name}: {exc}", digest(data)
        return None, digest(data)
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    if not lines or lines[0] != CSV_HEADERS[name]:
        return f"{name}: missing header {CSV_HEADERS[name]!r}", digest(data)
    return None, digest(data)


def digest(out) -> str:
    """Bit-level fingerprint of a request's outputs."""
    h = hashlib.sha1()
    if isinstance(out, bytes):
        h.update(out)
        return h.hexdigest()
    for key in sorted(out):
        val = out[key]
        if isinstance(val, np.ndarray):
            h.update(val.tobytes())
        elif isinstance(val, dict):
            h.update(repr(sorted(val.items())).encode())
        else:
            h.update(repr(val).encode())
    return h.hexdigest()


def refinement_cells(exp) -> int:
    """Cells of the common dyadic refinement that f_norm integrates over (computed from the expansion)."""
    live = {j: lev for j, lev in exp.levels.items() if lev}
    if not live:
        return 0
    M = max([1] + [j for j in live if j >= 0])
    lo, hi = None, None
    for j, lev in live.items():
        ks = np.fromiter(lev, dtype=np.int64)
        if j == -1:
            a, b = ks.min() * 2**M - 2 ** (M - 1), ks.max() * 2**M + 2 ** (M - 1)
        else:
            a, b = ks.min() * 2 ** (M - j), (ks.max() + 1) * 2 ** (M - j)
        lo = a if lo is None else min(lo, a)
        hi = b if hi is None else max(hi, b)
    return int(hi - lo)
