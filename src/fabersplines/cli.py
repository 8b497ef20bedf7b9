"""The ``faber`` command: one entry point, nine subcommands.

    coeffs              dual wavelet/scaling coefficient tables
    basis               evaluate s_{j,k} or the cardinal interpolant on a grid
    analyze             sampling coefficients from a samples.csv window
    synthesize          evaluate S_N f from a coeffs.json file on a grid
    wavelet-analyze     biorthogonal analysis coefficients (mu)
    wavelet-synthesize  dual-series synthesis from mu coefficients
    norm                discrete b/f sequence norm of a coefficient file
    probe               norm-stabilization probe across sampling levels
    convergence         sup-error decay study of S_N on a test family

Conventions: dense grids travel as CSV with a mandatory header, sparse
coefficient maps as JSON with a provenance block; everything is UTF-8
with LF line endings and deterministic for a fixed invocation.  Exit
codes: 0 success, 2 validation failure (a request too large for memory
or for the float range included), 3 numerical guard tripped (a
unit-circle root or a failed exact invariant).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .basis import DyadicIndex, build_basis, eval_L, eval_s
from .dualcoeffs import (
    MAX_ORDER,
    TOLERANCE,
    UnitCircleError,
    dual_scaling_coeffs,
    dual_wavelet_coeffs,
    require_supported_order,
)
from .families import get_family
from .norms import INF, NormParams, b_norm, equivalence_probe, f_norm
from .piecewise import InvariantError
from .sampling import Expansion, SampledFunction, analyze, synthesize
from .wavelets import autocorr, scaling_crosscorr
from .wavetransform import wavelet_analyze, wavelet_synthesize

__all__ = ["main", "convergence_study", "run"]


def worker_count() -> int:
    """Threads used for grid evaluation: always 1.

    ``shift_sum`` leaves no per-coefficient pass to split across threads;
    the function stays, as a constant, because the benchmark reports it.
    """
    return 1


def _dumps(doc) -> str:
    """Strict JSON: a NaN or infinity raises ValueError instead of printing a bare token."""
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def _provenance(m, tolerance, truncation_bound) -> dict:
    return {
        "m": m,
        "tolerance": tolerance,
        "truncation_bound": truncation_bound,
        "version": __version__,
    }


def _parse_grid(spec: str) -> np.ndarray:
    try:
        a, b, step = (float(part) for part in spec.split(":"))
    except ValueError:
        raise ValueError(f"grid must be a:b:step, got {spec!r}") from None
    if not all(map(math.isfinite, (a, b, step))):
        raise ValueError(f"grid endpoints and step must be finite, got {spec!r}")
    if step <= 0 or b < a:
        raise ValueError("grid needs a <= b and step > 0")
    n = int(math.floor((b - a) / step + 1e-9)) + 1
    return a + step * np.arange(n)


def _write_text(path, text: str):
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _csv(headers, rows) -> str:
    lines = [",".join(headers)]
    for row in rows:
        lines.append(",".join("" if v is None else (format(v, ".17g") if isinstance(v, float) else str(v)) for v in row))
    return "\n".join(lines) + "\n"


def read_samples_csv(path: str) -> SampledFunction:
    """samples.csv: metadata row ``N=..,k_lo=..,k_hi=..``, header ``k,value``, rows.

    Every index of the window takes exactly one row; a row count that does
    not match the window (checked before anything is allocated), malformed
    rows, repeated indices and a window that ``SampledFunction`` refuses
    (its range contract) raise ValueError.
    """
    with open(path, encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if len(lines) < 2:
        raise ValueError(f"{path}: samples.csv needs a metadata row and the header row 'k,value'")
    try:
        meta = dict(item.split("=") for item in lines[0].split(","))
        N, k_lo, k_hi = int(meta["N"]), int(meta["k_lo"]), int(meta["k_hi"])
    except (KeyError, ValueError):
        raise ValueError(f"{path}: metadata row must read N=..,k_lo=..,k_hi=.., got {lines[0]!r}") from None
    if lines[1].lower() != "k,value":
        raise ValueError("samples.csv must carry the header row 'k,value'")
    if len(lines) - 2 != k_hi - k_lo + 1:
        raise ValueError(f"window [{k_lo}, {k_hi}] needs one row per index, {k_hi - k_lo + 1} rows, got {len(lines) - 2}")
    values = np.zeros(k_hi - k_lo + 1)
    seen = set()
    for ln in lines[2:]:
        k_str, v_str = ln.split(",")
        k, v = int(k_str), float(v_str)
        if not k_lo <= k <= k_hi:
            raise ValueError(f"sample index {k} outside declared window [{k_lo}, {k_hi}]")
        if k in seen:
            raise ValueError(f"sample index {k} appears twice")
        seen.add(k)
        values[k - k_lo] = v
    try:
        return SampledFunction(N=N, k_lo=k_lo, values=values)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_samples_csv(path, f: SampledFunction):
    lines = [f"N={f.N},k_lo={f.k_lo},k_hi={f.k_hi}", "k,value"]
    for i, v in enumerate(f.values.tolist()):
        lines.append(f"{f.k_lo + i},{format(v, '.17g')}")
    _write_text(path, "\n".join(lines) + "\n")


def _parse_levels(spec: str) -> range:
    """``--levels lo:hi`` as the levels lo..hi; anything but integers lo <= hi raises ValueError."""
    try:
        lo, hi = map(int, spec.split(":"))
    except ValueError:
        lo, hi = 0, -1  # refused below, with one message for every malformed spec
    if lo > hi:
        raise ValueError(f"--levels must be lo:hi with integers lo <= hi, got {spec!r}")
    return range(lo, hi + 1)


# -- subcommand implementations -------------------------------------------


def _cmd_coeffs(args) -> int:
    table = (dual_wavelet_coeffs if args.kind == "wavelet" else dual_scaling_coeffs)(args.m, args.window)
    seq = (autocorr if args.kind == "wavelet" else scaling_crosscorr)(args.m)
    if args.format == "csv":
        meta = (
            f"# decay_rate={format(table.decay_rate, '.17g')}\n"
            f"# truncation_bound={format(table.truncation_bound, '.17g')}\n"
            f"# input_polynomial={';'.join(seq.fraction_strings())}\n"
        )
        _write_text(args.out, meta + _csv(["n", "a_n"], table.items()))
        return 0
    doc = {
        "kind": table.kind,
        "center": table.center,
        "decay_rate": table.decay_rate,
        "input_polynomial": seq.fraction_strings(),
        "coeffs": [{"n": n, "a_n": v} for n, v in table.items()],
        "provenance": _provenance(args.m, None, table.truncation_bound),
    }
    _write_text(args.out, _dumps(doc))
    return 0


def _cmd_basis(args) -> int:
    basis = build_basis(args.m)
    xs = _parse_grid(args.grid)
    if args.which == "L":
        ys = eval_L(basis, xs)
        label = "L"
    else:
        idx = DyadicIndex(args.j, args.k)
        ys = eval_s(basis, idx, xs)
        label = f"s_{args.j}_{args.k}"
    _write_text(args.out, _csv(["x", label], zip(xs.tolist(), ys.tolist())))
    return 0


def _cmd_analyze(args) -> int:
    f = read_samples_csv(args.infile)
    exp = analyze(f, args.m)
    doc = exp.to_json_dict()
    doc["kind"] = "lambda"
    doc["provenance"] = _provenance(args.m, TOLERANCE, build_basis(args.m).dual_table.truncation_bound)
    _write_text(args.out, _dumps(doc))
    return 0


def _unique_keys(pairs) -> dict:
    """``json.load`` hook: a repeated key raises ValueError instead of keeping the last value."""
    doc = dict(pairs)
    if len(doc) != len(pairs):
        raise ValueError("a JSON object repeats a key")
    return doc


def _load_expansion(path, expected_kind=None) -> Expansion:
    """A coefficient file as ``Expansion.from_json_dict`` reads it; ``expected_kind`` ("lambda" or "mu") when needed."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh, object_pairs_hook=_unique_keys)
    try:
        kind = doc.get("kind", "lambda")
        exp = Expansion.from_json_dict(doc)
    except (AttributeError, KeyError, TypeError) as exc:
        raise ValueError(f"{path}: not a coefficient file ({type(exc).__name__}: {exc})") from None
    except ValueError as exc:  # the order, a level, a shift or a value that the file cannot hold
        raise ValueError(f"{path}: {exc}") from None
    if expected_kind is not None and kind != expected_kind:
        raise ValueError(f"coefficient file holds {kind!r} coefficients, expected {expected_kind!r}")
    return exp


def _cmd_synthesize(args) -> int:
    exp = _load_expansion(args.coeffs, "lambda")
    basis = build_basis(exp.m)
    xs = _parse_grid(args.grid)
    ys = synthesize(exp, basis, xs)
    _write_text(args.out, _csv(["x", "value"], zip(xs.tolist(), ys.tolist())))
    return 0


def _cmd_wavelet_analyze(args) -> int:
    f = read_samples_csv(args.infile)
    basis = build_basis(args.m)
    exp = wavelet_analyze(f, args.m, args.J, basis)
    doc = exp.to_json_dict()
    doc["kind"] = "mu"
    doc["provenance"] = _provenance(args.m, TOLERANCE, basis.dual_table.truncation_bound)
    _write_text(args.out, _dumps(doc))
    return 0


def _cmd_wavelet_synthesize(args) -> int:
    exp = _load_expansion(args.coeffs, "mu")
    basis = build_basis(exp.m)
    xs = _parse_grid(args.grid)
    ys = wavelet_synthesize(exp, basis.dual_table, xs, basis.cardinal_table)
    _write_text(args.out, _csv(["x", "value"], zip(xs.tolist(), ys.tolist())))
    return 0


def _cmd_norm(args) -> int:
    exp = _load_expansion(args.coeffs)
    params = NormParams(r=args.r, p=float(args.p), theta=float(args.theta))
    value = (b_norm if args.space == "b" else f_norm)(exp, params)
    out = {
        "space": args.space,
        "r": args.r,
        "p": params.p if params.p != INF else "inf",
        "theta": params.theta if params.theta != INF else "inf",
        "norm": value,
        "provenance": _provenance(exp.m, None, None),
    }
    _write_text(args.out, _dumps(out))
    return 0


def _cmd_probe(args) -> int:
    params = NormParams(r=args.r, p=float(args.p), theta=float(args.theta))
    report = equivalence_probe(get_family(args.family), args.m, params, _parse_levels(args.levels))
    text = _csv(["N", "b_norm", "ratio"], [(row["N"], row["norm"], row["ratio"]) for row in report["rows"]])
    # soft warnings, not errors: probing outside the admissible parameter
    # region is how the restriction is demonstrated, and rows past the
    # noise floor are still printed
    warnings = []
    if not report["in_admissible_range"]:
        warnings.append(f"(r={args.r}, p={args.p}, theta={args.theta}) outside the admissible characterization range for m={args.m}")
    floor = next((row["N"] for row in report["rows"] if row["at_noise_floor"]), None)
    if floor is not None:
        warnings.append(f"from N={floor} the finest level is at the rounding floor of the samples; those rows measure rounding, not f")
    for warning in warnings:
        print(f"faber probe: warning: {warning}", file=sys.stderr)
    _write_text(args.out, "".join(f"# warning: {warning}\n" for warning in warnings) + text)
    return 0


def convergence_study(family, m: int, N_range) -> list:
    """Sup-grid error of S_N f across N with empirical orders.

    The error is measured on a dyadic grid two levels finer than the
    densest N, over the support widened by one unit on each
    side; the empirical order between consecutive levels is
    log2(err_{N-1} / err_N).
    """
    basis = build_basis(m)
    lo, hi = family.support
    N_range = list(N_range)
    level = max(N_range) + 2
    xs = np.arange(math.floor((lo - 1) * 2**level), math.ceil((hi + 1) * 2**level) + 1) / 2.0**level
    reference = np.asarray(family.f(xs), dtype=float)
    rows = []
    prev_err = None
    for N in N_range:
        f = SampledFunction.from_callable(family.f, N, lo, hi)
        exp = analyze(f, m)
        err = float(np.max(np.abs(synthesize(exp, basis, xs) - reference)))
        order = None if prev_err in (None, 0.0) or err == 0.0 else math.log2(prev_err / err)
        rows.append({"N": N, "sup_error": err, "order": order})
        prev_err = err
    return rows


def _cmd_convergence(args) -> int:
    rows = convergence_study(get_family(args.family), args.m, _parse_levels(args.levels))
    _write_text(args.out, _csv(["N", "sup_error", "order"], [(r["N"], r["sup_error"], r["order"]) for r in rows]))
    return 0


# -- parser / dispatch -----------------------------------------------------


def _add_common(sub):
    sub.add_argument("--m", type=int, required=True, help=f"spline wavelet order, 2..{MAX_ORDER}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="faber", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"faber {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("coeffs", help="dual coefficient table")
    _add_common(p)
    p.add_argument("--window", type=int, required=True)
    p.add_argument("--kind", choices=["wavelet", "scaling"], default="wavelet")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_coeffs)

    p = subs.add_parser("basis", help="evaluate a basis function on a grid")
    _add_common(p)
    p.add_argument("--j", type=int, default=0)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--grid", required=True, help="a:b:step (use --grid=-1:3:0.5 for negative starts)")
    p.add_argument("--which", choices=["s", "L"], default="s")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_basis)

    p = subs.add_parser("analyze", help="sampling coefficients from samples.csv")
    _add_common(p)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_analyze)

    p = subs.add_parser("synthesize", help="evaluate S_N f from coeffs.json")
    p.add_argument("--coeffs", required=True)
    p.add_argument("--grid", required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_synthesize)

    p = subs.add_parser("wavelet-analyze", help="biorthogonal mu coefficients from samples.csv")
    _add_common(p)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--J", type=int, required=True, help="finest analysis level")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_wavelet_analyze)

    p = subs.add_parser("wavelet-synthesize", help="dual-series synthesis from mu coefficients")
    p.add_argument("--coeffs", required=True)
    p.add_argument("--grid", required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_wavelet_synthesize)

    p = subs.add_parser("norm", help="discrete sequence norm of a coefficient file")
    p.add_argument("--space", choices=["b", "f"], required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--p", required=True)
    p.add_argument("--theta", required=True)
    p.add_argument("--coeffs", required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_norm)

    p = subs.add_parser("probe", help="norm stabilization across levels")
    _add_common(p)
    p.add_argument("--family", required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--p", required=True)
    p.add_argument("--theta", required=True)
    p.add_argument("--levels", required=True, help="lo:hi inclusive")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_probe)

    p = subs.add_parser("convergence", help="sup-error decay of S_N on a family")
    _add_common(p)
    p.add_argument("--family", required=True)
    p.add_argument("--levels", default="3:8")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_convergence)

    return parser


def run(args) -> int:
    """Dispatch a parsed invocation; maps guard failures to exit codes."""
    try:
        if getattr(args, "m", None) is not None:
            require_supported_order(args.m)
        return args.func(args)
    except (UnitCircleError, InvariantError) as exc:
        print(f"faber: numerical guard: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, MemoryError, OverflowError) as exc:
        print(f"faber: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return run(args)


if __name__ == "__main__":
    raise SystemExit(main())
