"""Command-line front end: approx, recover, localize, rip, and bench.

Reports are JSON with a stable key set; plot-ready data goes to CSV. Exit
codes: 0 success, 2 parse/validation error, 3 numerical failure (a partial
report with the failure path is still written).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import os
import sys
import tempfile
import time
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .catalog import CATALOG_NAMES, catalog_function, corrupted, funcrep_from_expression
from .chebyshev import Basis, ChebSeries, build_grid
from .errors import DomainError, L1RecError, ParseError
from .expressions import parse_expression
from .funcrep import Corruption, FuncRep, Residual
from .localization import omega_measure
from .newton import Path, best_l1
from .recovery import degree_sweep, recover_l1, rip_bound, rip_bruteforce
from . import experiments

REPORT_KEYS = (
    "command",
    "input",
    "degree",
    "path",
    "l1_error",
    "linf_error",
    "near_best_factor",
    "optimality",
    "exact",
    "k",
    "omega_measure",
    "trace",
    "version",
)


def _setup_logging():
    level = os.environ.get("L1REC_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(level=levels.get(level, logging.ERROR), stream=sys.stderr)


def _atomic_write(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".l1rec-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _finite(value):
    """Replace non-finite numbers by None, recursively."""
    if isinstance(value, dict):
        return {k: _finite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (np.floating, float)):
        v = float(value)
        return v if np.isfinite(v) else None
    if isinstance(value, (np.integer, int)):
        return int(value)
    return value


def _base_report(command: str, input_desc: dict, args) -> dict:
    report = {key: None for key in REPORT_KEYS}
    report["command"] = command
    report["input"] = input_desc
    report["version"] = __version__
    report["input_hash"] = hashlib.sha256(
        json.dumps(input_desc, sort_keys=True).encode()
    ).hexdigest()
    if not args.no_timestamp:
        report["timestamp"] = datetime.now(timezone.utc).isoformat()
    args.report = report  # run() writes it as the partial report on failure
    return report


def _emit(report: dict, args, started: float) -> None:
    if not args.no_timestamp:
        report["elapsed_s"] = time.monotonic() - started
    text = json.dumps(_finite(report), indent=2, sort_keys=True) + "\n"
    if args.out:
        _atomic_write(args.out, text)
        print(f"report written to {args.out}")
    else:
        sys.stdout.write(text)


def _trace_json(trace) -> list:
    return [
        {"iter": int(it), "objective": obj, "optimality": opt}
        for it, obj, opt in trace
    ]


def _load_samples_csv(path: str):
    xs, fs = [], []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        for row in reader:
            if not row or row[0].strip().lower() in ("x", ""):
                continue
            xs.append(float(row[0]))
            fs.append(float(row[1]))
    x = np.asarray(xs)
    f = np.asarray(fs)
    if len(x) < 2 or np.any(np.diff(x) <= 0) or x[0] < -1 or x[-1] > 1:
        raise ValueError(f"{path}: need strictly increasing x in [-1, 1]")
    grid = build_grid(len(x) - 1)
    if np.max(np.abs(grid.points - x)) > 1e-12:
        raise ValueError(
            f"{path}: sample points must be the {len(x)}-point Chebyshev grid"
        )
    return f


def _parse_intervals(text: str):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("..")
        out.append((float(lo), float(hi)))
    return tuple(out)


def _corrupted_spec(spec: str) -> FuncRep:
    try:
        _, coeff_path, intervals_text, omega_text = spec.split(":", 3)
    except ValueError:
        raise ValueError(
            "corrupted spec is corrupted:COEFFS.csv:a..b,c..d:OMEGA_EXPR"
        ) from None
    coeffs = np.loadtxt(coeff_path, ndmin=1)
    clean = ChebSeries(Basis.SECOND, coeffs)
    corr = Corruption(intervals=_parse_intervals(intervals_text), clean=clean)
    return corrupted(clean, parse_expression(omega_text), corr, spec)


def _resolve_fn(spec: str, *, allow_samples: bool):
    """Resolve --fn: catalog name, corrupted:..., samples CSV, or expression."""
    if spec in CATALOG_NAMES:
        return catalog_function(spec), None
    if spec.startswith("corrupted:"):
        return _corrupted_spec(spec), None
    if spec.endswith(".csv") or os.path.exists(spec):
        if not allow_samples:
            raise ValueError("sample files carry no off-grid values: use recover")
        return None, _load_samples_csv(spec)
    return funcrep_from_expression(spec), None


def _write_errdata(path: str, f: FuncRep, p: ChebSeries):
    x = np.linspace(-1.0, 1.0, 2001)
    resid = f.eval(x) - p(x)
    lines = ["x,residual"]
    lines += [f"{float(xi)!r},{float(ri)!r}" for xi, ri in zip(x, resid)]
    _atomic_write(path, "\n".join(lines) + "\n")


def _cmd_approx(args) -> int:
    started = time.monotonic()
    input_desc = {"fn": args.fn, "degree": args.degree, "tol": args.tol}
    report = _base_report("approx", input_desc, args)
    f, _ = _resolve_fn(args.fn, allow_samples=False)
    report["degree"] = args.degree
    code = 0
    out = best_l1(f, args.degree, tol=args.tol)
    report["path"] = out.path.value
    report["l1_error"] = out.l1_error
    report["linf_error"] = Residual(f, out.polynomial).linf()
    report["near_best_factor"] = out.near_best_factor
    report["optimality"] = None if out.mu is None else float(np.max(np.abs(out.mu)))
    report["duality_gap"] = out.duality_gap
    report["lp_points"] = out.lp_points
    report["trace"] = _trace_json(out.trace)
    report["coefficients"] = [float(c) for c in out.polynomial.to_basis(Basis.SECOND).coeffs]
    if out.path is Path.CORRUPTED_POLYNOMIAL:
        report["exact"] = out.report.exact
        report["k"] = out.report.k
    if out.path is Path.NEWTON_STALLED:
        code = 3
    if args.errdata:
        _write_errdata(args.errdata, f, out.polynomial)
    _emit(report, args, started)
    return code


def _cmd_recover(args) -> int:
    started = time.monotonic()
    input_desc = {
        "fn": args.fn,
        "degree": args.degree,
        "samples": args.samples,
        "sweep": args.sweep,
    }
    report = _base_report("recover", input_desc, args)
    f, samples = _resolve_fn(args.fn, allow_samples=True)
    source = f if f is not None else samples
    N = (args.samples - 1) if args.samples else (None if f is not None else len(samples) - 1)
    report["degree"] = args.degree
    if args.sweep is not None:
        sweep = degree_sweep(source, args.sweep, N=N)
        report["sweep_found"] = sweep.found
        report["runs"] = [
            {
                "degree": i,
                "exact": rep.exact,
                "k": rep.k,
                "residual_max_off_support": rep.residual_max_off_support,
            }
            for i, rep in enumerate(sweep.reports)
        ]
        rep = sweep.reports[-1] if sweep.found is None else sweep.reports[sweep.found]
        report["degree"] = sweep.found if sweep.found is not None else args.sweep
    else:
        rep = recover_l1(source, args.degree, N=N)
    report["exact"] = rep.exact
    report["k"] = rep.k
    report["duality_gap"] = rep.duality_gap
    report["lp_points"] = rep.lp_points
    report["l1_error"] = float(np.dot(rep.grid.weights, np.abs(rep.residuals)))
    report["linf_error"] = float(np.max(np.abs(rep.residuals)))
    report["corrupted_indices"] = [int(i) for i in rep.corrupted_indices[:1000]]
    report["certificate"] = _finite(
        {k: v for k, v in vars(rep.certificate).items()}
    )
    report["coefficients"] = [float(c) for c in rep.recovered.coeffs]
    _emit(report, args, started)
    return 0


def _cmd_localize(args) -> int:
    started = time.monotonic()
    degrees = [int(d) for d in args.degrees.split(",") if d.strip()]
    if not degrees:
        raise ValueError("--degrees needs at least one degree")
    input_desc = {"fn": args.fn, "degrees": degrees}
    report = _base_report("localize", input_desc, args)
    f, _ = _resolve_fn(args.fn, allow_samples=False)
    runs = report["runs"] = []  # a failure keeps the completed runs
    for n in degrees:
        rep = omega_measure(f, n)
        runs.append(
            {
                "degree": n,
                "l1_error": rep.l1_error,
                "linf_error": rep.linf_error,
                "linf_level": rep.linf_level,
                "linf_max": rep.linf_max,
                "omega_measure": rep.omega_measure,
                "omega_bound": rep.omega_bound,
                "omega_intervals": [[a, b] for a, b in rep.omega_intervals],
                "path": rep.best_path,
            }
        )
    last = runs[-1]
    report["degree"] = last["degree"]
    report["l1_error"] = last["l1_error"]
    report["linf_error"] = last["linf_error"]
    report["omega_measure"] = last["omega_measure"]
    report["path"] = last["path"]
    if len(degrees) >= 2:
        report["slope"] = experiments.loglog_slope(
            degrees, [r["omega_measure"] for r in runs]
        )
    _emit(report, args, started)
    return 0


def _cmd_rip(args) -> int:
    started = time.monotonic()
    input_desc = {"N": args.N, "n": args.n, "k": args.k, "bruteforce": args.bruteforce}
    report = _base_report("rip", input_desc, args)
    bound = rip_bound(args.N, args.n, args.k)
    report["degree"] = args.n
    report["k"] = args.k
    report["delta"] = bound.delta
    report["sufficient"] = bound.sufficient
    if args.bruteforce:
        report["delta_bruteforce"] = rip_bruteforce(args.N, args.n, args.k)
    _emit(report, args, started)
    return 0


def _write_csv(path: str, header, rows):
    def cell(v):
        if isinstance(v, (float, np.floating)):
            return repr(float(v))
        return str(v)

    lines = [",".join(header)]
    lines += [",".join(cell(r[h]) for h in header) for r in rows]
    _atomic_write(path, "\n".join(lines) + "\n")


def _cmd_bench(args) -> int:
    started = time.monotonic()
    input_desc = {"case": args.case}
    report = _base_report("bench", input_desc, args)
    outdir = args.out or "."
    os.makedirs(outdir, exist_ok=True)
    if args.case == "sqrt":
        bound = experiments.sqrt_bound_sweep()
        omegas = experiments.omega_sweep("sqrt1mx2", (10, 20, 40, 80, 160))
        report["bench"] = {"bound": bound, "omega": omegas}
        report["omega_measure"] = omegas["rows"][-1]["omega_measure"]
        _write_csv(
            os.path.join(outdir, "sqrt_bound.csv"),
            ["n", "l1_error", "l1_upper", "path"],
            bound["rows"],
        )
        _write_csv(
            os.path.join(outdir, "sqrt_omega.csv"),
            ["n", "omega_measure", "omega_bound", "path"],
            omegas["rows"],
        )
    elif args.case == "abs":
        ratios = experiments.abs_ratio_sweep()
        omegas = experiments.omega_sweep("absx", (20, 40, 80, 160))
        report["bench"] = {"ratio": ratios, "omega": omegas}
        report["omega_measure"] = omegas["rows"][-1]["omega_measure"]
        _write_csv(
            os.path.join(outdir, "abs_ratio.csv"),
            ["n", "l1_error", "asymptotic", "ratio", "path"],
            ratios["rows"],
        )
        _write_csv(
            os.path.join(outdir, "abs_omega.csv"),
            ["n", "omega_measure", "omega_bound", "path"],
            omegas["rows"],
        )
    elif args.case == "lpconv":
        conv = experiments.lp_convergence_experiment()
        report["bench"] = conv
        _write_csv(
            os.path.join(outdir, "lp_convergence.csv"),
            ["samples", "unrefined", "refined"],
            conv["rows"],
        )
    else:
        raise ValueError(f"unknown bench case {args.case!r}")
    if args.out:
        args.out = os.path.join(outdir, "report.json")
    _emit(report, args, started)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="l1rec",
        description="Best-L1 polynomial approximation and corrupted-polynomial recovery on [-1, 1].",
    )
    parser.add_argument("--version", action="version", version=f"l1rec {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="write the JSON report here (default: stdout)")
        p.add_argument(
            "--no-timestamp",
            action="store_true",
            help="omit timestamp/elapsed keys for byte-identical reports",
        )

    p = sub.add_parser("approx", help="best L1 polynomial approximation")
    p.add_argument("--fn", required=True, help="catalog name or expression in x")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-14, help="Newton stopping tolerance (relative to ||f||_1)")
    p.add_argument("--errdata", help="write x,residual CSV (2001 uniform samples)")
    common(p)

    p = sub.add_parser("recover", help="recover a corrupted polynomial from grid samples")
    p.add_argument("--fn", required=True, help="catalog name, expression, corrupted:..., or samples CSV")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--samples", type=int, help="number of grid samples N+1 (default 5000)")
    p.add_argument("--sweep", type=int, help="sweep degrees 0..SWEEP, stop at first exact recovery")
    common(p)

    p = sub.add_parser("localize", help="measure the error-localization set Omega_n")
    p.add_argument("--fn", required=True)
    p.add_argument("--degrees", required=True, help="comma-separated degrees")
    common(p)

    p = sub.add_parser("rip", help="restricted-isometry bound for the null-space basis")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--bruteforce", action="store_true", help="also compute the exact delta_k by enumeration")
    common(p)

    p = sub.add_parser("bench", help="run a pinned experiment sweep")
    p.add_argument("--case", required=True, choices=["sqrt", "abs", "lpconv"])
    common(p)
    return parser


def run(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    handlers = {
        "approx": _cmd_approx,
        "recover": _cmd_recover,
        "localize": _cmd_localize,
        "rip": _cmd_rip,
        "bench": _cmd_bench,
    }
    started = time.monotonic()
    try:
        return handlers[args.command](args)
    except (ParseError, DomainError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except L1RecError as exc:
        # every handler builds its report before any numerical work
        report = args.report
        report["path"] = type(exc).__name__
        report["error"] = str(exc)
        _emit(report, args, started)
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
