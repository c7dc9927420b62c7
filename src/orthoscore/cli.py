"""Command-line surface: simulate, analyze, check.

``simulate`` runs the replication study on the synthetic design and
writes a CSV report (optionally mirrored as JSON); a metric with no
successful replicate is ``nan`` in the CSV and ``null`` in the JSON.
``analyze`` runs the instrumented estimator on a user-supplied CSV,
with an optional row filter for subgroup analyses.  The CSV has a
header row and no quoting; blank lines are skipped, rows are numbered
by their line after the header, and only the columns the command names
need to be numeric.  ``check`` runs the Monte Carlo orthogonality
suite against a closed-form truth.

Exit codes are a stable contract: 0 success, 1 statistical-quality
failure (estimation failed, too many replicate failures, or a
derivative check out of band), 2 usage, data or output-file error.

Numbers are written with full round-trip precision in machine outputs
(CSV/JSON) and 6 significant digits in console tables.  All output
files end with a trailing newline.  The environment variable
ORTHOSCORE_SEED supplies the default seed when --seed is not given; a
negative seed from either source is a usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import operator
import os
import sys
from array import array

import numpy as np

from .core import Dataset, require_count
from .diagnostics import CONTROL_BAND, ORTHOGONAL_BAND, TARGETS, run_check
from .late import LateConfig, late_crossfit
from .sim import SCENARIOS, DgpConfig, run_replications

__all__ = ["main", "METHOD_LABELS"]

METHOD_LABELS = {
    "r-np": "robust_np",
    "r-lr": "robust_lr",
    "m": "moment",
    "reg-np": "reg_np",
    "reg-lr": "reg_lr",
}

_FILTER_OPS = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _err(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


def _full(v) -> str:
    """Shortest round-trip decimal representation."""
    return repr(float(v))


def _resolve_seed(value) -> int:
    """--seed, else ORTHOSCORE_SEED, else 0; negative seeds are usage errors."""
    if value is not None:
        if value < 0:
            raise ValueError(f"seed must be non-negative, got {value}")
        return int(value)
    env = os.environ.get("ORTHOSCORE_SEED")
    if env is None:
        return 0
    try:
        seed = int(env)
    except ValueError:
        raise ValueError(f"ORTHOSCORE_SEED is not an integer: {env!r}")
    if seed < 0:
        raise ValueError(f"ORTHOSCORE_SEED must be non-negative, got {seed}")
    return seed


def _write_text(path: str, content: str) -> bool:
    """Write `content`; on an OSError print it and return False."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(content)
    except OSError as exc:
        _err(str(exc))
        return False
    return True


def _require_out_dirs(*paths) -> None:
    """Raise ValueError naming the first output path whose directory is
    missing, before a run whose results could not be written."""
    for path in paths:
        if path and not os.path.isdir(os.path.dirname(path) or "."):
            raise ValueError(f"no such directory for output file: {path}")


# ------------------------------------------------------------- simulate

def _simulate_csv(report, labels) -> str:
    lines = ["method,scenario,n,p,reps,bias,smse,coverage,failures"]
    for label in labels:
        s = report.by_method(METHOD_LABELS[label])
        lines.append(",".join([
            label, report.scenario, str(report.n), str(report.p),
            str(report.reps), _full(s.bias), _full(s.smse),
            _full(s.coverage), str(s.failures),
        ]))
    return "\n".join(lines) + "\n"


def _simulate_json(report, labels) -> str:
    methods = [{**dataclasses.asdict(report.by_method(METHOD_LABELS[label])),
                "method": label} for label in labels]
    payload = {
        "scenario": report.scenario,
        "n": report.n,
        "p": report.p,
        "reps": report.reps,
        "seed": report.master_seed,
        # JSON has no NaN or infinity; such a metric is written as null.
        "methods": [{k: None if isinstance(v, float) and not math.isfinite(v) else v
                     for k, v in entry.items()} for entry in methods],
    }
    return json.dumps(payload, indent=2) + "\n"


def cmd_simulate(args) -> int:
    try:
        seed = _resolve_seed(args.seed)
        labels = [m.strip() for m in args.methods.split(",") if m.strip()]
        if not labels:
            raise ValueError("no methods given")
        for label in labels:
            if label not in METHOD_LABELS:
                raise ValueError(f"unknown method label: {label!r}")
        require_count("n", args.n, minimum=4)   # two rows per fold
        dgp = DgpConfig(scenario=args.scenario, n=args.n, p=args.p, seed=0)
        _require_out_dirs(args.out, args.json)
        # Its arguments are checked before any replicate runs; a failed
        # replicate is counted, never raised.
        report = run_replications(dgp, [METHOD_LABELS[m] for m in labels],
                                  reps=args.reps, master_seed=seed, jobs=args.jobs)
    except ValueError as exc:
        _err(str(exc))
        return 2

    print(f"scenario={report.scenario} n={report.n} p={report.p} "
          f"reps={report.reps} seed={seed}")
    print(f"{'method':>8} {'bias':>12} {'smse':>12} {'coverage':>10} {'failures':>9}")
    for label in labels:
        s = report.by_method(METHOD_LABELS[label])
        print(f"{label:>8} {s.bias:>12.6g} {s.smse:>12.6g} "
              f"{s.coverage:>10.6g} {s.failures:>9d}")

    for path, render in ((args.out, _simulate_csv), (args.json, _simulate_json)):
        if path and not _write_text(path, render(report, labels)):
            return 2

    worst = max(s.failures for s in report.methods)
    if worst > 0.2 * report.reps:
        _err(f"replicate failure rate above 20% ({worst}/{report.reps})")
        return 1
    return 0


# -------------------------------------------------------------- analyze

def _read_columns(path: str, names) -> dict:
    """The named columns of a CSV file as float64 arrays, in one pass.

    Comma-separated, header row, no quoting: quoted fields are rejected
    outright rather than being guessed at.  Blank lines, those holding
    only whitespace, are skipped, and rows are numbered by their line
    after the header, blank lines included.  Only the named columns need
    to be numeric.
    """
    names = list(dict.fromkeys(names))
    with open(path, "r", encoding="utf-8") as fh:
        line = fh.readline()
        if not line:
            raise ValueError("input file is empty")
        if '"' in line:
            raise ValueError("quoted fields are not supported")
        header = [c.strip() for c in line.split(",")]
        for i, name in enumerate(header):
            if name in header[:i]:
                raise ValueError(f"duplicate column name: {name!r}")
        for name in names:
            if name not in header:
                raise ValueError(f"column not found: {name!r}")
        cols = [header.index(name) for name in names]
        values, bad = [array("d") for _ in names], []
        for row, line in enumerate(fh, start=1):
            if '"' in line:
                raise ValueError("quoted fields are not supported")
            if line.isspace():
                continue
            cells = line.rstrip("\n").split(",")
            if len(cells) != len(header):
                raise ValueError(f"row {row} has {len(cells)} fields, expected {len(header)}")
            try:
                parsed = [float(cells[c]) for c in cols]
            except ValueError:
                bad.append(row)
                continue
            for column, value in zip(values, parsed):
                column.append(value)
    if bad:
        raise ValueError("missing or non-numeric values in rows: "
                         + ", ".join(str(r) for r in bad[:10]))
    return {name: np.array(column) for name, column in zip(names, values)}


def _analysis_data(args):
    """(seed, Dataset) from the analyze arguments.

    Every usage or data error raises ``ValueError`` or ``OSError``.
    """
    seed = _resolve_seed(args.seed)
    if args.method not in METHOD_LABELS:
        raise ValueError(f"unknown method label: {args.method!r}")
    filter_flags = (args.filter_col, args.filter_op, args.filter_value)
    has_filter = any(f is not None for f in filter_flags)
    if has_filter:
        if None in filter_flags:
            raise ValueError("--filter-col, --filter-op and --filter-value must be given together")
        if args.filter_op not in _FILTER_OPS:
            raise ValueError(f"unknown filter comparator: {args.filter_op!r}")
        try:
            cutoff = float(args.filter_value)
        except ValueError:
            raise ValueError(f"filter value is not numeric: {args.filter_value!r}") from None

    covariates = [c.strip() for c in args.covariates.split(",") if c.strip()]
    if not covariates:
        raise ValueError("no covariate columns given")
    used = covariates + [args.outcome, args.treatment, args.instrument]
    if has_filter:
        used.append(args.filter_col)
    columns = _read_columns(args.input, used)

    if has_filter:
        keep = _FILTER_OPS[args.filter_op](columns[args.filter_col], cutoff)
    else:
        keep = np.ones(len(columns[args.outcome]), dtype=bool)

    n_kept = int(np.count_nonzero(keep))
    if n_kept == 0:
        raise ValueError("filter selected no rows")
    if n_kept < 20:
        raise ValueError(f"fewer than 20 rows after filtering ({n_kept})")

    x = np.column_stack([columns[c][keep] for c in covariates])
    y = columns[args.outcome][keep]
    d = columns[args.treatment][keep]
    z = columns[args.instrument][keep]
    for name, col in ((args.treatment, d), (args.instrument, z)):
        if not np.all((col == 0.0) | (col == 1.0)):
            raise ValueError(f"column {name!r} must be binary 0/1")
    return seed, Dataset(x, y, d, z)


def cmd_analyze(args) -> int:
    try:
        _require_out_dirs(args.out)
        seed, data = _analysis_data(args)
    except (ValueError, OSError) as exc:
        _err(str(exc))
        return 2
    config = LateConfig(method=METHOD_LABELS[args.method], seed=seed)
    try:
        result = late_crossfit(data, config)
    except (ValueError, RuntimeError) as exc:
        _err(f"estimation failed: {exc}")
        return 1

    payload = {
        "method": args.method,
        "n": result.n,
        "beta_hat": result.beta_hat,
        "std_err": result.std_err,
        "ci_low": result.ci_low,
        "ci_high": result.ci_high,
        "seed": seed,
    }
    if args.format == "json":
        content = json.dumps(payload, indent=2) + "\n"
    else:
        keys = list(payload)
        content = (",".join(keys) + "\n"
                   + ",".join(_full(payload[k]) if isinstance(payload[k], float)
                              else str(payload[k]) for k in keys) + "\n")
    if args.out:
        if not _write_text(args.out, content):
            return 2
        print(f"{args.method}: beta_hat={result.beta_hat:.6g} "
              f"ci=({result.ci_low:.6g}, {result.ci_high:.6g}) n={result.n}")
    else:
        sys.stdout.write(content)
    return 0


# ---------------------------------------------------------------- check

def cmd_check(args) -> int:
    try:
        seed = _resolve_seed(args.seed)
        require_count("n-mc", args.n_mc, minimum=2)   # the standard error needs two draws
    except ValueError as exc:
        _err(str(exc))
        return 2

    report = run_check(args.target, n_mc=args.n_mc, seed=seed)
    print(f"target={report.target} beta0={report.beta0:.6g} "
          f"n_mc={report.n_mc} seed={report.seed}")
    for case in report.cases:
        band = (f"> {CONTROL_BAND:g}*SE required" if case.score == "control"
                else f"<= {ORTHOGONAL_BAND:g}*SE required")
        status = "ok" if case.passed else "FAIL"
        print(f"  {case.score:>10}  {case.nuisance:>2} / {case.direction:<16} "
              f"derivative {case.derivative:>13.6g} +- {case.std_error:.6g}  "
              f"[{band}] {status}")
    print("PASS" if report.passed else "FAIL")
    return 0 if report.passed else 1


# ----------------------------------------------------------------- main

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orthoscore",
        description="Cross-fitted orthogonal-score estimation toolkit.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run the synthetic replication study")
    sim.add_argument("--scenario", default="s1", choices=SCENARIOS)
    sim.add_argument("--n", type=int, default=2000)
    sim.add_argument("--p", type=int, default=4)
    sim.add_argument("--reps", type=int, default=200)
    sim.add_argument("--methods", default="r-lr,m",
                     help="comma-separated labels: r-np,r-lr,m,reg-np,reg-lr")
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--out", default=None, help="CSV report path")
    sim.add_argument("--json", default=None, help="JSON report path")
    sim.add_argument("--jobs", type=int, default=1)
    sim.set_defaults(func=cmd_simulate)

    ana = sub.add_parser("analyze", help="estimate from a CSV dataset")
    ana.add_argument("--input", required=True)
    ana.add_argument("--outcome", required=True)
    ana.add_argument("--treatment", required=True)
    ana.add_argument("--instrument", required=True)
    ana.add_argument("--covariates", required=True,
                     help="comma-separated covariate column names")
    ana.add_argument("--method", default="r-lr")
    ana.add_argument("--filter-col", default=None)
    ana.add_argument("--filter-op", default=None,
                     help="one of == != < <= > >=")
    ana.add_argument("--filter-value", default=None)
    ana.add_argument("--seed", type=int, default=None)
    ana.add_argument("--out", default=None)
    ana.add_argument("--format", default="json", choices=["json", "csv"])
    ana.set_defaults(func=cmd_analyze)

    chk = sub.add_parser("check", help="Monte Carlo orthogonality suite")
    chk.add_argument("--target", required=True, choices=list(TARGETS))
    chk.add_argument("--n-mc", type=int, default=1_000_000)
    chk.add_argument("--seed", type=int, default=None)
    chk.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
