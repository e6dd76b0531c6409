"""Command-line surface and result serialization.

The data stream (stdout, or the ``--out`` file) is a pure function of
argv: volatile run metadata (timestamp, wall time, worker count) goes to
stderr only, so repeated runs (under any ``--workers``) are
byte-identical.  CSV is the plot-ready interchange; JSON records carry
the full tolerance echo.  Exit codes: 0 success, 1 numerical or runtime
failure, 2 usage failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from . import __version__, model, montecarlo as mc, verify as verify_mod, zeros
from .rng import RngSeed

DIAG = sys.stderr

CSV_COLUMNS = {
    "sample": ["j", "re", "im"],
    "roots": ["index", "re", "im", "residual"],
    "count": ["N", "r", "count", "method", "near_boundary", "seed"],
    "mean-zeros": ["N", "r", "trials", "trials_failed", "point", "stderr",
                   "ci_lo", "ci_hi", "seed"],
    "deviation": ["N", "r", "delta", "trials", "trials_failed", "point",
                  "stderr", "ci_lo", "ci_hi", "seed"],
    "hole": ["N", "r", "trials", "trials_failed", "point", "stderr",
             "ci_lo", "ci_hi", "seed"],
    "omega-bound": ["N", "r", "log_prob"],
    "fit-decay": ["c_hat", "intercept", "r_squared", "n_points"],
    "verify": ["check", "status", "measured", "threshold"],
    "orthonormality": ["check", "N", "measured", "threshold", "status"],
}


@dataclass
class ExperimentRecord:
    """Reproducible record of one command invocation.

    ``wall_time_seconds`` and ``timestamp`` are volatile and optional;
    the CLI reports them on the diagnostic stream and leaves them unset
    in the data stream so output bytes depend on argv alone.
    """

    command: str
    plan: dict
    result: dict
    tool_version: str = __version__
    wall_time_seconds: float | None = None
    timestamp: str | None = None


def _fmt(value) -> str:
    if isinstance(value, float):  # includes numpy float subclasses
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def serialize_record(record: ExperimentRecord, fmt: str) -> bytes:
    """Serialize one record: JSON object (fixed key order, shortest
    round-trip floats) or CSV (documented fixed columns, LF, UTF-8)."""
    if fmt == "json":
        payload = {
            "command": record.command,
            "plan": record.plan,
            "result": record.result,
            "tool_version": record.tool_version,
        }
        if record.wall_time_seconds is not None:
            payload["wall_time_seconds"] = record.wall_time_seconds
        if record.timestamp is not None:
            payload["timestamp"] = record.timestamp
        return (json.dumps(payload) + "\n").encode("utf-8")
    if fmt == "csv":
        columns = CSV_COLUMNS[record.command]
        rows = record.result.get("rows")
        if rows is None:
            rows = [record.result]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in columns])
        return buf.getvalue().encode("utf-8")
    raise ValueError(f"unknown format {fmt!r}")


def parse_record(data: bytes) -> ExperimentRecord:
    """Inverse of JSON serialization, for round-trip checks."""
    obj = json.loads(data.decode("utf-8"))
    return ExperimentRecord(
        command=obj["command"],
        plan=obj["plan"],
        result=obj["result"],
        tool_version=obj["tool_version"],
        wall_time_seconds=obj.get("wall_time_seconds"),
        timestamp=obj.get("timestamp"),
    )


class ResultsFileError(ValueError):
    """Malformed results file; carries the offending line number."""

    def __init__(self, message: str, line: int):
        self.line = line
        super().__init__(f"line {line}: {message}")


def parse_results_file(path: str) -> list[tuple[int, float]]:
    """Extract (N, log point) pairs from a hole-results CSV or JSON file.

    Rows with nonpositive points or more than 1% failed trials are
    dropped (reported on stderr); fewer than 3 usable rows is an error.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    text = raw.decode("utf-8")
    stripped = text.lstrip()
    rows = []
    if stripped.startswith("{") or stripped.startswith("["):
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                result = obj["result"]
                for row in result.get("rows", [result]):
                    rows.append((lineno, int(row["N"]), float(row["point"]),
                                 int(row.get("trials", 0)),
                                 int(row.get("trials_failed", 0))))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise ResultsFileError(str(exc), lineno) from exc
    else:
        reader = csv.DictReader(io.StringIO(text))
        if reader.fieldnames is None or "N" not in reader.fieldnames \
                or "point" not in reader.fieldnames:
            raise ResultsFileError("missing N/point columns", 1)
        for lineno, row in enumerate(reader, start=2):
            try:
                rows.append((lineno, int(row["N"]), float(row["point"]),
                             int(row.get("trials") or 0),
                             int(row.get("trials_failed") or 0)))
            except (TypeError, ValueError) as exc:
                raise ResultsFileError(str(exc), lineno) from exc
    usable = []
    for lineno, n, point, trials, failed in rows:
        if point <= 0.0:
            print(f"dropped line {lineno}: nonpositive point {point}", file=DIAG)
            continue
        if trials and failed > 0.01 * trials:
            print(f"dropped line {lineno}: {failed}/{trials} failed trials",
                  file=DIAG)
            continue
        usable.append((n, math.log(point)))
    if len(usable) < 3:
        raise ValueError(f"only {len(usable)} usable points; need at least 3")
    return usable


# ---------------------------------------------------------------------------
# argument parsing


def _positive_float(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {text}")
    return value


def _seed(text: str) -> int:
    value = _nonneg_int(text)
    try:
        RngSeed(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{exc}, got {text}") from None
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return value


def _grid(entry):
    """``--grid`` parser whose entries obey ``entry``, the subcommand's
    ``-N`` rule."""

    def parse(text: str) -> list[int]:
        try:
            values = [entry(part) for part in text.split(",") if part.strip()]
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad grid {text!r}") from exc
        if not values:
            raise argparse.ArgumentTypeError("empty grid")
        return values

    return parse


def _add_output_flags(sub):
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--out", metavar="PATH", default=None)


def _add_plan_flags(sub, trials_default=10000):
    sub.add_argument("-r", "--radius", type=_positive_float, default=1.0)
    sub.add_argument("--trials", type=_positive_int, default=trials_default)
    sub.add_argument("--seed", type=_seed, default=0)
    sub.add_argument("--workers", type=_positive_int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="su2lab",
        description="Numerical laboratory for zeros of Gaussian random "
                    "SU(2) polynomials.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("sample", help="emit sampled coefficients")
    p.add_argument("-N", "--degree", type=_nonneg_int, required=True)
    p.add_argument("--seed", type=_seed, default=0)
    _add_output_flags(p)

    p = subs.add_parser("roots", help="emit all roots of a sampled polynomial")
    p.add_argument("-N", "--degree", type=_positive_int, required=True)
    p.add_argument("--seed", type=_seed, default=0)
    _add_output_flags(p)

    p = subs.add_parser("count", help="zero count of a sampled polynomial in B(0,r)")
    p.add_argument("-N", "--degree", type=_positive_int, required=True)
    p.add_argument("-r", "--radius", type=_positive_float, default=1.0)
    p.add_argument("--seed", type=_seed, default=0)
    _add_output_flags(p)

    p = subs.add_parser("mean-zeros", help="Monte Carlo mean zero count")
    p.add_argument("-N", "--degree", type=_nonneg_int, required=True)
    _add_plan_flags(p, trials_default=2000)
    _add_output_flags(p)

    p = subs.add_parser("deviation", help="zero-count deviation frequency")
    p.add_argument("-N", "--degree", type=_nonneg_int, required=True)
    p.add_argument("--delta", type=_positive_float, required=True)
    _add_plan_flags(p)
    _add_output_flags(p)

    p = subs.add_parser("hole", help="hole probability estimate")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("-N", "--degree", type=_nonneg_int)
    group.add_argument("--grid", type=_grid(_nonneg_int), metavar="N1,N2,...")
    _add_plan_flags(p, trials_default=100000)
    _add_output_flags(p)

    p = subs.add_parser("omega-bound", help="exact explicit-event lower bound")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("-N", "--degree", type=_positive_int)
    group.add_argument("--grid", type=_grid(_positive_int), metavar="N1,N2,...")
    p.add_argument("-r", "--radius", type=_positive_float, default=1.0)
    _add_output_flags(p)

    p = subs.add_parser("fit-decay", help="fit log P against N^2")
    p.add_argument("results_file", nargs="?", default=None,
                   help="hole-results CSV/JSON file; otherwise use --grid")
    p.add_argument("--grid", type=_grid(_nonneg_int), metavar="N1,N2,...",
                   default=None)
    _add_plan_flags(p, trials_default=100000)
    _add_output_flags(p)

    p = subs.add_parser("verify", help="run the invariant suites")
    _add_output_flags(p)

    p = subs.add_parser("orthonormality", help="inner-product quadrature checks")
    p.add_argument("-N", "--degree", type=_positive_int, default=10)
    _add_output_flags(p)

    return parser


# ---------------------------------------------------------------------------
# subcommand handlers (return an ExperimentRecord; data stream only)


def _plan_echo(plan: mc.TrialPlan) -> dict:
    return {
        "N": plan.degree,
        "r": plan.radius,
        "trials": plan.trials,
        "seed": plan.master_seed,
        "tolerances": {
            "root_residual": plan.tolerances.root_residual,
            "boundary_margin": plan.tolerances.boundary_margin,
            "quadrature_target": plan.tolerances.quadrature_target,
        },
    }


def _estimate_row(plan: mc.TrialPlan, est: mc.Estimate, extra: dict | None = None) -> dict:
    row = {"N": plan.degree, "r": plan.radius, "trials": plan.trials}
    if extra:
        row.update(extra)
    row.update({
        "trials_failed": est.trials_failed,
        "point": est.point,
        "stderr": est.stderr,
        "ci_lo": est.ci95[0],
        "ci_hi": est.ci95[1],
        "seed": plan.master_seed,
    })
    return row


def _make_plan(args, degree: int) -> mc.TrialPlan:
    return mc.TrialPlan(degree=degree, radius=args.radius, trials=args.trials,
                        master_seed=args.seed, workers=args.workers)


def _handle_sample(args) -> ExperimentRecord:
    poly = model.sample_polynomial(args.degree, RngSeed(args.seed, 0))
    rows = [
        {"j": j, "re": float(c.real), "im": float(c.imag)}
        for j, c in enumerate(poly.coefficients)
    ]
    return ExperimentRecord(
        command="sample",
        plan={"N": args.degree, "seed": args.seed},
        result={"rows": rows},
    )


def _handle_roots(args) -> ExperimentRecord:
    poly = model.sample_polynomial(args.degree, RngSeed(args.seed, 0))
    zs = zeros.find_all_roots(poly)
    rows = [
        {"index": i, "re": float(z.real), "im": float(z.imag),
         "residual": float(res)}
        for i, (z, res) in enumerate(zip(zs.locations, zs.residuals))
    ]
    return ExperimentRecord(
        command="roots",
        plan={"N": args.degree, "seed": args.seed},
        result={"rows": rows, "degree_deficit": zs.degree_deficit},
    )


def _handle_count(args) -> ExperimentRecord:
    poly = model.sample_polynomial(args.degree, RngSeed(args.seed, 0))
    zc = zeros.count_zeros_from_roots(
        zeros.find_all_roots(poly), zeros.Disk(0.0, args.radius)
    )
    row = {"N": args.degree, "r": args.radius, "count": zc.count,
           "method": zc.method, "near_boundary": zc.near_boundary,
           "seed": args.seed}
    return ExperimentRecord(
        command="count",
        plan={"N": args.degree, "r": args.radius, "seed": args.seed},
        result={"rows": [row], **row},
    )


def _handle_mean_zeros(args) -> ExperimentRecord:
    plan = _make_plan(args, args.degree)
    est = mc.estimate_zero_count_mean(plan)
    return ExperimentRecord(
        command="mean-zeros", plan=_plan_echo(plan),
        result={"rows": [_estimate_row(plan, est)], **_estimate_row(plan, est)},
    )


def _handle_deviation(args) -> ExperimentRecord:
    plan = _make_plan(args, args.degree)
    est = mc.estimate_deviation_probability(plan, mc.DeviationSpec(args.delta))
    row = _estimate_row(plan, est, {"delta": args.delta})
    plan_echo = _plan_echo(plan)
    plan_echo["delta"] = args.delta
    return ExperimentRecord(command="deviation", plan=plan_echo,
                            result={"rows": [row], **row})


def _handle_hole(args) -> ExperimentRecord:
    degrees = args.grid if args.grid is not None else [args.degree]
    rows = []
    plans = []
    for degree in degrees:
        plan = _make_plan(args, degree)
        plans.append(plan)
        est = mc.estimate_hole_probability(plan)
        rows.append(_estimate_row(plan, est))
    plan_echo = _plan_echo(plans[0])
    if args.grid is not None:
        plan_echo["grid"] = list(degrees)
    result = {"rows": rows}
    if len(rows) == 1:
        result.update(rows[0])
    return ExperimentRecord(command="hole", plan=plan_echo, result=result)


def _handle_omega(args) -> ExperimentRecord:
    degrees = args.grid if args.grid is not None else [args.degree]
    rows = [
        {"N": n, "r": args.radius, "log_prob": mc.omega_lower_bound(n, args.radius)}
        for n in degrees
    ]
    result = {"rows": rows}
    if len(rows) == 1:
        result.update(rows[0])
    return ExperimentRecord(
        command="omega-bound",
        plan={"N": list(degrees), "r": args.radius},
        result=result,
    )


def _handle_fit_decay(args) -> ExperimentRecord:
    if (args.results_file is None) == (args.grid is None):
        raise UsageError("need exactly one of a results file or --grid")
    if args.results_file is not None:
        points = parse_results_file(args.results_file)
        plan_echo = {"results_file": args.results_file}
    else:
        points = []
        for degree in args.grid:
            plan = _make_plan(args, degree)
            est = mc.estimate_hole_probability(plan)
            if est.point <= 0.0:
                print(f"dropped N={degree}: zero hole events", file=DIAG)
                continue
            points.append((degree, math.log(est.point)))
        plan_echo = {"grid": list(args.grid), "r": args.radius,
                     "trials": args.trials, "seed": args.seed}
        if len(points) < 3:
            raise ValueError(f"only {len(points)} usable points; need at least 3")
    fit = mc.fit_decay_exponent(points)
    row = {"c_hat": fit.c_hat, "intercept": fit.intercept,
           "r_squared": fit.r_squared, "n_points": len(fit.points)}
    return ExperimentRecord(
        command="fit-decay", plan=plan_echo,
        result={"rows": [row], **row,
                "points": [[n, lp] for n, lp in fit.points]},
    )


def _handle_verify(args) -> ExperimentRecord:
    rows = []
    for result in verify_mod.run_all_checks():
        rows.append({
            "check": result.check,
            "status": "PASS" if result.passed else "FAIL",
            "measured": result.measured,
            "threshold": result.threshold,
        })
    return ExperimentRecord(
        command="verify", plan={},
        result={"rows": rows, "failed": sum(r["status"] == "FAIL" for r in rows)},
    )


def _handle_orthonormality(args) -> ExperimentRecord:
    n = args.degree
    rows = []
    basis = [model.SU2Polynomial(n, np.eye(n + 1)[j]) for j in range(n + 1)]
    worst = 0.0
    for j in range(n + 1):
        for k in range(j, n + 1):
            val = model.fs_inner_product(basis[j], basis[k], n)
            worst = max(worst, abs(val - (1.0 if j == k else 0.0)))
    rows.append({"check": "weighted-basis-gram", "N": n, "measured": worst,
                 "threshold": 1e-10, "status": "PASS" if worst <= 1e-10 else "FAIL"})
    worst = 0.0
    cap = min(n, 40)
    for j in range(cap + 1):
        mono = model.SU2Polynomial(j, np.eye(j + 1)[j])
        val = model.fs_inner_product(mono, mono, cap).real
        target = 1.0 / math.comb(cap, j)
        worst = max(worst, abs(val - target) / target)
    rows.append({"check": "monomial-beta-norms", "N": cap, "measured": worst,
                 "threshold": 1e-10, "status": "PASS" if worst <= 1e-10 else "FAIL"})
    zeta = 0.3j
    b = model.basis_change_matrix(min(n, 8), zeta).matrix.conj().T
    nn = min(n, 8)
    cols = [model.SU2Polynomial(nn, b[:, j]) for j in range(nn + 1)]
    worst = 0.0
    for j in range(nn + 1):
        for k in range(j, nn + 1):
            val = model.fs_inner_product(cols[j], cols[k], nn)
            worst = max(worst, abs(val - (1.0 if j == k else 0.0)))
    rows.append({"check": "recentered-basis-gram", "N": nn, "measured": worst,
                 "threshold": 1e-9, "status": "PASS" if worst <= 1e-9 else "FAIL"})
    return ExperimentRecord(
        command="orthonormality", plan={"N": n},
        result={"rows": rows,
                "failed": sum(r["status"] == "FAIL" for r in rows)},
    )


class UsageError(ValueError):
    """Invalid flag combination detected after parsing."""


_HANDLERS = {
    "sample": _handle_sample,
    "roots": _handle_roots,
    "count": _handle_count,
    "mean-zeros": _handle_mean_zeros,
    "deviation": _handle_deviation,
    "hole": _handle_hole,
    "omega-bound": _handle_omega,
    "fit-decay": _handle_fit_decay,
    "verify": _handle_verify,
    "orthonormality": _handle_orthonormality,
}

_NUMERICAL_ERRORS = (
    zeros.RootFindingError,
    zeros.ContourError,
    zeros.QuadratureError,
    mc.ReliabilityError,
    ResultsFileError,
    OverflowError,
    ValueError,
    OSError,
)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    started = time.monotonic()
    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    try:
        if hasattr(args, "workers") and args.workers is None:
            try:
                args.workers = mc.default_workers()
            except ValueError as exc:
                raise UsageError(str(exc)) from exc
        record = _HANDLERS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=DIAG)
        return 2
    except _NUMERICAL_ERRORS as exc:
        print(f"error: {exc}", file=DIAG)
        return 1
    data = serialize_record(record, args.format)
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    wall = time.monotonic() - started
    workers = getattr(args, "workers", 1)
    print(
        f"su2lab {record.command}: ok ({wall:.2f}s, workers={workers}, "
        f"started {stamp})",
        file=DIAG,
    )
    if record.command in ("verify", "orthonormality") and record.result["failed"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
