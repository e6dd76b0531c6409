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
import functools
import io
import json
import math
import sys
import time
from dataclasses import asdict, dataclass
from datetime import datetime, timezone

import numpy as np

from . import __version__, model, montecarlo as mc, verify as verify_mod, zeros
from .rng import RngSeed, _check_int

DIAG = sys.stderr

CSV_COLUMNS = {
    "sample": ["j", "re", "im"],
    "roots": ["index", "re", "im", "residual"],
    "count": ["N", "r", "count", "method", "near_boundary", "seed"],
    "mean-zeros": ["N", "r", "trials", "trials_failed", "point", "stderr",
                   "ci_lo", "ci_hi", "seed"],
    "deviation": ["N", "r", "delta", "trials", "trials_failed", "point",
                  "stderr", "ci_lo", "ci_hi", "seed"],
    "concentration": ["N", "r", "estimator", "delta", "trials", "trials_failed",
                      "point", "stderr", "ci_lo", "ci_hi", "seed"],
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

    Holds nothing volatile: wall time and start time go to the diagnostic
    stream, so output bytes depend on argv alone.
    """

    command: str
    plan: dict
    result: dict
    tool_version: str = __version__


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):  # includes numpy float subclasses
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def serialize_record(record: ExperimentRecord, fmt: str) -> bytes:
    """Serialize one record: JSON object (fixed key order, shortest
    round-trip floats) or CSV (documented fixed columns, LF, UTF-8)."""
    if fmt == "json":
        return (json.dumps(asdict(record)) + "\n").encode("utf-8")
    if fmt == "csv":
        columns = CSV_COLUMNS[record.command]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in record.result["rows"]:
            writer.writerow([_fmt(row[c]) for c in columns])
        return buf.getvalue().encode("utf-8")
    raise ValueError(f"unknown format {fmt!r}")


class UsageError(ValueError):
    """Invalid input found after parsing: a flag combination or an argv file."""


def _open_arg(path: str, mode: str):
    """Open a file named in argv; one that cannot be opened is a usage error."""
    try:
        return open(path, mode)
    except OSError as exc:
        raise UsageError(f"cannot open {path}: {exc.strerror or exc}") from None


class ResultsFileError(UsageError):
    """Malformed results file; carries the offending line number."""

    def __init__(self, message: str, line: int):
        self.line = line
        super().__init__(f"line {line}: {message}")


def _fit_points(rows) -> list[tuple[int, float]]:
    """(N, log point) of the usable hole rows, each given as ``(where, N,
    point, trials, trials_failed)``.  A row whose point is outside (0, 1] or
    with more than 1% failed trials is dropped, with ``where`` naming it on
    stderr; fewer than 3 usable rows is an error."""
    usable = []
    for where, n, point, trials, failed in rows:
        if not 0.0 < point <= 1.0:
            print(f"dropped {where}: point {point} outside (0, 1]", file=DIAG)
        elif trials and failed > mc.MAX_FAILED_FRACTION * trials:
            print(f"dropped {where}: {failed}/{trials} failed trials", file=DIAG)
        else:
            usable.append((n, math.log(point)))
    if len(usable) < 3:
        raise ValueError(f"only {len(usable)} usable points; need at least 3")
    return usable


def parse_results_file(path: str) -> list[tuple[int, float]]:
    """The ``_fit_points`` of a hole-results CSV or JSON file.  A missing,
    empty or null ``trials`` or ``trials_failed`` reads as 0."""
    with _open_arg(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ResultsFileError(f"not UTF-8: {exc.reason}",
                               raw.count(b"\n", 0, exc.start) + 1) from exc
    bad_row = (AttributeError, KeyError, TypeError, ValueError)
    if text.lstrip().startswith(("{", "[")):
        rows = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                result = json.loads(line)["result"]
                rows += [(lineno, row) for row in result.get("rows", [result])]
            except bad_row as exc:
                raise ResultsFileError(str(exc), lineno) from exc
    else:
        reader = csv.DictReader(io.StringIO(text))
        if reader.fieldnames is None or "N" not in reader.fieldnames \
                or "point" not in reader.fieldnames:
            raise ResultsFileError("missing N/point columns", 1)
        rows = enumerate(reader, start=2)
    points = []
    for lineno, row in rows:
        try:
            n = int(row["N"])
            points.append((f"line {lineno} (N={n})", n, float(row["point"]),
                           int(row.get("trials") or 0),
                           int(row.get("trials_failed") or 0)))
        except bad_row as exc:
            raise ResultsFileError(str(exc), lineno) from exc
    return _fit_points(points)


# ---------------------------------------------------------------------------
# argument parsing


def _positive_float(text: str) -> float:
    value = float(text)
    if not (value > 0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
    return value


def _int_at_least(text: str, low: int) -> int:
    """``text`` as an integer under ``rng._check_int``'s rule; text that
    is not an integer stays argparse's ``ValueError``."""
    value = int(text)
    try:
        return _check_int(value, "value", low)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{exc}, got {text}") from None


def _nonneg_int(text: str) -> int:
    return _int_at_least(text, 0)


def _seed(text: str) -> int:
    value = _nonneg_int(text)
    try:
        RngSeed(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{exc}, got {text}") from None
    return value


def _positive_int(text: str) -> int:
    return _int_at_least(text, 1)


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


def _add_degree_flags(sub, entry):
    """``-N`` or ``--grid``, exactly one, with entries obeying ``entry``."""
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("-N", "--degree", type=entry)
    group.add_argument("--grid", type=_grid(entry), metavar="N1,N2,...")


def _add_plan_flags(sub, trials_default=10000):
    sub.add_argument("-r", "--radius", type=_positive_float, default=1.0)
    sub.add_argument("--trials", type=_positive_int, default=trials_default)
    sub.add_argument("--seed", type=_seed, default=0)
    sub.add_argument("--workers", type=_positive_int, default=None)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argv parser, built once per process; parsing leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="su2lab",
        description="Numerical laboratory for zeros of Gaussian random "
                    "SU(2) polynomials.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("sample", help="emit sampled coefficients")
    p.add_argument("-N", "--degree", type=_nonneg_int, required=True)
    p.add_argument("--seed", type=_seed, default=0)

    p = subs.add_parser("roots", help="emit all roots of a sampled polynomial")
    p.add_argument("-N", "--degree", type=_positive_int, required=True)
    p.add_argument("--seed", type=_seed, default=0)

    p = subs.add_parser("count", help="zero count of a sampled polynomial in B(0,r)")
    p.add_argument("-N", "--degree", type=_positive_int, required=True)
    p.add_argument("-r", "--radius", type=_positive_float, default=1.0)
    p.add_argument("--seed", type=_seed, default=0)

    p = subs.add_parser("mean-zeros", help="Monte Carlo mean zero count")
    p.add_argument("-N", "--degree", type=_nonneg_int, required=True)
    p.set_defaults(grid=None)  # one degree only: a ladder of one rung
    _add_plan_flags(p, trials_default=2000)

    p = subs.add_parser("deviation", help="zero-count deviation frequency")
    _add_degree_flags(p, _nonneg_int)
    p.add_argument("--delta", type=_positive_float, required=True)
    _add_plan_flags(p)

    p = subs.add_parser("hole", help="hole probability estimate")
    _add_degree_flags(p, _nonneg_int)
    _add_plan_flags(p, trials_default=100000)

    p = subs.add_parser("concentration", help="concentration outlier rates")
    _add_degree_flags(p, _nonneg_int)
    p.add_argument("--band", type=float, default=0.05,
                   help="boundary-maximum band half-width, in (0, 1]")
    p.add_argument("--tail", type=float, default=0.1,
                   help="circle-average lower-tail margin, in (0, 1)")
    _add_plan_flags(p)

    p = subs.add_parser("omega-bound", help="exact explicit-event lower bound")
    _add_degree_flags(p, _positive_int)
    p.add_argument("-r", "--radius", type=_positive_float, default=1.0)

    p = subs.add_parser("fit-decay", help="fit log P against N^2")
    p.add_argument("results_file", nargs="?", default=None,
                   help="hole-results CSV/JSON file; otherwise use --grid")
    p.add_argument("--grid", type=_grid(_nonneg_int), metavar="N1,N2,...",
                   default=None)
    _add_plan_flags(p, trials_default=100000)

    subs.add_parser("verify", help="run the invariant suites")

    p = subs.add_parser("orthonormality", help="inner-product quadrature checks")
    p.add_argument("-N", "--degree", type=_positive_int, default=10)

    for p in subs.choices.values():  # after each command's own flags
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", metavar="PATH", default=None)
    return parser


# ---------------------------------------------------------------------------
# subcommand handlers (return the record's plan and result; data stream only)


def _make_plan(args, degree: int) -> mc.TrialPlan:
    return mc.TrialPlan(degree=degree, radius=args.radius, trials=args.trials,
                        master_seed=args.seed, workers=args.workers)


def _degrees(args) -> list[int]:
    return args.grid if args.grid is not None else [args.degree]


def _rows_result(rows: list[dict], **extra) -> dict:
    """A record's ``result``: its rows, a lone row's fields again at the top
    level, then ``extra``."""
    return {"rows": rows, **(rows[0] if len(rows) == 1 else {}), **extra}


def _ladder(args, estimators, counts=False, **echo) -> tuple[dict, dict]:
    """The plan and result of estimates at ``-N`` or over ``--grid``.

    Each degree's plan gives one row per ``(estimator, extra)`` pair: the
    plan's fields, ``extra``, then the estimate's.  The estimator is called
    on the plan, and on ``extra``'s delta too when that is set.  Count
    estimators (``counts``) are also given the plan's count law: one
    ``mc._count_laws`` call counts the whole grid, drawing each block once,
    at the top degree, in one pool map.  The plan echo is the first
    degree's, then ``echo``, then the grid if one was given."""
    plans = [_make_plan(args, degree) for degree in _degrees(args)]
    laws = mc._count_laws(plans) if counts else [None] * len(plans)
    rows = []
    for plan, law in zip(plans, laws):
        given = {} if law is None else {"law": law}
        for estimate, extra in estimators:
            delta = extra.get("delta")
            est = estimate(plan, **given) if delta is None else estimate(plan, delta, **given)
            rows.append({"N": plan.degree, "r": plan.radius, "trials": plan.trials,
                         **extra, "trials_failed": est.trials_failed,
                         "point": est.point, "stderr": est.stderr,
                         "ci_lo": est.ci95[0], "ci_hi": est.ci95[1],
                         "seed": plan.master_seed})
    first = plans[0]
    plan_echo = {"N": first.degree, "r": first.radius, "trials": first.trials,
                 "seed": first.master_seed, "tolerances": asdict(mc.TOLERANCES),
                 **echo}
    if args.grid is not None:
        plan_echo["grid"] = list(args.grid)
    return plan_echo, _rows_result(rows)


def _handle_sample(args) -> tuple[dict, dict]:
    poly = model.sample_polynomial(args.degree, RngSeed(args.seed, 0))
    rows = [{"j": j, "re": float(c.real), "im": float(c.imag)}
            for j, c in enumerate(poly.coefficients)]
    return {"N": args.degree, "seed": args.seed}, {"rows": rows}


def _root_polynomial(args) -> model.SU2Polynomial:
    """The ``-N``/``--seed`` polynomial of ``roots`` and ``count``; one
    whose monomial coefficients overflow doubles is a usage error."""
    try:
        model._weights(args.degree)  # refuses a degree before sampling it
        poly = model.sample_polynomial(args.degree, RngSeed(args.seed, 0))
        poly.weighted_coefficients()
    except OverflowError as exc:
        raise UsageError(f"-N: {exc}") from None
    return poly


def _handle_roots(args) -> tuple[dict, dict]:
    zs = zeros.find_all_roots(_root_polynomial(args))
    rows = [{"index": i, "re": float(z.real), "im": float(z.imag),
             "residual": float(res)}
            for i, (z, res) in enumerate(zip(zs.locations, zs.residuals))]
    return ({"N": args.degree, "seed": args.seed},
            {"rows": rows, "degree_deficit": zs.degree_deficit})


def _handle_count(args) -> tuple[dict, dict]:
    zc = zeros.count_zeros_from_roots(
        zeros.find_all_roots(_root_polynomial(args)), zeros.Disk(0.0, args.radius)
    )
    row = {"N": args.degree, "r": args.radius, "count": zc.count,
           "method": zc.method, "near_boundary": zc.near_boundary,
           "seed": args.seed}
    return {"N": args.degree, "r": args.radius, "seed": args.seed}, _rows_result([row])


def _handle_mean_zeros(args) -> tuple[dict, dict]:
    return _ladder(args, [(mc.estimate_zero_count_mean, {})], counts=True)


def _handle_deviation(args) -> tuple[dict, dict]:
    return _ladder(args, [(mc.estimate_deviation_probability, {"delta": args.delta})],
                   counts=True, delta=args.delta)


def _handle_hole(args) -> tuple[dict, dict]:
    return _ladder(args, [(mc.estimate_hole_probability, {})], counts=True)


# (estimator, the flag giving its delta or None); the max-modulus pair runs
# first, so each degree runs the boundary-maximum and circle-mean kernels
# once each through the one-entry ``_plan_samples`` cache
_CONCENTRATION_ESTIMATORS = (
    ("max_modulus_outlier_frequency", "band"),
    ("max_modulus_outlier_probability", "band"),
    ("circle_average_lower_tail_frequency", "tail"),
    ("circle_average_lower_tail_probability", "tail"),
    ("log_l1_outlier_frequency", None),
)


def _handle_concentration(args) -> tuple[dict, dict]:
    first = _make_plan(args, _degrees(args)[0])
    for flag, rule in (("band", mc._max_modulus_band),
                       ("tail", mc._circle_tail_threshold)):
        try:
            rule(first, getattr(args, flag))
        except ValueError as exc:
            raise UsageError(f"--{flag}: {exc}") from None
    estimators = [(getattr(mc, name),
                   {"estimator": name, "delta": getattr(args, flag) if flag else None})
                  for name, flag in _CONCENTRATION_ESTIMATORS]
    return _ladder(args, estimators, band=args.band, tail=args.tail)


def _handle_omega(args) -> tuple[dict, dict]:
    degrees = _degrees(args)
    rows = [{"N": n, "r": args.radius, "log_prob": mc.omega_lower_bound(n, args.radius)}
            for n in degrees]
    return {"N": list(degrees), "r": args.radius}, _rows_result(rows)


def _handle_fit_decay(args) -> tuple[dict, dict]:
    if (args.results_file is None) == (args.grid is None):
        raise UsageError("need exactly one of a results file or --grid")
    if args.grid is not None and len(set(args.grid)) < 3:
        raise UsageError(f"--grid needs at least 3 distinct degrees to fit, "
                         f"got {len(set(args.grid))}")
    if args.results_file is not None:
        points = parse_results_file(args.results_file)
        plan_echo = {"results_file": args.results_file}
    else:
        _, hole = _handle_hole(args)
        points = _fit_points((f"N={row['N']}", row["N"], row["point"],
                              row["trials"], row["trials_failed"])
                             for row in hole["rows"])
        plan_echo = {"grid": list(args.grid), "r": args.radius,
                     "trials": args.trials, "seed": args.seed}
    fit = mc.fit_decay_exponent(points)
    row = {"c_hat": fit.c_hat, "intercept": fit.intercept,
           "r_squared": fit.r_squared, "n_points": len(fit.points)}
    return plan_echo, _rows_result([row], points=[[n, lp] for n, lp in fit.points])


def _check_result(rows: list[dict]) -> dict:
    """The result of ``verify`` or ``orthonormality``: ``rows`` with each
    ``status`` flag written PASS or FAIL, and how many failed."""
    return {"rows": [{**row, "status": "PASS" if row["status"] else "FAIL"}
                     for row in rows],
            "failed": sum(not row["status"] for row in rows)}


def _handle_verify(args) -> tuple[dict, dict]:
    return {}, _check_result([
        {"check": res.check, "status": res.passed, "measured": res.measured,
         "threshold": res.threshold}
        for res in verify_mod.run_all_checks()])


def _handle_orthonormality(args) -> tuple[dict, dict]:
    n = args.degree
    cap = min(n, 40)
    checks = (
        ("weighted-basis-gram", n, verify_mod.check_fs_orthonormality(n)),
        ("monomial-beta-norms", cap,
         verify_mod.check_fs_beta_identity(cap, range(cap + 1))),
        ("recentered-basis-gram", min(n, 8),
         verify_mod.check_fs_zeta_orthonormality(min(n, 8))),
    )
    return {"N": n}, _check_result([
        {"check": name, "N": degree, "measured": res.measured,
         "threshold": res.threshold, "status": res.passed}
        for name, degree, res in checks])


_HANDLERS = {
    "sample": _handle_sample,
    "roots": _handle_roots,
    "count": _handle_count,
    "mean-zeros": _handle_mean_zeros,
    "deviation": _handle_deviation,
    "hole": _handle_hole,
    "concentration": _handle_concentration,
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
    # fit-decay on a results file takes --workers but runs no trial
    runs_trials = hasattr(args, "workers") and getattr(args, "results_file", None) is None
    try:
        if runs_trials and args.workers is None:
            args.workers = mc.default_workers()
        plan, result = _HANDLERS[args.command](args)
        data = serialize_record(ExperimentRecord(args.command, plan, result), args.format)
        if args.out:
            with _open_arg(args.out, "wb") as fh:
                fh.write(data)
    except UsageError as exc:
        print(f"usage error: {exc}", file=DIAG)
        return 2
    except _NUMERICAL_ERRORS as exc:
        print(f"error: {exc}", file=DIAG)
        return 1
    except MemoryError as exc:  # the limit is the machine's, not the input's
        print(f"error: {str(exc) or 'out of memory'}", file=DIAG)
        return 1
    if not args.out:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    wall = time.monotonic() - started
    workers = f"workers={args.workers}, " if runs_trials else ""
    print(f"su2lab {args.command}: ok ({wall:.2f}s, {workers}started {stamp})", file=DIAG)
    return 1 if result.get("failed") else 0  # a check command's failures


if __name__ == "__main__":
    sys.exit(main())
