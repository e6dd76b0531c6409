#!/usr/bin/env python3
"""su2lab benchmark: one closed-loop client driving su2lab from outside.

    python3 perfbench/run.py --workload hole-scan --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from its
``src/``.  The client starts each op only after the previous one returned,
for ``--seconds`` of ops, after one untimed warm-up op.  Inputs come from
``--seed`` alone.  Wall and CPU times are rescaled for machine-speed drift
(see ``speed.py``); the raw times are kept in the report.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json with no
spans installed.  ``--trace 1`` interleaves untraced and traced ops at
``workers = 1`` (and, for hole-scan, untraced ops at ``--workers``) and
reports the per-layer metrics: span totals per traced op, the tracing
overhead and the pool efficiency.

The last stdout line is the result object; a full report (machine record,
checks, pooled estimates, spans) goes to ``.bench_out/``.  Exit code 2
means the benchmark could not run (bad arguments, no su2lab sources).
"""

from __future__ import annotations

import env  # first: pins BLAS threads before numpy loads

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 60
WARMUP_ATTEMPTS = 5


def tail(values: list[float]) -> tuple[float, float, int]:
    """Value at the highest percentile with at least ten samples beyond it,
    that percentile, and the sample count.  Below 21 samples that
    percentile falls under the median, so the median is returned."""
    xs = sorted(values)
    n = len(xs)
    if n < 21:
        return statistics.median(xs), 50.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def machine_record(nproc: int) -> dict:
    import numpy

    record = {
        "nproc": nproc,
        "cpu_model": platform.processor() or "unknown",
        "caches": {},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "thread_env": {v: env.os.environ[v] for v in env.THREAD_VARS},
        "src_lines": sum(len(p.read_bytes().splitlines())
                         for p in sorted(env.SRC.rglob("*.py"))),
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                record["cpu_model"] = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            record["caches"][f"L{level}-{kind}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return record


def peak_rss_mb() -> float:
    """Peak RSS of the client plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


@dataclass
class OpRecord:
    kind: str
    wall: float | None  # None when the op raised
    cpu: float = 0.0
    estimates: dict | None = None
    trials: int = 0
    spans: tuple[int, int] = (0, 0)  # span index range while the op ran


class Client:
    """Runs ops in a closed loop, a reference call after each, and keeps
    what the metrics need."""

    def __init__(self, workload, tracer=None):
        from speed import SpeedGauge

        self.gauge = SpeedGauge()
        self.workload = workload
        self.tracer = tracer
        self.ops: list[OpRecord] = []
        self.refs: list[float] = []  # reference wall after each op
        self.errors: list[str] = []
        self.failed_checks: list[dict] = []
        self.checks_run = 0
        self.index = 0

    def record_checks(self, checks) -> None:
        self.checks_run += len(checks)
        self.failed_checks += [vars(c) for c in checks if not c.passed]

    def attempt(self, seed: int, workers: int):
        """Run one op; None if it raised."""
        try:
            return self.workload.op(seed, workers)
        except Exception:  # a failed op is counted; the run goes on
            self.errors.append(traceback.format_exc(limit=4))
            return None

    def warm_up(self, workers: int):
        """The untimed first op, whose outcome the final checks reuse.  An
        op that raises counts as failed and the next label is tried."""
        for k in range(WARMUP_ATTEMPTS):
            seed = self.workload.seed(f"warmup{k}")
            start = time.perf_counter()
            outcome = self.attempt(seed, workers)
            if outcome is not None:
                self.ops.append(OpRecord("warmup", time.perf_counter() - start))
                return outcome, seed
            self.ops.append(OpRecord("warmup", None))
        raise RuntimeError(f"{WARMUP_ATTEMPTS} warm-up ops raised:\n{self.errors[-1]}")

    def run_op(self, kind: str, workers: int) -> None:
        from spans import cpu_seconds

        seed = self.workload.seed(self.index)
        self.index += 1
        first_span = len(self.tracer.spans) if self.tracer else 0
        cpu0 = cpu_seconds()
        start = time.perf_counter()
        outcome = self.attempt(seed, workers)
        wall = time.perf_counter() - start
        cpu = cpu_seconds() - cpu0
        self.refs.append(self.gauge.reference())
        if outcome is None:
            self.ops.append(OpRecord(kind, None))
            return
        last_span = len(self.tracer.spans) if self.tracer else 0
        self.ops.append(OpRecord(kind, wall, cpu, outcome.estimates, outcome.trials,
                                 (first_span, last_span)))
        self.record_checks(self.workload.check_op(outcome))

    def loop(self, seconds: float, kinds: list[tuple[str, int]]) -> None:
        deadline = time.perf_counter() + seconds
        i = 0
        while i < len(kinds) or time.perf_counter() < deadline:
            kind, workers = kinds[i % len(kinds)]
            if self.tracer is not None:
                (self.tracer.install if kind == "traced" else self.tracer.uninstall)()
            self.run_op(kind, workers)
            i += 1
        if self.tracer is not None:
            self.tracer.uninstall()

    def timed(self) -> list[tuple[OpRecord, float]]:
        """Loop ops that returned, each with its speed scale."""
        from speed import scales

        looped = [op for op in self.ops if op.kind not in ("warmup", "setup")]
        return [(op, s) for op, s in zip(looped, scales(self.refs)) if op.wall is not None]

    def walls(self, kind: str) -> list[float]:
        return [op.wall * s for op, s in self.timed() if op.kind == kind]

    def pool(self):
        from workloads import Pool

        pool = Pool()
        for op, s in self.timed():
            pool.add(op.estimates, s)
        return pool

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(op.wall is None for op in self.ops)

    def final_checks(self, warm, warm_seed: int, workers: int, nproc: int) -> None:
        try:
            checks = self.workload.final_checks(self.pool(), warm, warm_seed, workers, nproc)
        except Exception:  # a check that cannot run is a failed check
            from workloads import Check

            checks = [Check("final_checks_raised", False, traceback.format_exc(limit=4))]
        self.record_checks(checks)


def setup_seconds(client: Client, run_seed: int, workers: int) -> dict:
    """Fresh interpreters importing su2lab and running the first op of
    the workload: raw walls, and walls at the run's mean reference speed."""
    from setup_probe import PROBE_OP_FAILED
    from speed import REF_SECONDS
    from workloads import op_seed

    name = client.workload.name
    probe = Path(__file__).with_name("setup_probe.py")
    walls = []
    for k in range(2 * SETUP_SAMPLES):
        if len(walls) == SETUP_SAMPLES:
            break
        argv = [sys.executable, str(probe), "--workload", name,
                "--seed", str(op_seed(run_seed, name, f"setup{k}")),
                "--workers", str(workers)]
        start = time.perf_counter()
        proc = subprocess.run(argv, cwd=env.ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=SETUP_TIMEOUT_S)
        wall = time.perf_counter() - start
        client.ops.append(OpRecord("setup", wall if proc.returncode == 0 else None))
        if proc.returncode == 0:
            walls.append(wall)
        elif proc.returncode == PROBE_OP_FAILED:  # counted as a failed op
            client.errors.append(proc.stderr.decode(errors="replace")[-2000:])
        else:
            raise RuntimeError(f"setup probe exited {proc.returncode}: "
                               f"{proc.stderr.decode(errors='replace')[-2000:]}")
    if not walls:
        raise RuntimeError("every set-up probe op raised:\n" + client.errors[-1])
    scale = REF_SECONDS / statistics.fmean(client.refs)
    return {"raw": walls, "normalized": [w * scale for w in walls]}


def end_to_end(client: Client, args, workers: int, report: dict) -> dict:
    wl = client.workload
    walls = client.walls("timed")
    if not walls:
        raise RuntimeError("no timed op returned:\n" + "".join(client.errors[-1:]))
    pool = client.pool()
    t_value, t_pct, t_n = tail(walls)
    if wl.rel10_keys:
        rel10 = sum(pool.cpu_to_rel10(k) for k in wl.rel10_keys)
    else:
        # exact outputs: one op reaches the target
        rel10 = statistics.median(op.cpu * s for op, s in client.timed())
    rss = peak_rss_mb()  # before the set-up probes add children
    setup = setup_seconds(client, args.seed, workers)
    report["op_s_tail"] = {"percentile": t_pct, "samples": t_n}
    report["setup_samples_s"] = setup
    report["pooled_estimates"] = pool.as_dict()
    report["trial_fail_frac"] = pool.trial_fail_frac()
    return {
        "trials_per_s": (sum(op.trials for op, _ in client.timed()) / sum(walls), "1/s"),
        "op_s.p50": (statistics.median(walls), "s"),
        "op_s.tail": (t_value, "s"),
        "cpu_s_to_rel10": (rel10, "s"),
        "setup_s": (statistics.median(setup["normalized"]), "s"),
        "peak_rss_mb": (rss, "MB"),
    }


def per_layer(client: Client, args, workers: int, report: dict) -> dict:
    from spans import FAILED_ROW_SPANS, SPAN_NAMES, SPAN_STATS

    tracer = client.tracer
    traced, plain = client.walls("traced"), client.walls("plain")
    if not traced or not plain:
        raise RuntimeError("no traced or untraced op returned:\n"
                           + "".join(client.errors[-1:]))
    span_scale = [None] * len(tracer.spans)  # spans of ops that raised stay out
    for op, s in client.timed():
        for i in range(*op.spans):
            span_scale[i] = s
    summary = tracer.summary(span_scale)
    n = len(traced)
    metrics = {}
    for name in SPAN_NAMES:
        for stat in SPAN_STATS:
            unit = "s/op" if stat.endswith("_s") else "count/op"
            metrics[f"{name}.{stat}"] = (summary[name][stat] / n, unit)
        if name in FAILED_ROW_SPANS:
            metrics[f"{name}.failed_rows"] = (summary[name]["failed_rows"] / n, "count/op")
    pooled = client.walls("pooled")
    efficiency = 0.0  # no pool step in this workload
    if pooled:
        efficiency = statistics.median(plain) / (workers * statistics.median(pooled))
    metrics["montecarlo.pool_efficiency"] = (efficiency, "ratio")
    metrics["trace.overhead_ratio"] = (statistics.median(traced) / statistics.median(plain),
                                       "ratio")
    report["traced_ops"] = n
    pool = client.pool()
    report["pooled_estimates"] = pool.as_dict()
    report["trial_fail_frac"] = pool.trial_fail_frac()
    report["spans_file"] = str(write_json(f"spans-{args.workload}-seed{args.seed}",
                                          tracer.dump()))
    return metrics


def write_json(stem: str, obj) -> Path:
    env.OUT_DIR.mkdir(exist_ok=True)
    path = env.OUT_DIR / f"{stem}.json"
    path.write_text(json.dumps(obj, indent=1) + "\n")
    return path


def main() -> int:
    nproc = env.nproc()
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workers", type=int, default=nproc,
                    help="pool size of hole-scan ops (1..nproc, default nproc)")
    args = ap.parse_args()
    if not 1 <= args.workers <= nproc:
        ap.error(f"--workers must lie in 1..{nproc}")
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be nonnegative and --seconds positive")
    try:
        with open(env.ROOT / "BENCHMARK.json") as fh:
            spec = json.load(fh)
        env.import_su2lab()
    except (OSError, ValueError, env.MissingProgram) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    from spans import Tracer
    from workloads import WORKLOADS

    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names or args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {names}")

    workload = WORKLOADS[args.workload](args.seed)
    # the pool only serves hole-scan; the other MC workloads are the plain
    # single-process baseline
    workers = args.workers if args.workload == "hole-scan" else 1
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "workers": workers,
              "machine": machine_record(nproc)}
    if args.trace:
        client = Client(workload, Tracer())  # built before any wrapper is installed
        warm, warm_seed = client.warm_up(1)
        kinds = [("plain", 1), ("traced", 1)]
        if workers > 1:
            kinds.append(("pooled", workers))
        client.loop(args.seconds, kinds)
    else:
        client = Client(workload)
        workload.start()
        try:
            warm, warm_seed = client.warm_up(workers)
            client.loop(args.seconds, [("timed", workers)])
        finally:
            workload.stop()
    client.final_checks(warm, warm_seed, workers, nproc)

    if args.trace:
        metrics = per_layer(client, args, workers, report)
        wanted = [m["name"] for m in spec["per_layer"]]
    else:
        metrics = end_to_end(client, args, workers, report)
        wanted = [m["name"] for m in spec["end_to_end"]]
    missing = sorted(set(wanted) - set(metrics))
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")

    kinds = sorted({op.kind for op in client.ops})
    report.update({
        "attempted_ops": client.attempted,
        "failed_ops": client.failed,
        "op_fail_frac": client.failed / client.attempted,
        "checks_run": client.checks_run,
        "check_failures": len(client.failed_checks),
        "failed_checks": client.failed_checks,
        "op_errors": client.errors,
        "op_walls_s": {"raw": {k: [op.wall for op in client.ops
                                   if op.kind == k and op.wall is not None] for k in kinds},
                       "normalized": {k: client.walls(k) for k in kinds}},
        "reference_walls_s": client.refs,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })
    path = write_json(f"report-{args.workload}-seed{args.seed}-trace{args.trace}", report)
    print(f"perfbench {args.workload}: {client.attempted} ops, {client.failed} failed, "
          f"{len(client.failed_checks)}/{client.checks_run} checks failed; report {path}",
          file=sys.stderr)
    result = {
        "correct": not client.failed_checks,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
