"""The four benchmark workloads: what one op calls, and the checks on it.

Every op of a workload makes the same calls and varies only the master
seed, which the client derives from the run's ``--seed``; so the op times
of a run form one distribution.  Checks hold for any seed.  The program is
driven through its public surface (``cli.main`` and module attributes
looked up at call time), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from su2lab import cli, model, montecarlo as mc, zeros
from su2lab.rng import RngSeed

from spans import CpuMeter, cpu_seconds

REL_ERR = 0.1  # target relative error of cpu_s_to_rel10


def op_seed(run_seed: int, workload: str, label) -> int:
    """Master seed of one op: a 63-bit hash of the run seed and the op label."""
    digest = hashlib.sha256(f"{workload}:{run_seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


@dataclass
class EstimateStat:
    """One estimate from one op, with the CPU the call took."""

    kind: str  # "freq" or "mean"
    trials: int
    failed: int
    point: float
    stderr: float
    cpu_s: float

    @property
    def used(self) -> int:
        return self.trials - self.failed


@dataclass
class Outcome:
    trials: int
    estimates: dict[str, EstimateStat] = field(default_factory=dict)
    payload: object = None


@dataclass
class Check:
    name: str
    passed: bool
    detail: str = ""


class Pool:
    """Pooled estimates over the ops of a run, one entry per estimate key."""

    def __init__(self):
        self.acc: dict[str, dict] = {}

    def add(self, estimates: dict[str, EstimateStat], cpu_scale: float) -> None:
        """Pool one op's estimates, its CPU times multiplied by ``cpu_scale``."""
        for key, e in estimates.items():
            a = self.acc.setdefault(key, {"kind": e.kind, "trials": 0, "failed": 0,
                                          "used": 0, "s1": 0.0, "s2": 0.0, "cpu_s": 0.0})
            a["trials"] += e.trials
            a["failed"] += e.failed
            a["used"] += e.used
            a["cpu_s"] += e.cpu_s * cpu_scale
            if e.kind == "freq":
                a["s1"] += round(e.point * e.used)
            else:
                # recover sum and sum of squares from mean and stderr
                a["s1"] += e.point * e.used
                a["s2"] += e.stderr ** 2 * e.used * (e.used - 1) + e.used * e.point ** 2

    def point(self, key: str) -> tuple[float, float]:
        """Pooled point estimate and its standard error."""
        a = self.acc[key]
        n = a["used"]
        mean = a["s1"] / n
        if a["kind"] == "freq":
            var = mean * (1.0 - mean)
        else:
            var = max(a["s2"] - n * mean * mean, 0.0) / max(n - 1, 1)
        return mean, math.sqrt(var / n)

    def cpu_to_rel10(self, key: str) -> float:
        """CPU-seconds per trial times the trials needed for a relative
        standard error of REL_ERR at the pooled estimate."""
        a = self.acc[key]
        mean, se = self.point(key)
        var_one = se * se * a["used"]
        needed = var_one / (REL_ERR * mean) ** 2
        return a["cpu_s"] / a["trials"] * needed

    def trial_fail_frac(self) -> float:
        trials = sum(a["trials"] for a in self.acc.values())
        return sum(a["failed"] for a in self.acc.values()) / trials if trials else 0.0

    def as_dict(self) -> dict:
        out = {}
        for key, a in self.acc.items():
            mean, se = self.point(key) if a["used"] else (math.nan, math.nan)
            out[key] = {"point": mean, "stderr": se, "trials": a["trials"],
                        "trials_failed": a["failed"], "cpu_s": a["cpu_s"]}
        return out


class _Stdout:
    def __init__(self):
        self.buffer = io.BytesIO()


def run_cli(argv: list[str]) -> bytes:
    """``su2lab <argv>`` in process; returns the data stream bytes."""
    saved = sys.stdout
    sys.stdout = _Stdout()
    try:
        rc = cli.main(argv)
        data = sys.stdout.buffer.getvalue()
    finally:
        sys.stdout = saved
    if rc != 0:
        raise RuntimeError(f"su2lab {' '.join(argv)} exited {rc}")
    return data


def _row_stat(row: dict, kind: str, cpu_s: float) -> EstimateStat:
    return EstimateStat(kind, int(row["trials"]), int(row["trials_failed"]),
                        float(row["point"]), float(row["stderr"]), cpu_s)


def _freq_stat(est: mc.Estimate, trials: int, cpu_s: float) -> EstimateStat:
    return EstimateStat("freq", trials, est.trials_failed, est.point, est.stderr, cpu_s)


def _hits(est: mc.Estimate) -> int:
    return round(est.point * est.trials_used)


def _other_workers(workers: int, nproc: int) -> int:
    return 1 if workers > 1 else nproc


class Workload:
    name = ""
    trials_per_op = 1
    rel10_keys: tuple[str, ...] = ()

    def __init__(self, run_seed: int):
        self.run_seed = run_seed

    def seed(self, label) -> int:
        return op_seed(self.run_seed, self.name, label)

    def start(self) -> None:
        """Called before the first op of the timed client."""

    def stop(self) -> None:
        """Called after the last op."""

    def op(self, seed: int, workers: int) -> Outcome:
        raise NotImplementedError

    def check_op(self, outcome: Outcome) -> list[Check]:
        return []

    def final_checks(self, pool: Pool, warm: Outcome, warm_seed: int,
                     workers: int, nproc: int) -> list[Check]:
        return []


class HoleScan(Workload):
    """``su2lab hole --grid 4,8,12 -r 0.5 --trials 8192`` through cli.main."""

    name = "hole-scan"
    grid = (4, 8, 12)
    radius = 0.5
    trials = 8192
    trials_per_op = len(grid) * trials
    rel10_keys = tuple(f"hole.N{n}" for n in grid)
    prefix = 128

    def __init__(self, run_seed: int):
        super().__init__(run_seed)
        self.meter: CpuMeter | None = None

    def start(self) -> None:
        # per-degree CPU, since one CLI call covers the whole ladder
        self.meter = CpuMeter("su2lab.montecarlo", "estimate_hole_probability")
        self.meter.install()

    def stop(self) -> None:
        if self.meter is not None:
            self.meter.uninstall()
            self.meter = None

    def argv(self, seed: int, workers: int) -> list[str]:
        return ["hole", "--grid", ",".join(map(str, self.grid)), "-r", str(self.radius),
                "--trials", str(self.trials), "--workers", str(workers),
                "--seed", str(seed), "--format", "json"]

    def op(self, seed: int, workers: int) -> Outcome:
        if self.meter is not None:
            self.meter.calls.clear()
        data = run_cli(self.argv(seed, workers))
        rows = json.loads(data)["result"]["rows"]
        if [r["N"] for r in rows] != list(self.grid):
            raise RuntimeError(f"hole rows {[r['N'] for r in rows]} != grid {self.grid}")
        cpus = self.meter.calls if self.meter is not None else [0.0] * len(rows)
        est = {f"hole.N{r['N']}": _row_stat(r, "freq", c) for r, c in zip(rows, cpus)}
        return Outcome(self.trials_per_op, est, data)

    def final_checks(self, pool, warm, warm_seed, workers, nproc):
        checks = []
        for n in self.grid:
            p, se = pool.point(f"hole.N{n}")
            floor = math.exp(mc.omega_lower_bound(n, self.radius)) - 3.0 * se
            checks.append(Check(f"hole.N{n}.above_omega_bound", p >= floor,
                                f"p={p:.6g} floor={floor:.6g}"))
            # independent recount of a prefix through the root oracle
            plan = mc.TrialPlan(n, self.radius, self.prefix, warm_seed, workers=1)
            est = mc.estimate_hole_probability(plan)
            roots_holes = 0
            for t in range(self.prefix):
                poly = model.sample_polynomial(n, RngSeed(warm_seed, t))
                count = zeros.count_zeros_from_roots(zeros.find_all_roots(poly),
                                                     zeros.Disk(0.0, self.radius))
                roots_holes += count.count == 0
            diff = abs(_hits(est) - roots_holes)
            checks.append(Check(f"hole.N{n}.prefix_recount", diff <= est.trials_failed,
                                f"winding {_hits(est)} roots {roots_holes} "
                                f"failed {est.trials_failed}"))
        other = _other_workers(workers, nproc)
        again = run_cli(self.argv(warm_seed, other))
        checks.append(Check("hole.repro_workers", again == warm.payload,
                            f"workers {workers} vs {other}"))
        return checks


class MeanZeros(Workload):
    """``su2lab mean-zeros -r 1`` at N = 10 (2048 trials), then N = 50 (256)."""

    name = "mean-zeros"
    calls = ((10, 2048), (50, 256))
    radius = 1.0
    trials_per_op = sum(t for _, t in calls)
    rel10_keys = tuple(f"mean.N{n}" for n, _ in calls)

    def argv(self, n: int, trials: int, seed: int, workers: int) -> list[str]:
        return ["mean-zeros", "-N", str(n), "-r", str(self.radius), "--trials", str(trials),
                "--workers", str(workers), "--seed", str(seed), "--format", "json"]

    def op(self, seed: int, workers: int) -> Outcome:
        est, outputs = {}, []
        for n, trials in self.calls:
            before = cpu_seconds()
            data = run_cli(self.argv(n, trials, seed, workers))
            cpu = cpu_seconds() - before
            est[f"mean.N{n}"] = _row_stat(json.loads(data)["result"], "mean", cpu)
            outputs.append(data)
        return Outcome(self.trials_per_op, est, outputs)

    def final_checks(self, pool, warm, warm_seed, workers, nproc):
        checks = []
        for n, _ in self.calls:
            mean, se = pool.point(f"mean.N{n}")
            mu = mc.expected_zero_count(n, self.radius)
            checks.append(Check(f"mean.N{n}.within_4_stderr", abs(mean - mu) <= 4.0 * se,
                                f"mean={mean:.6g} expected={mu:.6g} stderr={se:.3g}"))
        other = _other_workers(workers, nproc)
        again = [run_cli(self.argv(n, t, warm_seed, other)) for n, t in self.calls]
        checks.append(Check("mean.repro_workers", again == warm.payload,
                            f"workers {workers} vs {other}"))
        return checks


class Concentration(Workload):
    """The three band-outlier estimators at N = 10 and 40, r = 1, 2048 trials."""

    name = "concentration"
    degrees = (10, 40)
    radius = 1.0
    trials = 2048
    max_mod_delta = 0.05
    tail_delta = 0.1
    trials_per_op = 3 * len(degrees) * trials
    # estimates with nonzero frequency at these bands; circle-tail at N = 40
    # and the log-L1 outlier have p ~ 0 and would make the figure unbounded
    rel10_keys = ("max_mod.N10", "max_mod.N40", "circle_tail.N10")
    prefix = 64

    def _estimators(self):
        return (
            ("max_mod", lambda plan: mc.max_modulus_outlier_frequency(plan, self.max_mod_delta)),
            ("circle_tail",
             lambda plan: mc.circle_average_lower_tail_frequency(plan, self.tail_delta)),
            ("log_l1", lambda plan: mc.log_l1_outlier_frequency(plan)),
        )

    def estimates(self, seed: int, workers: int, trials: int) -> dict[str, tuple]:
        out = {}
        for n in self.degrees:
            plan = mc.TrialPlan(n, self.radius, trials, seed, workers=workers)
            for label, fn in self._estimators():
                before = cpu_seconds()
                est = fn(plan)
                out[f"{label}.N{n}"] = (est, cpu_seconds() - before)
        return out

    def op(self, seed: int, workers: int) -> Outcome:
        raw = self.estimates(seed, workers, self.trials)
        est = {k: _freq_stat(e, self.trials, c) for k, (e, c) in raw.items()}
        return Outcome(self.trials_per_op, est, {k: e for k, (e, _) in raw.items()})

    def _recount(self, n: int, seed: int) -> dict[str, int]:
        """Band events of a prefix, one polynomial at a time."""
        half = n / 2.0
        band = half * math.log1p(self.radius ** 2)
        lo = band + half * math.log1p(-self.max_mod_delta)
        hi = band + half * math.log1p(self.max_mod_delta)
        tail = band + half * math.log1p(-self.tail_delta)
        l1 = 5.0 * n * (math.log(2.0) + math.log1p(self.radius ** 2))
        target = mc.Tolerances().quadrature_target  # the estimators' own
        counts = {"max_mod": 0, "circle_tail": 0, "log_l1": 0}
        for t in range(self.prefix):
            poly = model.sample_polynomial(n, RngSeed(seed, t))
            log_max = zeros.max_modulus_boundary(poly, self.radius).log_value
            counts["max_mod"] += log_max < lo or log_max > hi
            try:
                mean_log = zeros.circle_log_integral(poly, self.radius, target)
                mean_abs = zeros.circle_abs_log_integral(poly, self.radius, target)
            except zeros.QuadratureError:
                # a zero on the circle: the estimators' batch quadrature
                # fails this trial too, and the check allows trials_failed
                continue
            counts["circle_tail"] += mean_log < tail
            counts["log_l1"] += mean_abs > l1
        return counts

    def final_checks(self, pool, warm, warm_seed, workers, nproc):
        checks = []
        for key in self.rel10_keys:
            p, _ = pool.point(key)
            checks.append(Check(f"{key}.resolved", p > 0.0, f"p={p:.6g}"))
        prefix = self.estimates(warm_seed, 1, self.prefix)
        for n in self.degrees:
            direct = self._recount(n, warm_seed)
            for label, count in direct.items():
                est = prefix[f"{label}.N{n}"][0]
                diff = abs(_hits(est) - count)
                checks.append(Check(f"{label}.N{n}.prefix_recount",
                                    diff <= est.trials_failed,
                                    f"estimator {_hits(est)} direct {count}"))
        other = _other_workers(workers, nproc)
        again = {k: e for k, (e, _) in self.estimates(warm_seed, other, self.trials).items()}
        checks.append(Check("concentration.repro_workers", again == warm.payload,
                            f"workers {workers} vs {other}"))
        return checks


@dataclass
class SinglePolyResult:
    poly: model.SU2Polynomial
    roots: zeros.ZeroSet
    off_center: zeros.ZeroCount
    max_mod: zeros.BoundaryMaximum
    unitary: np.ndarray
    eq2: float


class SinglePoly(Workload):
    """One polynomial per op through the one-row API of zeros and model."""

    name = "single-poly"
    degree = 200
    disk = zeros.Disk(0.3 + 0.2j, 0.7)
    radius = 1.0
    basis_degree = 60
    eq2_degree = 30
    center = 0.7 + 0.2j
    # the thresholds of ``su2lab verify``
    root_tol, unitarity_tol, eq2_tol, jensen_tol = 1e-8, 1e-10, 1e-8, 1e-6

    def op(self, seed: int, workers: int) -> Outcome:
        poly = model.sample_polynomial(self.degree, RngSeed(seed, 0))
        roots = zeros.find_all_roots(poly)
        off_center = zeros.count_zeros_argument_principle(poly, self.disk)
        max_mod = zeros.max_modulus_boundary(poly, self.radius)
        unitary = model.basis_change_matrix(self.basis_degree, self.center).matrix
        small = model.sample_polynomial(self.eq2_degree, RngSeed(seed, 1))
        pts = np.random.default_rng(seed).standard_normal((2, 8))
        pts = pts[0] + 1j * pts[1]
        eq2 = model.eq2_identity_residual(small, self.center,
                                          2.0 * pts / np.max(np.abs(pts)))
        return Outcome(1, {}, SinglePolyResult(poly, roots, off_center, max_mod,
                                               unitary, eq2))

    def _jensen_admissible(self, res: SinglePolyResult) -> bool:
        mods = np.abs(res.roots.locations)
        coeffs = np.abs(res.poly.coefficients)
        return (np.min(np.abs(mods - self.radius)) >= 1e-3
                and coeffs[0] > 1e-12 * coeffs.max())

    def check_op(self, outcome: Outcome) -> list[Check]:
        res: SinglePolyResult = outcome.payload
        worst_res = float(res.roots.residuals.max())
        from_roots = zeros.count_zeros_from_roots(res.roots, self.disk).count
        n = self.basis_degree
        unit = float(np.max(np.abs(res.unitary.conj().T @ res.unitary - np.eye(n + 1))))
        return [
            Check("single.root_residual", worst_res <= self.root_tol, f"{worst_res:.3g}"),
            Check("single.off_center_count", res.off_center.count == from_roots,
                  f"winding {res.off_center.count} roots {from_roots}"),
            Check("single.unitarity", unit <= self.unitarity_tol, f"{unit:.3g}"),
            Check("single.eq2", res.eq2 <= self.eq2_tol, f"{res.eq2:.3g}"),
        ]

    def final_checks(self, pool, warm, warm_seed, workers, nproc):
        res: SinglePolyResult = warm.payload
        if not self._jensen_admissible(res):
            return []
        gap = zeros.jensen_residual(res.poly, self.radius)
        return [Check("single.jensen_residual", gap <= self.jensen_tol, f"{gap:.3g}")]


WORKLOADS = {w.name: w for w in (HoleScan, MeanZeros, Concentration, SinglePoly)}
