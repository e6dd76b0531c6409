"""Trial ensembles over (N, r): zero-count statistics, hole probabilities,
concentration outlier rates, the exact explicit-event lower bound, and the
quadratic-in-N decay fit.

Concentration outliers come in two estimator families over the same
trials.  The ``*_frequency`` functions count hits (Wilson intervals).  The
``*_probability`` functions are conditional Monte Carlo: writing
``alpha = R u`` with ``R^2 ~ Gamma(N+1, 1)`` independent of the direction
``u``, both the boundary maximum and the circle mean of ``log|psi|`` are
``log R`` plus a function of ``u``, so each trial's event probability given
``u`` is an exact incomplete-gamma tail.  Their mean is unbiased for the
same probability with no more variance than the frequency, and it stays
nonzero far below ``1/trials``.

Trials are data-parallel: trial ``t`` of a plan draws its coefficients from
the counter-based stream keyed by ``(master_seed, t)``, blocks of trials are
processed vectorized, and reductions are integer-exact or run once over the
trials in index order, so an identical plan gives bit-identical estimates for
any worker count or schedule.  Numerical rejects (contour singularities,
quadrature caps, cross-check mismatches) are excluded from estimates but counted
and reported; above 1% the estimate is refused outright, since such failures
correlate with near-boundary zeros and silent dropping would bias hole
statistics.  A count block counts each trial by Schur-Cohn where it
certifies and by winding elsewhere, and recounts every
``CROSS_CHECK_EVERY``-th trial once, by the kernel that did not count it: a
Schur-Cohn count by winding, a winding count by Aberth roots.  Count blocks
reduce to the count law inside the block (the histogram of certified
counts, then the failed and mismatched totals), which the hole, deviation
and mean estimators read: none holds a per-trial count.  A count ladder,
plans that share the seed, the trial count and ``workers`` (``_count_laws``),
is one pass: each block is drawn once, at the top degree, every plan counts
its prefix of those rows (a trial's first N + 1 coefficients do not depend
on the row width; see ``rng``), and one pool map covers the ladder.

Blocks run in one worker pool per process.  It starts on the first
estimate that splits across workers, serves later estimates of the same
pool size, is replaced (its workers joined first) when the size changes,
is dropped when a worker dies, and is joined at interpreter exit by
``concurrent.futures``.  Workers see module state as of their start, so a
later change to a module attribute reaches only ``workers = 1`` runs; a
forked child starts its own pool rather than using its parent's.

The circle-mean block (``_block_circle_means``) feeds three estimators,
and the boundary-maximum block (``_block_log_max``) feeds the max-modulus
probability and callers that pass its maxima to the frequency as
``log_max``.  Both are read through ``_plan_samples``: an ``lru_cache`` of
one entry in total, keyed by ``(plan, block function)``, whose arrays are
read-only.  The whole plan is the key, ``workers`` included.  A hit runs
no kernel, so, as with pool workers, a kernel, a ``TOLERANCES`` or a
``_log_l1_threshold`` patched after the held run is not reached: a test
that monkeypatches one must clear the cache with
``_plan_samples.cache_clear()`` or use a fresh plan.  Called alone, the
max-modulus frequency reads neither: its own block decides each trial
from the grid scan's bound and refines only the trials it leaves
undecided (``_max_modulus_outliers``).
"""

from __future__ import annotations

import functools
import math
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

import numpy as np

from .model import _check_finite, _check_radius, _log_normalization, _weights, log_binomial
from .rng import RngSeed, _check_int, gaussian_matrix
from .zeros import (
    DEFAULT_BOUNDARY_MARGIN,
    _aberth_batch,
    _batch_boundary_log_max,
    _batch_boundary_scan,
    _batch_circle_log_means,
    _batch_schur_cohn,
    _batch_winding,
    _circle_fourier_coeffs,
    _normalized_residuals,
)

__all__ = [
    "Tolerances",
    "TrialPlan",
    "Estimate",
    "DecayFit",
    "ReliabilityError",
    "default_workers",
    "expected_zero_count",
    "estimate_zero_count_mean",
    "estimate_deviation_probability",
    "estimate_hole_probability",
    "omega_lower_bound",
    "max_modulus_outlier_frequency",
    "log_l1_outlier_frequency",
    "circle_average_lower_tail_frequency",
    "max_modulus_outlier_probability",
    "circle_average_lower_tail_probability",
    "fit_decay_exponent",
    "zero_count_samples",
]

Z95 = 1.959963984540054
BLOCK_TRIALS = 4096
MAX_FAILED_FRACTION = 0.01
CROSS_CHECK_EVERY = 100  # sampled trials, recounted by the kernel that did not count them


class ReliabilityError(RuntimeError):
    """Too many trials failed numerically for the estimate to stand."""


def default_workers() -> int:
    """The number of CPUs this process may run on (the CPU count where that
    is unknown)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass(frozen=True)
class Tolerances:
    """Numerical-reject thresholds; trial pipelines read ``TOLERANCES``.

    The Monte Carlo quadrature target is looser than the 1e-9 default of
    the single-polynomial circle average: estimator events compare circle
    means against thresholds O(N) apart, so 1e-6 cannot flip an indicator.
    With the zeros near the circle divided out, the target costs little
    either way: on the first block of ``TrialPlan(N, 1, 4096, 41)`` rows
    take 259 nodes on average at 1e-6 and 306 at 1e-9 for N = 10, and
    1,027 and 1,067 for N = 40.
    """

    root_residual: float = 1e-8
    boundary_margin: float = DEFAULT_BOUNDARY_MARGIN
    quadrature_target: float = 1e-6


TOLERANCES = Tolerances()


@dataclass(frozen=True)
class TrialPlan:
    degree: int
    radius: float
    trials: int
    master_seed: int
    workers: int = 1

    def __post_init__(self):
        for name, low in (("degree", 0), ("trials", 1), ("workers", 1)):
            object.__setattr__(self, name, _check_int(getattr(self, name), name, low))
        _check_radius(self.radius)
        object.__setattr__(self, "master_seed", RngSeed(self.master_seed).master_seed)


@dataclass(frozen=True)
class Estimate:
    point: float
    stderr: float
    ci95: tuple[float, float]
    trials_used: int
    trials_failed: int

    def __post_init__(self):
        lo, hi = self.ci95
        if not (lo <= self.point <= hi):
            raise ValueError("confidence interval must contain the point estimate")


@dataclass(frozen=True)
class DecayFit:
    c_hat: float
    intercept: float
    r_squared: float
    points: tuple[tuple[float, float], ...]


# ---------------------------------------------------------------------------
# blocked, schedule-invariant trial execution


_pool: ProcessPoolExecutor | None = None
_pool_size = 0
_pool_pid = 0  # the process that started the pool
_pool_lock = threading.Lock()  # estimates from several threads take turns


def _exit_with_parent() -> None:
    """Worker initializer: exit once the process that started the worker is
    gone.  Idle workers wait on their task queue forever, so without this a
    killed client would leave them running."""
    parent = os.getppid()

    def watch():
        while os.getppid() == parent:
            time.sleep(1.0)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def _close_pool() -> None:
    """Shut the shared pool down and join its workers.  A pool inherited
    through fork belongs to the parent and is only forgotten."""
    global _pool
    if _pool is not None and _pool_pid == os.getpid():
        _pool.shutdown(wait=True)
    _pool = None


def _worker_pool(size: int) -> ProcessPoolExecutor:
    """The shared pool, started anew unless it has ``size`` workers and
    belongs to this process."""
    global _pool, _pool_size, _pool_pid
    if _pool is not None and (_pool_size, _pool_pid) != (size, os.getpid()):
        _close_pool()
    if _pool is None:
        _pool = ProcessPoolExecutor(max_workers=size, initializer=_exit_with_parent)
        _pool_size, _pool_pid = size, os.getpid()
    return _pool


def _map_blocks(size: int, fn, *iterables) -> list:
    """``list(map(fn, *iterables))`` on the shared pool of ``size`` workers.
    The iterables must be sequences: a retry reads them again."""
    with _pool_lock:
        try:
            results = _worker_pool(size).map(fn, *iterables)
        except BrokenProcessPool:  # a worker died while the pool sat idle
            _close_pool()
            results = _worker_pool(size).map(fn, *iterables)
        try:
            return list(results)
        except BrokenProcessPool:  # a worker died running these blocks
            _close_pool()
            raise


def _run_blocked(plan: TrialPlan, fn):
    """Run ``fn(plan, start, stop)`` over fixed-size trial blocks.

    The block partition depends only on the trial count, never on the
    worker count, and results are concatenated in block order, so the
    output is a pure function of the plan.  The blocks go to the shared
    pool, sized ``min(workers, blocks, default_workers())``, unless that
    size is 1, when they run in this process.
    """
    starts = range(0, plan.trials, BLOCK_TRIALS)
    blocks = ([plan] * len(starts), starts, [*starts[1:], plan.trials])
    size = min(plan.workers, len(starts), default_workers())
    parts = list(map(fn, *blocks)) if size == 1 else _map_blocks(size, fn, *blocks)
    return tuple(np.concatenate(col) for col in zip(*parts))


def _sample_block(plan: TrialPlan, start: int, stop: int) -> np.ndarray:
    trials = np.arange(start, stop, dtype=np.uint64)
    return gaussian_matrix(plan.master_seed, trials, plan.degree + 1)


def _root_counts(alpha: np.ndarray, plan: TrialPlan):
    """Aberth zero counts in B(0, r) with a trust mask (converged and
    residuals within tolerance).  No row is trusted, and none is iterated,
    whose monomial coefficients overflow doubles, as all do at a degree
    whose weights overflow."""
    counts = np.zeros(len(alpha), dtype=np.int64)
    trusted = np.zeros(len(alpha), dtype=bool)
    try:
        w = _weights(plan.degree)
    except OverflowError:
        return counts, trusted
    with np.errstate(over="ignore"):
        w = alpha * w
    fit = np.flatnonzero(np.isfinite(w).all(axis=1))
    w = w[fit]
    roots, conv = _aberth_batch(w)
    res = _normalized_residuals(w, roots).max(axis=1, initial=0.0)
    trusted[fit] = conv & (res <= TOLERANCES.root_residual)
    counts[fit] = (np.abs(roots) < plan.radius).sum(axis=1)
    return counts, trusted


def _block_counts(plan: TrialPlan, start: int, stop: int, alpha=None):
    """Per-trial zero counts in B(0, r), returned as ``(counts, failed,
    mismatch)``.  ``alpha`` is the block's coefficients when drawn already,
    at this degree or a higher one: the plan's rows are its first N + 1
    columns (see ``rng``).

    The Schur-Cohn counter counts the rows it certifies.  Rows it cannot
    certify (including any it cannot prove clear of the boundary margin)
    are counted by winding, under its margin and failure rules.  Every
    ``CROSS_CHECK_EVERY``-th trial is recounted once, by the kernel that
    did not count it: a Schur-Cohn count by winding, and a winding count,
    below the degree where the weights overflow, by the root oracle.  A
    trustworthy disagreement fails the trial and marks it a mismatch."""
    r, margin = plan.radius, TOLERANCES.boundary_margin
    if alpha is None:
        alpha = _sample_block(plan, start, stop)
    alpha = alpha[:, :plan.degree + 1]
    b, _ = _circle_fourier_coeffs(alpha, plan.degree, r)
    counts, certified = _batch_schur_cohn(b, r, margin)
    ok = certified.copy()
    sampled = np.arange(start, stop) % CROSS_CHECK_EVERY == 0
    redo = np.nonzero(~certified | sampled)[0]
    mism = np.zeros(len(counts), dtype=bool)
    if len(redo):
        wcounts, wok = _batch_winding(b[redo], r, margin)
        fallback = ~certified[redo]
        counts[redo[fallback]] = wcounts[fallback]
        ok[redo[fallback]] = wok[fallback]
        mism[redo[~fallback & wok & (wcounts != counts[redo])]] = True
    check = np.nonzero(sampled & ok & ~certified)[0]
    if len(check):
        rcounts, trusted = _root_counts(alpha[check], plan)
        mism[check[trusted & (rcounts != counts[check])]] = True
    ok &= ~mism
    return counts, ~ok, mism


def _block_count_laws(plan: TrialPlan, start: int, stop: int, plans):
    """The block's count law under each of ``plans``, one int64 row each:
    the histogram of its certified counts (length N + 1), then the numbers
    of trials failed and mismatched.  The block is drawn once, at ``plan``'s
    degree, and each of ``plans`` counts its prefix of those rows."""
    alpha = _sample_block(plan, start, stop)
    laws = []
    for p in plans:
        counts, failed, mism = _block_counts(p, start, stop, alpha)
        hist = np.bincount(counts[~failed], minlength=p.degree + 1)
        laws.append(np.concatenate((hist, [failed.sum(), mism.sum()]))[None])
    return laws


def _count_laws(plans: list[TrialPlan]) -> list[tuple[np.ndarray, int, int]]:
    """The count law of each plan, ``(hist, failed, mismatched)``: the rows
    of ``_block_count_laws`` summed over the blocks, exact integer sums, the
    same for any worker count or schedule.  The plans must share the seed,
    the trial count and ``workers``: one pass draws each block once, at the
    top degree, and one pool map covers them all."""
    top = max(plans, key=lambda p: p.degree)
    if any((p.master_seed, p.trials, p.workers) != (top.master_seed, top.trials, top.workers)
           for p in plans):
        raise ValueError("plans of one pass must share seed, trials and workers")
    distinct = tuple(dict.fromkeys(plans))
    cols = _run_blocked(top, functools.partial(_block_count_laws, plans=distinct))
    laws = {p: col.sum(axis=0) for p, col in zip(distinct, cols)}
    return [(laws[p][:-2], int(laws[p][-2]), int(laws[p][-1])) for p in plans]


def _log_norm(alpha: np.ndarray) -> np.ndarray:
    """Per-row log R with R^2 = sum_j |alpha_j|^2."""
    return 0.5 * np.log((alpha.real**2 + alpha.imag**2).sum(axis=1))


def _block_log_max(plan: TrialPlan, start: int, stop: int):
    """``(log max|psi|, log R)`` per trial; the boundary maximum fails none."""
    alpha = _sample_block(plan, start, stop)
    b, log_scale = _circle_fourier_coeffs(alpha, plan.degree, plan.radius)
    log_max, _ = _batch_boundary_log_max(b, log_scale)
    return log_max, _log_norm(alpha)


def _max_modulus_outliers(b: np.ndarray, log_scale: np.ndarray, lo: float, hi: float):
    """``(outlier, undecided)``: per row of the Fourier rows ``(b,
    log_scale)``, whether ``_batch_boundary_log_max``'s maximum lies
    outside [lo, hi], and the indices of the rows that kernel ran on: those
    the scan's bound leaves undecided (see
    ``max_modulus_outlier_frequency``), a non-finite scan included."""
    low, high = _batch_boundary_scan(b, log_scale)
    outlier = (low > hi) | (high < lo)
    und = np.flatnonzero(~outlier & ~((lo <= low) & (high <= hi)))
    if len(und):
        log_max, _ = _batch_boundary_log_max(b[und], log_scale[und])
        outlier[und] = (log_max < lo) | (log_max > hi)
    return outlier, und


def _block_max_modulus_outliers(plan: TrialPlan, start: int, stop: int, lo: float, hi: float):
    """The event of ``max_modulus_outlier_frequency`` per trial, as
    ``_max_modulus_outliers`` decides it from the band (lo, hi)."""
    alpha = _sample_block(plan, start, stop)
    b, log_scale = _circle_fourier_coeffs(alpha, plan.degree, plan.radius)
    return (_max_modulus_outliers(b, log_scale, lo, hi)[0],)


def _block_circle_means(plan: TrialPlan, start: int, stop: int):
    """``(mean log|psi|, log R, log-L1 hit, log-L1 failed, failed)`` per
    trial: the mean from the log sums alone, failed at the node cap, and
    the event of ``log_l1_outlier_frequency``, mean |log|psi|| above
    ``_log_l1_threshold``.

    With g = log|psi| on the circle and U = log sum_k |b_k| plus the row's
    log scale, a bound on max g, |mean g| <= mean |g| <= 2 max(U, 0) - mean g,
    since |g| = 2 max(g, 0) - g.  Most trials are decided by these bounds
    from the log mean alone.  The rest rerun the kernel on their rows with
    the |log| sums on, and fail the event if it does."""
    alpha = _sample_block(plan, start, stop)
    b, log_scale = _circle_fourier_coeffs(alpha, plan.degree, plan.radius)
    target = TOLERANCES.quadrature_target
    mean_log, _, ok, _ = _batch_circle_log_means(b, log_scale, target, absolute=False)
    threshold = _log_l1_threshold(plan)
    hit = np.abs(mean_log) > threshold
    bound = np.log(np.abs(b).sum(axis=1)) + log_scale
    l1_failed = ~ok
    und = np.flatnonzero(ok & ~hit & (2.0 * np.maximum(bound, 0.0) - mean_log > threshold))
    if len(und):
        _, mean_abs, und_ok, _ = _batch_circle_log_means(b[und], log_scale[und], target)
        hit[und] = mean_abs > threshold
        l1_failed[und] = ~und_ok
    return mean_log, _log_norm(alpha), hit, l1_failed, ~ok


@functools.lru_cache(maxsize=1)
def _plan_samples(plan: TrialPlan, block) -> tuple:
    """``_run_blocked(plan, block)`` with read-only arrays, held for the
    last key only (see the module docstring)."""
    result = _run_blocked(plan, block)
    for col in result:
        col.flags.writeable = False
    return result


# ---------------------------------------------------------------------------
# estimate assembly


def _wilson(successes: int, used: int) -> tuple[float, float, tuple[float, float]]:
    """Point, stderr and Wilson 95% interval of ``successes`` in ``used``."""
    p = successes / used
    z2 = Z95 * Z95
    denom = 1.0 + z2 / used
    center = (p + z2 / (2.0 * used)) / denom
    half = Z95 * math.sqrt(p * (1.0 - p) / used + z2 / (4.0 * used * used)) / denom
    stderr = math.sqrt(p * (1.0 - p) / used)
    # clamp against 1-ulp excursions at p in {0, 1}
    lo = min(max(0.0, center - half), p)
    hi = max(min(1.0, center + half), p)
    return p, stderr, (lo, hi)


def _usable(n_failed: int, plan: TrialPlan) -> int:
    """Trials used when ``n_failed`` failed; refuses above the 1% limit."""
    used = plan.trials - n_failed
    if used == 0 or n_failed > MAX_FAILED_FRACTION * plan.trials:
        raise ReliabilityError(
            f"{n_failed}/{plan.trials} trials failed numerically (limit 1%)"
        )
    return used


def _frequency_estimate(hits: int, n_failed: int, plan: TrialPlan) -> Estimate:
    used = _usable(n_failed, plan)
    return Estimate(*_wilson(hits, used), used, n_failed)


def _probability_estimate(kept: np.ndarray, n_failed: int, plan: TrialPlan) -> Estimate:
    """Mean of the conditional probabilities ``kept`` of the trials that did
    not fail, with a normal interval in [0, 1].

    The spread is taken relative to the largest value so that squares of
    probabilities far below 1e-154 do not underflow."""
    used = _usable(n_failed, plan)
    point = float(kept.mean())
    scale = float(kept.max())
    if used > 1 and scale > 0.0:
        stderr = scale * math.sqrt(float((kept / scale).var(ddof=1)) / used)
    else:
        stderr = 0.0
    lo = min(max(0.0, point - Z95 * stderr), point)
    hi = max(min(1.0, point + Z95 * stderr), point)
    return Estimate(point, stderr, (lo, hi), used, n_failed)


def _gamma_tails(k: int, log_x: np.ndarray):
    """Regularized incomplete-gamma tails ``(P_k(x), Q_k(x))`` at ``x = exp(log_x)``
    for integer shape ``k >= 1``: the CDF and survival function of
    ``Gamma(k, 1)``, i.e. of ``sum_j |alpha_j|^2`` over ``k`` coefficients.

    Each side is summed in log space where it is the smaller one: below
    ``x = k`` the lower tail by its series
    ``P = e^-x x^k / k! * sum_i x^i k! / (k+i)!``, from ``x = k`` on the upper
    tail by its finite sum ``Q = e^-x sum_{j<k} x^j / j!``; the other side
    is the complement.  Tails are thus resolved down to the smallest
    double rather than lost to ``1 - (1 - p)``.
    """
    # clipping changes no result: below e^-750 P_k(x) <= x underflows to 0,
    # above e^700 so does Q_k(x)
    log_x = np.clip(np.asarray(log_x, dtype=float), -750.0, 700.0)
    x = np.exp(log_x)
    lower = x < k
    log_p = np.empty_like(log_x)
    log_q = np.empty_like(log_x)

    if lower.any():
        lx = log_x[lower]
        # series terms are largest at x = k; keep those above e^-40 there
        log_ratio = [0.0]
        while log_ratio[-1] > -40.0:
            i = len(log_ratio)
            log_ratio.append(log_ratio[-1] + math.log(k) - math.log(k + i))
        i = np.arange(len(log_ratio), dtype=float)
        log_fall = np.array([math.lgamma(k + 1 + j) for j in range(len(i))])
        log_fall -= math.lgamma(k + 1)
        terms = i[None, :] * lx[:, None] - log_fall[None, :]
        log_p[lower] = (-x[lower] + k * lx - math.lgamma(k + 1)
                        + _logsumexp_rows(terms))
        log_q[lower] = np.log1p(-np.exp(log_p[lower]))
    upper = ~lower
    if upper.any():
        lx = log_x[upper]
        j = np.arange(k, dtype=float)
        log_fact = np.array([math.lgamma(m + 1) for m in range(k)])
        terms = j[None, :] * lx[:, None] - log_fact[None, :]
        log_q[upper] = -x[upper] + _logsumexp_rows(terms)
        log_p[upper] = np.log(-np.expm1(log_q[upper]))
    return np.exp(log_p), np.exp(log_q)


def _logsumexp_rows(a: np.ndarray) -> np.ndarray:
    top = a.max(axis=1)
    return top + np.log(np.exp(a - top[:, None]).sum(axis=1))


# ---------------------------------------------------------------------------
# estimators


def expected_zero_count(degree: int, radius: float) -> float:
    """Mean number of zeros in B(0, r): N r^2 / (1 + r^2)."""
    degree = _check_int(degree, "degree")
    if not radius > 0:
        raise ValueError("radius must be positive")
    if radius > 1e150:  # r^2 would overflow
        return degree / (1.0 + (1.0 / radius) ** 2)
    return degree * radius * radius / (1.0 + radius * radius)


def zero_count_samples(plan: TrialPlan):
    """Per-trial zero counts in B(0, r), ``(counts, failed)`` aligned with
    trial index: the per-trial view of the trials whose law the count
    estimators read (Schur-Cohn where it certifies, winding elsewhere;
    a sampled trial is recounted by winding if Schur-Cohn counted it, by
    roots if winding did)."""
    counts, failed, _ = _run_blocked(plan, _block_counts)
    return counts, failed


def estimate_zero_count_mean(plan: TrialPlan, law=None) -> Estimate:
    """Mean zero count in B(0, r), from sum k h_k and sum k^2 h_k of the law.
    ``law`` is the plan's entry of ``_count_laws`` where the caller has it
    already; by default the plan is drawn and counted alone."""
    hist, n_failed, _ = _count_laws([plan])[0] if law is None else law
    used = _usable(n_failed, plan)
    k = np.arange(len(hist))
    mean = float(k @ hist) / used
    if used > 1:
        var = (float(k * k @ hist) - used * mean * mean) / (used - 1)
        stderr = math.sqrt(max(var, 0.0) / used)
    else:
        stderr = 0.0
    return Estimate(mean, stderr, (mean - Z95 * stderr, mean + Z95 * stderr),
                    used, n_failed)


def estimate_deviation_probability(plan: TrialPlan, delta: float, law=None) -> Estimate:
    """Frequency of |Xi - N r^2/(1+r^2)| >= delta * N, for delta > 0, from
    the count law (``law`` as for ``estimate_zero_count_mean``)."""
    if not delta > 0:
        raise ValueError("delta must be positive")
    hist, n_failed, _ = _count_laws([plan])[0] if law is None else law
    mu = expected_zero_count(plan.degree, plan.radius)
    event = np.abs(np.arange(len(hist)) - mu) >= delta * plan.degree
    return _frequency_estimate(int(hist[event].sum()), n_failed, plan)


def estimate_hole_probability(plan: TrialPlan, law=None) -> Estimate:
    """Frequency of zero-free B(0, r): the k = 0 entry of the count law
    (``law`` as for ``estimate_zero_count_mean``)."""
    hist, n_failed, _ = _count_laws([plan])[0] if law is None else law
    return _frequency_estimate(int(hist[0]), n_failed, plan)


def _max_modulus_band(plan: TrialPlan, delta: float) -> tuple[float, float]:
    """log-space band (lo, hi) for the boundary maximum; lo = -inf at delta = 1."""
    if not 0 < delta <= 1:
        raise ValueError("delta must lie in (0, 1]")
    n, r = plan.degree, plan.radius
    band = _log_normalization(n, r)
    lo = -math.inf if delta == 1 else band + (n / 2.0) * math.log1p(-delta)
    hi = band + (n / 2.0) * math.log1p(delta)
    return lo, hi


def _circle_tail_threshold(plan: TrialPlan, delta: float) -> float:
    """The lower edge of ``_max_modulus_band``, for delta in (0, 1)."""
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    return _max_modulus_band(plan, delta)[0]


def max_modulus_outlier_frequency(plan: TrialPlan, delta: float, log_max=None) -> Estimate:
    """Frequency of the boundary maximum leaving the two-sided band

        [(1+r^2)^(N/2) (1-delta)^(N/2), (1+r^2)^(N/2) (1+delta)^(N/2)],

    compared in log space (delta = 1 disables the lower side).

    ``log_max`` is the plan's boundary maxima, the first column of
    ``_block_log_max``, where the caller has them already.  By default a
    trial is decided from its grid scan (``_batch_boundary_scan``): the
    maximum S over the M = ``_circle_nodes(N + 1)`` nodes and the bound
    gamma = -(1/2) log(1 - (pi N / M)^2 / 2), 0.0153 at N = 10 and 40,
    with S <= log max |psi| <= S + gamma.  |psi_hat|^2 is a real
    trigonometric polynomial of degree N, so Bernstein's inequality bounds
    its second derivative by N^2 max |psi_hat|^2; its derivative vanishes
    at the maximum, and a node lies within pi/M of it.  Each side is
    widened by ``zeros._SCAN_SLACK`` times (N + 1)^1.5 + |S|, which covers
    the log scale's sum, the scan's squares against the kernel's moduli and
    the kernel's Horner error (about 2N sqrt(N + 1) eps relative, since
    sum |b_k| <= sqrt(N + 1) max |psi_hat|).  A trial is an outlier when
    S > hi or S + gamma < lo and inside the band when lo <= S and
    S + gamma <= hi; only the rest, about 1.4 % at N = 10 and 0.6 % at
    N = 40 for delta = 0.05, run the boundary-maximum kernel, whose rows
    are independent.  Both ways count the same trials.
    """
    lo, hi = _max_modulus_band(plan, delta)
    if log_max is None:
        block = functools.partial(_block_max_modulus_outliers, lo=lo, hi=hi)
        outlier, = _run_blocked(plan, block)
    else:
        outlier = (log_max < lo) | (log_max > hi)
    return _frequency_estimate(int(outlier.sum()), 0, plan)


def max_modulus_outlier_probability(plan: TrialPlan, delta: float) -> Estimate:
    """Conditional Monte Carlo estimate of the probability that
    ``max_modulus_outlier_frequency`` counts.

    With ``m = log max - log R`` fixed by the trial's direction, the
    maximum leaves the band exactly when ``R^2 < exp(2(lo - m))`` or
    ``R^2 > exp(2(hi - m))``, so the trial contributes
    ``P_{N+1}(exp(2(lo - m))) + Q_{N+1}(exp(2(hi - m)))``."""
    lo, hi = _max_modulus_band(plan, delta)
    log_max, log_r = _plan_samples(plan, _block_log_max)
    m = log_max - log_r
    k = plan.degree + 1
    _, probs = _gamma_tails(k, 2.0 * (hi - m))
    if delta < 1:
        probs = probs + _gamma_tails(k, 2.0 * (lo - m))[0]
    return _probability_estimate(probs, 0, plan)


def _log_l1_threshold(plan: TrialPlan) -> float:
    n, r = plan.degree, plan.radius
    return 5.0 * n * math.log(2.0) + 10.0 * _log_normalization(n, r)


def log_l1_outlier_frequency(plan: TrialPlan) -> Estimate:
    """Frequency of circle-mean |log|psi|| exceeding 5 N log(2(1+r^2)), as
    ``_block_circle_means`` decides it per trial."""
    _, _, hit, failed, _ = _plan_samples(plan, _block_circle_means)
    return _frequency_estimate(int(hit[~failed].sum()), int(failed.sum()), plan)


def circle_average_lower_tail_frequency(plan: TrialPlan, delta: float) -> Estimate:
    """Frequency of circle-mean log|psi| below (N/2) log((1+r^2)(1-delta))."""
    threshold = _circle_tail_threshold(plan, delta)
    mean_log, *_, failed = _plan_samples(plan, _block_circle_means)
    hits = int((mean_log < threshold)[~failed].sum())
    return _frequency_estimate(hits, int(failed.sum()), plan)


def circle_average_lower_tail_probability(plan: TrialPlan, delta: float) -> Estimate:
    """Conditional Monte Carlo estimate of the probability that
    ``circle_average_lower_tail_frequency`` counts.

    The circle mean is ``log R + m`` with ``m`` fixed by the trial's
    direction, so it falls below the threshold ``t`` exactly when
    ``R^2 < exp(2(t - m))``: the trial contributes ``P_{N+1}`` there."""
    threshold = _circle_tail_threshold(plan, delta)
    mean_log, log_r, *_, failed = _plan_samples(plan, _block_circle_means)
    probs, _ = _gamma_tails(plan.degree + 1, 2.0 * (threshold - (mean_log - log_r)))
    return _probability_estimate(probs[~failed], int(failed.sum()), plan)


def _log1mexp(t: float) -> float:
    """log(1 - exp(-t)) for t > 0, stable across the whole range."""
    if t > math.log(2.0):
        return math.log1p(-math.exp(-t))
    return math.log(-math.expm1(-t))


def omega_lower_bound(degree: int, radius: float) -> float:
    """Exact log-probability of the explicit hole-forcing coefficient event

        |alpha_0| >= N   and   |alpha_j| < C(N,j)^(-1/2) r^(-j)  (j >= 1),

    which by the triangle inequality leaves psi zero-free on B(0, r).
    Uses the exact tails P(|alpha| >= lam) = exp(-lam^2)."""
    n = _check_int(degree, "degree", 1)
    if not radius > 0:
        raise ValueError("radius must be positive")
    log_r = math.log(radius)
    terms = [-float(n * n)]
    for j in range(1, n + 1):
        log_t = -(log_binomial(n, j) + 2.0 * j * log_r)  # log lambda_j^2
        if log_t < -36.8:
            # 1 - exp(-t) = t (1 - t/2 + ...) with t below 1e-16
            terms.append(log_t)
        elif log_t > 36.8:
            # exp(-t) underflows: the factor is exactly 1 in doubles
            terms.append(0.0)
        else:
            terms.append(_log1mexp(math.exp(log_t)))
    return math.fsum(terms)


def fit_decay_exponent(points) -> DecayFit:
    """Least squares of log-probability against N^2; c_hat is -slope."""
    pts = [(float(n), float(lp)) for n, lp in points]
    _check_finite(pts, "points")
    if len(pts) < 3:
        raise ValueError("need at least 3 points to fit")
    ns = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    if np.unique(ns).size < 2:
        raise ValueError("degenerate design: all degrees equal")
    x = ns * ns
    slope, intercept = np.polyfit(x, ys, 1)
    resid = ys - (slope * x + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res < 1e-24 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return DecayFit(float(-slope), float(intercept), float(r2), tuple(pts))
