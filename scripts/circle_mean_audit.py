"""Audit the Monte Carlo circle means against Jensen's formula.

    python3 scripts/circle_mean_audit.py

For each degree N in {10, 40} and seed s in {41, 42, 43} the block is the
first 4096 trials of ``TrialPlan(N, 1, 4096, s)``.  Its circle means come
from ``_block_circle_means``, the call every circle-mean estimator reads,
at the estimators' quadrature target.  The reference value of each row is
Jensen's formula on its Aberth roots,

    mean log|psi| = log|alpha_0| + sum_{|a| < r} log(r / |a|),

on rows whose roots converged.  One line per block gives:

- nodes per row: the samples whose log the kernel took (counted through
  ``zeros._log_abs``), divided by the rows;
- the rows the kernel failed (node cap) and the rows whose roots did not
  converge (left out of the comparison);
- the worst |mean - Jensen| over the rows reported converged;
- the number of those rows off by more than 1e-6.

The exit status is 1 if any converged row is off by more than 1e-6.  The
package is imported from this checkout's ``src/``.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from su2lab import model, zeros  # noqa: E402
from su2lab import montecarlo as mc  # noqa: E402

DEGREES = (10, 40)
SEEDS = (41, 42, 43)
BLOCK = 4096
RADIUS = 1.0
LIMIT = 1e-6


def jensen(alpha: np.ndarray, n: int, r: float):
    """Per-row Jensen value of the circle mean of log|psi| from Aberth
    roots, and the mask of rows whose roots converged."""
    roots, conv = zeros._aberth_batch(alpha * model._weights(n))
    inside = np.log(r / np.minimum(np.abs(roots), r)).sum(axis=1)
    return np.log(np.abs(alpha[:, 0])) + inside, conv


def audit(n: int, seed: int):
    """``(nodes per row, failed rows, unconverged rows, worst error, rows
    off by more than LIMIT)`` for the plan's first block."""
    plan = mc.TrialPlan(n, RADIUS, BLOCK, seed)
    samples = []
    log_abs = zeros._log_abs

    def counted(v):
        samples.append(v.size)
        return log_abs(v)

    zeros._log_abs = counted
    try:
        out = mc._block_circle_means(plan, 0, BLOCK)
    finally:
        zeros._log_abs = log_abs
    mean_log, failed = out[0], out[-1]
    want, conv = jensen(mc._sample_block(plan, 0, BLOCK), n, RADIUS)
    err = np.abs(mean_log - want)[~failed & conv]
    return (sum(samples) / BLOCK, int(failed.sum()), int((~conv).sum()),
            float(err.max(initial=0.0)), int((err > LIMIT).sum()))


def main() -> int:
    print(f"First {BLOCK}-row block of TrialPlan(N, {RADIUS:g}, {BLOCK}, s), circle means at "
          f"target {mc.TOLERANCES.quadrature_target:g} against Jensen on Aberth roots:\n")
    print("|  N | seed | nodes per row | failed | roots unconverged | worst error | "
          f"off by > {LIMIT:g} |")
    print("|----|------|---------------|--------|-------------------|-------------|"
          "---------------|")
    bad = 0
    for n in DEGREES:
        for seed in SEEDS:
            nodes, failed, unconverged, worst, off = audit(n, seed)
            bad += off
            print(f"| {n:2} | {seed:4} | {nodes:13,.0f} | {failed:6} | {unconverged:17} | "
                  f"{worst:11.2e} | {off:13} |")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
