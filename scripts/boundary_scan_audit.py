"""Audit the boundary-scan decisions of the max-modulus frequency against
the boundary-maximum kernel.

    python3 scripts/boundary_scan_audit.py [ROWS]     # ROWS defaults to 16384

Called alone, ``max_modulus_outlier_frequency`` decides most trials from
the bounds low <= K <= high that ``_batch_boundary_scan`` takes from the
grid alone, K the value of ``_batch_boundary_log_max`` (low = S - e and
high = S + gamma + e, S the grid maximum, gamma the grid's miss, e the
rounding slack), and runs the kernel only on the rest; this audit runs
the kernel on every row.  For each degree N in {0, 1, 2, 3, 4, 10, 40,
100, 200} and radius r in {0.5, 1, 2} the rows are the first ROWS trials
of ``TrialPlan(N, r, ROWS, SEED + i)``, i the index of r, sampled block
by block with ``_sample_block``.  One line per setting gives:

- the rows, and the share of them the scan leaves undecided at each delta
  in {0.01, 0.05, 0.2, 1};
- the largest (K - low) / (high - low) over the rows: how much of the
  bound the rows use (a dash at N = 0, where the grid misses nothing);
- the bound violations: rows with K outside [low, high];
- the flag mismatches: rows whose outlier flag from
  ``_max_modulus_outliers`` differs from the kernel's own
  ``(K < lo) | (K > hi)``, summed over the deltas.

The exit status is 1 on any violation or mismatch.  The package is
imported from this checkout's ``src/``.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from su2lab import zeros  # noqa: E402
from su2lab import montecarlo as mc  # noqa: E402

DEGREES = (0, 1, 2, 3, 4, 10, 40, 100, 200)
RADII = (0.5, 1.0, 2.0)
DELTAS = (0.01, 0.05, 0.2, 1.0)
SEED = 37
ROWS = 16384


def audit(plan: mc.TrialPlan):
    """``(undecided per delta, worst (K - low) / (high - low), violations,
    mismatches)`` over the plan's trials."""
    undecided = [0] * len(DELTAS)
    use = -np.inf
    violations = mismatches = 0
    bands = [mc._max_modulus_band(plan, delta) for delta in DELTAS]
    for start in range(0, plan.trials, mc.BLOCK_TRIALS):
        stop = min(start + mc.BLOCK_TRIALS, plan.trials)
        alpha = mc._sample_block(plan, start, stop)
        b, log_scale = zeros._circle_fourier_coeffs(alpha, plan.degree, plan.radius)
        log_max, _ = zeros._batch_boundary_log_max(b, log_scale)
        low, high = zeros._batch_boundary_scan(b, log_scale)
        if plan.degree:
            use = max(use, float(((log_max - low) / (high - low)).max()))
        violations += int((~((low <= log_max) & (log_max <= high))).sum())
        for k, (lo, hi) in enumerate(bands):
            outlier, und = mc._max_modulus_outliers(b, log_scale, lo, hi)
            undecided[k] += len(und)
            mismatches += int((outlier != ((log_max < lo) | (log_max > hi))).sum())
    return undecided, use, violations, mismatches


def main(argv: list[str]) -> int:
    rows = int(argv[0]) if argv else ROWS
    print(f"First {rows} trials of TrialPlan(N, r, {rows}, {SEED} + i): scan decisions "
          "against the boundary-maximum kernel on every row:\n")
    shares = " | ".join(f"undecided d={d:g}" for d in DELTAS)
    print(f"|   N |   r |    rows | {shares} | max (K-low)/(high-low) | violations | mismatched |")
    print("|-----|-----|---------|" + "|".join("-" * (len(f"undecided d={d:g}") + 2)
                                             for d in DELTAS)
          + "|------------------------|------------|------------|")
    bad = 0
    for n in DEGREES:
        for i, r in enumerate(RADII):
            undecided, use, violations, mismatches = audit(mc.TrialPlan(n, r, rows, SEED + i))
            bad += violations + mismatches
            cells = " | ".join(f"{100.0 * u / rows:{len(f'undecided d={d:g}') - 2}.2f} %"
                               for u, d in zip(undecided, DELTAS))
            worst = "—" if use == -np.inf else f"{use:.4f}"
            print(f"| {n:3} | {r:3g} | {rows:7,} | {cells} | {worst:>22} | {violations:10,} | "
                  f"{mismatches:10,} |")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
