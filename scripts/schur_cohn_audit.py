"""Audit the Schur-Cohn counts that Monte Carlo trusts against Aberth roots.

    python3 scripts/schur_cohn_audit.py [ROWS]     # ROWS defaults to 2048

A Monte Carlo count block recounts a sampled Schur-Cohn count by winding
alone, so the root oracle no longer sees those rows at run time; this
audit runs it on them at scale.  For each degree N in {4, 8, 12, 16, 24,
32} and radius r in {0.5, 1, 2} the rows are the first ROWS trials of
``TrialPlan(N, r, ROWS, SEED + i)``, i the index of r, sampled block by
block with ``_sample_block``.  ``_batch_schur_cohn`` counts them at the
estimators' boundary margin, as ``_block_counts`` does, and
``_root_counts`` (Aberth with its residual test) recounts every row it
certified.  One line per setting gives:

- the rows, and how many Schur-Cohn certified;
- how many of those Aberth left untrusted (unconverged or over the
  residual tolerance), which are left out of the comparison;
- how many trusted Aberth counts differ from the certified count.

A last line per degree sums the certified rows and mismatches over the
radii.  The exit status is 1 if any count mismatched.  The package is
imported from this checkout's ``src/``.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from su2lab import zeros  # noqa: E402
from su2lab import montecarlo as mc  # noqa: E402

DEGREES = (4, 8, 12, 16, 24, 32)
RADII = (0.5, 1.0, 2.0)
SEED = 33
ROWS = 2048


def audit(plan: mc.TrialPlan):
    """``(certified, untrusted, mismatched)`` row totals over the plan."""
    certified = untrusted = mismatched = 0
    for start in range(0, plan.trials, mc.BLOCK_TRIALS):
        stop = min(start + mc.BLOCK_TRIALS, plan.trials)
        alpha = mc._sample_block(plan, start, stop)
        b, _ = zeros._circle_fourier_coeffs(alpha, plan.degree, plan.radius)
        counts, ok = zeros._batch_schur_cohn(b, plan.radius, mc.TOLERANCES.boundary_margin)
        certified += int(ok.sum())
        if not ok.any():
            continue
        rcounts, trusted = mc._root_counts(alpha[ok], plan)
        untrusted += int((~trusted).sum())
        mismatched += int((trusted & (rcounts != counts[ok])).sum())
    return certified, untrusted, mismatched


def main(argv: list[str]) -> int:
    rows = int(argv[0]) if argv else ROWS
    print(f"First {rows} trials of TrialPlan(N, r, {rows}, {SEED} + i): Schur-Cohn counts "
          "recounted by Aberth roots:\n")
    print("|  N |   r |    rows | certified | Aberth untrusted | mismatched |")
    print("|----|-----|---------|-----------|------------------|------------|")
    bad = 0
    for n in DEGREES:
        total = [0, 0, 0]
        for i, r in enumerate(RADII):
            got = audit(mc.TrialPlan(n, r, rows, SEED + i))
            total = [t + g for t, g in zip(total, got)]
            print(f"| {n:2} | {r:3g} | {rows:7,} | {got[0]:9,} | {got[1]:16,} | {got[2]:10,} |")
        bad += total[2]
        print(f"| {n:2} | all | {len(RADII) * rows:7,} | {total[0]:9,} | {total[1]:16,} | "
              f"{total[2]:10,} |")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
