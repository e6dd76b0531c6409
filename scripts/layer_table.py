"""Print the per-block layer table: the time of each kernel on one block.

    python3 scripts/layer_table.py

For each degree N in {4, 12, 16, 50} the block is the 4096 trials of
``TrialPlan(N, 1, 4096, 7)``, sampled once by ``_sample_block``.  Each
layer is timed on it three times and the best wall is printed, in ms, as
a Markdown table:

- sampling: ``_sample_block``;
- Fourier rows: ``_circle_fourier_coeffs``, the rows and log scale that
  the four circle kernels below read, built once for the block and not
  counted in their times;
- Schur-Cohn: ``_batch_schur_cohn`` (a dash above its degree cap);
- winding: ``_batch_winding`` on every row;
- Aberth, all rows: ``_aberth_batch`` on every row's monomial coefficients;
- Aberth cross-check: ``_root_counts`` (Aberth and residuals) on every
  ``CROSS_CHECK_EVERY``-th row, the rows a count block recounts;
- circle means: ``_batch_circle_log_means`` at target 1e-6 with the log
  sums only, the call ``_block_circle_means`` makes;
- circle means with |log|: the same kernel with its |log| sums on, which
  ``log_l1_outlier_frequency`` runs only on the trials its bounds leave
  undecided;
- boundary max: ``_batch_boundary_log_max``.

The package is imported from this checkout's ``src/``, with the BLAS and
OpenMP thread pools pinned to one thread.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from su2lab import model, zeros  # noqa: E402
from su2lab import montecarlo as mc  # noqa: E402

DEGREES = (4, 12, 16, 50)
BLOCK = 4096
RADIUS = 1.0
SEED = 7
REPEAT = 3


def layers(plan: mc.TrialPlan):
    """``(name, call)`` per layer on the plan's first block; ``call`` is
    None where the layer does not run at this degree."""
    n = plan.degree
    alpha = mc._sample_block(plan, 0, BLOCK)
    b, log_scale = zeros._circle_fourier_coeffs(alpha, n, RADIUS)
    w = alpha * model._weights(n)
    check = alpha[:: mc.CROSS_CHECK_EVERY]
    return [
        ("sampling", lambda: mc._sample_block(plan, 0, BLOCK)),
        ("Fourier rows", lambda: zeros._circle_fourier_coeffs(alpha, n, RADIUS)),
        ("Schur-Cohn", (lambda: zeros._batch_schur_cohn(b, RADIUS))
         if n <= zeros.SCHUR_COHN_MAX_DEGREE else None),
        ("winding", lambda: zeros._batch_winding(b, RADIUS)),
        ("Aberth, all rows", lambda: zeros._aberth_batch(w)),
        (f"Aberth cross-check ({len(check)} rows)", lambda: mc._root_counts(check, plan)),
        ("circle means (target 1e-6)",
         lambda: zeros._batch_circle_log_means(b, log_scale, 1e-6, absolute=False)),
        ("circle means with abs log",
         lambda: zeros._batch_circle_log_means(b, log_scale, 1e-6)),
        ("boundary max", lambda: zeros._batch_boundary_log_max(b, log_scale)),
    ]


def best_ms(call) -> float:
    walls = []
    for _ in range(REPEAT):
        t0 = time.perf_counter()
        call()
        walls.append(time.perf_counter() - t0)
    return 1e3 * min(walls)


def fmt(ms: float | None) -> str:
    if ms is None:
        return "—"
    return f"{ms:.1f}" if ms < 10 else f"{ms:,.0f}"


def main() -> None:
    columns = []
    for n in DEGREES:
        rows = layers(mc.TrialPlan(n, RADIUS, BLOCK, SEED))
        columns.append([(name, None if call is None else best_ms(call)) for name, call in rows])
    names = [name for name, _ in columns[0]]
    width = max(len(name) for name in names)
    print(f"Per {BLOCK}-row block of TrialPlan(N, {RADIUS:g}, {BLOCK}, {SEED}), "
          f"in ms, best of {REPEAT}:\n")
    print(f"| {'Layer':{width}} | " + " | ".join(f"N = {n:<3}" for n in DEGREES) + " |")
    print(f"|{'-' * (width + 2)}|" + "|".join("-" * 9 for _ in DEGREES) + "|")
    for i, name in enumerate(names):
        print(f"| {name:{width}} | " + " | ".join(f"{fmt(col[i][1]):>7}" for col in columns)
              + " |")


if __name__ == "__main__":
    main()
