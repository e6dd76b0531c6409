"""One set-up sample: a fresh interpreter imports su2lab and runs the
workload's first, untimed op (FFT plans, first pool fork).  The client
times this process from start to exit.

    python3 perfbench/setup_probe.py --workload hole-scan --seed 7 --workers 2
"""

from __future__ import annotations

import argparse
import sys
import traceback

import env

PROBE_OP_FAILED = 3  # the exit code run.py reads as "the op raised"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workers", type=int, required=True)
    args = ap.parse_args()
    env.import_su2lab()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    try:
        workload.op(workload.seed("setup"), args.workers)
    except Exception:  # the op raised: still a set-up sample, reported apart
        traceback.print_exc()
        return PROBE_OP_FAILED
    return 0


if __name__ == "__main__":
    sys.exit(main())
