"""Process environment for the benchmark client and its set-up probes.

Import this module before numpy: it pins the BLAS/OpenMP thread pools to
one thread, so that ``--workers`` is the only parallelism, and puts the
checkout's ``src/`` first on ``sys.path``, so that the package measured is
the one built from this checkout and never an installed copy.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"


class MissingProgram(RuntimeError):
    """The checkout holds no su2lab sources to measure."""


def import_su2lab():
    """Import ``su2lab`` from this checkout's ``src/`` and return it."""
    if not (SRC / "su2lab" / "__init__.py").is_file():
        raise MissingProgram(f"no su2lab package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import su2lab

    where = Path(su2lab.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise MissingProgram(f"su2lab was imported from {where}, not from {SRC}")
    return su2lab


def nproc() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1
