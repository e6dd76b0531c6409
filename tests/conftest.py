import io
import multiprocessing
import sys

import numpy as np
import pytest


@pytest.fixture(scope="session", autouse=True)
def no_leaked_workers():
    """After the session, shut the shared worker pool down and fail if any
    child process is still running."""
    yield
    from su2lab import montecarlo

    montecarlo._close_pool()
    leaked = multiprocessing.active_children()
    assert not leaked, f"child processes still running: {leaked}"


def run_cli(argv):
    """Invoke the CLI in-process; returns (exit_code, stdout_bytes)."""
    from su2lab import cli

    buf = io.BytesIO()

    class _Wrapper:
        buffer = buf

        @staticmethod
        def write(text):
            buf.write(text.encode("utf-8"))

        @staticmethod
        def flush():
            pass

    old = sys.stdout
    sys.stdout = _Wrapper()
    try:
        code = cli.main(argv)
    finally:
        sys.stdout = old
    return code, buf.getvalue()


def match_max_distance(a, b) -> float:
    """Greedy nearest-neighbor matching distance between two point sets.

    Robust against the lexicographic-sort instabilities of conjugate
    pairs; adequate for well-separated root sets.
    """
    a = list(np.asarray(a, dtype=complex))
    b = list(np.asarray(b, dtype=complex))
    assert len(a) == len(b)
    worst = 0.0
    for z in a:
        dists = [abs(z - w) for w in b]
        k = int(np.argmin(dists))
        worst = max(worst, dists[k])
        b.pop(k)
    return worst
