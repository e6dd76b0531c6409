"""Machine-speed gauge for shared, drifting hosts.

On a shared machine the same computation can run 1.5x slower for minutes
at a time, which moves whole runs and not single ops.  The client times a
fixed reference kernel, independent of su2lab, after every op, and rescales
the op's wall and CPU times to the speed at which the reference takes
``REF_SECONDS``:

    normalized = measured * REF_SECONDS / mean(reference walls near the op)

The slowdown flips on and off faster than an op lasts, with a duty cycle
that drifts over minutes, so single reference calls land in either state.
The mean over a few neighbouring calls estimates the share of time spent
slow, which is what stretches an op.  The reference mixes the three kinds
of work su2lab does: Python-level integer loops, FFTs and complex
elementwise arithmetic.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REF_SECONDS = 0.03  # about one reference call on the machine this was tuned on
WINDOW = 3  # reference walls on each side of an op that set its speed


class SpeedGauge:
    def __init__(self):
        self._block = np.exp(1j * 0.001 * np.arange(512 * 512).reshape(512, 512))
        self.reference()  # first call plans the FFT

    def reference(self) -> float:
        """Wall time of one call of the reference kernel."""
        start = time.perf_counter()
        x = 1
        for _ in range(45000):
            x = (x * 1103515245 + 12345) & ((1 << 61) - 1)
        for _ in range(6):
            np.fft.ifft(self._block, axis=1)
        float(np.abs(np.exp(self._block)).sum())
        return time.perf_counter() - start


def scales(refs: list[float]) -> list[float]:
    """Per reference wall: REF_SECONDS over the mean of the walls within
    WINDOW places of it."""
    return [REF_SECONDS / statistics.fmean(refs[max(0, i - WINDOW): i + WINDOW + 1])
            for i in range(len(refs))]
