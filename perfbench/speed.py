"""In-band machine-speed probe: times on a shared machine, made steady.

The 2-core VM this benchmark was built on changes speed by up to 2x within
seconds (its host is shared), so a wall time says as much about the
neighbours as about segdrift. While a block runs, `SpeedProbe.sampling()`
interrupts it every INTERVAL_S of wall time (SIGALRM) to time one fixed
yardstick slice. The slices sample the machine's speed all through the
block, so the block's own time (its wall time minus the slices) rescaled to
the speed at which a slice takes REFERENCE_SLICE_S is steady where its wall
time is not: over ten 25 s runs of each workload the quartile spread of the
median cell wall time was 0.15-0.35, that of the rescaled time 0.04-0.06.

The slice is benchmark code, not segdrift code, so no change to segdrift
can move it; it is pure Python (float arithmetic and dict stores, like
segdrift's per-observation loops), so it can run during `import numpy`.
"""

from __future__ import annotations

import math
import signal
import statistics
from contextlib import contextmanager
from time import perf_counter

INTERVAL_S = 0.05  # wall time between slices
SLICE_LOOPS = 4000  # one slice: about 1.3 ms here, so the probe costs about 3 %
REFERENCE_SLICE_S = 1e-3  # a slice's time at the reference speed


def at_reference_speed(own_s: float, mean_slice_s: float) -> float:
    return own_s * REFERENCE_SLICE_S / mean_slice_s


class SpeedProbe:
    def __init__(self):
        self.samples: list[float] = []

    def _slice(self, signum=None, frame=None) -> None:
        start = perf_counter()
        table, acc = {}, 0.0
        for i in range(SLICE_LOOPS):
            acc += math.sqrt(((i * 7) & 63) + acc % 7.0)
            table[i & 255] = acc
        self.samples.append(perf_counter() - start)

    @contextmanager
    def sampling(self):
        """Sample slices while the block runs; `samples` holds their times."""
        self.samples = []
        previous = signal.signal(signal.SIGALRM, self._slice)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def summary(self) -> tuple[float, float]:
        """(total, mean) slice time of the last `sampling()` block. A block
        too short to be interrupted gets one slice timed right after it."""
        total = sum(self.samples)
        if not self.samples:
            self._slice()
        return total, statistics.fmean(self.samples)
