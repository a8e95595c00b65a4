"""Wall times scaled to a nominal machine speed.

The shared two-core machine this benchmark was defined on changes speed by
up to 40 percent from one second to the next, so raw wall times of the
same code spread by 15 to 40 percent (IQR over median) from run to run.
Every timed interval is therefore also measured against a reference
kernel: a fixed pure-Python loop, the benchmark's own code, timed between
jobs at least every SAMPLE_EVERY seconds. An interval is scaled by
NOMINAL_KERNEL_S over the mean kernel time just before and just after it.
Scaled times of the same code spread by about 3 to 13 percent there. Raw
times are kept beside them in the run record.
"""

from __future__ import annotations

import bisect
import time

SAMPLE_EVERY = 0.25
#: The kernel's duration on the defining machine (a 2.0 GHz Xeon vCPU) at
#: its usual speed; scaled times read as seconds on that machine.
NOMINAL_KERNEL_S = 0.003


def kernel_seconds() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(40_000):
        total += i * i
    return time.perf_counter() - start


class SpeedProbe:
    """Kernel samples over a run, and the scale factor of any interval."""

    def __init__(self):
        self.ends: list[float] = []  # perf_counter when each sample finished
        self.kernel: list[float] = []
        self.sample()

    def sample(self) -> None:
        self.kernel.append(kernel_seconds())
        self.ends.append(time.perf_counter())

    def sample_if_due(self) -> None:
        if time.perf_counter() - self.ends[-1] >= SAMPLE_EVERY:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """Factor for the interval [start, end]; a sample must follow it."""
        before = bisect.bisect_right(self.ends, start) - 1
        after = bisect.bisect_left(self.ends, end)
        return NOMINAL_KERNEL_S / ((self.kernel[before] + self.kernel[after]) / 2)

    def scaled(self, start: float, end: float) -> float:
        return (end - start) * self.scale(start, end)
