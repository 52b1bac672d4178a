"""A fixed reference task that tracks how fast the CPU runs Python right now.

On a shared host the same work can take up to twice as long for stretches
of seconds to minutes while neighbours are busy, which no run length that
fits the benchmark's budget averages out.  The run times this task every
EVERY_S between operations and scales each measured interval by
NOMINAL_S / (the task's median time within WINDOW_S of it).  On a steady
machine where the task takes NOMINAL_S, adjusted times equal wall times.

The task is a plain integer loop.  Over seven minutes of interleaved runs on
the baseline host, the log of each workload's time against the log of this
task's time had slope 0.89 to 1.01, so the scaling cancels the host's speed;
small Fraction-and-dict tasks slowed about 1.5 times more than the
workloads (slope 0.6 to 0.7) and were not used.  The task never changes,
so a faster or slower library shows up unchanged in the adjusted times.
"""

from __future__ import annotations

from bisect import bisect_left
from statistics import median
from time import perf_counter

NOMINAL_S = 0.00115  # the task's time at full speed on the baseline machine
EVERY_S = 0.05
WINDOW_S = 1.0
MIN_SAMPLES = 3


def reference_task() -> int:
    total = 0
    for i in range(20000):
        total += i * i
    return total


class SpeedTrack:
    """Timestamps and durations of reference-task runs over one measurement."""

    def __init__(self):
        reference_task()  # first call is not representative
        self.times: list[float] = []
        self.durations: list[float] = []

    def sample(self) -> None:
        start = perf_counter()
        reference_task()
        end = perf_counter()
        self.times.append((start + end) / 2)
        self.durations.append(end - start)

    def maybe_sample(self) -> None:
        if not self.times or perf_counter() - self.times[-1] >= EVERY_S:
            self.sample()

    def factor(self, at: float) -> float:
        """NOMINAL_S over the task's median time near `at` (at least MIN_SAMPLES runs)."""
        lo = bisect_left(self.times, at - WINDOW_S)
        hi = bisect_left(self.times, at + WINDOW_S)
        if hi - lo < MIN_SAMPLES:
            mid = bisect_left(self.times, at)
            lo = max(0, min(mid - MIN_SAMPLES // 2, len(self.times) - MIN_SAMPLES))
            hi = lo + MIN_SAMPLES
        return NOMINAL_S / median(self.durations[lo:hi])
