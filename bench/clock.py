"""Wall time rescaled by the machine's measured speed.

On a shared machine the speed of one core changes by up to a factor of two
within seconds, as neighbours come and go, so raw wall times of the same
work spread by 15-20% between runs.  ``SpeedClock`` samples the speed while
the work runs: an interval timer interrupts the work every ``PERIOD``
seconds and times a fixed kernel.  Each stretch of work between two
samples is then rescaled by the kernel's reference time over the local
kernel time (the median of the nearest samples), which gives the seconds
the work would take at the reference speed.  Kernel time itself is left
out.  The handler runs in the main thread between bytecodes; it starts no
thread and touches no state of the program.

Two kernels exist because neighbours slow different kinds of work by
different amounts.  ``scalar`` (method calls and numpy scalar reads, like
a table-served value query) tracks interpreted Python; ``dense`` (rank-one
updates of a 128 x 512 block, like a simplex pivot) tracks dense numpy
row operations.  On repeated calls, the scalar kernel left a spread of
0.06 on ``classify_second_order`` but 0.12-0.15 on ``simplex_solve``; the
dense kernel left 0.05-0.06 on ``simplex_solve`` but 0.14 on
``classify_second_order``.
"""
from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

PERIOD = 0.025
SCALAR_ITERATIONS = 600
DENSE_UPDATES = 4
# kernel times in the fast state of a 2-vCPU Xeon VM
REFERENCE_KERNEL_S = {"scalar": 2.0e-4, "dense": 4.0e-4}
WINDOW = 2                    # samples each side in the local median


class _Kernel:
    def __init__(self, kind: str):
        import numpy as np
        self.kind = kind
        self.values = np.arange(4096, dtype=float)
        self.block, self.update = np.ones((128, 512)), np.ones((128, 512))
        self.col, self.row = np.ones(128), np.ones(512)
        self.outer, self.subtract = np.outer, np.subtract

    def value(self, mask: int) -> float:
        return float(self.values[mask])

    def __call__(self) -> None:
        if self.kind == "dense":   # allocates nothing the program sees
            for _ in range(DENSE_UPDATES):
                self.outer(self.col, self.row, out=self.update)
                self.subtract(self.block, self.update, out=self.block)
            return
        acc, mask = 0.0, 0
        for _ in range(SCALAR_ITERATIONS):
            mask = (mask * 5 + 1) & 4095
            acc += self.value(mask) - self.value(mask >> 1)


class SpeedClock:
    """Samples kernel time during ``start`` .. ``stop``; ``seconds(a, b)``
    gives the rescaled work time between two ``perf_counter`` readings.
    Work before the first sample is rescaled by the speed at that sample."""

    def __init__(self, kind: str = "scalar"):
        self.kind = kind
        self.ends: list[float] = []    # perf_counter at each kernel's end
        self.costs: list[float] = []   # each kernel's duration
        self._previous = None
        self._kernel = None

    def _sample(self, signum, frame):
        start = perf_counter()
        self._kernel()
        end = perf_counter()
        self.ends.append(end)
        self.costs.append(end - start)

    def start(self):
        self._kernel = _Kernel(self.kind)
        for _ in range(2 * WINDOW + 1):   # the speed for work before start
            self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample(None, None)

    def _local_cost(self, index: int) -> float:
        lo = max(0, index - WINDOW)
        return statistics.median(self.costs[lo:index + WINDOW + 1])

    def seconds(self, a: float, b: float) -> float:
        """Work time between a and b at the reference speed."""
        first = bisect.bisect_right(self.ends, a)
        last = bisect.bisect_right(self.ends, b)
        total, edge = 0.0, a
        for i in range(first, last):
            work = self.ends[i] - self.costs[i] - edge
            total += max(work, 0.0) / self._local_cost(i)
            edge = self.ends[i]
        nearest = min(last, len(self.ends) - 1)
        total += (b - edge) / self._local_cost(nearest)
        return total * REFERENCE_KERNEL_S[self.kind]
