"""Host-speed normalization of measured times.

A shared VM (2 vCPUs, Intel Xeon) was measured changing speed by up to 2x over
seconds to minutes, for whole stretches of a run. To keep
end-to-end times comparable between runs, the harness times a fixed kernel of
its own every ``PERIOD_S`` while a workload runs. It then scales each measured
interval by ``REFERENCE_S`` over the kernel's median time around that interval:
the samples within one interval length (at least ``WINDOW_MIN_S``) on either
side, so that long operations, between which samples are sparse, still see
several of them.
The kernel is benchmark code that mixes interpreter work with small numpy
operations, like repfreq's own inner loops. A change to repfreq cannot move it,
so normalized times still move exactly as much as the program does. They read
as times on a host where the kernel takes ``REFERENCE_S``. The correction is
weakest for long operations (``sim_paths``), near which few samples fall.
"""

from __future__ import annotations

import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

import numpy as np

REFERENCE_S = 5e-4  # kernel time on the reference host when it is not contended
PERIOD_S = 0.05  # least time between two kernel samples
WINDOW_MIN_S = 0.1
_MATRIX = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 10.0]])


def _kernel() -> float:
    acc = 0.0
    for _ in range(80):
        b = _MATRIX.copy()
        b[0] /= b[0, 0]
        for r in (1, 2):
            b[r] -= b[r, 0] * b[0]
        acc += float(b[2, 2]) + sum(range(5))
    return acc


class HostClock:
    """Kernel samples taken during a run, and the speed factors they imply."""

    def __init__(self) -> None:
        self.times: list[float] = []  # end of each sample
        self.durations: list[float] = []
        for _ in range(20):  # warm the kernel before its first recorded sample
            _kernel()

    def sample(self) -> None:
        t0 = perf_counter()
        _kernel()
        t1 = perf_counter()
        self.times.append(t1)
        self.durations.append(t1 - t0)

    def maybe_sample(self) -> None:
        if not self.times or perf_counter() - self.times[-1] >= PERIOD_S:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """Reference speed over host speed for the interval [start, end]."""
        reach = max(WINDOW_MIN_S, end - start)
        lo = min(bisect_left(self.times, start - reach), max(bisect_right(self.times, start) - 1, 0))
        hi = max(bisect_right(self.times, end + reach), bisect_left(self.times, end) + 1)
        return REFERENCE_S / statistics.median(self.durations[lo:hi])

    def kernel_ms_p50(self) -> float:
        return statistics.median(self.durations) * 1e3
