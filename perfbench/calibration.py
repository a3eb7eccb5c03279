"""Machine-speed calibration: a fixed kernel timed all through a run.

Other tenants of a shared machine slow every op by a factor that drifts
over seconds within a run and over minutes between runs.  The kernel here
is fixed code that does not touch ncmetro: a small dict-and-complex Python
loop and two eigendecompositions of a fixed 96x96 Hermitian matrix, about
a quarter and three quarters of its time.  A run times it every
``EVERY_S`` seconds, and each op's latency, and each set-up sample, is
multiplied by ``REFERENCE_S / kernel time`` around it.  Machine slowdowns
cancel, within a run and between runs; whatever the program itself does,
a cold first call, a cache or a leak, stays in the figures, because the
kernel does not change with the program.

Timing metrics are thus in seconds of a machine on which the kernel takes
``REFERENCE_S``; the raw figures go to the run record.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

#: Kernel seconds (best of two) on the machine the benchmark was written on
#: (Intel Xeon, 2 cores, Python 3.11, numpy 2.4 with OpenBLAS, one thread).
REFERENCE_S = 4.0e-3
#: Seconds of run time between kernel samples.
EVERY_S = 0.4
#: An op's slowdown is the median of the kernel samples up to WINDOW either
#: side of its start, so one disturbed sample does not decide it.
WINDOW = 2

_rng = np.random.default_rng(0)
_M = _rng.standard_normal((96, 96)) + 1j * _rng.standard_normal((96, 96))
_M = _M + _M.conj().T


def kernel() -> float:
    """Seconds for one pass of the fixed kernel."""
    start = time.perf_counter()
    acc = {}
    for i in range(2000):
        key = (i % 37, i % 11)
        acc[key] = acc.get(key, 0j) + complex(i, 1) * 0.5
    np.linalg.eigh(_M)
    np.linalg.eigh(_M)
    return time.perf_counter() - start


class Calibration:
    """Kernel samples taken during a run, keyed by run time."""

    def __init__(self, clock):
        self.clock = clock  # run time in seconds
        self.times: list[float] = []
        self.seconds: list[float] = []

    def sample(self):
        now = self.clock()
        self.times.append(now)
        self.seconds.append(min(kernel(), kernel()))

    def tick(self):
        """Take a sample when EVERY_S has passed since the last one."""
        if not self.times or self.clock() - self.times[-1] >= EVERY_S:
            self.sample()

    def slowdown(self, t: float) -> float:
        """How much slower than the reference the machine ran at run time t."""
        i = bisect.bisect_left(self.times, t)
        i = min(i, len(self.times) - 1)
        near = self.seconds[max(0, i - WINDOW):i + WINDOW + 1]
        return statistics.median(near) / REFERENCE_S

    def summary(self) -> dict:
        ratios = [s / REFERENCE_S for s in self.seconds]
        return {"samples": len(ratios), "median": statistics.median(ratios),
                "min": min(ratios), "max": max(ratios)}
