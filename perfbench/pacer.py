"""Rescale wall times to a fixed machine speed.

On a shared host the speed of a core changes with what other tenants run.
On the shared 2-vCPU host this benchmark was built on, the wall time of one
and the same call moved between two levels 60% apart, for stretches of 2 to
30 seconds.  Medians of raw wall time then differ by 15-35% from run to
run, which hides any regression smaller than that.

A :class:`Pacer` measures the speed of the moment with a fixed kernel that
never calls poleswap: once before and once after each timed operation, and
every ``INTERVAL`` seconds during it, from a timer signal.  The paced time
of the operation is its wall time, less the time spent in the kernel, times
``PACE_REF_S`` over the median kernel time.  Paced times read as seconds on
the machine at its uncontended speed; the raw wall times are printed beside
them.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

# Median time of PaceKernel.run() on an uncontended core of the 2-vCPU
# x86_64 machine the baseline was measured on.
PACE_REF_S = 0.0003
INTERVAL = 0.05


class PaceKernel:
    """Fixed work in the solver's mix: complex scalar arithmetic and 2-row or
    2-column updates of four 100 x 100 complex matrices (640 KB)."""

    def __init__(self):
        self.mats = [np.ones((100, 100), dtype=complex) for _ in range(4)]
        self.rot = np.array([[0.6, -0.8], [0.8, 0.6]], dtype=complex)

    def run(self) -> float:
        r = self.rot
        z, acc = 0.5 + 0.25j, 0j
        t0 = perf_counter()
        for i in range(30):
            j = (i * 37) % 99
            m = self.mats[i % 4]
            if i % 2:
                m[j : j + 2, :] = r @ m[j : j + 2, :]
            else:
                m[:, j : j + 2] = m[:, j : j + 2] @ r
            for _ in range(30):
                acc = acc * z + (z.conjugate() - acc) / (abs(acc) + 1.0)
        return perf_counter() - t0


class Pacer:
    """Context manager around one timed operation; see the module docstring.

    Uses SIGALRM and ITIMER_REAL, so it must run in the main thread and
    nothing else in the process may use that timer.
    """

    def __init__(self):
        self.kernel = PaceKernel()
        self.samples: list[float] = []
        self.ticks: list[tuple[float, float]] = []

    def _tick(self, signum, frame):
        t0 = perf_counter()
        self.samples.append(self.kernel.run())
        self.ticks.append((t0, perf_counter()))

    def __enter__(self):
        self.samples = [self.kernel.run()]
        self.ticks = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(self.kernel.run())
        return False

    def paced(self, t0: float, t1: float) -> float:
        """Paced time of the interval [t0, t1] measured inside the context."""
        inside = sum(b - a for a, b in self.ticks if a >= t0 and b <= t1)
        return (t1 - t0 - inside) * PACE_REF_S / statistics.median(self.samples)
