"""Host-speed probe: times a fixed kernel at regular wall-clock intervals.

On a shared host the speed of a core changes by 30% and more over seconds
to minutes, so a raw time mixes the program's cost with the host's state at
the moment. The probe samples that state while the workload runs: a
``SIGALRM`` timer interrupts the main thread every ``PERIOD_S`` seconds and
times one run of ``kernel``, a fixed mix of small-array numpy calls driven
from Python and cell-by-cell CSV parsing. Of the kernels tried, this mix
followed the workloads' own changes of speed most closely; a large
vectorised step followed them worst and is left out. The kernel's time at
the reference speed is ``REF_KERNEL_S``; the ratio of the two over an
interval scales that interval's time to the reference speed.

Each sample is a cold run: the workload's data has just pushed the kernel's
out of the core's caches, so the kernel also feels how busy the host's
shared caches and memory are, as the workloads do. Inside a workload it
therefore reads slower than when idle, by an amount that stays the same as
long as the workload's data outgrows the core's own caches.

The probe's own time is kept apart (``spent``), so the caller can take it
out of the time it measures. The program under test never sees the probe
except as a pause between two of its bytecodes.
"""

from __future__ import annotations

import csv
import io
import math
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.05
# Mean time of one kernel run, sampled while the workloads ran, on the
# machine the baseline was taken on (2 vCPUs of a shared Intel Xeon at
# 2.1 GHz). Only a scale: it makes reference seconds read close to that
# machine's wall seconds.
REF_KERNEL_S = 0.0014

_RNG = np.random.default_rng(12345)
_XS = [_RNG.standard_normal((100, 13)) for _ in range(5)]
_RS = [_RNG.standard_normal(100) for _ in range(5)]
_CSV = "\n".join(",".join(repr(float(x)) for x in row)
                  for row in _RNG.standard_normal((15, 20)))


def kernel() -> float:
    """A fixed amount of work; returns a value so nothing is skipped."""
    acc = 0.0
    # Block steps on small arrays driven from Python, like the solvers and
    # the per-feature loops: column dot products across K=5 studies.
    for _ in range(6):
        for j in range(13):
            z = np.array([2.0 * float(x[:, j] @ r) for x, r in zip(_XS, _RS)])
            acc += math.sqrt(math.fsum(float(v) ** 2 for v in z))
            v = z / 3.0
            acc += math.sqrt(float(v @ v))
    # Cell-by-cell CSV parsing, like the manifest reader.
    for row in csv.reader(io.StringIO(_CSV)):
        for cell in row:
            value = float(cell)
            if np.isfinite(value):
                acc += value
    return acc


class Probe:
    """Samples ``kernel`` times from a wall-clock timer while started."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._busy = False
        self._old = None

    def _tick(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        kernel()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        self.spent += elapsed
        self._busy = False

    def start(self) -> None:
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old or signal.SIG_DFL)

    def burst(self, runs: int) -> None:
        """Sample ``runs`` kernel times back to back (timer not needed)."""
        for _ in range(runs):
            self._tick(None, None)

    def mark(self) -> int:
        return len(self.samples)

    def factor(self, since: int) -> float:
        """Reference speed over the speed seen since ``since`` (a ``mark``):
        a time measured over that interval times this is in reference
        seconds."""
        window = self.samples[since:]
        if not window:
            return 1.0
        return REF_KERNEL_S / statistics.fmean(window)
