"""Host-speed sampling, so that a case's time does not depend on its neighbours.

On a shared host a core runs the same code up to 1.7 times slower while
other tenants load it, and that state flips within tenths of a second.  A
worker therefore pins itself to one CPU and runs a ``Sampler`` thread beside
the case: every ``PERIOD_S`` it takes the GIL and times ``probe``, a fixed
pure-Python kernel that uses only the standard library, so no change to
``approxsym`` moves it.  ``factor(t0, t1)`` is the mean of ``REF_S`` over the
probe times sampled in [t0, t1]; an interval's time multiplied by it is that
interval's time at the reference speed, the speed at which one probe takes
``REF_S``.
"""

from __future__ import annotations

import threading
import time
from fractions import Fraction

PERIOD_S = 0.02
# the probe's time on a quiet core of the 2-vCPU host the baseline was taken
# on (Python 3.11.7), so a normalised time reads as the time on such a core
REF_S = 1.0e-4


def _kernel() -> Fraction:
    table = {(i, i + 1): Fraction(i + 1, i + 2) for i in range(40)}
    return sum(table.values(), Fraction(0))


def probe() -> float:
    """Time of one kernel run, after an untimed run that warms the caches."""
    _kernel()
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


class Sampler:
    """A daemon thread timing ``probe`` every ``PERIOD_S`` until stopped."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []   # (start time, probe time)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while not self._stop.wait(PERIOD_S):
            self.samples.append((time.perf_counter(), probe()))

    def start(self) -> "Sampler":
        self._thread.start()
        return self

    def stop(self):
        self._stop.set()
        self._thread.join()

    def factor(self, t0: float, t1: float) -> float:
        """Mean of REF_S / probe time over [t0, t1]; over all samples if none fell there."""
        inside = [d for t, d in self.samples if t0 <= t <= t1] or \
            [d for _, d in self.samples]
        if not inside:
            return 1.0
        return sum(REF_S / d for d in inside) / len(inside)
