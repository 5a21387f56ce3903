"""Host-speed adjusted timing.

On a shared machine the speed of one core changes by up to 1.6x from one
second to the next, as other tenants come and go, so two raw timings of
the same code are not comparable.  While an interval is timed, an
interval timer (SIGALRM, handled in the main thread between bytecodes,
so no thread is started) fires every INTERVAL_S and times a fixed
pure-Python kernel.  The kernel touches no ghlab code, so a change to
the package moves the raw time and not the samples.

The adjusted time is the raw time, less the time spent in the handler,
scaled to the speed at which the kernel takes REF_KERNEL_S:

    adjusted = raw * REF_KERNEL_S * mean(1 / kernel_time)

The harmonic form weights each sample by the work rate it measured, so
it is the factor by which the interval's work would have run faster or
slower at the reference speed.
"""

from __future__ import annotations

import cmath
import contextlib
import signal
from time import perf_counter

INTERVAL_S = 0.05
# Median kernel time on a 2-vCPU Intel Xeon VM; the unit of
# the adjusted times.
REF_KERNEL_S = 5.5e-4


def kernel() -> float:
    """Seconds for a fixed bit of scalar complex arithmetic."""
    t0 = perf_counter()
    z, acc = 0.3 + 0.1j, 0j
    for k in range(2500):
        acc += cmath.exp(z * (k * 1e-3)) / (1.0 + z)
    return perf_counter() - t0


class HostClock:
    """Times intervals (``with clock.interval(): ...``) and keeps their
    raw and host-speed adjusted durations."""

    def __init__(self):
        self.raw: list = []
        self.adjusted: list = []
        self._samples: list = []
        self._handler_s = 0.0

    def _on_alarm(self, signum, frame) -> None:
        t0 = perf_counter()
        self._samples.append(kernel())
        self._handler_s += perf_counter() - t0

    @contextlib.contextmanager
    def interval(self):
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        t0 = perf_counter()
        try:
            yield
        finally:
            elapsed = perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
            self._record(elapsed)

    def _record(self, elapsed: float) -> None:
        if not self._samples:
            self._samples.append(kernel())
        raw = elapsed - self._handler_s
        speed = sum(1.0 / k for k in self._samples) / len(self._samples)
        self.raw.append(raw)
        self.adjusted.append(raw * REF_KERNEL_S * speed)
        self._samples = []
        self._handler_s = 0.0
