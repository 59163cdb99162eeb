"""Host speed probe for steady timings on a shared machine.

On small shared virtual machines the speed of one thread is not constant:
a fixed pure-Python loop alternates between two states about 1.7x apart,
each lasting a few seconds (2-vCPU x86-64 VM, Python 3.11).  A 12 s
window then sees a random mix of the two states, and run-to-run spreads
of raw wall times reach 15-30 %.

The probe times that loop from a SIGALRM handler every PERIOD_S seconds.
The handler runs between bytecodes of the main thread, so the samples
show the speed the benchmark sees while it runs; a long call into native
code only delays the next sample.  A time measured over an interval is
then reported at the reference speed: the raw time divided by the
interval's slowdown, the mean probe time over the interval divided by
REF_S.  Intervals shorter than the period use the samples next to them.
"""

from __future__ import annotations

import array
import bisect
import signal
import statistics
import time

PERIOD_S = 0.02
# probe time in the fast state of a 2-vCPU x86-64 VM at 2.1 GHz, Python 3.11
REF_S = 1.2e-4
_LOOP = 2000
# Samples are stored in preallocated arrays: a list growing inside the
# signal handler would reallocate in the C heap at random moments and
# make the peak RSS of the run vary.
CAPACITY = 1 << 14


def _probe_loop() -> float:
    start = time.perf_counter()
    s = 0
    for i in range(_LOOP):
        s += i * i
    return time.perf_counter() - start


class SpeedProbe:
    """Context manager sampling the host speed; see the module docstring."""

    def __init__(self):
        self.at = array.array("d", bytes(8 * CAPACITY))
        self.took = array.array("d", bytes(8 * CAPACITY))
        self.count = 0

    def _sample(self, signum, frame):
        if self.count < CAPACITY:
            self.at[self.count] = time.perf_counter()
            self.took[self.count] = _probe_loop()
            self.count += 1

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def slowdown(self, start: float, end: float) -> float:
        lo = bisect.bisect_left(self.at, start, 0, self.count)
        hi = bisect.bisect_right(self.at, end, 0, self.count)
        took = self.took[lo:hi] or self.took[max(lo - 1, 0):min(lo + 1, self.count)]
        if not took:
            raise RuntimeError("no speed samples: the interval was not probed")
        return statistics.fmean(took) / REF_S

    def at_reference(self, start: float, end: float) -> float:
        """Seconds the interval [start, end] takes at the reference speed."""
        return (end - start) / self.slowdown(start, end)
