"""Machine-speed reference: a fixed piece of pure-Python work, timed during a run.

The 2-vCPU machines this benchmark was built on change speed by up to about
1.8x, for a second to tens of seconds at a time (another tenant on the same
physical core): raw pass times of one workload spread by more than half their
median across runs.  So while jobs run, a timer signal interrupts them every
INTERVAL_S and times this loop, which runs no `ybh` code.  The time spent in
the loop is taken out of the job's time, and every end-to-end time is
reported scaled to the machine's nominal speed:

    reported = measured * NOMINAL_S / (mean loop time while it was measured)

Both sides of a comparison use the same loop and the same NOMINAL_S, so a
change to `ybh` moves the reported times as it moves the measured ones; the
measured seconds are kept in the run record.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

# Median loop time at the machine's fast speed (Intel Xeon, 2 vCPU, Python 3.11).
NOMINAL_S = 0.003
INTERVAL_S = 0.1


def reference_loop() -> float:
    """Seconds for sparse-row dict updates, integer and Fraction arithmetic:
    the same kinds of interpreter work as ybh's inner loops."""
    t0 = time.perf_counter()
    row = {}
    for i in range(12000):
        k = (i * 7919) % 997
        row[k] = (row.get(k, 0) + i * k) % 1000003
    q = Fraction(0)
    for i in range(1, 200):
        q += Fraction(i, i + 2)
    return time.perf_counter() - t0


class Speedometer:
    """While entered, times the loop every INTERVAL_S from a SIGALRM handler.

    `paused` is the total time spent in the loop; subtract its growth over a
    measurement from that measurement.
    """

    def __init__(self):
        self.samples: list = []  # (perf_counter after the sample, loop seconds)
        self.paused = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        loop = reference_loop()
        self.samples.append((time.perf_counter(), loop))
        self.paused += loop

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, start: float, end: float) -> float:
        """NOMINAL_S over the mean loop time from 2 intervals before start to 2
        after end, or of the nearest sample if none falls there."""
        near = [v for t, v in self.samples
                if start - 2 * INTERVAL_S <= t <= end + 2 * INTERVAL_S]
        if not near:
            near = [min(self.samples, key=lambda s: abs(s[0] - start))[1]]
        return NOMINAL_S / statistics.fmean(near)

    def overall(self) -> float:
        return NOMINAL_S / statistics.fmean(v for _, v in self.samples)
