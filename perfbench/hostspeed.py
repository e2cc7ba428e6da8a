"""Host-speed normalization of measured times.

The machines this benchmark runs on share their cores with other
tenants, and their speed drifts by up to 3x within tens of seconds.
Such drift slows a fixed pure-Python kernel as much as it slows the
package.  So while a run measures, an interval timer interrupts it every
EVERY seconds to time the kernel (best of three), and each measured
interval is converted to reference seconds piece by piece: the time
between two kernel samples is scaled by REFERENCE over the mean of the
two samples, and the time spent in the kernel itself is left out.  The
result is the interval's length at the host speed where the kernel takes
REFERENCE seconds, its time on an idle 2-core host with Python 3.11.

The kernel uses only `fractions.Fraction`, lists and dicts, never the
package, so a change to the package cannot move it.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

#: kernel time (best of three) on an idle host, in seconds
REFERENCE = 0.0033

#: seconds between kernel samples
EVERY = 0.25


def kernel():
    s = Fraction(0)
    for i in range(1, 120):
        v = Fraction(i % 7 + 1, i % 5 + 2)
        row = [v * Fraction(j + 1, 3) for j in range(8)]
        s = sum(row, s) % 7
        index = {j: x for j, x in enumerate(row)}
    return s, index


class HostSpeed:
    """Kernel samples along the run, and rescaling of intervals.

    Use as a context manager: entering starts the interval timer and
    takes a first sample, leaving stops the timer and takes a last one.
    """

    def __init__(self):
        self.begin = []       # perf_counter() when each sample started
        self.end = []         # ... and ended
        self.took = []        # best-of-three kernel seconds
        self._busy = False
        self._previous = None

    def sample(self):
        if self._busy:
            return
        self._busy = True
        try:
            t = time.perf_counter()
            best = None
            for _ in range(3):
                t0 = time.perf_counter()
                kernel()
                dt = time.perf_counter() - t0
                best = dt if best is None else min(best, dt)
            self.begin.append(t)
            self.end.append(time.perf_counter())
            self.took.append(best)
        finally:
            self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM,
                                       lambda signum, frame: self.sample())
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, EVERY, EVERY)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()
        return False

    def _speed_at(self, k):
        """Kernel time around the gap that follows sample k."""
        near = [self.took[j] for j in (k, k + 1) if 0 <= j < len(self.took)]
        return sum(near) / len(near)

    def normalize(self, start, stop):
        """Reference seconds spent in [start, stop], kernel samples
        excluded."""
        if not self.took:
            raise ValueError("no host-speed samples taken")
        total = 0.0
        k = bisect.bisect_right(self.end, start) - 1   # last sample before
        t = start
        while t < stop:
            nxt = k + 1
            gap_end = self.begin[nxt] if nxt < len(self.begin) else stop
            piece = min(gap_end, stop) - t
            if piece > 0:
                total += piece * REFERENCE / self._speed_at(max(k, 0))
            if nxt >= len(self.begin) or gap_end >= stop:
                break
            t = self.end[nxt]
            k = nxt
        return total
