"""Timing normalized by the host's current speed.

On a shared virtual machine the time of the same pure-Python loop varied
by more than 2x within minutes, drifting over seconds, so raw times from
two runs a minute apart differ by more than any regression worth
catching. While the benchmark measures, a SIGALRM handler therefore
times a fixed reference loop every PERIOD_S, and every duration it reports
is scaled by REF_LOOP_S over the median loop time sampled during it (and
one period either side). The handler's own time is subtracted from the
calls it interrupts. The reference loop is the benchmark's own code, so a
change to starbench cannot move it; raw times stay in the run record.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from contextlib import contextmanager

PERIOD_S = 0.05

# About the fastest time of one reference loop seen on the 2-core x86 VM
# (Python 3.11) the bounds were set on, so that a normalized duration reads
# as seconds on that host when it is quiet.
REF_LOOP_S = 0.0008


def _reference_loop() -> int:
    # dict and int work, like the automaton code it stands in for
    table: dict[int, int] = {}
    acc = 0
    for i in range(4_000):
        key = (i * 7919) & 1023
        acc ^= table.get(key, i) << 1
        table[key] = acc & 0xFFFF
    return acc


class HostSpeed:
    """Reference-loop samples over time, taken on a timer or on demand."""

    def __init__(self) -> None:
        self.at: list[float] = []  # sample end times, ascending
        self.loop_s: list[float] = []
        self.handler_s = 0.0  # total time spent sampling

    def sample(self, *_signal_args) -> None:
        start = time.perf_counter()
        _reference_loop()
        end = time.perf_counter()
        self.at.append(end)
        self.loop_s.append(end - start)
        self.handler_s += time.perf_counter() - start

    @contextmanager
    def sampling(self):
        """Sample every PERIOD_S inside the block, and once at each end."""
        previous = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.sample()

    def normalize(self, start: float, end: float, raw_s: float) -> float:
        """raw_s, measured between start and end, in normalized seconds."""
        lo = bisect.bisect_left(self.at, start - PERIOD_S)
        hi = bisect.bisect_right(self.at, end + PERIOD_S)
        if lo == hi:  # no sample that close: take the nearest one
            lo = max(0, min(lo, len(self.at) - 1))
            hi = lo + 1
        return raw_s * REF_LOOP_S / statistics.median(self.loop_s[lo:hi])
