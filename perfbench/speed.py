"""Machine-speed sampling, so that job times can be reported at a reference speed.

The processor this benchmark runs on may be shared: the same pure-Python
work can take twice as long from one tenth of a second to the next, and
averaging over a longer run does not remove it (the slow spells last
minutes).  So a fixed reference computation is timed every ``INTERVAL_S``
seconds from a SIGALRM handler, in the benchmark's own thread, and each job's
time is divided by the speed sampled over it: the reference's mean duration
over the job, relative to ``REFERENCE_S``.  The handler's own time is left
out of every job and span.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

INTERVAL_S = 0.02
REFERENCE_S = 0.0015  # duration of one reference() call at the reference speed


class _Table:
    """A 10-arrow cyclic group behind name-to-index lookups, like isgact's tables."""

    def __init__(self, n: int = 10):
        self.arrows = [f"g{k}" for k in range(n)]
        self.index = {a: k for k, a in enumerate(self.arrows)}
        self.products = [[(i + j) % n for j in range(n)] for i in range(n)]

    def mul(self, s: str, t: str) -> str:
        return self.arrows[self.products[self.index[s]][self.index[t]]]


_TABLE = _Table()


def reference() -> int:
    """Fixed work of the kinds isgact does: dict, tuple, string and set handling,
    method calls through name lookups, and integer arithmetic.  Different kinds
    slow down by different amounts when the processor is contended, so it mixes them."""
    counts: dict = {}
    for i in range(1000):
        key = (i % 97, str(i % 131))
        counts[key] = counts.get(key, 0) + 1
    names = set()
    for key in counts:
        names.add(key[1] + "x")
    table = _TABLE
    unequal = 0
    for p in table.arrows:
        for s in table.arrows:
            ps = table.mul(p, s)
            for t in table.arrows:
                unequal += table.mul(ps, t) != table.mul(p, table.mul(s, t))
    total = 0
    for i in range(8000):
        total += i * i % 7
    return len(names) + unequal + total


class SpeedSampler:
    """Times reference() on a timer while active; ``clock`` excludes that time."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.stolen = 0.0

    def clock(self) -> float:
        return time.perf_counter() - self.stolen

    def _sample(self, signum=None, frame=None):
        start = time.perf_counter()
        reference()
        end = time.perf_counter()
        self.starts.append(start)
        self.durations.append(end - start)
        self.stolen += end - start

    def __enter__(self):
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, start: float, end: float) -> float:
        """Speed factor over [start, end] in perf_counter time: the last sample before it and those inside."""
        first = max(0, bisect.bisect_left(self.starts, start) - 1)
        last = bisect.bisect_right(self.starts, end)
        return statistics.fmean(self.durations[first:last]) / REFERENCE_S
