"""The host's speed, sampled while the benchmark runs.

The shared host this benchmark was built on changes speed by up to 1.7x
within a fraction of a second, and every kind of Python code slows with
it, so plain latencies of the same code spread by 20-25% from run to
run.  `Meter` times a fixed routine, `reference()`, every
`INTERVAL` seconds from a SIGALRM timer, inside the program's calls as
well as between them.  A latency divided by the mean time of the
reference samples around it is the call's cost in units of that routine
(`ref`), which cancels the host's speed: on the same code it spreads by a
few percent.  Time spent in the samples is taken out of the latencies.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

INTERVAL = 0.01  # seconds between samples; one sample takes about 0.2 ms

# The median time of one `reference()` call on the 2-core VM the benchmark
# was built on.  Set-up time is reported as its cost in `ref` units times
# this constant: seconds at that host's speed.
REF_SECONDS = 2.0e-4

_WORDS = " ".join(f"w{k % 37}" for k in range(120))
_BITS = int("10" * 300, 2)


def reference():
    """A fixed mix of what incalc spends its time on: splitting and joining
    text, dict updates, Fraction sums and big-integer bit operations.  Its
    time tracked solve latency over half-second windows with a log-log
    slope of 0.96 and a correlation of 0.96 on a 2-core VM."""
    counts: dict[str, int] = {}
    for word in _WORDS.split():
        counts[word] = counts.get(word, 0) + 1
    total = sum(Fraction(v, k + 1) for k, v in enumerate(counts.values()))
    ones = bin(_BITS & (_BITS >> 1)).count("1")
    return total, ones, " ".join(str(v) for v in counts.values())


class Meter:
    """Samples the time of `reference()` while entered.  Must be entered
    from the main thread; restores the previous SIGALRM handler on exit."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.spent = 0.0  # seconds spent sampling so far

    def _sample(self, *_):
        start = time.perf_counter()
        reference()
        duration = time.perf_counter() - start
        self.starts.append(start)
        self.durations.append(duration)
        self.spent += duration

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def around(self, start: float, end: float) -> float:
        """Mean sample time from the last sample begun before `start` to the
        first begun after `end`; the interval must lie inside the `with`."""
        first = bisect.bisect_right(self.starts, start) - 1
        last = bisect.bisect_left(self.starts, end)
        return statistics.fmean(self.durations[first : last + 1])
