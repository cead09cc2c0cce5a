"""Scaling of the benchmark's times by the machine's current speed.

On the shared 2-core x86-64 machine this benchmark was tuned on (Python
3.11.7), raw times of unchanged code drifted by 20-40% over tens of
seconds, and by up to 20% within one 3-s op: more than most code
changes would move them.  ``SpeedProbe`` times a fixed pure-Python
loop, which shares no code with the package, every ``INTERVAL_S`` from
a SIGALRM handler, so that it also samples the machine while a long op
runs.  The handler's time is left out of every measured time.  A time
measured over an interval is then multiplied by ``REFERENCE_CHUNK_S``
over the mean loop time sampled in and next to that interval: what
it would have been at the speed at which one loop chunk takes
``REFERENCE_CHUNK_S``, that machine's speed when quiet.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

# Short chunks taken often follow the machine's speed more closely than
# long ones taken seldom: seven repeats of the figure-eight width-4
# sweep spread by 4-7% scaled (quartile distance over median) with a
# 9-ms chunk every 0.25 s, and by 1-4% with a 1.5-ms chunk every
# 0.05 s.  Sampling takes about 4% of a run.
CHUNK_ITERATIONS = 10_000
REFERENCE_CHUNK_S = 0.0015
INTERVAL_S = 0.05


def chunk_seconds() -> float:
    """Seconds one chunk of the reference loop takes now."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(CHUNK_ITERATIONS):
        key = (i * 7919) % 997
        table[key] = table.get(key, 0) + i
    sorted(table.items())
    return time.perf_counter() - start


class SpeedProbe:
    """Context manager that samples the reference loop while active."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.took: list[float] = []
        self.paused = 0.0  # seconds spent sampling so far
        self._busy = False

    def sample(self, *_) -> None:
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        self.took.append(chunk_seconds())
        self.at.append(start)
        self.paused += time.perf_counter() - start
        self._busy = False

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        self.resume()
        return self

    def __exit__(self, *exc) -> None:
        self.pause()
        signal.signal(signal.SIGALRM, self._previous)

    def pause(self) -> None:
        """Stop the timer, e.g. while spans are recorded, which would
        otherwise include the handler's time."""
        signal.setitimer(signal.ITIMER_REAL, 0)

    def resume(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def measure(self, fn, *args):
        """Call ``fn``; return its result, the seconds it took without
        sampling, and its start and end."""
        paused = self.paused
        start = time.perf_counter()
        result = fn(*args)
        end = time.perf_counter()
        return result, end - start - (self.paused - paused), start, end

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_CHUNK_S over the mean loop time of the samples
        taken between ``start`` and ``end`` and the one on each side.
        The mean, not the median: a time is the sum of its slices'
        slowdowns, which the mean of samples at random slices estimates.
        Take a sample after ``end`` before asking."""
        lo = bisect.bisect_left(self.at, start)
        hi = bisect.bisect_right(self.at, end)
        return REFERENCE_CHUNK_S / statistics.fmean(
            self.took[max(lo - 1, 0):hi + 1])
