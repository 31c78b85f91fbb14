"""The machine's current speed, from a fixed pure-Python probe.

The cores of a shared VM change speed by up to 2x, in stretches from under a
second to minutes, with CPU time tracking wall time (the process runs, only
slower).  A run's raw times therefore measure the moment as much as the
program.  The benchmark times a short fixed loop all through a pass and
scales each job's time by how fast that loop ran meanwhile: a job's time in
*reference seconds* is its measured time / its slowdown, where a slowdown is
the loop's measured time / REFERENCE_S.

The loop mixes what the program does in pure Python: `Fraction` arithmetic
on small rationals (the Lie side), tuple hashing and dict lookups (the
groupoid side).  It imports nothing from the program, so no change to the
program can change it.
"""
from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

# The loop's time on this benchmark's reference machine (a 2-vCPU x86 VM,
# Python 3.11) at its fast speed; it only sets the scale of the reported times.
REFERENCE_S = 0.001
INTERVAL_S = 0.05  # sampler period; the loop then costs 2-4% of a pass
PROBE_REPEATS = 3


def _loop() -> int:
    table = {}
    acc = Fraction(0)
    for i in range(1, 120):
        x = Fraction(i % 7 + 1, i % 5 + 2) * Fraction(3, i % 11 + 1) - Fraction(i % 3, 4)
        acc = (acc + x) / 2
        key = (i % 13, i % 17, i % 5)
        table[key] = table.get(key, 0) + x.numerator
    return len(table) + acc.denominator


def probe() -> float:
    """The machine's current slowdown: the loop's best of PROBE_REPEATS
    times over REFERENCE_S (about 1 on the reference machine at its fast
    speed).  For timing something that cannot be sampled in-process."""
    best = float("inf")
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        _loop()
        best = min(best, time.perf_counter() - t0)
    return best / REFERENCE_S


class Sampler:
    """Times the loop every INTERVAL_S from a SIGALRM handler, so the speed
    is known during a long job as well as between jobs.

    `spent` is the wall time taken by the handler so far; a caller subtracts
    its growth over a job from the job's time."""

    def __init__(self):
        self.at: list[float] = []  # when each sample ended
        self.slowdowns: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        _loop()
        t1 = time.perf_counter()
        self.at.append(t1)
        self.slowdowns.append((t1 - t0) / REFERENCE_S)
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def slowdown(self, start: float, end: float) -> float:
        """Median slowdown of the samples taken in [start, end] and the
        nearest one on each side of it."""
        lo = max(bisect.bisect_left(self.at, start) - 1, 0)
        hi = bisect.bisect_right(self.at, end) + 1
        return statistics.median(self.slowdowns[lo:hi])
