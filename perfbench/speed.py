"""Machine-speed normalization for the benchmark's times.

A small shared virtual machine (2 vCPUs at 2.1 GHz) changes speed by
20-35% over seconds to minutes, as neighbours come and go; there, raw
medians of 30-second runs spread by 0.13-0.28 (quartile distance over
median) from run to run. A fixed kernel timed between operations tracks
that speed: divided by it, the run-to-run spread of 60 ms census walks fell
from 0.21 to 0.015. Operations that outlast the swings, such as the 1.5 s
``enumerate_words(5, 3)``, gain little. Every reported time is scaled to a
reference speed:

    reported = measured * REFERENCE_S / kernel time around the measurement

REFERENCE_S is a round figure near the kernel's typical time on that
machine with Python 3.11, so reported times read as seconds there. The kernel is frozen here and shares
no code with ntdice, so a change to ntdice cannot move it. Raw times are
kept in the run record.
"""

import bisect
import statistics
import time

REFERENCE_S = 0.003
INTERVAL_S = 0.5  # the longest stretch of work between two calibrations


def kernel():
    """A multiset-permutation walk with a running tally: the kind of
    integer and list work ntdice does, in about 3 ms."""
    n, m = 3, 3
    mn = m * n
    remaining = [n] * m
    placed = [0] * m
    tally = [0] * m
    word = [0] * mn
    depth = letter = leaves = 0
    while True:
        while letter < m and remaining[letter] == 0:
            letter += 1
        if letter == m:
            if depth == 0:
                return leaves
            depth -= 1
            letter = word[depth]
            placed[letter] -= 1
            remaining[letter] += 1
            tally[letter] -= placed[(letter + 1) % m]
            letter += 1
            continue
        word[depth] = letter
        tally[letter] += placed[(letter + 1) % m]
        placed[letter] += 1
        remaining[letter] -= 1
        depth += 1
        if depth == mn:
            leaves += min(tally) >= 0
            depth -= 1
            placed[letter] -= 1
            remaining[letter] += 1
            tally[letter] -= placed[(letter + 1) % m]
            letter += 1
        else:
            letter = 0


class Speedometer:
    """Calibration points over a run, and times scaled by them.

    ``calibrate`` times the kernel (median of three); ``checkpoint`` does so
    when ``INTERVAL_S`` has passed since the last one. Workloads call
    ``checkpoint`` between operations, never inside one, so every operation
    lies between two calibration points and is scaled by their mean.
    """

    def __init__(self):
        self.starts = []  # perf_counter when each calibration began
        self.ends = []  # ... and ended
        self.kernel_s = []

    def calibrate(self):
        start = time.perf_counter()
        runs = []
        for _ in range(3):
            t = time.perf_counter()
            kernel()
            runs.append(time.perf_counter() - t)
        self.starts.append(start)
        self.ends.append(time.perf_counter())
        self.kernel_s.append(statistics.median(runs))

    def checkpoint(self):
        if not self.ends or time.perf_counter() - self.ends[-1] >= INTERVAL_S:
            self.calibrate()

    def factor_at(self, when):
        """Scale for work done at ``when``: reference over the mean kernel
        time of the calibrations just before and just after it."""
        after = bisect.bisect_left(self.starts, when)
        around = self.kernel_s[max(after - 1, 0):after + 1]
        return REFERENCE_S / statistics.fmean(around)

    def scaled(self, start, end):
        """Seconds of work in [start, end] at the reference speed, leaving
        out the calibrations inside it. Returns (scaled, raw) seconds."""
        scaled = raw = 0.0
        cursor = start
        first = bisect.bisect_left(self.starts, start)
        last = bisect.bisect_right(self.starts, end)
        for i in range(first, last + 1):
            stop = min(self.starts[i], end) if i < len(self.starts) else end
            if stop > cursor:
                raw += stop - cursor
                scaled += (stop - cursor) * self.factor_at(cursor)
            if i < len(self.ends):
                cursor = max(cursor, self.ends[i])
        return scaled, raw
