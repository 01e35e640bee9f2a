"""Host speed readings, and durations stated at a fixed host speed.

The benchmark runs on shared hosts whose speed changes by a factor of two
or more, over tens of milliseconds and over minutes, as neighbours come and
go.  Medians over a run cannot hide a slow spell that covers the whole run.  So the
benchmark times, every ``INTERVAL_S``, a fixed reference loop that does
not touch trackmine, and states each measured duration as the time it
would have taken had the reference loop run in ``REFERENCE_S``:

    scaled = raw * REFERENCE_S / reference loop's time at that moment

While the in-process chain runs, a SIGALRM timer takes the readings, so
they land inside long calls too.  A trackmine subprocess takes its own
readings the same way (``cli_child.py``); the benchmark takes none while it
waits, since a reading would compete with the subprocess for the one CPU.

A change that makes trackmine slower moves the scaled time as it moves the
raw one; a host that makes everything slower moves both the raw time and
the reference loop, and the scaled time stays put.  Raw times are reported
beside the scaled ones.  The benchmark runs pinned to one CPU so that
subprocesses meet the same host speed as the readings.
"""

from __future__ import annotations

import bisect
import gc
import math
import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

# the scale: about the median time of reference_loop() on the 2-vCPU Intel
# Xeon VM the benchmark was tuned on (Python 3.11, NumPy 2.4, one BLAS
# thread), where it ranged from 0.74 to 2.4 ms; any constant would do, as
# long as it stays
REFERENCE_S = 0.001
# time between two readings: the host's speed, read every 5 ms, correlates
# 0.9 with the next reading, 0.6 with the one 50 ms later, 0.3 a second later
INTERVAL_S = 0.025
# timings of the loop in a reading taken around a subprocess or a timed
# piece, of which the median is kept; a reading on the timer times it once
BOUNDARY_LOOPS = 5

_MATRIX = np.arange(900, dtype=float).reshape(30, 30) / 900.0


def reference_loop() -> int:
    """About a millisecond of fixed work in the mix trackmine does: dicts
    keyed by strings, sorting, string building and splitting, integer
    arithmetic in the interpreter, and small NumPy matrix-vector products."""
    counts: dict[str, int] = {}
    for i in range(800):
        key = f"k{i % 200}"
        counts[key] = counts.get(key, 0) + i
    ranked = sorted(counts.items(), key=lambda kv: kv[1])
    parts = ",".join(f"{k}:{v}" for k, v in ranked).split(",")
    v = np.ones(30)
    for _ in range(50):
        v = _MATRIX @ v
        v /= np.linalg.norm(v)
    x = 0
    for i in range(5000):
        x += i * i % 7
    return len(parts) + x


class Speedometer:
    """Readings of the reference loop, and durations scaled by them.

    A stretch of time between two readings is weighted by ``REFERENCE_S``
    over the mean of those two readings; a stretch before the first or
    after the last reading, by the nearest reading.  The readings' own time
    weighs nothing, so readings taken inside a timed interval drop out of it.
    """

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.values: list[float] = []
        self._reading = False

    def read(self, loops: int = BOUNDARY_LOOPS) -> None:
        """A reading: the median time of ``loops`` runs of the loop."""
        if self._reading:  # an alarm during a reading
            return
        self._reading = True
        collecting = gc.isenabled()
        gc.disable()  # the loop's time must not depend on the heap around it
        timings = []
        try:
            start = time.perf_counter()
            for _ in range(loops):
                t0 = time.perf_counter()
                reference_loop()
                timings.append(time.perf_counter() - t0)
            end = time.perf_counter()
        finally:
            if collecting:
                gc.enable()
            self._reading = False
        self.starts.append(start)
        self.ends.append(end)
        self.values.append(statistics.median(timings))

    def tick(self) -> None:
        """A reading, if the last one is ``interval`` old or more."""
        if not self.ends or time.perf_counter() - self.ends[-1] >= self.interval:
            self.read()

    def merge(self, starts, ends, values) -> None:
        """Adds readings taken by another process on the same clock."""
        rows = sorted([*zip(self.starts, self.ends, self.values), *zip(starts, ends, values)])
        self.starts = [r[0] for r in rows]
        self.ends = [r[1] for r in rows]
        self.values = [r[2] for r in rows]

    @contextmanager
    def sampling(self):
        """Readings every ``interval`` seconds while the block runs.  The
        block must start no subprocess."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.read(1))
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scaled(self, a: float, b: float) -> float:
        """Seconds from ``a`` to ``b`` (perf_counter times), outside the
        readings, stated at the reference speed."""
        if not self.values:
            raise RuntimeError("no speed reading taken")
        total = 0.0
        # stretch i runs from the end of reading i-1 to the start of reading i
        for i in range(bisect.bisect_right(self.ends, a), len(self.values) + 1):
            lo = self.ends[i - 1] if i > 0 else -math.inf
            hi = self.starts[i] if i < len(self.values) else math.inf
            if lo >= b:
                break
            seconds = min(b, hi) - max(a, lo)
            if seconds > 0:
                near = [self.values[j] for j in (i - 1, i) if 0 <= j < len(self.values)]
                total += seconds * REFERENCE_S / (sum(near) / len(near))
        return total
