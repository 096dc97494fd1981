"""Host time in units of a fixed reference workload.

The benchmark's host is shared: its speed swings by up to 1.7x within
seconds and drifts by tens of percent over minutes, so raw wall time
measures the neighbours as much as the simulator.  A short, fixed
pure-Python workload is therefore timed between simulator calls, at
least every :data:`REF_EVERY` seconds, and each simulator call is
divided by the mean of the reference samples on either side of it.  The
ratio is converted back to seconds at :data:`REF_SECONDS`, the
reference workload's time on the host the benchmark was calibrated on
(2-vCPU Intel Xeon at 2.0 GHz, Python 3.11), so figures read as host
seconds on that machine.

The reference imitates the simulator's memory behaviour -- slotted
objects and large dicts touched in a scattered order -- because a
workload that fits in the first-level caches slows down more than the
simulator does when the neighbours are busy.  Its code lives here, not
in the simulator, so no change to the simulator can change it, and it
runs with the garbage collector off, so the simulator's heap cannot slow
it either.
"""

from __future__ import annotations

import gc
import time
from typing import List

#: Reference workload time on the calibration host (seconds).
REF_SECONDS = 0.0025
#: Longest stretch of simulator work between two reference samples.
REF_EVERY = 0.05

_OBJECTS = 16_384
_KEYS = 32_768
_STEPS = 1_500


class _Record:
    __slots__ = ("total", "seen", "recent")

    def __init__(self):
        # Every key the workload touches exists up front, so each sample
        # does the same updates and nothing grows between samples.
        self.total = 0
        self.seen = dict.fromkeys(range(4), 0)
        self.recent = [0] * 4

    def touch(self, key: int, value: int) -> int:
        self.total = (self.total + value) & 0xFFFF
        self.seen[key & 3] += 1
        self.recent[key & 3] = key
        return self.total & 3


class ReferenceClock:
    """Brackets simulator calls with reference samples.

    Call :meth:`mark` before each simulator call and :meth:`close` at
    the end of a pass; :meth:`normalise` then turns a raw duration into
    reference-host seconds.
    """

    def __init__(self):
        self.samples: List[float] = []
        self._last = float("-inf")
        self._records = [_Record() for _ in range(_OBJECTS)]
        self._table = {i * 7919: i for i in range(_KEYS)}

    def _work(self) -> int:
        records, table = self._records, self._table
        x, acc = 12345, 0
        for _ in range(_STEPS):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            value = table.get((x >> 8) % _KEYS * 7919, 0)
            acc += records[x % _OBJECTS].touch(x & 255, value)
            if acc & 1:
                acc += (x >> 3) & 7
        return acc

    def sample(self) -> float:
        """Seconds one reference workload takes now, collector off."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            self._work()
            return time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()

    def mark(self) -> int:
        """Sample if due; returns the index of the sample preceding the
        next simulator call."""
        if time.perf_counter() - self._last >= REF_EVERY:
            self.close()
        return len(self.samples) - 1

    def close(self) -> None:
        self.samples.append(self.sample())
        self._last = time.perf_counter()

    def normalise(self, seconds: float, mark: int) -> float:
        """``seconds`` measured after ``mark``, in reference-host seconds."""
        here = (self.samples[mark] + self.samples[mark + 1]) / 2
        return seconds * REF_SECONDS / here
