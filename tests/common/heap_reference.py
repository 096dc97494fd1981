"""Reference event kernel for the scheduler equivalence tests.

A plain binary heap keyed ``(time, phase, seq)``.  It shares no ring,
window, batch-advance or splice logic with the calendar-queue
:class:`~repro.common.events.Scheduler`, so a bug in any of those shows
up as a diverging trace instead of hiding in both implementations.

Late lanes are modelled with an integer *phase* per cycle.  Cycle ``t``
starts in generation ``g = 0``: normal records posted for ``t`` get
phase ``2g`` and late records phase ``2g + 1``, so a lane runs after
every normal record queued before it.  Popping a generation's first
late record is the kernel's splice: the cycle moves to generation
``g + 1``, so normal records posted from then on (phase ``2g + 2``) run
behind the lane, and a later ``post_late`` for the same cycle opens a
fresh lane (phase ``2g + 3``).  Each lane's first record also posts the
kernel's no-op sentinel as a normal record, which runs, counts in
``pending()`` and counts in ``events_processed`` exactly like the
kernel's.
"""

import heapq
import itertools


def _sentinel():
    """Stands in for the kernel's late-lane sentinel record."""


class HeapScheduler:
    """``post``/``post_at``/``post_late``/``run(until=)`` on one heap."""

    def __init__(self):
        self._heap = []
        self._seq = itertools.count()
        #: cycle -> current late-lane generation.
        self._gen = {}
        #: cycles whose current generation has an unspliced lane.
        self._open_lanes = set()
        self.now = 0
        self.events_processed = 0

    def _push(self, time, phase, callback, args):
        heapq.heappush(
            self._heap, (time, phase, next(self._seq), callback, args)
        )

    def post(self, delay, callback, args=()):
        self.post_at(self.now + delay, callback, args)

    def post_at(self, time, callback, args=()):
        self._push(time, 2 * self._gen.get(time, 0), callback, args)

    def post_late(self, delay, callback, args=()):
        time = self.now + delay
        if time not in self._open_lanes:
            self._open_lanes.add(time)
            self.post_at(time, _sentinel)
        self._push(time, 2 * self._gen.get(time, 0) + 1, callback, args)

    def pending(self):
        return len(self._heap)

    def run(self, until=None):
        """Drain in ``(time, phase, seq)`` order.  ``now`` moves to
        ``until`` only when an event lies beyond it; a drained queue
        leaves ``now`` at the last event run, as the kernel does."""
        heap = self._heap
        while heap:
            time, phase, _seq, callback, args = heap[0]
            if until is not None and time > until:
                self.now = until
                return
            heapq.heappop(heap)
            if phase & 1 and phase >> 1 == self._gen.get(time, 0):
                # First record of this lane: the kernel's splice.
                self._gen[time] = (phase >> 1) + 1
                self._open_lanes.discard(time)
            self.now = time
            self.events_processed += 1
            callback(*args)
