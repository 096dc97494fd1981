"""Streaming verification plane: batch DVMC checking off the hot loop.

The simulator's hot loop used to pay the full checker cost on every
committed/performed operation.  This module provides the log substrate
that moves the *pure observer* part of that work off the per-event
path:

* Cores append ints-only records into an ``array``-backed
  :class:`OpLog` (no per-operation object allocation, no dict churn).
  The backing array starts small and doubles as records arrive, up to
  the log's fixed capacity, so a short run never pays for the full
  segment.
* The owning checker drains a whole log segment in one call at its
  natural observation points (membar-injection heartbeats, log-full,
  ``DVMC.finalize``), with attribute lookups hoisted out of the loop.

Only verification that feeds *nothing* back into the simulation may be
deferred this way.  The Allowable Reordering checker qualifies: it is a
pure function from the (op type, seq, mask, cycle) stream to violation
reports and max-counter updates.  The Uniprocessor Ordering checker
does **not** qualify — VC backpressure stalls the verify stage and
replays read the live L1 — so it stays synchronous and instead gains a
batch entry point (:meth:`~repro.dvmc.uniprocessor.
UniprocessorOrderingChecker.commit_stores`) that drains a run of the
verify queue in one call.  The Coherence checker's inform stream is
already deferred architecturally (the MET's begin-sorted priority
queue); its batch path lives in
:meth:`~repro.dvmc.coherence_checker.CoherenceChecker.handle_batch`.

Because every record carries the cycle at which the event was
*observed*, a drained checker reports the same violations with the
same timestamps as an eager one; ``REPRO_EAGER_CHECK=1`` disables log
attachment entirely and the two modes are bit-identical (violations
and stats), which the performance benchmark asserts.
"""

from __future__ import annotations

from array import array
from typing import Callable, Optional

#: Ints per record.  All logs use one fixed record width so a drain
#: loop is a single stride walk over the backing array.
RECORD_WIDTH = 6

#: Default log capacity in records.  A segment this size amortises the
#: per-drain overhead thousands of ways; the backing array only reaches
#: it (192 KiB) on a run long enough to fill it.
LOG_RECORDS = 4096

#: Records the backing array holds before its first growth.
INITIAL_RECORDS = 64


class OpLog:
    """Ring of fixed-width integer records with a lazily grown buffer.

    The log is deliberately dumb: the owning checker writes fields
    directly into :attr:`buf` at offset :attr:`length` and bumps
    ``length`` by :data:`RECORD_WIDTH` (inlined at the call site — one
    method call per record would defeat the purpose).  When an append
    finds the buffer full (``length == allocated``) the owner calls
    :meth:`grow`, which doubles the buffer up to :attr:`capacity`;
    once the buffer is at capacity the owner drains it in place and
    restarts at offset zero instead, so drains happen exactly every
    ``capacity`` slots and record tuples are never materialised.
    """

    __slots__ = ("buf", "length", "allocated", "capacity", "on_full")

    def __init__(
        self,
        records: int = LOG_RECORDS,
        on_full: Optional[Callable[[], None]] = None,
    ):
        self.capacity = records * RECORD_WIDTH
        #: Array slots currently backed by :attr:`buf` (<= capacity).
        self.allocated = min(records, INITIAL_RECORDS) * RECORD_WIDTH
        #: Signed 64-bit storage: every logged field (op codes, sequence
        #: numbers, membar masks, table ids, cycles) is a machine int.
        self.buf = array("q", bytes(8 * self.allocated))
        self.length = 0
        self.on_full = on_full

    def grow(self) -> None:
        """Double the backing array, never past :attr:`capacity`."""
        extra = min(self.allocated, self.capacity - self.allocated)
        self.buf.frombytes(bytes(8 * extra))
        self.allocated += extra

    def __len__(self) -> int:
        return self.length // RECORD_WIDTH

    @property
    def full(self) -> bool:
        return self.length >= self.capacity

    def clear(self) -> None:
        self.length = 0

    def stats(self) -> dict:
        """Observable interface: fill level in records, not array slots."""
        return {
            "records": self.length // RECORD_WIDTH,
            "capacity_records": self.capacity // RECORD_WIDTH,
            "fill": (self.length / self.capacity) if self.capacity else 0.0,
        }
