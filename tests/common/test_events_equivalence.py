"""Randomized kernel-vs-reference-heap equivalence (hypothesis).

The calendar-queue :class:`Scheduler` (two-slot bucket records, batch
advance, inline drain cursor, late-lane splices) must be
observationally identical to ``heap_reference.HeapScheduler``, a plain
``(time, phase, seq)`` binary heap that shares none of that machinery:
same callback order, same ``now`` labels, same ``pending()`` at every
event, same ``events_processed``.  Property-based scenarios mix the
whole scheduling surface — ``post``/``post_at``, late-lane posts (from
the driver, from normal records and from late records, including
``post_late(0)`` inside a running lane), and sparse far-future delays
that force overflow-heap migration and quiescent window jumps.
Scenarios run on the default ring and on small rings (16 and 128
slots), where lazily created buckets are first touched under
wrap-around, overflow migration and sparse ``_times`` jumps.

Mirrors the hand-rolled harness in ``test_events.py``
(``TestCalendarVsReferenceHeap``); here hypothesis owns scenario
generation and shrinking.
"""

from heap_reference import HeapScheduler
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.events import DENSE_SPAN, RING_SIZE, Scheduler

#: Delay palette: same-cycle, dense-probe range, just past DENSE_SPAN
#: (sparse ``_times``-heap records), and past the ring window (overflow
#: heap + window jumps).
DELAYS = [0, 1, 2, 3, 7, 17, DENSE_SPAN + 1, 100, RING_SIZE + 5, 2 * RING_SIZE + 13, 4096]

#: Ring sizes: a 16-slot ring wraps every few posts and sends most of
#: the palette through overflow; a 128-slot ring keeps the sparse
#: ``DENSE_SPAN + 1`` and ``100`` delays in-window but past the walk.
RING_SIZES = st.sampled_from([16, 128, RING_SIZE])

_action = st.tuples(
    st.sampled_from(["post", "post_at", "post_late"]),
    st.sampled_from(DELAYS),
    st.integers(0, 2),
)

_programs = st.lists(_action, min_size=1, max_size=40)


def _drive(sched, program, untils=()):
    """Run ``program`` on ``sched``; return the full observable trace.

    Respawning callbacks pick their delays and scheduling calls
    deterministically from the program (tag arithmetic), so both
    kernels see byte-for-byte the same scenario.  Late records keep
    their tag's residue, so a late record with ``tag % 20 == 5``
    respawns ``post_late(0)`` into a fresh lane of its own cycle.
    """
    trace = []
    tags = iter(range(10**9))

    def fire(tag, respawn):
        trace.append((sched.now, tag, sched.pending()))
        if respawn <= 0:
            return
        delay = DELAYS[(tag * 7 + respawn) % len(DELAYS)]
        if tag % 2:
            sched.post(delay, fire, (tag + 1000, respawn - 1))
        else:
            sched.post_at(sched.now + delay, fire, (tag + 1000, respawn - 1))
        # ... and a late-lane record behind this cycle or a later one.
        if tag % 4 == 1:
            sched.post_late(DELAYS[tag % 5], fire, (tag + 2000, respawn - 1))

    for kind, delay, respawn in program:
        args = (next(tags), respawn)
        if kind == "post":
            sched.post(delay, fire, args)
        elif kind == "post_at":
            sched.post_at(sched.now + delay, fire, args)
        else:
            sched.post_late(delay, fire, args)

    for until in untils:
        sched.run(until=until)
        trace.append(("now", sched.now, sched.pending()))
    sched.run()
    return trace, sched.now, sched.events_processed, sched.pending()


@settings(deadline=None, max_examples=60)
@given(program=_programs, ring=RING_SIZES)
def test_kernel_matches_heap_reference(program, ring):
    assert _drive(Scheduler(ring), program) == _drive(HeapScheduler(), program)


@settings(deadline=None, max_examples=40)
@given(
    program=_programs,
    untils=st.lists(
        st.sampled_from([10, DENSE_SPAN, RING_SIZE, 2 * RING_SIZE + 31, 5000]),
        min_size=1,
        max_size=3,
    ),
    ring=RING_SIZES,
)
def test_kernel_matches_heap_reference_with_until(program, untils, ring):
    """Bounded runs: ``until`` cuts mid-window and mid-overflow; the
    final unbounded run drains the rest.  ``until`` values must be
    non-decreasing to be meaningful on both kernels."""
    untils = sorted(untils)
    assert _drive(Scheduler(ring), program, untils) == _drive(
        HeapScheduler(), program, untils
    )


@settings(deadline=None, max_examples=30)
@given(
    delays=st.lists(
        st.sampled_from([RING_SIZE + 1, 3 * RING_SIZE, 5 * RING_SIZE + 77, 4096, 65536]),
        min_size=1,
        max_size=12,
    ),
    ring=RING_SIZES,
)
def test_sparse_window_jumps_match(delays, ring):
    """Far-future-only scenarios: every event migrates through the
    overflow heap and the drain cursor batch-advances across long
    quiescent spans."""

    def drive(sched):
        trace = []
        for i, d in enumerate(delays):
            sched.post(d, lambda i=i: trace.append((sched.now, i, sched.pending())))
        sched.run()
        return trace, sched.now, sched.events_processed, sched.pending()

    assert drive(Scheduler(ring)) == drive(HeapScheduler())
