"""Randomized flat-vs-legacy kernel equivalence (hypothesis).

The flat :class:`Scheduler` (two-slot bucket records, batch advance,
inline drain cursor) must be observationally identical to
:class:`LegacyScheduler` (object/tuple records, one-cycle cursor): same
callback order, same ``now`` labels, same ``pending()`` at every event,
same ``events_processed``.  Property-based scenarios mix the whole
scheduling surface — ``at``/``after`` (cancellable handles),
``post``/``post_at`` (flat fast path), cancellation before and during
the run, late-lane posts, and sparse far-future delays that force
overflow-heap migration and quiescent window jumps.  Scenarios run on
the default ring and on small rings (16 and 128 slots), where the
flat kernel's lazily created buckets are first touched under
wrap-around, overflow migration and sparse ``_times`` jumps.

Mirrors the hand-rolled heap harness in ``test_events.py``
(``TestCalendarVsReferenceHeap``); here hypothesis owns scenario
generation and shrinking.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.events import DENSE_SPAN, RING_SIZE, LegacyScheduler, Scheduler

#: Delay palette: same-cycle, dense-probe range, just past DENSE_SPAN
#: (sparse ``_times``-heap records), and past the ring window (overflow
#: heap + window jumps).
DELAYS = [0, 1, 2, 3, 7, 17, DENSE_SPAN + 1, 100, RING_SIZE + 5, 2 * RING_SIZE + 13, 4096]

#: Ring sizes: a 16-slot ring wraps every few posts and sends most of
#: the palette through overflow; a 128-slot ring keeps the sparse
#: ``DENSE_SPAN + 1`` and ``100`` delays in-window but past the walk.
RING_SIZES = st.sampled_from([16, 128, RING_SIZE])

_action = st.one_of(
    st.tuples(st.just("after"), st.sampled_from(DELAYS), st.integers(0, 2)),
    st.tuples(st.just("at"), st.sampled_from(DELAYS), st.integers(0, 2)),
    st.tuples(st.just("post"), st.sampled_from(DELAYS)),
    st.tuples(st.just("post_at"), st.sampled_from(DELAYS)),
    st.tuples(st.just("post_late"), st.sampled_from(DELAYS)),
    st.tuples(st.just("cancel"), st.integers(0, 63)),
)

_programs = st.lists(_action, min_size=1, max_size=40)


def _drive(sched, program, untils=()):
    """Run ``program`` on ``sched``; return the full observable trace.

    Respawning callbacks pick their delays deterministically from the
    program (tag arithmetic), so both kernels see byte-for-byte the
    same scenario.
    """
    trace = []
    handles = []
    tags = iter(range(10**9))

    def fire(tag, respawn):
        trace.append((sched.now, tag, sched.pending()))
        if respawn > 0:
            delay = DELAYS[(tag * 7 + respawn) % len(DELAYS)]
            handles.append(sched.after(delay, fire, tag + 1000, respawn - 1))
        # Deterministic mid-run cancellation of an arbitrary live handle.
        if handles and tag % 3 == 0:
            handles.pop(tag % len(handles)).cancel()
        # ... and a late-lane record behind this cycle or a later one.
        if tag % 4 == 1:
            sched.post_late(DELAYS[tag % 5], fire_post, (tag + 2000,))

    def fire_post(tag):
        trace.append((sched.now, tag, sched.pending()))

    for op in program:
        kind = op[0]
        if kind == "after":
            handles.append(sched.after(op[1], fire, next(tags), op[2]))
        elif kind == "at":
            handles.append(sched.at(sched.now + op[1], fire, next(tags), op[2]))
        elif kind == "post":
            sched.post(op[1], fire_post, (next(tags),))
        elif kind == "post_at":
            sched.post_at(sched.now + op[1], fire_post, (next(tags),))
        elif kind == "post_late":
            sched.post_late(op[1], fire_post, (next(tags),))
        else:  # cancel
            if handles:
                handles.pop(op[1] % len(handles)).cancel()

    for until in untils:
        sched.run(until=until)
        trace.append(("now", sched.now, sched.pending()))
    sched.run()
    return trace, sched.now, sched.events_processed, sched.pending()


@settings(deadline=None, max_examples=60)
@given(program=_programs, ring=RING_SIZES)
def test_flat_matches_legacy(program, ring):
    assert _drive(Scheduler(ring), program) == _drive(
        LegacyScheduler(ring), program
    )


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
def test_flat_matches_legacy_with_until(program, untils, ring):
    """Bounded runs: ``until`` cuts mid-window and mid-overflow; the
    final unbounded run drains the rest.  ``until`` values must be
    non-decreasing to be meaningful on both kernels."""
    untils = sorted(untils)
    assert _drive(Scheduler(ring), program, untils) == _drive(
        LegacyScheduler(ring), program, untils
    )


@settings(deadline=None, max_examples=30)
@given(
    delays=st.lists(
        st.sampled_from([RING_SIZE + 1, 3 * RING_SIZE, 5 * RING_SIZE + 77, 4096, 65536]),
        min_size=1,
        max_size=12,
    ),
    cancel_mask=st.integers(0, 2**12 - 1),
    ring=RING_SIZES,
)
def test_sparse_window_jumps_match(delays, cancel_mask, ring):
    """Far-future-only scenarios: every event migrates through the
    overflow heap and the drain cursor batch-advances across long
    quiescent spans; a subset is cancelled before running."""

    def drive(sched):
        trace = []
        handles = [
            sched.after(d, lambda i=i: trace.append((sched.now, i)))
            for i, d in enumerate(delays)
        ]
        for i, handle in enumerate(handles):
            if cancel_mask & (1 << i):
                handle.cancel()
        sched.run()
        return trace, sched.now, sched.events_processed, sched.pending()

    assert drive(Scheduler(ring)) == drive(LegacyScheduler(ring))
