"""Discrete-event scheduler."""

import random

import pytest

from repro.common.errors import SimulationError
from heap_reference import HeapScheduler

from repro.common.events import DENSE_SPAN, RING_SIZE, Scheduler


class TestScheduling:
    def test_runs_in_time_order(self):
        s = Scheduler()
        out = []
        s.post(10, out.append, ("b",))
        s.post(5, out.append, ("a",))
        s.post(20, out.append, ("c",))
        s.run()
        assert out == ["a", "b", "c"]
        assert s.now == 20

    def test_ties_break_by_insertion_order(self):
        s = Scheduler()
        out = []
        for tag in "abc":
            s.post(7, out.append, (tag,))
        s.run()
        assert out == ["a", "b", "c"]

    def test_zero_delay_runs_at_current_time(self):
        s = Scheduler()
        out = []
        s.post(0, out.append, (1,))
        s.run()
        assert s.now == 0 and out == [1]

    def test_negative_delay_rejected(self):
        s = Scheduler()
        with pytest.raises(SimulationError):
            s.post(-1, lambda: None)

    def test_schedule_in_past_rejected(self):
        s = Scheduler()
        s.post(10, lambda: None)
        s.run()
        with pytest.raises(SimulationError):
            s.post_at(5, lambda: None)

    def test_events_scheduled_during_run(self):
        s = Scheduler()
        out = []

        def chain(n):
            out.append(n)
            if n < 3:
                s.post(1, chain, (n + 1,))

        s.post(0, chain, (0,))
        s.run()
        assert out == [0, 1, 2, 3]
        assert s.now == 3


class TestBounds:
    def test_until_stops_before_later_events(self):
        s = Scheduler()
        out = []
        s.post(5, out.append, ("a",))
        s.post(50, out.append, ("b",))
        s.run(until=10)
        assert out == ["a"]
        assert s.now == 10
        s.run()
        assert out == ["a", "b"]

    def test_until_past_a_drained_queue_keeps_last_event_time(self, any_sched):
        """Draining before ``until`` leaves ``now`` at the last event;
        only an event beyond ``until`` moves ``now`` up to it.  The
        reference heap follows the same rule."""
        s = any_sched
        s.post(3, lambda: None)
        s.run(until=100)
        assert s.now == 3
        s.run(until=200)  # nothing queued at all
        assert s.now == 3

    def test_stop_when_predicate(self):
        s = Scheduler()
        out = []
        for i in range(10):
            s.post(i, out.append, (i,))
        s.run(stop_when=lambda: len(out) >= 3)
        assert len(out) == 3

    def test_max_events_guard(self):
        s = Scheduler()

        def forever():
            s.post(1, forever)

        s.post(0, forever)
        with pytest.raises(SimulationError):
            s.run(max_events=100)

    def test_events_processed_counter(self):
        s = Scheduler()
        for i in range(5):
            s.post(i, lambda: None)
        s.run()
        assert s.events_processed == 5

    def test_until_inside_a_bucket(self):
        """`until` between populated cycles of the current ring window."""
        s = Scheduler()
        out = []
        for tag in "ab":
            s.post(5, out.append, (tag,))
        s.post(6, out.append, ("c",))
        s.run(until=5)
        assert out == ["a", "b"]
        assert s.now == 5
        s.run(until=5)  # idempotent: nothing left at or before 5
        assert out == ["a", "b"]
        s.run()
        assert out == ["a", "b", "c"]
        assert s.now == 6

    def test_until_before_overflow_event(self):
        """`until` must not let a window jump run far-future events."""
        s = Scheduler()
        out = []
        s.post(3 * RING_SIZE, out.append, ("far",))
        s.run(until=10)
        assert out == []
        assert s.now == 10
        assert s.pending() == 1
        s.run()
        assert out == ["far"]
        assert s.now == 3 * RING_SIZE

    def test_stop_when_mid_bucket_then_resume(self):
        s = Scheduler()
        out = []
        for tag in "abcd":
            s.post(5, out.append, (tag,))
        s.run(stop_when=lambda: len(out) >= 2)
        assert out == ["a", "b"]
        s.run()
        assert out == ["a", "b", "c", "d"]


class TestCalendarQueueEdges:
    def test_post_zero_runs_same_cycle_in_seq_order(self):
        """post(0) from inside a callback joins the *current* cycle,
        behind everything already queued for it."""
        s = Scheduler()
        out = []

        def first():
            out.append("first")
            s.post(0, out.append, ("spawned",))

        s.post(5, first)
        s.post(5, out.append, ("second",))
        s.run()
        assert out == ["first", "second", "spawned"]
        assert s.now == 5

    def test_pending_excludes_executing_event(self):
        """Inside a callback the event being executed is already popped
        (heap-kernel semantics checkers rely on for quiescence polls)."""
        s = Scheduler()
        seen = []
        s.post(4, lambda: seen.append(s.pending()))
        s.run()
        assert seen == [0]

    def test_event_beyond_ring_window_keeps_time_label(self):
        """An event more than a ring period ahead must run at its own
        time, not an alias one period early."""
        s = Scheduler()
        seen = []
        s.post(0, lambda: None)
        s.post(RING_SIZE + 13, lambda: seen.append(s.now))
        s.run()
        assert seen == [RING_SIZE + 13]


class TestOverflowRecords:
    """Far-future records are flat tuples that migrate as flat pairs."""

    def test_overflow_holds_time_seq_callback_args_tuples(self):
        s = Scheduler(ring_size=16)
        s.post(40, print, ("x",))
        s.post_at(40, print, ("y",))
        assert sorted(s._overflow) == [
            (40, 0, print, ("x",)),
            (40, 1, print, ("y",)),
        ]

    def test_same_cycle_overflow_records_keep_post_order(self):
        s = Scheduler(ring_size=16)
        out = []
        for tag in "abc":
            s.post(3 * 16 + 5, out.append, (tag,))
        s.post(2, out.append, ("near",))
        s.run()
        assert out == ["near", "a", "b", "c"]
        assert s.now == 3 * 16 + 5

    def test_migration_appends_flat_pairs_behind_ring_records(self):
        """A record posted into the ring after the window moved runs
        behind the migrated overflow records of its cycle."""
        s = Scheduler(ring_size=16)
        out = []
        s.post(20, out.append, ("migrated",))

        def late_poster():
            s.post(4, out.append, ("direct",))

        s.post(16, late_poster)
        s.run()
        assert out == ["migrated", "direct"]

    def test_pending_counts_ring_late_and_overflow(self):
        s = Scheduler()
        s.post(1, lambda: None)
        s.post_late(1, lambda: None)  # the record plus its cycle sentinel
        s.post(3 * RING_SIZE, lambda: None)
        assert s.pending() == 4
        assert s.obs_snapshot()["overflow_pending"] == 1
        s.run()
        assert s.pending() == 0
        assert s.events_processed == 4


@pytest.fixture(params=[Scheduler, HeapScheduler], ids=["kernel", "reference"])
def any_sched(request):
    """The kernel and the reference heap must agree on every late-lane
    rule below; running both pins the kernel and validates the model."""
    return request.param()


class TestLateLanes:
    def test_lane_runs_after_same_cycle_zero_delay_posts(self, any_sched):
        s = any_sched
        out = []

        def first():
            out.append("first")
            s.post_late(0, out.append, ("late",))
            s.post(0, out.append, ("spawned",))

        s.post(5, first)
        s.post(5, out.append, ("second",))
        s.run()
        assert out == ["first", "second", "spawned", "late"]

    def test_post_from_late_record_runs_after_the_lane(self, any_sched):
        s = any_sched
        out = []

        def late_a():
            out.append("late-a")
            s.post(0, out.append, ("normal-from-late",))
            s.post_late(0, out.append, ("fresh-lane",))

        s.post_late(2, late_a)
        s.post_late(2, out.append, ("late-b",))
        s.run()
        assert out == ["late-a", "late-b", "normal-from-late", "fresh-lane"]
        assert s.now == 2

    def test_each_lane_adds_one_sentinel_event(self, any_sched):
        s = any_sched
        seen = []
        s.post_late(1, lambda: seen.append(s.pending()))
        s.post_late(1, lambda: None)
        assert s.pending() == 3  # two late records + one sentinel
        s.run()
        assert seen == [1]
        assert s.events_processed == 3


class TestLazyBuckets:
    """Bucket lists exist only for ring slots that have been posted into."""

    def test_fresh_scheduler_allocates_no_buckets(self):
        s = Scheduler()
        assert len(s._ring) == RING_SIZE
        assert all(bucket is None for bucket in s._ring)

    def test_first_post_creates_only_its_bucket(self):
        s = Scheduler()
        s.post(3, lambda: None)
        s.post_at(5, lambda: None)
        s.post(DENSE_SPAN + 9, lambda: None)
        s.post(RING_SIZE + 2, lambda: None)  # overflow: no bucket yet
        assert [i for i, b in enumerate(s._ring) if b is not None] == [
            3, 5, DENSE_SPAN + 9,
        ]
        s.run()
        assert s.now == RING_SIZE + 2
        touched = {i for i, b in enumerate(s._ring) if b is not None}
        assert touched == {3, 5, DENSE_SPAN + 9, 2}
        assert all(not s._ring[i] for i in touched)

    def test_drained_bucket_is_reused(self):
        s = Scheduler(ring_size=16)
        out = []
        s.post(2, out.append, ("a",))
        bucket = s._ring[2]
        s.run()
        assert bucket == [] and s._ring[2] is bucket
        s.post(16, out.append, ("b",))  # one ring period later: same slot
        s.post_late(16, out.append, ("late",))
        assert s._ring[2] is bucket
        s.run()
        assert out == ["a", "b", "late"]
        assert s._ring[2] is bucket and bucket == []


class TestCalendarVsReferenceHeap:
    """Randomized equivalence: identical scenarios through the calendar
    queue and the reference heap (``heap_reference.HeapScheduler``) must
    produce identical traces."""

    @pytest.mark.parametrize("ring", [16, 128, RING_SIZE])
    @pytest.mark.parametrize("seed", range(8))
    def test_random_traces_match(self, seed, ring):
        def drive(sched):
            rng = random.Random(seed)
            trace = []

            def fire(tag, respawn):
                trace.append((sched.now, tag, sched.pending()))
                if respawn > 0:
                    delay = rng.choice((0, 1, 2, 3, 17, RING_SIZE + 5, 4096))
                    sched.post(delay, fire, (f"{tag}.{respawn}", respawn - 1))
                if rng.random() < 0.2:
                    sched.post_late(rng.randrange(0, 4), fire, (tag + "L", 0))

            for i in range(25):
                sched.post_at(
                    rng.randrange(0, 3 * RING_SIZE), fire,
                    (str(i), rng.randrange(0, 4)),
                )
            sched.run()
            return trace, sched.now, sched.events_processed, sched.pending()

        assert drive(Scheduler(ring)) == drive(HeapScheduler())

    @pytest.mark.parametrize("ring", [16, 128, RING_SIZE])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_traces_match_with_until(self, seed, ring):
        def drive(sched):
            rng = random.Random(1000 + seed)
            trace = []

            def fire(tag):
                trace.append((sched.now, tag))
                if rng.random() < 0.5:
                    sched.post(rng.randrange(0, 2 * RING_SIZE), fire, (tag + "'",))

            for i in range(20):
                sched.post(rng.randrange(0, 4 * RING_SIZE), fire, (str(i),))
            for until in (10, RING_SIZE, 2 * RING_SIZE + 31, None):
                sched.run(until=until)
                trace.append(("now", sched.now))
            return trace

        assert drive(Scheduler(ring)) == drive(HeapScheduler())
