"""Unit tests for the discrete-event engine."""

import pytest

from repro.crowd.events import EventQueue


class TestEventQueue:
    def test_starts_at_zero(self):
        assert EventQueue().now == 0.0

    def test_starts_at_given_time(self):
        assert EventQueue(start_time=5.0).now == 5.0

    def test_schedule_and_pop_advances_clock(self):
        queue = EventQueue()
        queue.schedule(3.0, payload="a")
        assert queue.pop() == "a"
        assert queue.now == 3.0

    def test_pop_order_is_by_time(self):
        queue = EventQueue()
        queue.schedule(5.0, "late")
        queue.schedule(1.0, "early")
        assert queue.pop() == "early"
        assert queue.pop() == "late"

    def test_ties_break_in_insertion_order(self):
        queue = EventQueue()
        queue.schedule(2.0, "first")
        queue.schedule(2.0, "second")
        assert queue.pop() == "first"
        assert queue.pop() == "second"

    def test_schedule_relative_to_the_clock(self):
        queue = EventQueue()
        queue.schedule(2.0)
        queue.pop()
        queue.schedule(queue.now + 3.0, "later")
        assert queue.pop() == "later"
        assert queue.now == pytest.approx(5.0)

    def test_schedule_in_past_rejected(self):
        queue = EventQueue()
        queue.schedule(5.0)
        queue.pop()
        with pytest.raises(ValueError):
            queue.schedule(1.0)

    def test_schedule_before_start_time_rejected(self):
        with pytest.raises(ValueError):
            EventQueue(start_time=2.0).schedule(1.0)

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            EventQueue().pop()

    def test_len_counts_pending_events(self):
        queue = EventQueue()
        queue.schedule(1.0)
        queue.schedule(2.0)
        assert len(queue) == 2

    def test_cancelled_events_are_skipped(self):
        queue = EventQueue()
        first = queue.schedule(1.0, "cancelled")
        queue.schedule(2.0, "kept")
        queue.cancel(first)
        assert len(queue) == 1
        assert queue.pop() == "kept"

    def test_none_payload_pops(self):
        queue = EventQueue()
        queue.schedule(1.0)
        assert queue.pop() is None
        assert queue.events_processed == 1

    def test_advance_to_moves_clock_forward(self):
        queue = EventQueue()
        queue.advance_to(10.0)
        assert queue.now == 10.0

    def test_advance_to_backwards_rejected(self):
        queue = EventQueue()
        queue.advance_to(10.0)
        with pytest.raises(ValueError):
            queue.advance_to(5.0)

    def test_popping_until_empty_yields_all_events_in_order(self):
        queue = EventQueue()
        for t in (3.0, 1.0, 2.0):
            queue.schedule(t, t)
        popped = []
        while queue:
            popped.append(queue.pop())
        assert popped == [1.0, 2.0, 3.0]

    def test_bool_reflects_pending_events(self):
        queue = EventQueue()
        assert not queue
        queue.schedule(1.0)
        assert queue


class TestLivenessTracking:
    """The O(1) live-event counter must stay exact under every transition."""

    def test_len_is_constant_time_counter(self):
        queue = EventQueue()
        handles = [queue.schedule(float(t)) for t in range(1, 101)]
        assert len(queue) == 100
        queue.cancel(handles[3])
        queue.cancel(handles[97])
        assert len(queue) == 98

    def test_double_cancel_decrements_once(self):
        queue = EventQueue()
        handle = queue.schedule(1.0)
        queue.schedule(2.0)
        queue.cancel(handle)
        queue.cancel(handle)
        assert len(queue) == 1
        assert queue

    def test_cancel_after_pop_does_not_corrupt_count(self):
        queue = EventQueue()
        first = queue.schedule(1.0, "first")
        queue.schedule(2.0, "second")
        assert queue.pop() == "first"
        queue.cancel(first)
        assert len(queue) == 1
        assert queue.pop() == "second"
        assert queue.now == 2.0
        assert len(queue) == 0
        assert not queue

    def test_cancel_all_empties_queue(self):
        queue = EventQueue()
        handles = [queue.schedule(t) for t in (1.0, 2.0, 3.0)]
        for handle in handles:
            queue.cancel(handle)
        assert len(queue) == 0
        assert not queue
        with pytest.raises(IndexError):
            queue.pop()

    def test_event_counters_track_schedule_and_pop(self):
        queue = EventQueue()
        cancelled = queue.schedule(1.0)
        queue.schedule(2.0)
        queue.schedule(3.0)
        queue.cancel(cancelled)
        assert queue.events_scheduled == 3
        queue.pop()
        queue.pop()
        # Cancelled events are dropped, not processed.
        assert queue.events_processed == 2


class TestCancelThenPopLiveness:
    """The live counter must stay exact through every cancel/pop interleaving:
    the LifeGuard's dispatch loop reads ``bool(queue)`` once per event, and a
    drifting counter either deadlocks a batch or spins it forever."""

    def test_cancel_before_pop_keeps_len_exact(self):
        queue = EventQueue()
        first = queue.schedule(1.0, "a")
        queue.schedule(2.0, "b")
        assert len(queue) == 2
        queue.cancel(first)
        assert len(queue) == 1
        assert bool(queue)
        # The cancelled event is skipped, not returned.
        assert queue.pop() == "b"
        assert len(queue) == 0
        assert not queue

    def test_cancel_after_pop_does_not_double_count(self):
        queue = EventQueue()
        handle = queue.schedule(1.0, "a")
        queue.schedule(2.0)
        assert queue.pop() == "a"
        # Cancelling an already-popped event must not touch the live count.
        queue.cancel(handle)
        assert len(queue) == 1
        queue.pop()
        assert len(queue) == 0

    def test_double_cancel_counts_once(self):
        queue = EventQueue()
        handle = queue.schedule(1.0)
        queue.schedule(2.0)
        queue.cancel(handle)
        queue.cancel(handle)
        assert len(queue) == 1

    def test_cancel_head_then_pop_skips_it(self):
        queue = EventQueue()
        head = queue.schedule(1.0, "head")
        queue.schedule(2.0, "next")
        queue.cancel(head)
        assert len(queue) == 1
        assert queue.pop() == "next"
        assert queue.now == 2.0

    def test_interleaved_cancel_pop_sequence(self):
        queue = EventQueue()
        handles = [queue.schedule(float(t), t) for t in range(1, 7)]
        queue.cancel(handles[0])
        queue.cancel(handles[3])
        seen = []
        while queue:
            seen.append(queue.pop())
            if seen == [2]:
                queue.cancel(handles[4])
        assert seen == [2, 3, 6]
        assert queue.events_processed == 3


class TestHeapExhaustion:
    def test_pop_from_empty_queue_raises(self):
        queue = EventQueue()
        with pytest.raises(IndexError):
            queue.pop()

    def test_pop_after_draining_raises(self):
        queue = EventQueue()
        queue.schedule(1.0)
        queue.pop()
        with pytest.raises(IndexError):
            queue.pop()

    def test_pop_when_every_event_was_cancelled_raises(self):
        queue = EventQueue()
        handles = [queue.schedule(float(t)) for t in range(1, 4)]
        for handle in handles:
            queue.cancel(handle)
        assert not queue
        assert len(queue) == 0
        with pytest.raises(IndexError):
            queue.pop()
        # Exhaustion by cancellation must not move the clock.
        assert queue.now == 0.0
        assert queue.events_processed == 0

    def test_queue_usable_after_exhaustion(self):
        queue = EventQueue()
        queue.schedule(1.0)
        queue.pop()
        with pytest.raises(IndexError):
            queue.pop()
        queue.schedule(2.0, "again")
        assert queue.pop() == "again"
