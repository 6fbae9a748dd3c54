"""Unit tests for the discrete-event engine."""

import pytest

from repro.crowd.events import EventKind, EventQueue


class TestEventQueue:
    def test_starts_at_zero(self):
        assert EventQueue().now == 0.0

    def test_starts_at_given_time(self):
        assert EventQueue(start_time=5.0).now == 5.0

    def test_schedule_and_pop_advances_clock(self):
        queue = EventQueue()
        queue.schedule(3.0, EventKind.CUSTOM, payload="a")
        event = queue.pop()
        assert event.payload == "a"
        assert queue.now == 3.0

    def test_pop_order_is_by_time(self):
        queue = EventQueue()
        queue.schedule(5.0, EventKind.CUSTOM, "late")
        queue.schedule(1.0, EventKind.CUSTOM, "early")
        assert queue.pop().payload == "early"
        assert queue.pop().payload == "late"

    def test_ties_break_in_insertion_order(self):
        queue = EventQueue()
        queue.schedule(2.0, EventKind.CUSTOM, "first")
        queue.schedule(2.0, EventKind.CUSTOM, "second")
        assert queue.pop().payload == "first"
        assert queue.pop().payload == "second"

    def test_schedule_in_uses_relative_delay(self):
        queue = EventQueue()
        queue.schedule(2.0, EventKind.CUSTOM)
        queue.pop()
        event = queue.schedule_in(3.0, EventKind.CUSTOM)
        assert event.time == pytest.approx(5.0)

    def test_schedule_in_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().schedule_in(-1.0, EventKind.CUSTOM)

    def test_schedule_in_past_rejected(self):
        queue = EventQueue()
        queue.schedule(5.0, EventKind.CUSTOM)
        queue.pop()
        with pytest.raises(ValueError):
            queue.schedule(1.0, EventKind.CUSTOM)

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            EventQueue().pop()

    def test_len_counts_pending_events(self):
        queue = EventQueue()
        queue.schedule(1.0, EventKind.CUSTOM)
        queue.schedule(2.0, EventKind.CUSTOM)
        assert len(queue) == 2

    def test_cancelled_events_are_skipped(self):
        queue = EventQueue()
        first = queue.schedule(1.0, EventKind.CUSTOM, "cancelled")
        queue.schedule(2.0, EventKind.CUSTOM, "kept")
        first.cancel()
        assert len(queue) == 1
        assert queue.pop().payload == "kept"

    def test_peek_does_not_advance_clock(self):
        queue = EventQueue()
        queue.schedule(4.0, EventKind.CUSTOM, "x")
        peeked = queue.peek()
        assert peeked is not None and peeked.payload == "x"
        assert queue.now == 0.0

    def test_peek_empty_returns_none(self):
        assert EventQueue().peek() is None

    def test_advance_to_moves_clock_forward(self):
        queue = EventQueue()
        queue.advance_to(10.0)
        assert queue.now == 10.0

    def test_advance_to_backwards_rejected(self):
        queue = EventQueue()
        queue.advance_to(10.0)
        with pytest.raises(ValueError):
            queue.advance_to(5.0)

    def test_drain_yields_all_events_in_order(self):
        queue = EventQueue()
        for t in (3.0, 1.0, 2.0):
            queue.schedule(t, EventKind.CUSTOM, t)
        assert [e.payload for e in queue.drain()] == [1.0, 2.0, 3.0]

    def test_bool_reflects_pending_events(self):
        queue = EventQueue()
        assert not queue
        queue.schedule(1.0, EventKind.CUSTOM)
        assert queue


class TestLivenessTracking:
    """The O(1) live-event counter must stay exact under every transition."""

    def test_len_is_constant_time_counter(self):
        queue = EventQueue()
        events = [queue.schedule(float(t), EventKind.CUSTOM) for t in range(1, 101)]
        assert len(queue) == 100
        events[3].cancel()
        events[97].cancel()
        assert len(queue) == 98

    def test_double_cancel_decrements_once(self):
        queue = EventQueue()
        event = queue.schedule(1.0, EventKind.CUSTOM)
        queue.schedule(2.0, EventKind.CUSTOM)
        event.cancel()
        event.cancel()
        assert len(queue) == 1
        assert queue

    def test_cancel_after_pop_does_not_corrupt_count(self):
        queue = EventQueue()
        first = queue.schedule(1.0, EventKind.CUSTOM)
        queue.schedule(2.0, EventKind.CUSTOM)
        popped = queue.pop()
        assert popped is first
        popped.cancel()
        assert len(queue) == 1
        assert queue.pop().time == 2.0
        assert len(queue) == 0
        assert not queue

    def test_cancel_all_empties_queue(self):
        queue = EventQueue()
        events = [queue.schedule(float(t), EventKind.CUSTOM) for t in (1.0, 2.0, 3.0)]
        for event in events:
            event.cancel()
        assert len(queue) == 0
        assert not queue
        assert queue.peek() is None
        with pytest.raises(IndexError):
            queue.pop()

    def test_cancelled_event_skipped_by_peek_keeps_count(self):
        queue = EventQueue()
        first = queue.schedule(1.0, EventKind.CUSTOM, "a")
        queue.schedule(2.0, EventKind.CUSTOM, "b")
        first.cancel()
        peeked = queue.peek()
        assert peeked is not None and peeked.payload == "b"
        assert len(queue) == 1

    def test_standalone_event_cancel_is_safe(self):
        # Events constructed outside a queue can still be cancelled.
        from repro.crowd.events import Event

        event = Event(time=1.0, kind=EventKind.CUSTOM)
        event.cancel()
        assert event.cancelled

    def test_event_counters_track_schedule_and_pop(self):
        queue = EventQueue()
        cancelled = queue.schedule(1.0, EventKind.CUSTOM)
        queue.schedule(2.0, EventKind.CUSTOM)
        queue.schedule(3.0, EventKind.CUSTOM)
        cancelled.cancel()
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
        first = queue.schedule(1.0, EventKind.CUSTOM, "a")
        queue.schedule(2.0, EventKind.CUSTOM, "b")
        assert len(queue) == 2
        first.cancel()
        assert len(queue) == 1
        assert bool(queue)
        # The cancelled event is skipped, not returned.
        assert queue.pop().payload == "b"
        assert len(queue) == 0
        assert not queue

    def test_cancel_after_pop_does_not_double_count(self):
        queue = EventQueue()
        event = queue.schedule(1.0, EventKind.CUSTOM)
        queue.schedule(2.0, EventKind.CUSTOM)
        popped = queue.pop()
        assert popped is event
        # Cancelling an already-popped event must not touch the live count.
        event.cancel()
        assert len(queue) == 1
        queue.pop()
        assert len(queue) == 0

    def test_double_cancel_counts_once(self):
        queue = EventQueue()
        event = queue.schedule(1.0, EventKind.CUSTOM)
        queue.schedule(2.0, EventKind.CUSTOM)
        event.cancel()
        event.cancel()
        assert len(queue) == 1

    def test_cancel_head_then_peek_advances_past_it(self):
        queue = EventQueue()
        head = queue.schedule(1.0, EventKind.CUSTOM, "head")
        queue.schedule(2.0, EventKind.CUSTOM, "next")
        head.cancel()
        peeked = queue.peek()
        assert peeked is not None and peeked.payload == "next"
        # Peek must not consume liveness.
        assert len(queue) == 1

    def test_interleaved_cancel_pop_sequence(self):
        queue = EventQueue()
        events = [queue.schedule(float(t), EventKind.CUSTOM, t) for t in range(1, 7)]
        events[0].cancel()
        events[3].cancel()
        seen = []
        while queue:
            seen.append(queue.pop().payload)
            if seen == [2]:
                events[4].cancel()
        assert seen == [2, 3, 6]
        assert queue.events_processed == 3


class TestHeapExhaustion:
    def test_pop_from_empty_queue_raises(self):
        queue = EventQueue()
        with pytest.raises(IndexError):
            queue.pop()

    def test_pop_after_draining_raises(self):
        queue = EventQueue()
        queue.schedule(1.0, EventKind.CUSTOM)
        queue.pop()
        with pytest.raises(IndexError):
            queue.pop()

    def test_pop_when_every_event_was_cancelled_raises(self):
        queue = EventQueue()
        events = [queue.schedule(float(t), EventKind.CUSTOM) for t in range(1, 4)]
        for event in events:
            event.cancel()
        assert not queue
        assert len(queue) == 0
        with pytest.raises(IndexError):
            queue.pop()
        # Exhaustion by cancellation must not move the clock.
        assert queue.now == 0.0

    def test_peek_on_cancelled_only_heap_returns_none(self):
        queue = EventQueue()
        event = queue.schedule(1.0, EventKind.CUSTOM)
        event.cancel()
        assert queue.peek() is None

    def test_queue_usable_after_exhaustion(self):
        queue = EventQueue()
        queue.schedule(1.0, EventKind.CUSTOM)
        queue.pop()
        with pytest.raises(IndexError):
            queue.pop()
        queue.schedule(2.0, EventKind.CUSTOM, "again")
        assert queue.pop().payload == "again"
