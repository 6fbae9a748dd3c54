"""Discrete-event simulation engine used by the crowd substrate.

The CLAMShell paper evaluates its techniques both in simulation and on live
Mechanical Turk workers.  This module provides the event engine that the
simulated crowd platform is built on: a priority queue of timestamped events
that owns the simulation clock.  Events are processed in non-decreasing time order;
ties are broken deterministically by a monotonically increasing sequence
number so that runs are reproducible for a fixed random seed.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Iterator, Optional


class EventKind(Enum):
    """Kinds of events the crowd simulator schedules."""

    ASSIGNMENT_FINISHED = "assignment_finished"
    WORKER_RECRUITED = "worker_recruited"
    WORKER_ABANDONED = "worker_abandoned"
    BATCH_DISPATCHED = "batch_dispatched"
    MAINTENANCE_TICK = "maintenance_tick"
    MODEL_RETRAINED = "model_retrained"
    CUSTOM = "custom"


@dataclass(order=False)
class Event:
    """A single timestamped simulation event.

    Attributes
    ----------
    time:
        Simulation time (seconds) at which the event fires.
    kind:
        The :class:`EventKind` of the event.
    payload:
        Arbitrary data attached by the scheduler (e.g. an assignment).
    seq:
        Tie-breaking sequence number assigned by the queue.
    cancelled:
        Lazily-cancelled events are skipped when popped.
    """

    time: float
    kind: EventKind
    payload: Any = None
    seq: int = 0
    cancelled: bool = False
    #: Owning queue, set by :meth:`EventQueue.schedule`, so cancellation can
    #: keep the queue's live-event counter exact without a heap scan.
    _queue: Optional["EventQueue"] = field(default=None, repr=False, compare=False)
    #: Whether the event is still sitting in its queue's heap.
    _pending: bool = field(default=False, repr=False, compare=False)

    def __lt__(self, other: "Event") -> bool:
        # Events are heap entries themselves (no wrapper tuples); ordering is
        # (time, seq), i.e. chronological with deterministic FIFO tie-breaks.
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def cancel(self) -> None:
        """Mark the event so the queue will skip it when it is popped."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._pending and self._queue is not None:
            self._queue._note_cancelled()


class EventQueue:
    """A deterministic priority queue of :class:`Event` objects.

    Events with equal timestamps are returned in insertion order.  The queue
    never moves time backwards: scheduling an event earlier than the current
    clock raises ``ValueError``.
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._heap: list[Event] = []
        self._counter = itertools.count()
        self._now = float(start_time)
        self._events_scheduled = 0
        self._events_processed = 0
        #: Number of non-cancelled events currently in the heap.  Maintained
        #: on push/pop/cancel so ``len(queue)`` / ``bool(queue)`` are O(1);
        #: the platform's dispatch loop checks liveness once per event, so a
        #: heap scan here would make the whole simulation quadratic.
        self._live = 0

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_scheduled(self) -> int:
        """Total events ever scheduled onto this queue."""
        return self._events_scheduled

    @property
    def events_processed(self) -> int:
        """Total non-cancelled events popped off this queue."""
        return self._events_processed

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def schedule(self, time: float, kind: EventKind, payload: Any = None) -> Event:
        """Schedule an event at absolute simulation ``time``.

        Returns the :class:`Event`, which the caller may later ``cancel()``.
        """
        if time < self._now:
            raise ValueError(
                f"cannot schedule event at t={time:.3f} before current time "
                f"t={self._now:.3f}"
            )
        seq = next(self._counter)
        event = Event(time=float(time), kind=kind, payload=payload, seq=seq)
        event._queue = self
        event._pending = True
        heapq.heappush(self._heap, event)
        self._events_scheduled += 1
        self._live += 1
        return event

    def schedule_in(self, delay: float, kind: EventKind, payload: Any = None) -> Event:
        """Schedule an event ``delay`` seconds after the current time."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        return self.schedule(self._now + delay, kind, payload)

    def peek(self) -> Optional[Event]:
        """Return the next non-cancelled event without removing it."""
        self._drop_cancelled()
        if not self._heap:
            return None
        return self._heap[0]

    def pop(self) -> Event:
        """Remove and return the next event, advancing the clock to it."""
        self._drop_cancelled()
        if not self._heap:
            raise IndexError("pop from an empty EventQueue")
        event = heapq.heappop(self._heap)
        event._pending = False
        self._now = event.time
        self._events_processed += 1
        self._live -= 1
        return event

    def advance_to(self, time: float) -> None:
        """Advance the clock to ``time`` without processing events.

        Used when an external driver (e.g. the batcher) wants to account for
        think-time between batches.  Raises if ``time`` is in the past.
        """
        if time < self._now:
            raise ValueError(
                f"cannot advance clock backwards from {self._now:.3f} to {time:.3f}"
            )
        self._now = float(time)

    def drain(self) -> Iterator[Event]:
        """Yield events in order until the queue is empty."""
        while self:
            yield self.pop()

    def _note_cancelled(self) -> None:
        """A pending event was cancelled: it no longer counts as live."""
        self._live -= 1

    def _drop_cancelled(self) -> None:
        # Cancelled events already left the live count when they were
        # cancelled; here they only leave the heap.
        heap = self._heap
        while heap and heap[0].cancelled:
            heapq.heappop(heap)._pending = False
