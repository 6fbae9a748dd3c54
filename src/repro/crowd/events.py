"""Discrete-event simulation engine used by the crowd substrate.

The CLAMShell paper evaluates its techniques both in simulation and on live
Mechanical Turk workers.  This module provides the event engine that the
simulated crowd platform is built on: a priority queue that owns the
simulation clock.  Its heap holds plain ``[time, seq, payload]`` lists, so
the ordering is the interpreter's own list comparison: chronological, with
ties broken by a monotonically increasing sequence number so that runs are
reproducible for a fixed random seed.

Cancellation follows the mark-as-removed pattern from the :mod:`heapq`
documentation: :meth:`EventQueue.schedule` returns the entry itself as the
cancel handle, :meth:`EventQueue.cancel` overwrites its payload with a
sentinel, and :meth:`EventQueue.pop` discards marked entries as they reach
the top of the heap.  A popped entry is marked too, so cancelling it later
is a no-op.
"""

from __future__ import annotations

import heapq
from typing import Any

#: Payload of an entry that was cancelled or already popped.
_REMOVED = object()

#: A scheduled entry, ``[time, seq, payload]``; also its cancel handle.
Entry = list[Any]


class EventQueue:
    """A deterministic priority queue of timestamped payloads.

    Payloads with equal timestamps are returned in schedule order.  The
    queue never moves time backwards: scheduling earlier than the current
    clock raises ``ValueError``.
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._heap: list[Entry] = []
        self._now = float(start_time)
        #: Also the next entry's tie-breaking sequence number.
        self._events_scheduled = 0
        self._events_processed = 0
        #: Number of live (neither cancelled nor popped) entries in the heap,
        #: kept on schedule/pop/cancel so ``len``/``bool`` are O(1): the
        #: LifeGuard's loop checks liveness once per event.
        self._live = 0

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_scheduled(self) -> int:
        """Total entries ever scheduled onto this queue."""
        return self._events_scheduled

    @property
    def events_processed(self) -> int:
        """Total payloads returned by :meth:`pop`."""
        return self._events_processed

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def schedule(self, time: float, payload: Any = None) -> Entry:
        """Schedule ``payload`` at absolute simulation ``time``.

        Returns the heap entry, the handle :meth:`cancel` takes.
        """
        if time < self._now:
            raise ValueError(
                f"cannot schedule event at t={time:.3f} before current time "
                f"t={self._now:.3f}"
            )
        seq = self._events_scheduled
        entry = [float(time), seq, payload]
        heapq.heappush(self._heap, entry)
        self._events_scheduled = seq + 1
        self._live += 1
        return entry

    def cancel(self, entry: Entry) -> None:
        """Mark ``entry`` removed; a no-op if it was cancelled or popped."""
        if entry[2] is not _REMOVED:
            entry[2] = _REMOVED
            self._live -= 1

    def pop(self) -> Any:
        """Remove the next live entry, advance the clock to it, return its payload."""
        heap = self._heap
        while heap:
            entry = heapq.heappop(heap)
            payload = entry[2]
            if payload is not _REMOVED:
                entry[2] = _REMOVED
                self._now = entry[0]
                self._events_processed += 1
                self._live -= 1
                return payload
        raise IndexError("pop from an empty EventQueue")

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
