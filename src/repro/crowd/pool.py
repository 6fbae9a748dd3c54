"""The retainer pool: pre-recruited workers held ready in slots.

Bernstein et al.'s retainer model pre-recruits a pool of crowd workers and
pays them a small waiting wage to stay available, eliminating recruitment
latency from the critical path.  CLAMShell builds on that model (§2.2, §3):
the Crowd Platform holds a set of slots, each corresponding to a persistent
retainer task that a worker has accepted.  A slot is *available* when the
worker is idle and *active* when they are working on a task.

This module tracks slot state, worker observations (for pool maintenance),
and waiting/working time (for cost accounting).  Everything known about a
seated worker lives on their :class:`Slot`.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field
from itertools import count
from typing import Iterable, Optional

from .worker import WorkerDrawBlock, WorkerObservations, WorkerProfile


@dataclass(slots=True)
class Slot:
    """One retainer slot occupied by a worker."""

    worker: WorkerProfile
    #: Seat number within the pool.  Seats count up per pool, so ascending
    #: seats are seating order.
    seat: int
    joined_at: float = 0.0
    #: Id of the assignment the worker is currently working on; ``None``
    #: exactly while the slot is available.  Set by
    #: :meth:`RetainerPool.mark_active`, cleared by
    #: :meth:`RetainerPool.mark_available`; consumers resolving it against
    #: assignment state (``replace_worker``, ``active_assignment_for_worker``)
    #: must still check the assignment is in flight — a caller driving slot
    #: transitions directly can leave an id no assignment holds.
    current_assignment_id: Optional[int] = None
    #: Time at which the slot last became available (for waiting-cost accrual).
    available_since: float = 0.0
    #: Accumulated seconds spent waiting (paid at the waiting rate).
    waiting_seconds: float = 0.0
    #: Accumulated seconds spent working on assignments (complete or not).
    working_seconds: float = 0.0
    #: What maintenance and TermEst have seen of the worker.
    observations: WorkerObservations = field(init=False)
    #: The worker's pre-drawn RNG block, made by the platform on the first
    #: draw and dropped when the worker departs (ids are never reseated).
    draw_block: Optional[WorkerDrawBlock] = None

    def __post_init__(self) -> None:
        self.observations = WorkerObservations(self.worker.worker_id)

    @property
    def worker_id(self) -> int:
        return self.worker.worker_id

    @property
    def is_available(self) -> bool:
        return self.current_assignment_id is None


class RetainerPool:
    """The set of retainer slots currently held on the crowd platform."""

    def __init__(self) -> None:
        self._slots: dict[int, Slot] = {}
        #: Workers who have left (evicted or abandoned), kept for accounting.
        self._departed_slots: list[Slot] = []
        self._seats = count()
        #: The member in each seat.
        self._slot_at: dict[int, Slot] = {}
        #: Ascending seats of currently-available workers.
        self._available_seats: list[int] = []

    # -- membership ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._slots)

    def __contains__(self, worker_id: int) -> bool:
        return worker_id in self._slots

    @property
    def size(self) -> int:
        return len(self._slots)

    @property
    def worker_ids(self) -> list[int]:
        return list(self._slots.keys())

    def slots(self) -> list[Slot]:
        return list(self._slots.values())

    def slot(self, worker_id: int) -> Slot:
        return self._slots[worker_id]

    def seated(self, worker_id: int) -> Optional[Slot]:
        """The worker's slot, or ``None`` once they have left the pool."""
        return self._slots.get(worker_id)

    def worker(self, worker_id: int) -> WorkerProfile:
        return self._slots[worker_id].worker

    def observations(self, worker_id: int) -> WorkerObservations:
        return self._slots[worker_id].observations

    def all_observations(self) -> dict[int, WorkerObservations]:
        return {worker_id: slot.observations for worker_id, slot in self._slots.items()}

    def departed_slots(self) -> list[Slot]:
        return list(self._departed_slots)

    def add_worker(self, worker: WorkerProfile, now: float) -> Slot:
        """Seat ``worker`` in a new available slot at time ``now``."""
        if worker.worker_id in self._slots:
            raise ValueError(f"worker {worker.worker_id} is already in the pool")
        slot = Slot(
            worker=worker, seat=next(self._seats), joined_at=now, available_since=now
        )
        self._slots[worker.worker_id] = slot
        self._slot_at[slot.seat] = slot
        # The newest seat is the highest, so appending keeps the order.
        self._available_seats.append(slot.seat)
        return slot

    def remove_worker(self, worker_id: int, now: float) -> Slot:
        """Remove a worker (eviction or abandonment), finalising their waiting time."""
        if worker_id not in self._slots:
            raise KeyError(f"worker {worker_id} is not in the pool")
        slot = self._slots.pop(worker_id)
        if slot.is_available:
            slot.waiting_seconds += max(0.0, now - slot.available_since)
            self._discard_available(slot.seat)
        del self._slot_at[slot.seat]
        slot.draw_block = None
        self._departed_slots.append(slot)
        return slot

    # -- availability -------------------------------------------------------

    def available_workers(self) -> list[Slot]:
        """Available slots in seating order.

        Walks the incrementally-maintained seat list instead of scanning
        every slot per simulation event (the scan was a top-three profile
        entry at 1000-worker pools).  Seating order is not id order: a
        background-reserve recruit can land, and be seated, before one
        recruited earlier.
        """
        slot_at = self._slot_at
        return [slot_at[seat] for seat in self._available_seats]

    def num_available(self) -> int:
        return len(self._available_seats)

    def first_available(self) -> Optional[Slot]:
        """The available slot seated earliest, or ``None``."""
        seats = self._available_seats
        return self._slot_at[seats[0]] if seats else None

    def mark_active(self, slot: Slot, assignment_id: int, now: float) -> None:
        """Transition a seated slot from available to active, accruing waiting time.

        The pool's transitions take the :class:`Slot` itself (from
        :meth:`slot`), so the caller that looked it up pays for one lookup.
        """
        if slot.current_assignment_id is not None:
            raise ValueError(f"worker {slot.worker.worker_id} is not available")
        waited = now - slot.available_since
        if waited > 0.0:
            slot.waiting_seconds += waited
        slot.current_assignment_id = assignment_id
        self._discard_available(slot.seat)

    def mark_available(self, slot: Slot, now: float, worked_seconds: float) -> None:
        """Transition a seated slot from active back to available.

        ``worked_seconds`` is the time spent on the just-ended assignment,
        completed or terminated.
        """
        if slot.current_assignment_id is None:
            raise ValueError(f"worker {slot.worker.worker_id} is not active")
        slot.current_assignment_id = None
        slot.available_since = now
        if worked_seconds > 0.0:
            slot.working_seconds += worked_seconds
        insort(self._available_seats, slot.seat)

    def _discard_available(self, seat: int) -> None:
        seats = self._available_seats
        index = bisect_left(seats, seat)
        if index < len(seats) and seats[index] == seat:
            seats.pop(index)

    # -- accounting ----------------------------------------------------------

    def settle_waiting(self, now: float) -> None:
        """Accrue waiting time for all currently-available slots up to ``now``.

        Called at the end of a run so that waiting cost includes the final
        stretch of idle time.
        """
        for slot in self._slots.values():
            if slot.is_available:
                slot.waiting_seconds += max(0.0, now - slot.available_since)
                slot.available_since = now

    def total_waiting_seconds(self) -> float:
        current = sum(s.waiting_seconds for s in self._slots.values())
        departed = sum(s.waiting_seconds for s in self._departed_slots)
        return current + departed

    def total_working_seconds(self) -> float:
        current = sum(s.working_seconds for s in self._slots.values())
        departed = sum(s.working_seconds for s in self._departed_slots)
        return current + departed


def pool_from_workers(workers: Iterable[WorkerProfile], now: float = 0.0) -> RetainerPool:
    """Convenience constructor: seat each worker in a fresh pool."""
    pool = RetainerPool()
    for worker in workers:
        pool.add_worker(worker, now)
    return pool
