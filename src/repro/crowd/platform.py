"""The simulated crowd platform.

This is the substrate that stands in for Amazon Mechanical Turk in the live
experiments and for the authors' trace-driven simulator in the simulated ones
(§6.1).  It owns the worker population, the retainer pool, and the event
queue, and exposes the primitives the CLAMShell core needs:

* seat workers into the retainer pool (initial recruitment);
* start an assignment of a task to an available worker — the platform draws
  the worker's latency and labels from their latent profile and schedules the
  completion event;
* terminate an assignment (straggler mitigation pre-emption, or eviction);
* replace a pool worker with a new one (pool maintenance);
* report raw cost quantities (waiting seconds, records labeled, assignments).

The platform deliberately knows nothing about batching, straggler mitigation
policy, maintenance thresholds, or learning — those live in ``repro.core``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Optional, TypeVar

import numpy as np

from typing import Protocol, runtime_checkable

from .events import Entry, EventQueue
from .pool import RetainerPool
from .recruitment import BackgroundReserve, Recruiter
from .tasks import Assignment, AssignmentStatus, Task, TaskState
from .worker import (
    DEFAULT_DRAW_BLOCK_SIZE,
    WorkerDrawBlock,
    WorkerPopulation,
    WorkerProfile,
)


@runtime_checkable
class AssignmentObserver(Protocol):
    """Callbacks fired as assignments move through their lifecycle.

    The platform owns every assignment transition — including terminations
    triggered from inside :meth:`SimulatedCrowdPlatform.replace_worker`
    during pool maintenance, which the LifeGuard never sees directly — so
    observers registered here get an exact event stream.  The straggler
    mitigator's incremental active-task index is the primary consumer.
    """

    def assignment_started(self, task: Task, assignment: Assignment) -> None: ...

    def assignment_completed(self, task: Task, assignment: Assignment) -> None: ...

    def assignment_terminated(self, task: Task, assignment: Assignment) -> None: ...


@dataclass
class PlatformCounters:
    """Raw quantities the cost model is computed from.

    The ``probes_*`` pair is diagnostic, not monetary: the LifeGuard counts
    every ``pick_task`` dispatch probe it issues (``probes_attempted``) and
    every probe that found nothing placeable (``probes_futile``).  The
    invariant ``probes_attempted == assignments_started + probes_futile``
    always holds, and the benchmark schema surfaces the pair under its own
    ``dispatch`` section so the effect of fast dispatch skipping futile
    probes is a first-class metric instead of being inferred from wall
    time.
    """

    assignments_started: int = 0
    assignments_completed: int = 0
    assignments_terminated: int = 0
    records_labeled_paid: int = 0
    workers_recruited: int = 0
    workers_replaced: int = 0
    workers_abandoned: int = 0
    recruitment_seconds_total: float = 0.0
    probes_attempted: int = 0
    probes_futile: int = 0


_Count = TypeVar("_Count")

#: Seconds booked as working time to a worker whose assignment is
#: terminated (§6.3 notes that acknowledging a termination is a real cost of
#: aggressive straggler mitigation).  It is not a pause: the worker is
#: available again at once, and only their slot's idle clock starts this
#: much later, so up to this many seconds of the idle time that follows
#: count as working rather than waiting.  A real pause would move every
#: mitigation fingerprint and latency metric.
TERMINATION_OVERHEAD_SECONDS = 2.0


def split_probe_counters(
    counters: Mapping[str, _Count],
) -> tuple[dict[str, _Count], dict[str, _Count]]:
    """``(behaviour, probes)``: a run's counters apart from its ``probes_*``
    dispatch diagnostics.

    Reference-mode dispatch probes more than fast dispatch by design, so
    equal runs share the behaviour part in any mode and the probe part only
    within one mode.  Both parts keep the input's key order.
    """
    behaviour: dict[str, _Count] = {}
    probes: dict[str, _Count] = {}
    for key, value in counters.items():
        (probes if key.startswith("probes_") else behaviour)[key] = value
    return behaviour, probes


class SimulatedCrowdPlatform:
    """A retainer-pool crowd platform backed by simulated workers."""

    def __init__(
        self,
        population: WorkerPopulation,
        seed: int = 0,
        num_classes: int = 2,
        abandonment_rate: float = 0.0,
    ) -> None:
        """Create a platform.

        Parameters
        ----------
        population:
            The global worker distribution recruits are drawn from;
            recruitment latency follows the default reposting model of §6.1
            (:class:`~repro.crowd.recruitment.RecruitmentParameters`).
        seed:
            Seed for latency/label draws.
        num_classes:
            Number of label classes workers choose among.
        abandonment_rate:
            Probability that a worker leaves the pool after completing a task
            (the seat stays empty until a reserve worker refills it).
        """
        if not 0.0 <= abandonment_rate < 1.0:
            raise ValueError("abandonment_rate must be in [0, 1)")
        self.population = population
        self.pool = RetainerPool()
        self.queue = EventQueue()
        self.recruiter = Recruiter(population, seed=seed + 1)
        self.reserve = BackgroundReserve(self.recruiter, target_size=0)
        self.num_classes = num_classes
        self.abandonment_rate = abandonment_rate
        self.counters = PlatformCounters()
        #: Platform-stream generator.  Latency and label draws moved to the
        #: per-worker :class:`WorkerDrawBlock` streams; this stream now
        #: serves only the post-completion abandonment coin flips, consumed
        #: in completion order.
        self._rng = np.random.default_rng(seed)
        self._seed = int(seed)
        self._assignment_counter = itertools.count()
        #: In-flight assignments only: id -> (assignment, task, queue handle
        #: of its completion).  Entries are inserted on start and popped on
        #: completion or termination, so ``Assignment.status`` is the one
        #: record of whether an assignment is still active.
        self._in_flight: dict[int, tuple[Assignment, Task, Entry]] = {}
        self._observers: list[AssignmentObserver] = []

    # -- assignment observers ---------------------------------------------------

    def add_assignment_observer(self, observer: AssignmentObserver) -> None:
        """Register ``observer`` for assignment lifecycle notifications."""
        self._observers.append(observer)

    def remove_assignment_observer(self, observer: AssignmentObserver) -> None:
        """Unregister ``observer``; missing observers are ignored."""
        try:
            self._observers.remove(observer)
        except ValueError:
            pass

    # -- time ----------------------------------------------------------------

    @property
    def now(self) -> float:
        return self.queue.now

    # -- pool construction ----------------------------------------------------

    def initialize_pool(self, size: int) -> float:
        """Recruit ``size`` workers into the retainer pool.

        Returns the total recruitment wall-clock latency (the time until the
        last worker joined).  Following the paper's measurement methodology,
        recruitment time is amortised across batches and *not* added to the
        simulation clock: latency is measured from the moment the first task
        is sent to the pool.
        """
        if size < 1:
            raise ValueError("pool size must be >= 1")
        latencies = []
        for _ in range(size):
            worker, latency = self.recruiter.recruit()
            latencies.append(latency)
            self.pool.add_worker(worker, now=self.now)
            self.counters.workers_recruited += 1
            self.counters.recruitment_seconds_total += latency
        return float(max(latencies)) if latencies else 0.0

    def configure_reserve(self, target_size: int) -> None:
        """Set the background-recruitment reserve size used by maintenance."""
        self.reserve.target_size = target_size
        self.reserve.tick(self.now)

    # -- assignments -----------------------------------------------------------

    def start_assignment(self, task: Task, worker_id: int) -> Assignment:
        """Assign ``task`` to the available pool worker ``worker_id``.

        Draws the worker's latency for this task (from the worker's
        pre-drawn RNG block, made on the slot's first draw), creates the
        assignment, schedules its completion event, and marks the slot
        active.
        """
        pool = self.pool
        slot = pool.slot(worker_id)
        if slot.current_assignment_id is not None:
            raise ValueError(f"worker {worker_id} is not available")
        queue = self.queue
        now = queue.now
        block = slot.draw_block
        if block is None:
            # Read at call time, so a test can patch this module's
            # ``DEFAULT_DRAW_BLOCK_SIZE`` to sweep block sizes.
            block = slot.draw_block = WorkerDrawBlock(
                slot.worker, seed=self._seed, block_size=DEFAULT_DRAW_BLOCK_SIZE
            )
        duration = block.draw_latency(len(task.record_ids))
        assignment_id = next(self._assignment_counter)
        assignment = Assignment(
            assignment_id=assignment_id,
            task_id=task.task_id,
            worker_id=worker_id,
            started_at=now,
            duration=duration,
        )
        task.add_assignment(assignment)
        pool.mark_active(slot, assignment_id, now)
        handle = queue.schedule(now + duration, assignment)
        self._in_flight[assignment_id] = (assignment, task, handle)
        self.counters.assignments_started += 1
        for observer in self._observers:
            observer.assignment_started(task, assignment)
        return assignment

    def complete_assignment(self, assignment: Assignment) -> Task:
        """Resolve a finished assignment: draw labels, free the worker.

        Returns the assignment's task, which now holds the assignment, with
        its labels, as its next answer; a replica of a complete task is
        refused with ``ValueError``.  The caller (LifeGuard) decides what
        the worker does next.  If the worker abandons the pool after this
        task, they are removed and the caller can detect it via ``worker_id
        in platform.pool``.
        """
        if assignment.status is not AssignmentStatus.ACTIVE:
            raise ValueError("assignment is not active")
        assignment_id = assignment.assignment_id
        _, task, _ = self._in_flight[assignment_id]
        # Refused before anything moves: a complete task takes no answer.
        if task.state is TaskState.COMPLETE:
            raise ValueError(f"task {task.task_id} is already complete")
        del self._in_flight[assignment_id]
        now = self.queue.now
        worker_id = assignment.worker_id
        pool = self.pool
        slot = pool.slot(worker_id)
        # Starting the assignment made the slot's block.
        block = slot.draw_block
        assert block is not None
        task.complete_assignment(
            assignment, now, block.draw_labels(task.true_labels, self.num_classes)
        )
        duration = assignment.duration
        pool.mark_available(slot, now=now, worked_seconds=duration)
        slot.observations.record_completion(duration)
        counters = self.counters
        counters.assignments_completed += 1
        counters.records_labeled_paid += len(task.record_ids)
        for observer in self._observers:
            observer.assignment_completed(task, assignment)

        if self.abandonment_rate > 0 and self._rng.random() < self.abandonment_rate:
            pool.remove_worker(worker_id, now)
            counters.workers_abandoned += 1
        return task

    def terminate_assignment(
        self, assignment: Assignment, terminator_latency: Optional[float] = None
    ) -> None:
        """Pre-empt an active assignment (straggler mitigation or eviction).

        The worker is still paid for the records in the task (the counters
        reflect this) and is available again at once.  Their slot books
        :data:`TERMINATION_OVERHEAD_SECONDS` as worked time and as a head
        start on the idle clock, so re-dispatching them at ``now`` accrues
        no waiting time.
        """
        if assignment.status is not AssignmentStatus.ACTIVE:
            raise ValueError("assignment is not active")
        now = self.queue.now
        _, task, handle = self._in_flight.pop(assignment.assignment_id)
        self.queue.cancel(handle)
        task.terminate_assignment(assignment, now)
        # An evicted worker has left the pool before their assignment ends.
        pool = self.pool
        slot = pool.seated(assignment.worker_id)
        if slot is not None:
            pool.mark_available(
                slot,
                now=now + TERMINATION_OVERHEAD_SECONDS,
                worked_seconds=now - assignment.started_at + TERMINATION_OVERHEAD_SECONDS,
            )
            slot.observations.record_termination(terminator_latency)
        counters = self.counters
        counters.assignments_terminated += 1
        # Workers are paid for partial work on terminated tasks (§4.1).
        counters.records_labeled_paid += len(task.record_ids)
        for observer in self._observers:
            observer.assignment_terminated(task, assignment)

    # -- pool maintenance hooks ------------------------------------------------

    def replace_worker(self, worker_id: int) -> Optional[WorkerProfile]:
        """Evict ``worker_id`` and seat the next ready reserve worker.

        Any active assignment of the evicted worker is terminated first.
        Returns the replacement profile, or ``None`` if the reserve had no
        worker ready (the seat stays empty until :meth:`refill_pool` fills
        it from the reserve).
        """
        if worker_id not in self.pool:
            raise KeyError(f"worker {worker_id} is not in the pool")
        # A non-None ``current_assignment_id`` does not by itself mean the
        # assignment is still active: callers that drive slot transitions
        # directly can leave a stale id behind, and the platform's own
        # complete/terminate-then-replace sequences at one timestamp must
        # never double-terminate.  Only in-flight ids resolve, so a stale or
        # resolved id maps to ``None`` — ``tests/test_platform.py`` pins the
        # same-timestamp and stale-watermark replacement paths.
        active = self.active_assignment_for_worker(worker_id)
        if active is not None:
            self.terminate_assignment(active)
        self.pool.remove_worker(worker_id, self.now)

        replacement = self.reserve.take_replacement(self.now)
        if replacement is None:
            return None
        self.pool.add_worker(replacement, now=self.now)
        self.counters.workers_replaced += 1
        self.counters.workers_recruited += 1
        return replacement

    def refill_pool(self, target_size: int) -> int:
        """Seat reserve workers until the pool reaches ``target_size``.

        Returns the number of workers added.  A refill seat replaces a worker
        the pool lost (abandonment, or an eviction that found no reserve
        ready at the time), so it counts toward ``workers_replaced`` exactly
        like the ``replace_worker`` path — once, when the seat actually
        happens.
        """
        added = 0
        while len(self.pool) < target_size:
            worker = self.reserve.take_replacement(self.now)
            if worker is None:
                break
            self.pool.add_worker(worker, now=self.now)
            self.counters.workers_recruited += 1
            self.counters.workers_replaced += 1
            added += 1
        return added

    # -- bookkeeping ------------------------------------------------------------

    def settle(self) -> None:
        """Finalise waiting-time accrual at the end of a run."""
        self.pool.settle_waiting(self.now)

    def active_assignment_for_worker(self, worker_id: int) -> Optional[Assignment]:
        current = self.pool.slot(worker_id).current_assignment_id
        if current is None:
            return None
        entry = self._in_flight.get(current)
        return None if entry is None else entry[0]
