"""LifeGuard: the per-batch scheduler and mitigation loop.

The Batcher hands LifeGuard a batch of tasks; LifeGuard schedules them onto
retainer-pool slots, reacts to assignment completions, applies straggler
mitigation when workers run out of unassigned work, invokes pool maintenance
asynchronously as labeling proceeds, and returns once every task in the batch
is complete (Figure 1, §3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..crowd.platform import SimulatedCrowdPlatform
from ..crowd.tasks import AssignmentStatus, Batch, Task
from .maintainer import PoolMaintainer
from .mitigator import StragglerMitigator
from .quality import majority_vote


@dataclass
class BatchOutcome:
    """Everything LifeGuard learned from running one batch.

    Its ``dispatched_at`` and ``completed_at`` are the batch's one clock
    record; the batch's tasks and their assignments hold the rest.
    """

    batch: Batch
    batch_index: int
    dispatched_at: float
    completed_at: float
    #: Consensus label per record id (majority vote when redundancy is on,
    #: otherwise the first answer).
    labels: dict[int, int] = field(default_factory=dict)
    #: Per-task completion latencies, measured from batch dispatch.
    task_latencies: list[float] = field(default_factory=list)
    #: (completion time, records in the task) in completion order, for
    #: labels-over-time curves.
    completion_times: list[tuple[float, int]] = field(default_factory=list)
    assignments_started: int = 0
    assignments_terminated: int = 0
    workers_replaced: int = 0
    #: Mean latency of assignments completed during this batch (the per-batch
    #: MPL series of Figure 6).
    mean_pool_latency: Optional[float] = None

    @property
    def batch_latency(self) -> float:
        return self.completed_at - self.dispatched_at

    @property
    def task_latency_mean(self) -> float:
        if not self.task_latencies:
            return 0.0
        return float(np.mean(self.task_latencies))

    @property
    def task_latency_std(self) -> float:
        """Sample standard deviation of the task latencies (Figures 9 and 11)."""
        if len(self.task_latencies) < 2:
            return 0.0
        return float(np.std(self.task_latencies, ddof=1))


def event_budget(batch: Batch) -> int:
    """Iterations :meth:`LifeGuard.run_batch` may take before it calls a deadlock.

    Each iteration of the loop either pops a completion or recovers from
    starvation.  Completions number at most the batch's total
    ``votes_required``: every completion before a task's last vote records
    an answer, and the task's remaining replicas are terminated the moment
    it completes, so they never complete.  A successful recovery starts an
    assignment, so the next iteration pops a completion; recoveries
    therefore never outnumber completions.  Twice the total votes, plus
    one, is enough for any batch that is making progress.
    """
    return 2 * sum(task.votes_required for task in batch.tasks) + 1


class LifeGuard:
    """Runs batches of tasks against the crowd platform."""

    def __init__(
        self,
        platform: SimulatedCrowdPlatform,
        mitigator: StragglerMitigator,
        maintainer: Optional[PoolMaintainer] = None,
        *,
        pool_target_size: int,
        reference: bool = False,
    ) -> None:
        """Create a LifeGuard.

        Maintenance runs after every completion, "asynchronously as labeling
        proceeds" (§3).  After each completion the pool is refilled from the
        background reserve up to ``pool_target_size`` (the configured
        ``Np``), which replaces seats lost to abandonment or to evictions
        that found no replacement ready.  By default dispatch runs fast: the
        mitigator primes its
        :class:`~repro.core.active_index.ActiveTaskIndex` (RANDOM routing,
        no quality control), and the probe sweep stops as soon as no probe
        can place work.  ``reference=True`` runs the brute-force twin
        instead — ``pick_task_scan`` for every available worker — for the
        equivalence sweeps and reference baselines.
        """
        self.platform = platform
        self.mitigator = mitigator
        self.maintainer = maintainer
        self.pool_target_size = pool_target_size
        self.reference = reference

    # -- public API -----------------------------------------------------------

    def run_batch(self, batch: Batch, batch_index: int = 0) -> BatchOutcome:
        """Run ``batch`` to completion and return its outcome."""
        if self.reference:
            # No index primed: the mitigator serves every probe by scan.
            return self._run_batch_inner(batch, batch_index)
        # The mitigator tracks the batch's active tasks incrementally: tasks
        # enter its index on dispatch and leave with the answer that
        # completes them, all through the platform's assignment observers
        # (maintenance terminates assignments from inside replace_worker, a
        # path this loop never touches).  Batches without an indexed path
        # get no index and dispatch by scan.
        index = self.mitigator.begin_batch(batch)
        if index is not None:
            self.platform.add_assignment_observer(index)
        try:
            return self._run_batch_inner(batch, batch_index)
        finally:
            if index is not None:
                self.platform.remove_assignment_observer(index)
            self.mitigator.end_batch()

    def _run_batch_inner(self, batch: Batch, batch_index: int) -> BatchOutcome:
        platform = self.platform
        start_terminated = platform.counters.assignments_terminated
        start_started = platform.counters.assignments_started
        start_replaced = platform.counters.workers_replaced

        outcome = BatchOutcome(
            batch=batch,
            batch_index=batch_index,
            dispatched_at=platform.now,
            completed_at=platform.now,
        )
        completed_durations: list[float] = []

        self._dispatch_available_workers(batch)
        # Tracked incrementally: `batch.is_complete` scans every task, and
        # this loop runs once per simulation event.
        tasks_remaining = sum(1 for task in batch.tasks if not task.is_complete)
        queue = platform.queue
        guard = 0
        max_events = event_budget(batch)
        while tasks_remaining > 0:
            guard += 1
            if guard > max_events:
                raise RuntimeError(
                    "batch did not complete within the event budget; "
                    "this indicates a scheduling deadlock"
                )
            if not queue:
                made_progress = self._recover_starvation(batch)
                if not made_progress:
                    raise RuntimeError(
                        f"batch {batch_index} stalled: "
                        f"{len(batch.incomplete_tasks)} tasks incomplete, no events "
                        f"pending, and no worker can be assigned"
                    )
                continue
            # Terminated assignments cancel their queue entry, so every
            # payload popped here is an assignment still in flight, and its
            # task is incomplete: a task's remaining replicas are terminated
            # the moment it completes.
            assignment = queue.pop()
            task = platform.complete_assignment(assignment)
            completed_durations.append(assignment.duration)
            if task.is_complete:
                tasks_remaining -= 1
                self._terminate_losing_assignments(task, assignment.duration)
                outcome.completion_times.append((platform.now, task.num_records))
            if self.maintainer is not None:
                self.maintainer.maintain(platform, batch_index=batch_index)
            platform.refill_pool(self.pool_target_size)
            # After the batch's last completion nothing is left to place.
            if tasks_remaining > 0:
                self._dispatch_available_workers(batch)

        outcome.completed_at = platform.now

        # Every task is complete and its answers are fixed: merge the votes
        # in batch order (the learner consumes the labels in insertion
        # order).
        for task in batch.tasks:
            assert task.completed_at is not None
            outcome.labels.update(self._aggregate_task_labels(task))
            outcome.task_latencies.append(task.completed_at - outcome.dispatched_at)
        outcome.assignments_started = (
            platform.counters.assignments_started - start_started
        )
        outcome.assignments_terminated = (
            platform.counters.assignments_terminated - start_terminated
        )
        # One source of truth: the platform counter, which every replacement
        # path increments exactly once when a replacement is actually seated
        # — maintainer evictions via replace_worker, and abandonment- or
        # deferred-eviction-driven seats via refill_pool.  (This used to
        # accumulate maintainer events *and* max() with the counter delta,
        # which both missed refill seats and counted evictions that never
        # found a replacement.)
        outcome.workers_replaced = (
            platform.counters.workers_replaced - start_replaced
        )
        if completed_durations:
            outcome.mean_pool_latency = float(
                sum(completed_durations) / len(completed_durations)
            )
        return outcome

    # -- internals ---------------------------------------------------------------

    def _dispatch_available_workers(self, batch: Batch) -> None:
        """Give every available worker a task, per the mitigation policy.

        Called only while the batch has an incomplete task.  On batches
        without quality control, fast mode returns without probing when
        ``placeable_count`` is zero (O(1) on the indexed path); a probe's
        outcome there is worker-independent, so it probes the pool's first
        available seat until a probe comes back ``None`` (every remaining
        probe would too), and never lists the available slots.  Skipped
        probes never touch the RNG, so fast and reference runs are
        bit-identical in labels and cost counters.  Reference mode and
        quality-controlled batches probe a snapshot of every available
        worker once: a start only uses up unassigned work, ends starvation
        and raises active counts, so a probe that came back ``None`` would
        come back ``None`` again within the same call.  (Under quality
        control ``placeable_count`` is positive while any task is
        incomplete, so it cannot shorten that sweep.)
        """
        platform = self.platform
        counters = platform.counters
        mitigator = self.mitigator
        pool = platform.pool
        fast = not self.reference
        if fast and not batch.quality_controlled:
            if pool.num_available() == 0 or mitigator.placeable_count(batch) == 0:
                return
            # Starting an assignment takes its seat out of the available
            # list, so the first available seat is the next one a snapshot
            # sweep would probe.  A start does not move the clock.
            now = platform.now
            while (slot := pool.first_available()) is not None:
                worker_id = slot.worker.worker_id
                counters.probes_attempted += 1
                task = mitigator.pick_task(batch, worker_id, pool, now)
                if task is None:
                    counters.probes_futile += 1
                    return
                platform.start_assignment(task, worker_id)
            return
        for slot in pool.available_workers():
            counters.probes_attempted += 1
            task = mitigator.pick_task(batch, slot.worker_id, pool, platform.now)
            if task is None:
                # Under quality control the per-worker involvement filter
                # means another worker may still be servable; reference mode
                # probes every worker regardless.
                counters.probes_futile += 1
                continue
            platform.start_assignment(task, slot.worker_id)

    def _terminate_losing_assignments(self, task: Task, winner_duration: float) -> None:
        """Cancel the remaining active replicas of a just-completed task.

        A termination changes an assignment's status, never the task's list
        of assignments, so the loop walks that list in place.
        """
        platform = self.platform
        for other in task.assignments:
            if other.status is AssignmentStatus.ACTIVE:
                platform.terminate_assignment(other, terminator_latency=winner_duration)

    def _recover_starvation(self, batch: Batch) -> bool:
        """Try to un-stall a batch with no pending events.

        This happens when the pool shrank (abandonment, eviction without a
        ready replacement) and the remaining incomplete tasks cannot be given
        to any current worker.  Refill the pool and retry dispatch; if no
        replacement is ready yet but recruits are in flight, wait (advance
        the clock) until the earliest one arrives.  Returns whether any
        assignment was started.
        """
        platform = self.platform
        platform.refill_pool(self.pool_target_size)
        before = platform.counters.assignments_started
        self._dispatch_available_workers(batch)
        if platform.counters.assignments_started > before:
            return True

        # Nothing could be dispatched with the current pool: wait for the
        # background reserve if it has recruits on the way.
        next_ready = platform.reserve.next_ready_time()
        if next_ready is None:
            return False
        platform.queue.advance_to(max(platform.now, next_ready))
        platform.refill_pool(self.pool_target_size)
        self._dispatch_available_workers(batch)
        return platform.counters.assignments_started > before

    def _aggregate_task_labels(self, task: Task) -> dict[int, int]:
        """Record id -> consensus label over one task's answers.

        The answers are the task's completed assignments in completion
        order, so a tie goes to the first one completed.  Under quality
        control each answer's label for each record is then compared with
        that record's consensus, on the record of the worker who gave it
        while they are still seated: the evidence agreement maintenance
        evicts on.  Called once per task after the batch loop, in batch
        order.
        """
        labels: dict[int, int] = {}
        answers = task.answers
        if len(answers) == 1:
            # Single answer (quality control off, the default): the vote is
            # the answer; skip the Counter machinery entirely.
            for record_id, label in zip(task.record_ids, answers[0].labels, strict=True):
                labels[record_id] = int(label)
            return labels
        votes_by_position: list[list[int]] = [[] for _ in task.record_ids]
        for answer in answers:
            for position, label in enumerate(answer.labels):
                votes_by_position[position].append(label)
        consensus = [majority_vote(votes, tie_break="first") for votes in votes_by_position]
        pool = self.platform.pool
        for answer in answers:
            slot = pool.seated(answer.worker_id)
            if slot is not None:
                for label, agreed in zip(answer.labels, consensus, strict=True):
                    slot.observations.record_vote(label == agreed)
        labels.update(zip(task.record_ids, consensus, strict=True))
        return labels
