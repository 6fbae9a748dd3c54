"""Straggler mitigation: hide slow workers by replicating their tasks.

By default, idle pool workers wait once every task in the batch is assigned;
the batch then blocks on its slowest assignment, which in practice can be
orders of magnitude slower than the median (§2.1).  Straggler mitigation
(§4.1) instead immediately assigns idle workers to *active* tasks, creating
duplicate assignments; the first completed assignment wins, the rest are
terminated (and still paid).

Routing — which active task an idle worker should duplicate — turns out not
to matter (the paper's simulation finds random is as good as an oracle), but
all four policies studied are implemented so the claim can be re-verified.
Only RANDOM routing on batches without quality control — the regime every
benchmark workload runs — has an indexed fast path (:class:`ActiveTaskIndex`);
the other policies and quality-controlled batches are served by the
brute-force candidate scan, :meth:`StragglerMitigator.pick_task_scan`.

Quality-control decoupling: when a task needs ``v`` votes, mitigation counts
only the assignments beyond those still needed as "duplicates", and adds at
most ``max_extra_assignments`` of them at a time, avoiding the naive 2x-votes
blow-up described in §4.1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Optional, Sequence

import numpy as np

from ..crowd.pool import RetainerPool
from ..crowd.tasks import AssignmentStatus, Batch, Task, TaskState
from .active_index import ActiveTaskIndex
from .config import StragglerRoutingPolicy
from .quality import votes_needed


@dataclass
class StragglerMitigator:
    """Chooses which task an idle worker should work on next.

    Parameters
    ----------
    enabled:
        When false, idle workers are only given unassigned tasks (the NoSM
        baseline).
    policy:
        Routing policy for duplicates (Table: random / longest-running /
        fewest-active / oracle-slowest).
    decouple_quality_control:
        Treat under-provisioned quality-controlled tasks (fewer active
        assignments than votes still needed) as unassigned-like work before
        creating true duplicates.
    max_extra_assignments:
        Cap on concurrent mitigation duplicates per task; ``None`` means
        unlimited (the behaviour at high pool-to-batch ratios R).
    """

    #: Oracle-parity registry, enforced by ``repro lint`` (REPRO-P501):
    #: every indexed fast-path entry point maps to the brute-force scan twin
    #: the equivalence tests compare it against.  A new fast path cannot
    #: land without registering (and therefore writing) its oracle.
    _SCAN_TWINS: ClassVar[dict[str, str]] = {
        "pick_task": "pick_task_scan",
        "placeable_count": "placeable_count_scan",
    }
    #: Methods that may touch ``self._index`` purely for lifecycle upkeep
    #: (priming, discarding) — not selection fast paths, so no scan twin is
    #: required.
    _INDEX_LIFECYCLE: ClassVar[tuple[str, ...]] = ("begin_batch", "end_batch")

    enabled: bool = True
    policy: StragglerRoutingPolicy = StragglerRoutingPolicy.RANDOM
    decouple_quality_control: bool = True
    max_extra_assignments: Optional[int] = None
    seed: int = 0
    _index: Optional[ActiveTaskIndex] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.max_extra_assignments is not None and self.max_extra_assignments < 0:
            raise ValueError("max_extra_assignments must be >= 0 or None")
        self._rng = np.random.default_rng(self.seed)

    # -- incremental index lifecycle (driven by the LifeGuard) ---------------------

    def begin_batch(self, batch: Batch) -> Optional[ActiveTaskIndex]:
        """Start tracking ``batch`` incrementally; returns the index to feed.

        The caller (LifeGuard) registers the returned index as an assignment
        observer on the crowd platform so dispatch/completion/termination
        events keep it exact; the completion that completes a task retires
        it from the index.  Only RANDOM routing on a batch without quality
        control has an indexed path; any other batch returns ``None`` and,
        like a batch never primed (the LifeGuard's reference mode), is
        served by the brute-force scan.
        """
        self._index = None
        if (
            not batch.quality_controlled
            and self.policy is StragglerRoutingPolicy.RANDOM
        ):
            self._index = ActiveTaskIndex(
                batch, max_extra_assignments=self.max_extra_assignments
            )
        return self._index

    def end_batch(self) -> None:
        """Stop tracking the current batch (the index is discarded)."""
        self._index = None

    def _primed_index(self, batch: Batch) -> Optional[ActiveTaskIndex]:
        """The index serving ``batch``, or ``None`` when the scan must run.

        The index is built for the mitigator's routing policy and duplicate
        cap at :meth:`begin_batch`; if either changed since, its maintained
        layers no longer describe the candidate list, so the scan serves.
        """
        index = self._index
        if (
            index is None
            or index.batch is not batch
            or index.max_extra_assignments != self.max_extra_assignments
            or self.policy is not StragglerRoutingPolicy.RANDOM
        ):
            return None
        return index

    # -- candidate filtering -----------------------------------------------------

    def _worker_already_involved(self, task: Task, worker_id: int) -> bool:
        """A worker should not hold two assignments (or re-answer) the same task.

        A task's answers are its completed assignments, so the worker is
        involved exactly when it holds an assignment that was not terminated.
        """
        # A plain loop: this runs for every active task on every dispatch,
        # and generator frames dominated the profile at scale.
        for assignment in task.assignments:
            if (
                assignment.worker_id == worker_id
                and assignment.status is not AssignmentStatus.TERMINATED
            ):
                return True
        return False

    def _needs_more_votes(self, task: Task) -> bool:
        """True when quality control still requires answers beyond active work."""
        outstanding = votes_needed(task.votes_required, task.votes_received)
        return task.active < outstanding

    def _duplicate_allowed(self, task: Task) -> bool:
        if self.max_extra_assignments is None:
            return True
        outstanding = votes_needed(task.votes_required, task.votes_received)
        extra = task.active - outstanding
        return extra < self.max_extra_assignments

    # -- placeability (the LifeGuard's dispatch early exit) ------------------------

    def placeable_count(self, batch: Batch) -> int:
        """Upper bound on the placement opportunities the next probe could serve.

        Served from the incremental index in O(1) when the batch is primed
        (:meth:`ActiveTaskIndex.placeable_count`), otherwise by the
        brute-force twin :meth:`placeable_count_scan`.  The contract the
        LifeGuard's dispatch loop relies on: **zero is exact and
        worker-independent** — ``pick_task`` would return ``None`` for every
        available worker, drawing nothing from the RNG stream, so the probe
        loop can be skipped without changing behaviour.  Positive values are
        only an upper bound and must not be used to ration probes directly.
        """
        index = self._primed_index(batch)
        if index is None:
            return self.placeable_count_scan(batch)
        return index.placeable_count(enabled=self.enabled)

    def placeable_count_scan(self, batch: Batch) -> int:
        """Brute-force twin of :meth:`ActiveTaskIndex.placeable_count`.

        O(live tasks); used when no index is primed (quality control,
        non-RANDOM routing, reference mode, hand-built states).  Deliberately
        mirrors — rather than shares — the indexed computation so it stays
        an independent check, and kept zero-equivalent to it: both return 0
        on exactly the same batch states, which
        ``tests/test_mitigator_equivalence.py`` holds at every dispatch of a
        sweep cell.
        """
        count = 1 if batch.first_unassigned_task() is not None else 0
        quality_controlled = batch.quality_controlled
        live = 0
        starved = 0
        duplicable = 0
        capped = self.max_extra_assignments is not None
        for task in batch.incomplete_tasks_view():
            if task.state is not TaskState.ACTIVE:
                continue
            live += 1
            if quality_controlled:
                continue
            if task.active == 0:
                starved += 1
            elif self.enabled and (not capped or self._duplicate_allowed(task)):
                duplicable += 1
        if live == 0:
            return count
        if quality_controlled:
            return count + live
        count += starved
        if not self.enabled:
            return count
        return count + duplicable

    # -- selection -----------------------------------------------------------------

    def pick_task(
        self,
        batch: Batch,
        worker_id: int,
        pool: RetainerPool,
        now: float,
    ) -> Optional[Task]:
        """Pick the next task for an idle worker, or ``None`` if they must wait.

        Priority order:

        1. an unassigned task;
        2. a starved task — one that was assigned but whose assignments were
           all terminated (e.g. its worker was evicted or abandoned the
           pool), so nobody is working on it;
        3. (if quality control is decoupled) an active task that still needs
           more answers than it has active assignments;
        4. (if mitigation is enabled) an active task chosen by the routing
           policy, excluding tasks the worker is already involved in.

        When the batch has been primed via :meth:`begin_batch` (RANDOM
        routing, no quality control), selection is served by the incremental
        :class:`ActiveTaskIndex`; otherwise the brute-force scan runs.  Both
        produce the same choice and consume the RNG stream identically.
        """
        # :meth:`_primed_index`'s test, inline: this runs once per probe.
        index = self._index
        if (
            index is None
            or index.batch is not batch
            or index.max_extra_assignments != self.max_extra_assignments
            or self.policy is not StragglerRoutingPolicy.RANDOM
        ):
            return self.pick_task_scan(batch, worker_id, pool, now)

        # Step 1: an UNASSIGNED task holds no assignment, so it involves
        # nobody and the first one serves any worker.
        task = batch.first_unassigned_task()
        if task is not None:
            return task

        # No quality control (an available worker cannot be involved in a
        # still-active task, and no task is under-provisioned) and RANDOM
        # routing: the candidate list is exactly the duplicable live tasks
        # in batch order (every live task when uncapped), so routing reduces
        # to one RNG draw over the index's duplicable count and an O(log n)
        # order-statistic lookup.  Draw order matches the scan: one
        # ``integers(len(candidates))`` call, only when routing happens.
        starved = index.first_starved()
        if starved is not None:
            return starved
        if not self.enabled:
            return None
        duplicable = index.duplicable_count
        if duplicable == 0:
            return None
        return index.kth_duplicable_task(int(self._rng.integers(duplicable)))

    def pick_task_scan(
        self,
        batch: Batch,
        worker_id: int,
        pool: RetainerPool,
        now: float,
    ) -> Optional[Task]:
        """Reference implementation: the fused brute-force candidate scan.

        Used when no index is primed — quality control, non-RANDOM routing
        and reference mode among others — and kept as the oracle the
        equivalence tests compare the indexed path against.
        """
        # Step 1, as in :meth:`pick_task`.
        task = batch.first_unassigned_task()
        if task is not None:
            return task

        # One fused scan builds the routed candidate list (active tasks the
        # worker is not involved in, in batch order) and spots the first
        # starved task on the way.  The compacting view skips tasks that
        # finished earlier in the batch, so tail-of-batch duplication scans
        # only what is still in flight.
        active: list[Task] = []
        starved: Optional[Task] = None
        for task in batch.incomplete_tasks_view():
            if task.state is not TaskState.ACTIVE:
                continue
            if self._worker_already_involved(task, worker_id):
                continue
            active.append(task)
            if starved is None and task.active == 0:
                starved = task
        if not active:
            return None
        if starved is not None:
            return starved

        if self.decouple_quality_control:
            # Every candidate here has >= 1 active assignment (no starved
            # task survived above), so single-vote tasks can never be
            # under-provisioned; only quality-controlled ones need the check.
            under_provisioned = [
                t for t in active if t.votes_required > 1 and self._needs_more_votes(t)
            ]
            if under_provisioned:
                return self._route(under_provisioned, pool, now)

        if not self.enabled:
            return None
        if self.max_extra_assignments is None:
            duplicable = active
        else:
            duplicable = [t for t in active if self._duplicate_allowed(t)]
        if not duplicable:
            return None
        return self._route(duplicable, pool, now)

    def _route(
        self, candidates: Sequence[Task], pool: RetainerPool, now: float
    ) -> Task:
        """Apply the routing policy to a non-empty candidate list."""
        if not candidates:
            raise ValueError("candidates must not be empty")
        policy = self.policy
        if policy == StragglerRoutingPolicy.RANDOM:
            return candidates[int(self._rng.integers(len(candidates)))]
        if policy == StragglerRoutingPolicy.LONGEST_RUNNING:
            return max(candidates, key=lambda t: self._longest_active_elapsed(t, now))
        if policy == StragglerRoutingPolicy.FEWEST_ACTIVE:
            return min(candidates, key=lambda t: len(t.active_assignments))
        if policy == StragglerRoutingPolicy.ORACLE_SLOWEST:
            return max(candidates, key=lambda t: self._oracle_remaining(t, now))
        raise ValueError(f"unknown routing policy {policy}")

    @staticmethod
    def _longest_active_elapsed(task: Task, now: float) -> float:
        elapsed = [now - a.started_at for a in task.active_assignments]
        return max(elapsed) if elapsed else 0.0

    @staticmethod
    def _oracle_remaining(task: Task, now: float) -> float:
        """Time until the task's earliest active assignment finishes (oracle view)."""
        remaining = [a.finishes_at - now for a in task.active_assignments]
        return min(remaining) if remaining else 0.0
