"""Incremental active-task index for the straggler-mitigation dispatch path.

:meth:`StragglerMitigator.pick_task` used to rebuild its candidate list on
every dispatch by scanning the batch's incomplete tasks and, per task, the
task's assignment and answer lists.  That scan is O(incomplete tasks) per
idle worker per event, which dominates the simulator profile once pools grow
to hundreds of workers (the candidate scan visited millions of tasks on the
1000-worker ``scale`` tier).

:class:`ActiveTaskIndex` replaces the scan for the one regime every
benchmark workload runs — RANDOM routing on a batch without quality control
— with state that is maintained *incrementally* as the batch runs:

* tasks enter the index when they are first dispatched (UNASSIGNED ->
  ACTIVE) and leave in the ``assignment_completed`` callback of the answer
  that completes them;
* starvation and duplicate-cap checks read the task's own count of active
  assignments (``task.active``), O(1) instead of scanning
  ``task.assignments``;
* one Fenwick tree over batch positions marking the *duplicable* tasks —
  live, with active assignments − outstanding votes < the duplicate cap
  (``max_extra_assignments``) — so RANDOM routing selects the k-th
  duplicable task in O(log n) without materialising the candidate list.
  Uncapped duplication is the same rule at cap = ∞ (§4.1's bounded
  duplication): every live task is duplicable;
* a lazy min-heap of starved batch positions, so "first starved task in
  batch order" is O(1) amortised.

Without quality control an available worker can never be involved in a
still-active task (their answer completes it), so the candidate list is
exactly the live set in batch order.  Quality-controlled batches and
non-RANDOM routing are served by the mitigator's brute-force scan instead.

The index learns about assignment lifecycle through the crowd platform's
assignment-observer hooks (:meth:`assignment_started` /
:meth:`assignment_completed` / :meth:`assignment_terminated`), which the
LifeGuard registers for the duration of a batch.  Routing this through the
platform rather than the LifeGuard matters: pool maintenance terminates
assignments from inside ``replace_worker``, a path the LifeGuard never sees.

Equivalence contract: for every sequence of callbacks produced by a real
batch run, the index's view (duplicable live tasks in batch order, starved
tasks) is identical to what the brute-force scan would compute from
the task objects — so the mitigator draws the same random index over the
same candidate count and every seed reproduces bit-identical labels and
cost counters.  ``tests/test_mitigator_equivalence`` holds this property
over seeds × pool sizes × batch configurations, and
``tests/test_state_equivalence`` holds the same for the platform's draw
blocks over the same kind of sweep.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, ClassVar, Optional

from ..crowd.tasks import TaskState

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from ..crowd.tasks import Assignment, Batch, Task


class _FenwickTree:
    """Binary indexed tree over batch positions with 0/1 membership.

    Supports O(log n) point update and k-th-member selection — the order
    statistic the RANDOM routing policy needs to pick the k-th duplicable
    task in batch order without building a list.
    """

    __slots__ = ("_tree", "_size")

    def __init__(self, size: int) -> None:
        self._size = size
        self._tree = [0] * (size + 1)

    def add(self, position: int, delta: int) -> None:
        index = position + 1
        tree = self._tree
        size = self._size
        while index <= size:
            tree[index] += delta
            index += index & (-index)

    def kth(self, k: int) -> int:
        """Position of the k-th member (0-based k), by ascending position."""
        tree = self._tree
        position = 0
        remaining = k + 1
        bit = 1 << (self._size.bit_length())
        while bit:
            candidate = position + bit
            if candidate <= self._size and tree[candidate] < remaining:
                position = candidate
                remaining -= tree[candidate]
            bit >>= 1
        return position  # 1-based internal index - 1 == 0-based position


class ActiveTaskIndex:
    """Live view of one batch's active tasks, maintained by callbacks.

    Created by :meth:`StragglerMitigator.begin_batch` and fed by the crowd
    platform's assignment observers alone.  All queries the mitigator's
    dispatch path needs are O(1) or O(log n).  ``max_extra_assignments`` is
    the duplicate cap the duplicable set is kept for; ``None`` (uncapped)
    makes every live task duplicable.
    """

    #: Oracle-parity registry, enforced by ``repro lint`` (REPRO-P501): the
    #: selection reads backing the mitigator's indexed fast paths, mapped to
    #: the brute-force scan that serves as their committed test oracle.
    #: Cross-class twins are resolved over the whole linted tree.
    _SCAN_TWINS: ClassVar[dict[str, str]] = {
        "placeable_count": "StragglerMitigator.placeable_count_scan",
        "kth_duplicable_task": "StragglerMitigator.pick_task_scan",
        "first_starved": "StragglerMitigator.pick_task_scan",
    }

    def __init__(
        self, batch: "Batch", max_extra_assignments: Optional[int] = None
    ) -> None:
        if batch.quality_controlled:
            raise ValueError(
                "ActiveTaskIndex serves batches without quality control only"
            )
        self.batch = batch
        tasks = batch.tasks
        size = len(tasks)
        self._position = {task.task_id: i for i, task in enumerate(tasks)}
        #: Lazy min-heap of batch positions that dropped to zero active
        #: assignments while still incomplete (starved tasks).  Entries are
        #: validated on read, so revived/completed tasks cost nothing.
        self._starved_heap: list[int] = []
        #: Duplicate cap the duplicable set is kept for (``None`` = uncapped).
        self.max_extra_assignments = max_extra_assignments
        #: Per batch position: 1 while the task is duplicable, mirrored by
        #: the Fenwick tree for order-statistic selection.
        self._duplicable = bytearray(size)
        self._duplicable_count = 0
        self._fenwick = _FenwickTree(size)

    # -- queries ---------------------------------------------------------------

    def first_starved(self) -> Optional["Task"]:
        """First task in batch order that is ACTIVE with no active assignment."""
        heap = self._starved_heap
        tasks = self.batch.tasks
        while heap:
            task = tasks[heap[0]]
            if not task.is_complete and task.active == 0:
                return task
            heapq.heappop(heap)
        return None

    @property
    def duplicable_count(self) -> int:
        """Number of live tasks mitigation may still duplicate.

        Starved tasks count as duplicable (active = 0 <= any cap), but
        dispatch returns the first starved task before ever drawing over
        this count, so the draw population is exactly the brute-force
        scan's candidate list.
        """
        return self._duplicable_count

    def kth_duplicable_task(self, k: int) -> "Task":
        """The k-th duplicable live task in batch order (0-based), O(log n)."""
        if not 0 <= k < self._duplicable_count:
            raise IndexError(
                f"k={k} out of range for {self._duplicable_count} duplicable tasks"
            )
        return self.batch.tasks[self._fenwick.kth(k)]

    def placeable_count(self, enabled: bool = True) -> int:
        """O(1) summary of the tasks a dispatch probe could still place.

        Sums the placement opportunities the mitigator's priority order can
        serve — an unassigned task, a starved task, and (when mitigation is
        ``enabled``) the duplicable live set.

        Zero is exact and worker-independent: when this returns 0, a probe
        for *any* available worker provably returns ``None`` without
        consuming the RNG stream, which is what lets the LifeGuard skip the
        probe loop wholesale.  Positive values are an upper bound (starved
        tasks also count as duplicable), so callers must only trust the
        zero test.
        """
        count = 1 if self.batch.first_unassigned_task() is not None else 0
        if self.first_starved() is not None:
            count += 1
        if not enabled:
            return count
        return count + self._duplicable_count

    # -- platform assignment observers ----------------------------------------
    #
    # Each callback applies the one transition its event can cause, from the
    # task's own state; none re-derives the rest.

    def assignment_started(self, task: "Task", assignment: "Assignment") -> None:
        """A worker was dispatched onto ``task``.

        A complete task takes no assignment, so the raised active count can
        only set the task's bit (the task enters the index on its first
        start) or clear it (the start reached the duplicate cap).
        """
        cap = self.max_extra_assignments
        position = self._position[task.task_id]
        if cap is None or task.active <= cap:
            if not self._duplicable[position]:
                self._flip(position, 1)
        elif self._duplicable[position]:
            self._flip(position, 0)

    def assignment_terminated(self, task: "Task", assignment: "Assignment") -> None:
        """An assignment ended: pre-empted (mitigation or worker eviction),
        or completed (this is also :meth:`assignment_completed`).

        A complete task retires: its bit clears for good.  An indexed batch
        needs one vote per task, so every completion finds its task
        complete, and the replicas terminated after it find the bit already
        clear.  On a live
        task the lowered active count can set its bit, and a task left with
        no active work is starved until a worker picks it up again; heap
        entries are validated on read, so revived tasks cost nothing.
        """
        position = self._position[task.task_id]
        if task.state is TaskState.COMPLETE:
            if self._duplicable[position]:
                self._flip(position, 0)
            return
        cap = self.max_extra_assignments
        active = task.active
        if (cap is None or active <= cap) and not self._duplicable[position]:
            self._flip(position, 1)
        if active == 0:
            heapq.heappush(self._starved_heap, position)

    #: A completion and a termination are one transition here: the task's
    #: state after the end says which way its bit goes.
    assignment_completed = assignment_terminated

    # -- internals ---------------------------------------------------------------

    def _flip(self, position: int, bit: int) -> None:
        """Set a task's duplicable bit to ``bit``, which differs from its
        current one, in the byte array, the Fenwick tree and the count."""
        self._duplicable[position] = bit
        delta = 1 if bit else -1
        self._fenwick.add(position, delta)
        self._duplicable_count += delta
