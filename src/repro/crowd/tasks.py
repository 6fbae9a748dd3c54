"""Task, assignment, and batch data structures.

CLAMShell's unit of crowd work is a *task* (a HIT): a group of ``Ng`` records
that a worker labels together (§6.2 calls Ng=1 "simple", 5 "medium", and 10
"complex").  A task may be attempted by several workers concurrently when
straggler mitigation duplicates it; each attempt is an *assignment*.  A
*batch* is the fixed set of tasks the Batcher sends to the pool in one
iteration, and the batch blocks until every task in it is complete.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Optional, Sequence

import numpy as np


class TaskState(Enum):
    """Lifecycle of a task within a batch (§4.1)."""

    UNASSIGNED = "unassigned"
    ACTIVE = "active"
    COMPLETE = "complete"


class AssignmentStatus(Enum):
    """Lifecycle of a single worker's attempt at a task."""

    ACTIVE = "active"
    COMPLETED = "completed"
    #: Terminated: another worker finished the task first (straggler
    #: mitigation), or the worker left / was evicted from the pool.
    TERMINATED = "terminated"


@dataclass(slots=True)
class Assignment:
    """One worker's attempt at one task.

    The worker is always paid for an assignment they started, even if it is
    terminated (§4.1), so cost accounting counts all assignments.  Its task
    moves it out of ACTIVE (:meth:`Task.complete_assignment`,
    :meth:`Task.terminate_assignment`), so the task's count of active
    assignments moves with it.  A completed assignment is also one of its
    task's answers.
    """

    assignment_id: int
    task_id: int
    worker_id: int
    started_at: float
    #: Latency the worker would need to finish the task, drawn when the
    #: assignment is created.  ``finishes_at = started_at + duration``.
    duration: float
    status: AssignmentStatus = AssignmentStatus.ACTIVE
    #: Labels produced for the task's records, present only once completed.
    labels: Optional[list[int]] = None
    #: When the assignment left ACTIVE; ``status`` says how.
    ended_at: Optional[float] = None

    @property
    def finishes_at(self) -> float:
        """Simulation time at which the worker would complete this attempt."""
        return self.started_at + self.duration

    @property
    def elapsed(self) -> Optional[float]:
        """Wall-clock time the worker spent on the assignment, once resolved."""
        if self.ended_at is None:
            return None
        return self.ended_at - self.started_at


@dataclass(slots=True)
class Task:
    """A labeling task (HIT) grouping one or more records.

    Attributes
    ----------
    task_id:
        Unique id within a run.
    record_ids:
        Indices of the dataset records grouped into this HIT (``Ng`` of them).
    true_labels:
        Ground-truth labels for the records, used by the simulator to decide
        whether a worker's answer is correct.  Live deployments do not know
        these; they exist only inside the crowd substrate.
    votes_required:
        Number of completed answers quality control requires before the task
        is considered complete (1 when quality control is off).
    """

    task_id: int
    record_ids: list[int]
    true_labels: list[int]
    votes_required: int = 1
    state: TaskState = TaskState.UNASSIGNED
    #: Every assignment of the task, in start order.  Only the task's own
    #: calls add to it, so an UNASSIGNED task holds none.
    assignments: list[Assignment] = field(default_factory=list, init=False)
    #: The task's answers: its COMPLETED assignments, in completion order.
    answers: list[Assignment] = field(default_factory=list, init=False)
    completed_at: Optional[float] = None
    #: Number of ``assignments`` still ACTIVE, moved by the same calls that
    #: move an assignment's status.
    active: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if not self.record_ids:
            raise ValueError("a task must contain at least one record")
        if len(self.record_ids) != len(self.true_labels):
            raise ValueError("record_ids and true_labels must have equal length")
        if self.votes_required < 1:
            raise ValueError("votes_required must be >= 1")

    @property
    def num_records(self) -> int:
        """Task complexity Ng: the number of records grouped into the HIT."""
        return len(self.record_ids)

    @property
    def active_assignments(self) -> list[Assignment]:
        return [a for a in self.assignments if a.status is AssignmentStatus.ACTIVE]

    @property
    def is_complete(self) -> bool:
        return self.state is TaskState.COMPLETE

    @property
    def votes_received(self) -> int:
        return len(self.answers)

    def add_assignment(self, assignment: Assignment) -> None:
        state = self.state
        if state is TaskState.COMPLETE:
            raise ValueError(f"task {self.task_id} is already complete")
        self.assignments.append(assignment)
        if assignment.status is AssignmentStatus.ACTIVE:
            self.active += 1
        if state is TaskState.UNASSIGNED:
            self.state = TaskState.ACTIVE

    def complete_assignment(
        self, assignment: Assignment, at: float, labels: Sequence[int]
    ) -> None:
        """Mark one of this task's assignments completed at ``at`` with ``labels``.

        The assignment becomes the task's next answer, and the task completes
        once it has ``votes_required`` answers.
        """
        if self.state is TaskState.COMPLETE:
            raise ValueError(f"task {self.task_id} is already complete")
        if assignment.status is not AssignmentStatus.ACTIVE:
            raise ValueError(f"cannot end assignment in state {assignment.status}")
        self.active -= 1
        assignment.ended_at = float(at)
        assignment.status = AssignmentStatus.COMPLETED
        assignment.labels = list(labels)
        answers = self.answers
        answers.append(assignment)
        if len(answers) >= self.votes_required:
            self.state = TaskState.COMPLETE
            self.completed_at = assignment.ended_at

    def terminate_assignment(self, assignment: Assignment, at: float) -> None:
        """Mark one of this task's assignments terminated (pre-empted or worker removed)."""
        if assignment.status is not AssignmentStatus.ACTIVE:
            raise ValueError(f"cannot end assignment in state {assignment.status}")
        self.active -= 1
        assignment.ended_at = float(at)
        assignment.status = AssignmentStatus.TERMINATED


@dataclass
class Batch:
    """A fixed set of tasks dispatched to the pool in one iteration."""

    batch_id: int
    tasks: list[Task]
    #: Scan cursor for :meth:`first_unassigned_task`.  Tasks only ever move
    #: forward through UNASSIGNED -> ACTIVE -> COMPLETE, so the first
    #: unassigned index is monotonically non-decreasing.
    _first_unassigned: int = field(default=0, init=False, repr=False, compare=False)
    #: Self-compacting backing list for :meth:`incomplete_tasks_view`.
    _live_tasks: Optional[list[Task]] = field(
        default=None, init=False, repr=False, compare=False
    )
    #: Lazily-computed cache for :attr:`quality_controlled`.
    _quality_controlled: Optional[bool] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.tasks:
            raise ValueError("a batch must contain at least one task")

    def __iter__(self) -> Iterator[Task]:
        return iter(self.tasks)

    def __len__(self) -> int:
        return len(self.tasks)

    @property
    def size(self) -> int:
        return len(self.tasks)

    @property
    def num_records(self) -> int:
        return sum(task.num_records for task in self.tasks)

    @property
    def is_complete(self) -> bool:
        return all(task.is_complete for task in self.tasks)

    @property
    def quality_controlled(self) -> bool:
        """True when any task in the batch requires more than one vote.

        Cached after the first read: ``votes_required`` is fixed at task
        construction, and dispatch branches on it per batch (only batches
        without quality control get the active-task index) and per probe
        (the scan's placeability summary).
        """
        cached = self._quality_controlled
        if cached is None:
            cached = any(task.votes_required > 1 for task in self.tasks)
            self._quality_controlled = cached
        return cached

    @property
    def incomplete_tasks(self) -> list[Task]:
        return [t for t in self.tasks if not t.is_complete]

    @property
    def unassigned_tasks(self) -> list[Task]:
        return [t for t in self.tasks if t.state is TaskState.UNASSIGNED]

    def first_unassigned_task(self) -> Optional[Task]:
        """The first task (in batch order) nobody has started yet.

        Equivalent to ``self.unassigned_tasks[0]`` but amortized O(1) across
        a batch's lifetime: the cursor never moves backwards because task
        states never revert to UNASSIGNED.
        """
        tasks = self.tasks
        index = self._first_unassigned
        size = len(tasks)
        while index < size and tasks[index].state is not TaskState.UNASSIGNED:
            index += 1
        self._first_unassigned = index
        return tasks[index] if index < size else None

    def incomplete_tasks_view(self) -> list[Task]:
        """Tasks not yet complete, in batch order, with amortized compaction.

        Unlike :attr:`incomplete_tasks` (which scans the full fixed task
        list), this drops completed tasks permanently — legal because
        COMPLETE is a terminal state — so repeated scheduling scans near the
        end of a batch touch only the few tasks still in flight.  Callers
        must not mutate the returned list.
        """
        live = self._live_tasks if self._live_tasks is not None else self.tasks
        live = [t for t in live if t.state is not TaskState.COMPLETE]
        self._live_tasks = live
        return live


class TaskFactory:
    """Builds tasks from dataset records, grouping ``records_per_task`` each.

    The factory hands out monotonically increasing task ids across its whole
    lifetime, so tasks created for different batches never collide.
    """

    def __init__(self, records_per_task: int = 1, votes_required: int = 1) -> None:
        if records_per_task < 1:
            raise ValueError("records_per_task must be >= 1")
        if votes_required < 1:
            raise ValueError("votes_required must be >= 1")
        self.records_per_task = records_per_task
        self.votes_required = votes_required
        self._task_counter = itertools.count()

    def build_tasks(
        self,
        record_ids: Sequence[int],
        true_labels: Sequence[int],
    ) -> list[Task]:
        """Group the given records into tasks of ``records_per_task``."""
        if len(record_ids) != len(true_labels):
            raise ValueError("record_ids and true_labels must have equal length")
        # One conversion to Python ints for the whole call, not one
        # ``int()`` per NumPy scalar; the record ids keep their own type.
        labels = np.asarray(true_labels, dtype=np.int64).tolist()
        tasks = []
        for start in range(0, len(record_ids), self.records_per_task):
            stop = start + self.records_per_task
            tasks.append(
                Task(
                    task_id=next(self._task_counter),
                    record_ids=list(record_ids[start:stop]),
                    true_labels=labels[start:stop],
                    votes_required=self.votes_required,
                )
            )
        return tasks


def group_into_batches(
    tasks: Sequence[Task], batch_size: int, start_batch_id: int = 0
) -> list[Batch]:
    """Split ``tasks`` into consecutive batches of at most ``batch_size``."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    batches = []
    for offset, start in enumerate(range(0, len(tasks), batch_size)):
        chunk = list(tasks[start : start + batch_size])
        batches.append(Batch(batch_id=start_batch_id + offset, tasks=chunk))
    return batches
