"""Unit tests for tasks, assignments, and batches."""

import pytest

from repro.crowd.tasks import (
    Assignment,
    AssignmentStatus,
    Batch,
    Task,
    TaskFactory,
    TaskState,
    group_into_batches,
)


def make_task(task_id=0, num_records=1, votes_required=1):
    return Task(
        task_id=task_id,
        record_ids=list(range(num_records)),
        true_labels=[0] * num_records,
        votes_required=votes_required,
    )


def make_assignment(assignment_id=0, task_id=0, worker_id=0, started_at=0.0, duration=5.0):
    return Assignment(
        assignment_id=assignment_id,
        task_id=task_id,
        worker_id=worker_id,
        started_at=started_at,
        duration=duration,
    )


def started(task, count):
    """Start ``count`` assignments on ``task`` (workers 0, 1, ...), in order."""
    assignments = [
        make_assignment(assignment_id=i, task_id=task.task_id, worker_id=i)
        for i in range(count)
    ]
    for assignment in assignments:
        task.add_assignment(assignment)
    return assignments


def assigned(**kwargs):
    """A fresh task holding one active assignment."""
    task = make_task()
    assignment = make_assignment(**kwargs)
    task.add_assignment(assignment)
    return task, assignment


class TestAssignment:
    def test_finishes_at(self):
        assignment = make_assignment(started_at=2.0, duration=3.0)
        assert assignment.finishes_at == pytest.approx(5.0)

    def test_complete_sets_labels_and_time(self):
        task, assignment = assigned()
        task.complete_assignment(assignment, at=5.0, labels=[1])
        assert assignment.status == AssignmentStatus.COMPLETED
        assert assignment.labels == [1]
        assert assignment.ended_at == pytest.approx(5.0)
        assert assignment.elapsed == pytest.approx(5.0)
        assert task.active == 0

    def test_terminate_sets_time(self):
        task, assignment = assigned(started_at=1.0)
        task.terminate_assignment(assignment, at=4.0)
        assert assignment.status == AssignmentStatus.TERMINATED
        assert assignment.labels is None
        assert assignment.ended_at == pytest.approx(4.0)
        assert assignment.elapsed == pytest.approx(3.0)
        assert task.answers == []
        assert task.active == 0

    def test_cannot_complete_twice(self):
        task, assignment = assigned()
        task.complete_assignment(assignment, at=5.0, labels=[1])
        with pytest.raises(ValueError):
            task.complete_assignment(assignment, at=6.0, labels=[0])
        assert task.active == 0

    def test_cannot_terminate_completed(self):
        task, assignment = assigned()
        task.complete_assignment(assignment, at=5.0, labels=[1])
        with pytest.raises(ValueError):
            task.terminate_assignment(assignment, at=6.0)
        assert task.active == 0

    def test_elapsed_none_while_active(self):
        assert make_assignment().elapsed is None


class TestTask:
    def test_requires_records(self):
        with pytest.raises(ValueError):
            Task(task_id=0, record_ids=[], true_labels=[])

    def test_record_label_length_mismatch(self):
        with pytest.raises(ValueError):
            Task(task_id=0, record_ids=[1, 2], true_labels=[0])

    def test_initial_state_unassigned(self):
        assert make_task().state == TaskState.UNASSIGNED

    def test_add_assignment_activates(self):
        task = make_task()
        task.add_assignment(make_assignment())
        assert task.state == TaskState.ACTIVE

    def test_completes_after_required_votes(self):
        task = make_task(votes_required=2)
        first, second = started(task, 2)
        task.complete_assignment(first, at=3.0, labels=[1])
        assert not task.is_complete
        task.complete_assignment(second, at=5.0, labels=[0])
        assert task.is_complete
        assert task.completed_at == pytest.approx(5.0)

    def test_answers_are_the_completed_assignments_in_completion_order(self):
        task = make_task(votes_required=3)
        early, late, cut = started(task, 3)
        task.complete_assignment(late, at=2.0, labels=[1])
        task.terminate_assignment(cut, at=3.0)
        task.complete_assignment(early, at=4.0, labels=[0])
        assert task.answers == [late, early]
        assert task.assignments == [early, late, cut]
        assert task.votes_received == 2
        assert not task.is_complete

    def test_completing_an_assignment_of_a_complete_task_raises(self):
        task = make_task()
        winner, loser = started(task, 2)
        task.complete_assignment(winner, at=1.0, labels=[1])
        with pytest.raises(ValueError, match="already complete"):
            task.complete_assignment(loser, at=2.0, labels=[0])
        assert loser.status is AssignmentStatus.ACTIVE
        assert task.answers == [winner]
        assert task.active == 1

    def test_assignments_after_completion_rejected(self):
        task = make_task()
        (assignment,) = started(task, 1)
        task.complete_assignment(assignment, at=1.0, labels=[1])
        with pytest.raises(ValueError):
            task.add_assignment(make_assignment())

    def test_active_assignment_view_and_count(self):
        task = make_task()
        a1 = make_assignment(assignment_id=1)
        a2 = make_assignment(assignment_id=2)
        task.add_assignment(a1)
        task.add_assignment(a2)
        assert task.active == 2
        task.complete_assignment(a1, at=3.0, labels=[1])
        assert task.active_assignments == [a2]
        assert task.active == 1

    @pytest.mark.parametrize("field", ["assignments", "answers", "active"])
    def test_constructor_takes_no_lifecycle_state(self, field):
        """Only the task's own calls fill these, so an UNASSIGNED task holds
        no assignment and no answer."""
        with pytest.raises(TypeError):
            Task(task_id=0, record_ids=[0], true_labels=[0], **{field: []})

    def test_num_records(self):
        assert make_task(num_records=5).num_records == 5


class TestBatch:
    def test_requires_tasks(self):
        with pytest.raises(ValueError):
            Batch(batch_id=0, tasks=[])

    def test_size_and_records(self):
        batch = Batch(batch_id=0, tasks=[make_task(0, 3), make_task(1, 3)])
        assert batch.size == 2
        assert batch.num_records == 6

    def test_completeness(self):
        tasks = [make_task(0), make_task(1)]
        batch = Batch(batch_id=0, tasks=tasks)
        assert not batch.is_complete
        for at, task in enumerate(tasks):
            (assignment,) = started(task, 1)
            task.complete_assignment(assignment, at=float(at), labels=[1])
        assert batch.is_complete

    def test_task_state_views(self):
        tasks = [make_task(0), make_task(1), make_task(2)]
        batch = Batch(batch_id=0, tasks=tasks)
        tasks[0].add_assignment(make_assignment(task_id=0))
        (assignment,) = started(tasks[1], 1)
        tasks[1].complete_assignment(assignment, at=1.0, labels=[1])
        assert batch.unassigned_tasks == [tasks[2]]
        assert batch.incomplete_tasks == [tasks[0], tasks[2]]


class TestTaskFactory:
    def test_groups_records(self):
        factory = TaskFactory(records_per_task=3)
        tasks = factory.build_tasks(list(range(7)), [0] * 7)
        assert [t.num_records for t in tasks] == [3, 3, 1]

    def test_ids_are_unique_across_calls(self):
        factory = TaskFactory()
        first = factory.build_tasks([0], [0])
        second = factory.build_tasks([1], [0])
        assert first[0].task_id != second[0].task_id

    def test_votes_required_propagates(self):
        factory = TaskFactory(votes_required=3)
        tasks = factory.build_tasks([0], [1])
        assert tasks[0].votes_required == 3

    def test_rejects_invalid_parameters(self):
        with pytest.raises(ValueError):
            TaskFactory(records_per_task=0)
        with pytest.raises(ValueError):
            TaskFactory(votes_required=0)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            TaskFactory().build_tasks([0, 1], [0])


class TestHelpers:
    def test_group_into_batches(self):
        tasks = [make_task(i) for i in range(5)]
        batches = group_into_batches(tasks, batch_size=2)
        assert [len(b) for b in batches] == [2, 2, 1]
        assert [b.batch_id for b in batches] == [0, 1, 2]

    def test_group_into_batches_invalid_size(self):
        with pytest.raises(ValueError):
            group_into_batches([make_task(0)], batch_size=0)

    @pytest.mark.parametrize("make", [make_task, make_assignment])
    def test_records_refuse_undeclared_attributes(self, make):
        """Task and assignment records are slotted: a misspelt field is an
        error instead of a silent new attribute."""
        with pytest.raises(AttributeError):
            make().stauts = AssignmentStatus.COMPLETED


class TestFirstUnassignedCursor:
    """The amortized cursor must stay correct when tasks complete out of
    dispatch order — completion never reverts a task to UNASSIGNED, but the
    cursor must also never skip a task that is still unassigned."""

    @staticmethod
    def _activate(task, assignment_id, worker_id=0):
        assignment = make_assignment(
            assignment_id=assignment_id, task_id=task.task_id, worker_id=worker_id
        )
        task.add_assignment(assignment)
        return assignment

    @staticmethod
    def _complete(task, assignment, at=1.0):
        task.complete_assignment(assignment, at=at, labels=[0] * len(task.record_ids))

    def test_cursor_advances_past_dispatched_prefix(self):
        tasks = [make_task(task_id=i) for i in range(4)]
        batch = Batch(batch_id=0, tasks=tasks)
        assert batch.first_unassigned_task() is tasks[0]
        self._activate(tasks[0], assignment_id=0)
        self._activate(tasks[1], assignment_id=1)
        assert batch.first_unassigned_task() is tasks[2]

    def test_out_of_dispatch_order_completion_does_not_move_cursor(self):
        tasks = [make_task(task_id=i) for i in range(4)]
        batch = Batch(batch_id=0, tasks=tasks)
        a0 = self._activate(tasks[0], assignment_id=0, worker_id=0)
        a1 = self._activate(tasks[1], assignment_id=1, worker_id=1)
        # The *later-dispatched* task finishes first.
        self._complete(tasks[1], a1, at=2.0)
        assert batch.first_unassigned_task() is tasks[2]
        self._complete(tasks[0], a0, at=5.0)
        assert batch.first_unassigned_task() is tasks[2]
        # Dispatching the cursor task moves it to the last one.
        self._activate(tasks[2], assignment_id=2)
        assert batch.first_unassigned_task() is tasks[3]

    def test_cursor_exhausts_to_none(self):
        tasks = [make_task(task_id=i) for i in range(2)]
        batch = Batch(batch_id=0, tasks=tasks)
        for i, task in enumerate(tasks):
            self._activate(task, assignment_id=i)
        assert batch.first_unassigned_task() is None
        # Completing tasks afterwards keeps it None (cursor never rewinds).
        assert batch.first_unassigned_task() is None

    def test_gap_in_dispatch_order_is_not_skipped(self):
        tasks = [make_task(task_id=i) for i in range(3)]
        batch = Batch(batch_id=0, tasks=tasks)
        # Hand-built state: the *middle* task was never dispatched while a
        # later one was (cannot happen through the mitigator, but the cursor
        # must not assume a contiguous prefix).
        self._activate(tasks[0], assignment_id=0)
        self._activate(tasks[2], assignment_id=1)
        assert batch.first_unassigned_task() is tasks[1]

    def test_compacting_view_drops_out_of_order_completions(self):
        tasks = [make_task(task_id=i) for i in range(4)]
        batch = Batch(batch_id=0, tasks=tasks)
        assignments = [
            self._activate(task, assignment_id=i, worker_id=i)
            for i, task in enumerate(tasks)
        ]
        # Complete tasks 3 and 1 (reverse of dispatch order): the view keeps
        # batch order over the survivors.
        self._complete(tasks[3], assignments[3], at=1.0)
        self._complete(tasks[1], assignments[1], at=2.0)
        assert [t.task_id for t in batch.incomplete_tasks_view()] == [0, 2]
        self._complete(tasks[0], assignments[0], at=3.0)
        assert [t.task_id for t in batch.incomplete_tasks_view()] == [2]
