"""Standing property of the platform lifecycle: every fact has one owner.

A seated worker's state lives on its :class:`~repro.crowd.pool.Slot`, a
task's in-flight state on its :class:`~repro.crowd.tasks.Task`, and a
resolved attempt on its :class:`~repro.crowd.tasks.Assignment`.  Random
sequences of start, complete, terminate, ``replace_worker`` and
``refill_pool`` must leave those records agreeing with the platform's
in-flight table after every step:

* each task's ``active`` count equals its ACTIVE assignments;
* each task's ``answers`` are exactly its COMPLETED assignments, in
  completion order;
* a task is COMPLETE exactly when it has ``votes_required`` answers;
* an assignment has an end time exactly when it is resolved, and it ends no
  earlier than it started;
* a slot is available exactly when no in-flight assignment is its own;
* the available seats are the available slots, in seat order;
* the in-flight table holds exactly the ACTIVE assignments;
* departed slots hold no draw block.

When every task takes one vote, an
:class:`~repro.core.active_index.ActiveTaskIndex` over the tasks observes
the platform, and after every step it agrees with a scan of the task
objects: its duplicable tasks in batch order, its first starved task and
whether anything is placeable.  The index learns of every completion and
termination (``replace_worker``'s among them) through those callbacks
alone.

The example budget is small in tier-1; the CI equivalence job raises it with
``--hypothesis-profile=config-sweep`` (registered in ``conftest.py``).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.active_index import ActiveTaskIndex
from repro.core.mitigator import StragglerMitigator
from repro.crowd.platform import SimulatedCrowdPlatform
from repro.crowd.tasks import AssignmentStatus, Batch, Task, TaskState
from repro.crowd.worker import WorkerPopulation, WorkerProfile

#: Tier-1 runs 60 examples; any other loaded profile (the CI equivalence
#: job's ``config-sweep``) supplies its own budget.
PROPERTY_SETTINGS = (
    settings(max_examples=60, deadline=None)
    if settings.get_current_profile_name() == "default"
    else settings(deadline=None)
)

ACTIVE = AssignmentStatus.ACTIVE

#: One lifecycle step.  The integers pick among whatever exists when the
#: step runs (tasks, available slots, in-flight assignments, pool members).
OPERATIONS = st.one_of(
    st.tuples(st.just("start"), st.integers(0, 99), st.integers(0, 99)),
    st.tuples(st.just("complete")),
    st.tuples(st.just("terminate"), st.integers(0, 99)),
    st.tuples(st.just("replace"), st.integers(0, 99)),
    st.tuples(st.just("refill"), st.integers(0, 8)),
    st.tuples(st.just("wait"), st.floats(1.0, 2000.0)),
)


def population(seed):
    profiles = [
        WorkerProfile(
            worker_id=index,
            mean_latency=4.0 + (index % 5) * 6.0,
            latency_std=2.0,
            accuracy=0.9,
        )
        for index in range(10)
    ]
    return WorkerPopulation(profiles=profiles, seed=seed)


def step(platform, tasks, operation, completions):
    """Apply one operation the way the LifeGuard would, or skip it.

    Completed assignments are appended to ``completions`` as they complete.
    """
    kind = operation[0]
    pool = platform.pool
    if kind == "start":
        incomplete = [task for task in tasks if not task.is_complete]
        available = pool.available_workers()
        if incomplete and available:
            task = incomplete[operation[1] % len(incomplete)]
            slot = available[operation[2] % len(available)]
            platform.start_assignment(task, slot.worker_id)
    elif kind == "complete":
        if platform.queue:
            assignment = platform.queue.pop()
            task = platform.complete_assignment(assignment)
            completions.append(assignment)
            if task.is_complete:
                for loser in list(task.active_assignments):
                    platform.terminate_assignment(loser, assignment.duration)
    elif kind == "terminate":
        in_flight = sorted(platform._in_flight)
        if in_flight:
            assignment, _, _ = platform._in_flight[in_flight[operation[1] % len(in_flight)]]
            platform.terminate_assignment(assignment)
    elif kind == "replace":
        members = pool.worker_ids
        if members:
            platform.replace_worker(members[operation[1] % len(members)])
    elif kind == "refill":
        platform.refill_pool(operation[1])
    elif not platform.queue:
        # Waiting only while nothing is pending keeps the clock monotone.
        platform.queue.advance_to(platform.now + operation[1])


def check(platform, tasks, completions):
    pool = platform.pool
    for task in tasks:
        assert task.active == sum(1 for a in task.assignments if a.status is ACTIVE)
        completed = [a for a in completions if a.task_id == task.task_id]
        assert len(task.answers) == len(completed)
        assert all(a is b for a, b in zip(task.answers, completed, strict=True))
        assert all(a.status is AssignmentStatus.COMPLETED for a in task.answers)
        assert task.is_complete == (len(task.answers) >= task.votes_required)
        for assignment in task.assignments:
            assert (assignment.ended_at is None) == (assignment.status is ACTIVE)
            if assignment.ended_at is not None:
                assert assignment.ended_at >= assignment.started_at

    in_flight = platform._in_flight
    assert set(in_flight) == {
        a.assignment_id for task in tasks for a in task.assignments if a.status is ACTIVE
    }
    owner = {}
    for assignment_id, (assignment, task, _) in in_flight.items():
        assert assignment.assignment_id == assignment_id
        assert any(a is assignment for a in task.assignments)
        assert assignment.worker_id not in owner
        owner[assignment.worker_id] = assignment_id
    assert set(owner) <= set(pool.worker_ids)

    for slot in pool.slots():
        assert slot.is_available == (slot.worker_id not in owner)
        assert slot.current_assignment_id == owner.get(slot.worker_id)
    available = pool.available_workers()
    assert [slot.seat for slot in available] == sorted(
        slot.seat for slot in pool.slots() if slot.is_available
    )
    assert all(pool.slot(slot.worker_id) is slot for slot in available)
    assert pool.num_available() == len(available)
    assert pool.first_available() is (available[0] if available else None)

    assert all(slot.draw_block is None for slot in pool.departed_slots())


def check_index(index, mitigator):
    """The index's view against a scan of the same tasks."""
    tasks = index.batch.tasks
    cap = index.max_extra_assignments
    dispatched = [task for task in tasks if task.state is TaskState.ACTIVE]
    duplicable = [task for task in dispatched if cap is None or task.active <= cap]
    assert [
        index.kth_duplicable_task(k) for k in range(index.duplicable_count)
    ] == duplicable
    starved = [task for task in dispatched if task.active == 0]
    assert index.first_starved() is (starved[0] if starved else None)
    assert (index.placeable_count(enabled=mitigator.enabled) == 0) == (
        mitigator.placeable_count_scan(index.batch) == 0
    )


@PROPERTY_SETTINGS
@given(
    pool_size=st.integers(1, 6),
    reserve_size=st.integers(0, 3),
    abandonment_rate=st.sampled_from([0.0, 0.5]),
    votes=st.lists(st.integers(1, 3), min_size=1, max_size=6),
    single_vote=st.booleans(),
    cap=st.sampled_from([None, 0, 1]),
    mitigation=st.booleans(),
    operations=st.lists(OPERATIONS, min_size=10, max_size=80),
    seed=st.integers(0, 1000),
)
def test_every_lifecycle_fact_has_one_owner(
    pool_size,
    reserve_size,
    abandonment_rate,
    votes,
    single_vote,
    cap,
    mitigation,
    operations,
    seed,
):
    platform = SimulatedCrowdPlatform(
        population(seed), seed=seed, abandonment_rate=abandonment_rate
    )
    platform.initialize_pool(pool_size)
    platform.configure_reserve(reserve_size)
    tasks = [
        Task(
            task_id=index,
            record_ids=[index],
            true_labels=[0],
            votes_required=1 if single_vote else required,
        )
        for index, required in enumerate(votes)
    ]
    index = mitigator = None
    if all(task.votes_required == 1 for task in tasks):
        mitigator = StragglerMitigator(enabled=mitigation, max_extra_assignments=cap)
        index = ActiveTaskIndex(Batch(batch_id=0, tasks=tasks), max_extra_assignments=cap)
        platform.add_assignment_observer(index)
    completions = []
    check(platform, tasks, completions)
    if index is not None:
        check_index(index, mitigator)
    for operation in operations:
        step(platform, tasks, operation, completions)
        check(platform, tasks, completions)
        if index is not None:
            check_index(index, mitigator)
