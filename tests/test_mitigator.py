"""Unit tests for the straggler mitigator's routing decisions."""

import pytest

from repro.core.config import StragglerRoutingPolicy
from repro.core.mitigator import StragglerMitigator
from repro.crowd.pool import pool_from_workers
from repro.crowd.tasks import Assignment, Batch, Task
from repro.crowd.worker import WorkerProfile


def make_task(task_id, votes_required=1):
    return Task(
        task_id=task_id,
        record_ids=[task_id],
        true_labels=[0],
        votes_required=votes_required,
    )


def assign(task, worker_id, assignment_id, started_at=0.0, duration=10.0):
    assignment = Assignment(
        assignment_id=assignment_id,
        task_id=task.task_id,
        worker_id=worker_id,
        started_at=started_at,
        duration=duration,
    )
    task.add_assignment(assignment)
    return assignment


@pytest.fixture
def pool():
    workers = [
        WorkerProfile(worker_id=i, mean_latency=5.0, latency_std=1.0, accuracy=0.9)
        for i in range(5)
    ]
    return pool_from_workers(workers)


class TestUnassignedPriority:
    def test_prefers_unassigned_tasks(self, pool):
        mitigator = StragglerMitigator(enabled=True, seed=0)
        tasks = [make_task(0), make_task(1)]
        assign(tasks[0], worker_id=1, assignment_id=0)
        batch = Batch(batch_id=0, tasks=tasks)
        chosen = mitigator.pick_task(batch, worker_id=2, pool=pool, now=1.0)
        assert chosen is tasks[1]

    def test_starved_active_task_served_even_without_mitigation(self, pool):
        mitigator = StragglerMitigator(enabled=False, decouple_quality_control=False, seed=0)
        task = make_task(0)
        assignment = assign(task, worker_id=1, assignment_id=0)
        task.terminate_assignment(assignment, at=2.0)
        batch = Batch(batch_id=0, tasks=[task])
        chosen = mitigator.pick_task(batch, worker_id=2, pool=pool, now=3.0)
        assert chosen is task


class TestMitigationDuplicates:
    def test_disabled_mitigation_gives_no_duplicates(self, pool):
        mitigator = StragglerMitigator(enabled=False, seed=0)
        task = make_task(0)
        assign(task, worker_id=1, assignment_id=0)
        batch = Batch(batch_id=0, tasks=[task])
        assert mitigator.pick_task(batch, worker_id=2, pool=pool, now=1.0) is None

    def test_enabled_mitigation_duplicates_active_task(self, pool):
        mitigator = StragglerMitigator(enabled=True, seed=0)
        task = make_task(0)
        assign(task, worker_id=1, assignment_id=0)
        batch = Batch(batch_id=0, tasks=[task])
        assert mitigator.pick_task(batch, worker_id=2, pool=pool, now=1.0) is task

    def test_worker_not_rerouted_to_own_task(self, pool):
        mitigator = StragglerMitigator(enabled=True, seed=0)
        task = make_task(0)
        assign(task, worker_id=2, assignment_id=0)
        batch = Batch(batch_id=0, tasks=[task])
        assert mitigator.pick_task(batch, worker_id=2, pool=pool, now=1.0) is None

    def test_worker_not_rerouted_to_answered_task(self, pool):
        mitigator = StragglerMitigator(enabled=True, seed=0)
        task = make_task(0, votes_required=2)
        answer = assign(task, worker_id=2, assignment_id=0)
        task.complete_assignment(answer, at=1.0, labels=[0])
        assign(task, worker_id=1, assignment_id=1)
        batch = Batch(batch_id=0, tasks=[task])
        assert mitigator.pick_task(batch, worker_id=2, pool=pool, now=2.0) is None
        assert mitigator.pick_task(batch, worker_id=3, pool=pool, now=2.0) is task

    def test_terminated_worker_may_rejoin_task(self, pool):
        """Only a terminated attempt leaves its worker uninvolved."""
        mitigator = StragglerMitigator(enabled=True, seed=0)
        task = make_task(0)
        cut = assign(task, worker_id=2, assignment_id=0)
        task.terminate_assignment(cut, at=1.0)
        assign(task, worker_id=1, assignment_id=1)
        batch = Batch(batch_id=0, tasks=[task])
        assert mitigator.pick_task_scan(batch, worker_id=2, pool=pool, now=2.0) is task

    def test_max_extra_assignments_caps_duplicates(self, pool):
        mitigator = StragglerMitigator(enabled=True, max_extra_assignments=1, seed=0)
        task = make_task(0)
        assign(task, worker_id=1, assignment_id=0)
        assign(task, worker_id=2, assignment_id=1)  # one duplicate already
        batch = Batch(batch_id=0, tasks=[task])
        assert mitigator.pick_task(batch, worker_id=3, pool=pool, now=1.0) is None

    def test_invalid_cap_rejected(self):
        with pytest.raises(ValueError):
            StragglerMitigator(max_extra_assignments=-1)


class TestQualityControlDecoupling:
    def test_under_provisioned_task_served_first(self, pool):
        mitigator = StragglerMitigator(enabled=True, decouple_quality_control=True, seed=0)
        needs_votes = make_task(0, votes_required=3)
        assign(needs_votes, worker_id=1, assignment_id=0)
        well_covered = make_task(1, votes_required=1)
        assign(well_covered, worker_id=2, assignment_id=1)
        batch = Batch(batch_id=0, tasks=[needs_votes, well_covered])
        chosen = mitigator.pick_task(batch, worker_id=3, pool=pool, now=1.0)
        assert chosen is needs_votes


class TestRoutingPolicies:
    def _two_active_tasks(self, now=10.0):
        early = make_task(0)
        late = make_task(1)
        assign(early, worker_id=1, assignment_id=0, started_at=0.0, duration=30.0)
        assign(late, worker_id=2, assignment_id=1, started_at=8.0, duration=5.0)
        assign(late, worker_id=3, assignment_id=2, started_at=9.0, duration=5.0)
        return Batch(batch_id=0, tasks=[early, late])

    def test_longest_running_picks_oldest(self, pool):
        mitigator = StragglerMitigator(
            enabled=True, policy=StragglerRoutingPolicy.LONGEST_RUNNING, seed=0
        )
        batch = self._two_active_tasks()
        chosen = mitigator.pick_task(batch, worker_id=4, pool=pool, now=10.0)
        assert chosen.task_id == 0

    def test_fewest_active_picks_least_covered(self, pool):
        mitigator = StragglerMitigator(
            enabled=True, policy=StragglerRoutingPolicy.FEWEST_ACTIVE, seed=0
        )
        batch = self._two_active_tasks()
        chosen = mitigator.pick_task(batch, worker_id=4, pool=pool, now=10.0)
        assert chosen.task_id == 0

    def test_oracle_picks_slowest_to_finish(self, pool):
        mitigator = StragglerMitigator(
            enabled=True, policy=StragglerRoutingPolicy.ORACLE_SLOWEST, seed=0
        )
        batch = self._two_active_tasks()
        chosen = mitigator.pick_task(batch, worker_id=4, pool=pool, now=10.0)
        # The early task finishes at t=30; the late one at t=13/14.
        assert chosen.task_id == 0

    def test_random_policy_returns_some_active_task(self, pool):
        mitigator = StragglerMitigator(
            enabled=True, policy=StragglerRoutingPolicy.RANDOM, seed=0
        )
        batch = self._two_active_tasks()
        chosen = mitigator.pick_task(batch, worker_id=4, pool=pool, now=10.0)
        assert chosen.task_id in (0, 1)

    def test_route_rejects_empty_candidates(self, pool):
        mitigator = StragglerMitigator(seed=0)
        with pytest.raises(ValueError):
            mitigator._route([], pool, now=0.0)
