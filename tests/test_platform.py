"""Unit tests for the simulated crowd platform."""

import pytest

from repro.crowd import platform as platform_module
from repro.crowd.platform import SimulatedCrowdPlatform
from repro.crowd.tasks import AssignmentStatus, Task


def make_task(task_id=0, num_records=1, votes_required=1):
    return Task(
        task_id=task_id,
        record_ids=list(range(num_records)),
        true_labels=[1] * num_records,
        votes_required=votes_required,
    )


class TestPoolInitialization:
    def test_pool_size(self, small_population):
        platform = SimulatedCrowdPlatform(small_population, seed=0)
        platform.initialize_pool(5)
        assert len(platform.pool) == 5
        assert platform.counters.workers_recruited == 5

    def test_recruitment_does_not_advance_clock(self, small_population):
        platform = SimulatedCrowdPlatform(small_population, seed=0)
        platform.initialize_pool(3)
        assert platform.now == 0.0

    def test_zero_pool_rejected(self, small_population):
        platform = SimulatedCrowdPlatform(small_population, seed=0)
        with pytest.raises(ValueError):
            platform.initialize_pool(0)

    def test_invalid_abandonment_rate_rejected(self, small_population):
        with pytest.raises(ValueError):
            SimulatedCrowdPlatform(small_population, abandonment_rate=1.5)


class TestAssignments:
    def test_start_assignment_schedules_event(self, platform):
        task = make_task()
        worker_id = platform.pool.worker_ids[0]
        assignment = platform.start_assignment(task, worker_id)
        assert assignment.duration > 0
        assert len(platform.queue) == 1
        assert not platform.pool.slot(worker_id).is_available

    def test_start_assignment_requires_available_worker(self, platform):
        task = make_task()
        worker_id = platform.pool.worker_ids[0]
        platform.start_assignment(task, worker_id)
        with pytest.raises(ValueError):
            platform.start_assignment(make_task(1), worker_id)

    def test_complete_assignment_produces_labels(self, platform):
        task = make_task(num_records=3)
        worker_id = platform.pool.worker_ids[0]
        assignment = platform.start_assignment(task, worker_id)
        # The one scheduled payload is the assignment, due when it finishes.
        assert platform.queue.pop() is assignment
        assert platform.now == assignment.finishes_at
        assert platform.complete_assignment(assignment) is task
        assert len(assignment.labels) == 3
        assert task.answers == [assignment]
        assert task.is_complete
        assert assignment.ended_at == platform.now
        assert platform.pool.slot(worker_id).is_available
        assert platform.counters.assignments_completed == 1
        assert platform.counters.records_labeled_paid == 3

    def test_complete_assignment_records_observation(self, platform):
        task = make_task()
        worker_id = platform.pool.worker_ids[0]
        assignment = platform.start_assignment(task, worker_id)
        platform.queue.pop()
        platform.complete_assignment(assignment)
        obs = platform.pool.observations(worker_id)
        assert obs.completed_count == 1
        assert obs.completed_latencies[0] == pytest.approx(assignment.duration)

    def test_terminate_assignment_cancels_event_and_pays(self, platform):
        task = make_task(num_records=2)
        worker_id = platform.pool.worker_ids[0]
        assignment = platform.start_assignment(task, worker_id)
        platform.terminate_assignment(assignment, terminator_latency=1.5)
        assert platform.counters.assignments_terminated == 1
        assert platform.counters.records_labeled_paid == 2
        assert len(platform.queue) == 0
        obs = platform.pool.observations(worker_id)
        assert obs.completed_count == 0
        assert obs.terminated_count == 1
        assert obs.terminator_latencies == [1.5]

    def test_terminated_assignment_ends_without_an_answer(self, platform):
        task = make_task()
        worker_id = platform.pool.worker_ids[0]
        assignment = platform.start_assignment(task, worker_id)
        halfway = assignment.finishes_at / 2
        platform.queue.advance_to(halfway)
        platform.terminate_assignment(assignment)
        assert assignment.ended_at == halfway
        assert assignment.labels is None
        assert task.answers == []
        assert not task.is_complete

    def test_replica_of_a_complete_task_is_refused_unchanged(self, platform):
        task = make_task()
        first, second = platform.pool.worker_ids[:2]
        platform.start_assignment(task, first)
        platform.start_assignment(task, second)
        platform.complete_assignment(platform.queue.pop())
        replica = platform.queue.pop()
        with pytest.raises(ValueError, match="already complete"):
            platform.complete_assignment(replica)
        assert replica.status is AssignmentStatus.ACTIVE
        assert replica.assignment_id in platform._in_flight
        assert not platform.pool.slot(replica.worker_id).is_available
        assert task.active == 1
        assert platform.counters.assignments_completed == 1
        platform.terminate_assignment(replica)
        assert task.active == 0

    def test_cannot_complete_terminated_assignment(self, platform):
        task = make_task()
        worker_id = platform.pool.worker_ids[0]
        assignment = platform.start_assignment(task, worker_id)
        platform.terminate_assignment(assignment)
        with pytest.raises(ValueError):
            platform.complete_assignment(assignment)

    def test_labels_mostly_correct_for_accurate_workers(self, platform):
        correct = 0
        total = 0
        for index in range(200):
            task = make_task(task_id=index)
            worker_id = platform.pool.available_workers()[0].worker_id
            assignment = platform.start_assignment(task, worker_id)
            platform.queue.pop()
            platform.complete_assignment(assignment)
            correct += sum(1 for l in assignment.labels if l == 1)
            total += len(assignment.labels)
        assert correct / total > 0.8

    def test_task_counts_its_active_assignments(self, platform):
        """The task's count moves with each assignment's status."""
        task = make_task()
        first, second = platform.pool.worker_ids[:2]
        winner = platform.start_assignment(task, first)
        loser = platform.start_assignment(task, second)
        assert task.active == 2
        platform.queue.pop()
        platform.complete_assignment(winner)
        assert task.active == 1
        platform.terminate_assignment(loser)
        assert task.active == 0
        assert task.active_assignments == []

    def test_active_assignment_for_worker(self, platform):
        task = make_task()
        worker_id = platform.pool.worker_ids[0]
        assignment = platform.start_assignment(task, worker_id)
        assert platform.active_assignment_for_worker(worker_id) is assignment

    def test_resolved_assignments_leave_the_in_flight_table(self, platform):
        """Only in-flight assignments are tracked: completion and
        termination both drop the entry, so bookkeeping does not grow with
        the run and a resolved id no longer resolves."""
        first, second = platform.pool.worker_ids[:2]
        completed = platform.start_assignment(make_task(0), first)
        terminated = platform.start_assignment(make_task(1), second)
        assert len(platform._in_flight) == 2
        platform.terminate_assignment(terminated)
        platform.queue.pop()
        platform.complete_assignment(completed)
        assert platform._in_flight == {}
        assert platform.active_assignment_for_worker(first) is None


class TestTerminationOverhead:
    """What ``TERMINATION_OVERHEAD_SECONDS`` does today: it is booked as
    working time, and it is not a pause.  A terminated worker is available
    at once; the overhead only starts their idle clock later."""

    OVERHEAD = platform_module.TERMINATION_OVERHEAD_SECONDS

    def _terminate_at(self, platform, at):
        worker_id = platform.pool.worker_ids[0]
        assignment = platform.start_assignment(make_task(), worker_id)
        platform.queue.advance_to(at)
        platform.terminate_assignment(assignment)
        return platform.pool.slot(worker_id)

    def test_terminated_worker_is_redispatched_at_once_without_waiting(self, platform):
        slot = self._terminate_at(platform, 10.0)
        assert slot.current_assignment_id is None
        assert platform.pool.first_available() is slot
        assert slot.working_seconds == 10.0 + self.OVERHEAD
        replacement = platform.start_assignment(make_task(1), slot.worker_id)
        assert replacement.started_at == 10.0
        assert slot.waiting_seconds == 0.0

    def test_overhead_comes_out_of_the_following_idle_time(self, platform):
        slot = self._terminate_at(platform, 10.0)
        platform.queue.advance_to(15.0)
        platform.start_assignment(make_task(1), slot.worker_id)
        assert slot.waiting_seconds == 5.0 - self.OVERHEAD


class TestAbandonment:
    def test_workers_leave_with_high_abandonment(self, small_population):
        platform = SimulatedCrowdPlatform(
            small_population, seed=0, abandonment_rate=0.9
        )
        platform.initialize_pool(5)
        departures = 0
        for index in range(5):
            worker_ids = [s.worker_id for s in platform.pool.available_workers()]
            if not worker_ids:
                break
            task = make_task(task_id=index)
            assignment = platform.start_assignment(task, worker_ids[0])
            platform.queue.pop()
            platform.complete_assignment(assignment)
            departures = platform.counters.workers_abandoned
        assert departures >= 1


class TestReplacement:
    def test_replace_worker_without_reserve_shrinks_pool(self, platform):
        worker_id = platform.pool.worker_ids[0]
        replacement = platform.replace_worker(worker_id)
        assert replacement is None
        assert len(platform.pool) == 4

    def test_replace_worker_with_reserve(self, platform):
        platform.configure_reserve(2)
        platform.queue.advance_to(1e9)
        platform.reserve.tick(platform.now)
        worker_id = platform.pool.worker_ids[0]
        replacement = platform.replace_worker(worker_id)
        assert replacement is not None
        assert len(platform.pool) == 5
        assert worker_id not in platform.pool
        assert platform.counters.workers_replaced == 1

    def test_refill_pool_counts_each_seat_as_a_replacement(self, platform):
        platform.configure_reserve(2)
        platform.queue.advance_to(1e9)
        platform.reserve.tick(platform.now)
        lost = platform.pool.worker_ids[0]
        platform.pool.remove_worker(lost, platform.now)
        added = platform.refill_pool(5)
        assert added == 1
        assert platform.counters.workers_replaced == 1

    def test_replace_active_worker_terminates_assignment(self, platform):
        worker_id = platform.pool.worker_ids[0]
        task = make_task()
        platform.start_assignment(task, worker_id)
        platform.replace_worker(worker_id)
        assert platform.counters.assignments_terminated == 1

    def test_replace_unknown_worker_rejected(self, platform):
        with pytest.raises(KeyError):
            platform.replace_worker(424242)

    def test_same_timestamp_replacement_after_completion(self, platform):
        """Complete then replace at one timestamp: the completed assignment
        must not be re-terminated during the eviction."""
        worker_id = platform.pool.worker_ids[0]
        assignment = platform.start_assignment(make_task(), worker_id)
        platform.queue.pop()
        platform.complete_assignment(assignment)
        platform.replace_worker(worker_id)
        assert platform.counters.assignments_terminated == 0
        assert worker_id not in platform.pool

    def test_replacement_with_stale_assignment_watermark(self, platform):
        """A stale ``current_assignment_id`` (caller-driven slot churn) must
        resolve through the in-flight table to nothing, not terminate."""
        worker_id = platform.pool.worker_ids[0]
        assignment = platform.start_assignment(make_task(), worker_id)
        platform.queue.pop()
        platform.complete_assignment(assignment)
        platform.pool.mark_active(
            platform.pool.slot(worker_id), assignment.assignment_id, platform.now
        )
        platform.replace_worker(worker_id)
        assert platform.counters.assignments_terminated == 0
        assert platform.pool.num_available() == len(platform.pool)

    def test_never_assigned_slot_replacement(self, platform):
        """Eviction of a worker who never drew an assignment is clean."""
        worker_id = platform.pool.worker_ids[0]
        platform.replace_worker(worker_id)
        assert platform.counters.assignments_terminated == 0
        assert platform.counters.assignments_started == 0

    def test_refill_pool_uses_reserve(self, platform):
        platform.configure_reserve(3)
        platform.queue.advance_to(1e9)
        platform.pool.remove_worker(platform.pool.worker_ids[0], now=platform.now)
        added = platform.refill_pool(target_size=5)
        assert added == 1
        assert len(platform.pool) == 5


class TestSettlement:
    def test_settle_accrues_waiting(self, platform):
        platform.queue.advance_to(100.0)
        platform.settle()
        assert platform.pool.total_waiting_seconds() == pytest.approx(500.0)


class TestDrawBlocks:
    """Per-worker draw blocks are a prefetch window, never observable."""

    def _run_trace(self, population, monkeypatch, draw_block_size=64):
        monkeypatch.setattr(platform_module, "DEFAULT_DRAW_BLOCK_SIZE", draw_block_size)
        platform = SimulatedCrowdPlatform(population, seed=3)
        platform.initialize_pool(5)
        trace = []
        for index in range(12):
            available = platform.pool.available_workers()
            if not available:
                platform.queue.pop()
                continue
            assignment = platform.start_assignment(
                make_task(task_id=index, num_records=2), available[0].worker_id
            )
            if index % 3 == 2:
                platform.terminate_assignment(assignment)
                trace.append(("terminated", assignment.duration))
            else:
                platform.queue.pop()
                platform.complete_assignment(assignment)
                trace.append(
                    ("completed", assignment.duration, tuple(assignment.labels))
                )
        trace.append(("now", platform.now))
        trace.append(("counters", str(platform.counters)))
        return trace

    def test_block_size_is_not_observable(self, small_population, monkeypatch):
        expected = self._run_trace(small_population, monkeypatch, draw_block_size=64)
        for draw_block_size in (1, 1000):
            trace = self._run_trace(small_population, monkeypatch, draw_block_size)
            assert trace == expected

    def test_departed_worker_block_is_dropped(self, small_population):
        platform = SimulatedCrowdPlatform(small_population, seed=0)
        platform.initialize_pool(3)
        worker_id = platform.pool.worker_ids[0]
        assignment = platform.start_assignment(make_task(), worker_id)
        platform.queue.pop()
        platform.complete_assignment(assignment)
        slot = platform.pool.slot(worker_id)
        assert slot.draw_block is not None
        platform.replace_worker(worker_id)
        assert slot.draw_block is None
