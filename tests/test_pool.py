"""Unit tests for the retainer pool."""

import pytest

from repro.crowd.pool import RetainerPool, pool_from_workers
from repro.crowd.worker import WorkerDrawBlock, WorkerProfile


def worker(worker_id, mean=5.0):
    return WorkerProfile(worker_id=worker_id, mean_latency=mean, latency_std=1.0, accuracy=0.9)


class TestMembership:
    def test_add_and_contains(self):
        pool = RetainerPool()
        pool.add_worker(worker(1), now=0.0)
        assert 1 in pool
        assert pool.size == 1

    def test_duplicate_add_rejected(self):
        pool = RetainerPool()
        pool.add_worker(worker(1), now=0.0)
        with pytest.raises(ValueError):
            pool.add_worker(worker(1), now=1.0)

    def test_remove_unknown_rejected(self):
        with pytest.raises(KeyError):
            RetainerPool().remove_worker(9, now=0.0)

    def test_remove_moves_to_departed(self):
        pool = RetainerPool()
        pool.add_worker(worker(1), now=0.0)
        pool.remove_worker(1, now=5.0)
        assert 1 not in pool
        assert len(pool.departed_slots()) == 1

    def test_pool_from_workers(self):
        pool = pool_from_workers([worker(1), worker(2)])
        assert pool.size == 2


class TestAvailability:
    def test_new_workers_are_available(self):
        pool = pool_from_workers([worker(1)])
        assert pool.num_available() == 1

    def test_mark_active_and_available_cycle(self):
        pool = pool_from_workers([worker(1)])
        pool.mark_active(pool.slot(1), assignment_id=7, now=10.0)
        assert not pool.slot(1).is_available
        assert pool.slot(1).current_assignment_id == 7
        pool.mark_available(pool.slot(1), now=20.0, worked_seconds=10.0)
        assert pool.slot(1).is_available
        assert pool.slot(1).current_assignment_id is None
        assert pool.slot(1).working_seconds == pytest.approx(10.0)

    def test_mark_active_twice_rejected(self):
        pool = pool_from_workers([worker(1)])
        pool.mark_active(pool.slot(1), 0, now=0.0)
        with pytest.raises(ValueError):
            pool.mark_active(pool.slot(1), 1, now=1.0)

    def test_mark_available_when_not_active_rejected(self):
        pool = pool_from_workers([worker(1)])
        with pytest.raises(ValueError):
            pool.mark_available(pool.slot(1), now=1.0, worked_seconds=1.0)

    def test_mark_available_records_no_observation(self):
        """The slot's transition is the same for a completion and a
        termination; the platform records which one it was."""
        pool = pool_from_workers([worker(1)])
        pool.mark_active(pool.slot(1), 0, now=0.0)
        pool.mark_available(pool.slot(1), now=5.0, worked_seconds=5.0)
        observations = pool.slot(1).observations
        assert observations.completed_count == observations.terminated_count == 0


class TestAccounting:
    def test_waiting_time_accrues_until_activation(self):
        pool = pool_from_workers([worker(1)], now=0.0)
        pool.mark_active(pool.slot(1), 0, now=30.0)
        assert pool.slot(1).waiting_seconds == pytest.approx(30.0)

    def test_waiting_time_resumes_after_availability(self):
        pool = pool_from_workers([worker(1)], now=0.0)
        pool.mark_active(pool.slot(1), 0, now=10.0)
        pool.mark_available(pool.slot(1), now=20.0, worked_seconds=10.0)
        pool.settle_waiting(now=35.0)
        assert pool.slot(1).waiting_seconds == pytest.approx(10.0 + 15.0)

    def test_working_seconds_accumulate(self):
        pool = pool_from_workers([worker(1)])
        pool.mark_active(pool.slot(1), 0, now=0.0)
        pool.mark_available(pool.slot(1), now=12.0, worked_seconds=12.0)
        assert pool.total_working_seconds() == pytest.approx(12.0)

    def test_departed_waiting_included_in_totals(self):
        pool = pool_from_workers([worker(1)], now=0.0)
        pool.remove_worker(1, now=25.0)
        assert pool.total_waiting_seconds() == pytest.approx(25.0)

    def test_settle_waiting_idempotent_at_same_time(self):
        pool = pool_from_workers([worker(1)], now=0.0)
        pool.settle_waiting(now=10.0)
        pool.settle_waiting(now=10.0)
        assert pool.total_waiting_seconds() == pytest.approx(10.0)


class TestSlotRecord:
    """A seated worker's observations, seat and draw block live on the slot."""

    def test_observations_are_the_slots(self):
        pool = pool_from_workers([worker(1), worker(2)])
        pool.slot(1).observations.record_completion(4.0)
        pool.slot(1).observations.record_completion(6.0)
        assert pool.observations(1) is pool.slot(1).observations
        assert pool.observations(1).empirical_mean_latency() == pytest.approx(5.0)
        assert pool.all_observations() == {
            1: pool.slot(1).observations,
            2: pool.slot(2).observations,
        }

    def test_departed_worker_leaves_the_observations(self):
        pool = pool_from_workers([worker(1), worker(2)])
        pool.remove_worker(1, now=1.0)
        assert list(pool.all_observations()) == [2]
        with pytest.raises(KeyError):
            pool.observations(1)

    def test_seats_count_up_in_seating_order(self):
        pool = pool_from_workers([worker(4), worker(1)])
        pool.remove_worker(4, now=1.0)
        pool.add_worker(worker(7), now=1.0)
        assert [s.seat for s in pool.slots()] == [1, 2]

    def test_departing_slot_drops_its_draw_block(self):
        pool = pool_from_workers([worker(1)])
        slot = pool.slot(1)
        slot.draw_block = WorkerDrawBlock(slot.worker, seed=0)
        assert pool.remove_worker(1, now=1.0).draw_block is None


class TestAvailableWorkersFastPath:
    def _pool(self, count=5):
        workers = [
            WorkerProfile(worker_id=i, mean_latency=5.0, latency_std=1.0, accuracy=0.9)
            for i in range(count)
        ]
        return pool_from_workers(workers)

    def test_order_is_stable_through_activity_cycles(self):
        pool = self._pool()
        pool.mark_active(pool.slot(1), 0, now=0.0)
        pool.mark_active(pool.slot(3), 1, now=0.0)
        assert [s.worker_id for s in pool.available_workers()] == [0, 2, 4]
        # Workers re-entering availability keep seating order (here also
        # ascending-id order).
        pool.mark_available(pool.slot(3), now=5.0, worked_seconds=5.0)
        pool.mark_available(pool.slot(1), now=6.0, worked_seconds=6.0)
        assert [s.worker_id for s in pool.available_workers()] == [0, 1, 2, 3, 4]

    def test_num_available_tracks_transitions(self):
        pool = self._pool(3)
        assert pool.num_available() == 3
        pool.mark_active(pool.slot(0), 0, now=0.0)
        assert pool.num_available() == 2
        assert pool.first_available().worker_id == 1
        pool.remove_worker(2, now=1.0)
        assert pool.num_available() == 1
        pool.mark_active(pool.slot(1), 1, now=1.0)
        assert pool.first_available() is None
        pool.mark_available(pool.slot(0), now=2.0, worked_seconds=2.0)
        assert pool.num_available() == 1
        assert pool.first_available().worker_id == 0

    def test_out_of_order_insertion_keeps_seating_order(self):
        workers = [
            WorkerProfile(worker_id=i, mean_latency=5.0, latency_std=1.0, accuracy=0.9)
            for i in (4, 1, 3)
        ]
        pool = pool_from_workers(workers)
        # Seated out of id order, as background-reserve recruits can be:
        # availability follows seating order, not sorted-id order, through
        # activity cycles and departures too.
        assert [s.worker_id for s in pool.available_workers()] == [4, 1, 3]
        assert pool.num_available() == 3
        pool.mark_active(pool.slot(4), 0, now=0.0)
        pool.mark_active(pool.slot(1), 1, now=0.0)
        pool.mark_available(pool.slot(1), now=2.0, worked_seconds=2.0)
        pool.mark_available(pool.slot(4), now=3.0, worked_seconds=3.0)
        pool.remove_worker(1, now=4.0)
        pool.add_worker(
            WorkerProfile(worker_id=0, mean_latency=5.0, latency_std=1.0, accuracy=0.9),
            now=4.0,
        )
        assert [s.worker_id for s in pool.available_workers()] == [4, 3, 0]
        assert pool.first_available() is pool.available_workers()[0]
