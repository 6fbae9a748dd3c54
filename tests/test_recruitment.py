"""Unit tests for recruitment and the background reserve."""

import pytest

from repro.crowd.recruitment import BackgroundReserve, Recruiter, RecruitmentParameters


@pytest.fixture
def recruiter(small_population):
    return Recruiter(small_population, RecruitmentParameters(min_seconds=10.0), seed=0)


class TestRecruitmentParameters:
    def test_negative_min_rejected(self):
        with pytest.raises(ValueError):
            RecruitmentParameters(min_seconds=-1.0)

    def test_negative_qualification_rejected(self):
        with pytest.raises(ValueError):
            RecruitmentParameters(qualification_seconds=-5.0)


class TestRecruiter:
    def test_latency_above_floor_plus_qualification(self, recruiter):
        params = recruiter.parameters
        for _ in range(50):
            latency = recruiter.draw_recruitment_latency()
            assert latency >= params.min_seconds + params.qualification_seconds

    def test_recruit_returns_worker_and_latency(self, recruiter):
        worker, latency = recruiter.recruit()
        assert worker.mean_latency > 0
        assert latency > 0

    def test_recruited_count_increments(self, recruiter):
        recruiter.recruit()
        recruiter.recruit()
        assert recruiter.recruited_count == 2

    def test_recruits_are_fresh_ids(self, recruiter):
        first, _ = recruiter.recruit()
        second, _ = recruiter.recruit()
        assert first.worker_id != second.worker_id

    def test_recruiters_on_one_population_draw_the_same_workers(
        self, small_population
    ):
        first, second = Recruiter(small_population), Recruiter(small_population)
        assert [first.recruit()[0] for _ in range(5)] == [
            second.recruit()[0] for _ in range(5)
        ]


class TestBackgroundReserve:
    def test_negative_target_rejected(self, recruiter):
        with pytest.raises(ValueError):
            BackgroundReserve(recruiter, target_size=-1)

    def test_tick_tops_up_in_flight(self, recruiter):
        reserve = BackgroundReserve(recruiter, target_size=3)
        reserve.tick(now=0.0)
        assert reserve.in_flight_count + reserve.ready_count == 3

    def test_workers_become_ready_after_latency(self, recruiter):
        reserve = BackgroundReserve(recruiter, target_size=2)
        reserve.tick(now=0.0)
        reserve.tick(now=1e9)
        assert reserve.ready_count == 2
        assert reserve.in_flight_count == 0

    def test_take_replacement_when_none_ready(self, recruiter):
        reserve = BackgroundReserve(recruiter, target_size=1)
        assert reserve.take_replacement(now=0.0) is None

    def test_take_replacement_returns_ready_worker(self, recruiter):
        reserve = BackgroundReserve(recruiter, target_size=1)
        reserve.tick(now=0.0)
        worker = reserve.take_replacement(now=1e9)
        assert worker is not None

    def test_take_replacement_triggers_refill(self, recruiter):
        reserve = BackgroundReserve(recruiter, target_size=2)
        reserve.tick(now=0.0)
        reserve.take_replacement(now=1e9)
        # After taking one, the reserve should have started replacing it.
        assert reserve.ready_count + reserve.in_flight_count >= 1

    def test_recruitment_seconds_accumulate(self, recruiter):
        reserve = BackgroundReserve(recruiter, target_size=2)
        reserve.tick(now=0.0)
        assert reserve.total_recruitment_seconds > 0

    def test_zero_target_never_recruits(self, small_population):
        recruiter = Recruiter(small_population, seed=0)
        reserve = BackgroundReserve(recruiter, target_size=0)
        reserve.tick(now=0.0)
        assert reserve.ready_count == 0
        assert reserve.in_flight_count == 0
        assert reserve.total_recruitment_seconds == 0.0
