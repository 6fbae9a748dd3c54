"""Unit tests for pool maintenance and its convergence model."""

import pytest

from repro.core.batcher import Batcher
from repro.core.config import CLAMShellConfig, LearningStrategy
from repro.core.maintainer import (
    MaintenancePolicy,
    PoolMaintainer,
    predicted_latency_series,
    predicted_pool_latency,
    threshold_from_population,
)
from repro.crowd.platform import SimulatedCrowdPlatform
from repro.crowd.worker import WorkerObservations, WorkerPopulation, WorkerProfile
from repro.experiments.common import make_labeling_workload


def observations_with(latencies, worker_id=0):
    obs = WorkerObservations(worker_id=worker_id)
    for latency in latencies:
        obs.record_completion(latency)
    return obs


@pytest.fixture
def bimodal_platform():
    """A platform whose pool has clearly fast and clearly slow workers."""
    profiles = [
        WorkerProfile(worker_id=i, mean_latency=3.0, latency_std=0.3, accuracy=0.9)
        for i in range(10)
    ] + [
        WorkerProfile(worker_id=10 + i, mean_latency=40.0, latency_std=2.0, accuracy=0.9)
        for i in range(10)
    ]
    population = WorkerPopulation(profiles=profiles, seed=0)
    platform = SimulatedCrowdPlatform(population, seed=0)
    platform.initialize_pool(6)
    return platform


class TestMaintenancePolicy:
    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError):
            MaintenancePolicy(threshold=0.0)

    def test_invalid_significance_rejected(self):
        with pytest.raises(ValueError):
            MaintenancePolicy(threshold=8.0, significance=1.0)

    def test_invalid_min_observations_rejected(self):
        with pytest.raises(ValueError):
            MaintenancePolicy(threshold=8.0, min_observations=0)


class TestIsSlow:
    def test_too_few_observations_not_flagged(self):
        maintainer = PoolMaintainer(MaintenancePolicy(threshold=8.0, min_observations=3))
        assert not maintainer.is_slow(observations_with([50.0, 60.0]))

    def test_clearly_slow_worker_flagged(self):
        maintainer = PoolMaintainer(MaintenancePolicy(threshold=8.0))
        assert maintainer.is_slow(observations_with([30.0, 35.0, 40.0, 32.0]))

    def test_fast_worker_not_flagged(self):
        maintainer = PoolMaintainer(MaintenancePolicy(threshold=8.0))
        assert not maintainer.is_slow(observations_with([3.0, 4.0, 5.0, 3.5]))

    def test_borderline_worker_needs_significance(self):
        """A worker barely above threshold with huge variance should not be evicted."""
        maintainer = PoolMaintainer(
            MaintenancePolicy(threshold=8.0, significance=0.05, use_termest=False)
        )
        assert not maintainer.is_slow(observations_with([1.0, 2.0, 25.0]))

    def test_per_label_scaling_with_records_per_task(self):
        maintainer = PoolMaintainer(
            MaintenancePolicy(threshold=8.0), records_per_task=5
        )
        # 30 s per 5-record task = 6 s per label: below the 8 s threshold.
        assert not maintainer.is_slow(observations_with([30.0, 31.0, 29.0]))

    def test_termest_flags_censored_slow_worker(self):
        policy = MaintenancePolicy(threshold=8.0, use_termest=True)
        maintainer = PoolMaintainer(policy)
        obs = WorkerObservations(worker_id=0)
        obs.record_completion(6.0)
        for _ in range(5):
            obs.record_termination(terminator_latency=7.0)
        assert maintainer.is_slow(obs)

    def test_naive_estimator_misses_censored_slow_worker(self):
        policy = MaintenancePolicy(threshold=8.0, use_termest=False)
        maintainer = PoolMaintainer(policy)
        obs = WorkerObservations(worker_id=0)
        obs.record_completion(6.0)
        for _ in range(5):
            obs.record_termination(terminator_latency=7.0)
        assert not maintainer.is_slow(obs)

    def test_custom_objective_overrides_latency(self):
        maintainer = PoolMaintainer(
            MaintenancePolicy(threshold=0.5),
            objective=lambda obs: 1.0,  # every worker scores above threshold
        )
        obs = observations_with([0.1, 0.1])
        assert maintainer.is_slow(obs)

    def test_invalid_records_per_task_rejected(self):
        with pytest.raises(ValueError):
            PoolMaintainer(MaintenancePolicy(threshold=8.0), records_per_task=0)


class TestMaintain:
    def test_replaces_flagged_workers(self, bimodal_platform):
        maintainer = PoolMaintainer(MaintenancePolicy(threshold=8.0))
        bimodal_platform.configure_reserve(4)
        bimodal_platform.queue.advance_to(10_000.0)
        slow_ids = [
            worker_id
            for worker_id in bimodal_platform.pool.worker_ids
            if bimodal_platform.pool.worker(worker_id).mean_latency > 8.0
        ]
        for worker_id in slow_ids:
            for latency in (38.0, 41.0, 40.0):
                bimodal_platform.pool.record_completion(worker_id, latency)
        events = maintainer.maintain(bimodal_platform, batch_index=2)
        assert len(events) == len(slow_ids)
        assert all(e.batch_index == 2 for e in events)
        assert maintainer.replacements == events
        for worker_id in slow_ids:
            assert worker_id not in bimodal_platform.pool

    def test_no_flags_no_replacements(self, bimodal_platform):
        maintainer = PoolMaintainer(MaintenancePolicy(threshold=1000.0))
        assert maintainer.maintain(bimodal_platform) == []

    def test_replacements_per_batch_histogram(self, bimodal_platform):
        maintainer = PoolMaintainer(MaintenancePolicy(threshold=8.0))
        worker_id = bimodal_platform.pool.worker_ids[0]
        for latency in (50.0, 52.0, 55.0):
            bimodal_platform.pool.record_completion(worker_id, latency)
        maintainer.maintain(bimodal_platform, batch_index=3)
        histogram = maintainer.replacements_per_batch()
        assert histogram.get(3, 0) >= 0


class TestVerdictMemo:
    """``flag_slow_workers`` re-tests only workers whose observations changed."""

    @pytest.mark.parametrize("use_termest", [True, False])
    def test_memoized_flags_equal_a_full_retest(self, small_population, use_termest):
        config = CLAMShellConfig(
            pool_size=6,
            learning_strategy=LearningStrategy.NONE,
            straggler_mitigation=True,
            maintenance_threshold=8.0,
            maintenance_min_observations=1,
            use_termest=use_termest,
            seed=3,
        )
        dataset = make_labeling_workload(num_records=120, seed=3)
        platform = SimulatedCrowdPlatform(
            population=small_population, seed=3, num_classes=dataset.num_classes
        )
        batcher = Batcher(config=config, dataset=dataset, platform=platform)
        maintainer = batcher.maintainer
        flag, maintain = maintainer.flag_slow_workers, maintainer.maintain
        steps, memo_sizes = [], []

        def checked_flag(platform):
            flagged = flag(platform)
            expected = [
                w for w, o in platform.pool.all_observations().items() if maintainer.is_slow(o)
            ]
            steps.append((flagged, expected))
            return flagged

        def checked_maintain(platform, batch_index=None):
            events = maintain(platform, batch_index=batch_index)
            memo_sizes.append((len(maintainer._verdicts), len(platform.pool)))
            return events

        maintainer.flag_slow_workers = checked_flag
        maintainer.maintain = checked_maintain
        result = batcher.run(num_records=120)

        assert result.replacements
        assert len(steps) > 50
        assert all(flagged == expected for flagged, expected in steps)
        assert all(memo <= pool for memo, pool in memo_sizes)

    @pytest.mark.parametrize("use_termest", [True, False])
    def test_terminations_alone_trigger_a_retest(self, bimodal_platform, use_termest):
        maintainer = PoolMaintainer(
            MaintenancePolicy(threshold=8.0, min_observations=5, use_termest=use_termest)
        )
        worker_id = bimodal_platform.pool.worker_ids[0]
        for latency in (30.0, 35.0, 40.0):
            bimodal_platform.pool.record_completion(worker_id, latency)
        assert maintainer.flag_slow_workers(bimodal_platform) == []
        for _ in range(2):
            bimodal_platform.pool.record_termination(worker_id)
        assert maintainer.flag_slow_workers(bimodal_platform) == [worker_id]

    def test_custom_objective_is_evaluated_every_step(self, bimodal_platform):
        calls = []

        def objective(observations):
            calls.append(observations.worker_id)
            return 0.0

        maintainer = PoolMaintainer(
            MaintenancePolicy(threshold=8.0, min_observations=1), objective=objective
        )
        for worker_id in bimodal_platform.pool.worker_ids:
            bimodal_platform.pool.record_completion(worker_id, 5.0)
        for _ in range(3):
            assert maintainer.maintain(bimodal_platform) == []
        assert len(calls) == 3 * len(bimodal_platform.pool)


class TestConvergenceModel:
    def test_step_zero_is_initial_mixture(self):
        assert predicted_pool_latency(0.3, 5.0, 50.0, 0) == pytest.approx(
            (1 - 0.3**1) * 5.0 + 0.3**1 * 50.0
        )

    def test_limit_is_fast_mean(self):
        assert predicted_pool_latency(0.3, 5.0, 50.0, 200) == pytest.approx(5.0)

    def test_monotone_decreasing(self):
        series = predicted_latency_series(0.4, 5.0, 60.0, 10)
        assert all(earlier >= later for earlier, later in zip(series, series[1:], strict=False))
        assert len(series) == 11

    def test_invalid_q_rejected(self):
        with pytest.raises(ValueError):
            predicted_pool_latency(1.5, 5.0, 50.0, 1)

    def test_negative_steps_rejected(self):
        with pytest.raises(ValueError):
            predicted_pool_latency(0.5, 5.0, 50.0, -1)

    def test_threshold_from_population(self):
        assert threshold_from_population(20.0, 5.0, 1.0) == pytest.approx(15.0)
        assert threshold_from_population(1.0, 10.0, 1.0) > 0
