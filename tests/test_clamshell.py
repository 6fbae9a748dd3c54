"""Unit tests for whole CLAMShell runs through ``Engine`` + ``JobSpec``."""

import pytest

from repro.api.engine import Engine, JobSpec, build_run
from repro.core.config import (
    CLAMShellConfig,
    LearningStrategy,
    baseline_no_retainer,
    baseline_retainer,
    full_clamshell,
)
from repro.core.metrics import pool_size_guidance
from repro.learning.datasets import make_classification
from repro.learning.learners import HybridLearner


@pytest.fixture
def easy_dataset():
    return make_classification(
        n_samples=400, n_features=12, n_informative=6, class_sep=2.0, flip_y=0.0, seed=1
    )


class TestConstruction:
    def test_default_config_is_full_clamshell(self, easy_dataset):
        spec = JobSpec(dataset=easy_dataset)
        assert spec.config.straggler_mitigation
        assert spec.config.learning_strategy == LearningStrategy.HYBRID

    def test_run_requires_dataset(self):
        with pytest.raises(ValueError):
            JobSpec(dataset=None, config=full_clamshell(), num_records=10)

    def test_build_platform_uses_dataset_classes(self, easy_dataset, small_population):
        platform, _ = build_run(
            JobSpec(dataset=easy_dataset, population=small_population, num_records=10)
        )
        assert platform.num_classes == easy_dataset.num_classes


class TestRun:
    def test_run_returns_labels_and_accuracy(self, easy_dataset, small_population):
        result = Engine().run(
            JobSpec(
                dataset=easy_dataset,
                config=full_clamshell(pool_size=6, candidate_sample_size=100),
                population=small_population,
                num_records=40,
            )
        )
        assert len(result.labels) == 40
        assert result.final_accuracy is not None
        assert result.total_wall_clock > 0

    def test_runs_are_independent(self, easy_dataset, small_population):
        spec = JobSpec(
            dataset=easy_dataset,
            config=full_clamshell(pool_size=6, candidate_sample_size=100),
            population=small_population,
            num_records=20,
        )
        first = Engine().run(spec)
        second = Engine().run(spec)
        assert first.records_labeled == second.records_labeled == 20

    def test_config_candidate_sample_size_reaches_the_learner(
        self, easy_dataset, small_population
    ):
        """A non-default ``candidate_sample_size`` reaches the learner the
        run builds from the config: it labels exactly like a run handed the
        equivalent hybrid learner explicitly."""
        config = full_clamshell(pool_size=6, seed=2, candidate_sample_size=100)
        spec = JobSpec(
            dataset=easy_dataset,
            config=config,
            population=small_population,
            num_records=60,
        )
        from_config = Engine().run(spec)
        explicit = Engine().run(
            spec.with_overrides(
                learner_factory=lambda: HybridLearner(
                    easy_dataset, seed=2, candidate_sample_size=100
                ),
            )
        )
        assert from_config.labels == explicit.labels
        assert from_config.learning_curve.points == explicit.learning_curve.points

    def test_learning_none_strategy(self, easy_dataset, small_population):
        config = CLAMShellConfig(
            pool_size=5, learning_strategy=LearningStrategy.NONE, seed=0
        )
        result = Engine().run(
            JobSpec(
                dataset=easy_dataset,
                config=config,
                population=small_population,
                num_records=15,
            )
        )
        assert result.learning_curve is None
        assert len(result.labels) == 15

    def test_baseline_configs_run(self, easy_dataset, small_population):
        for config in (baseline_no_retainer(pool_size=5), baseline_retainer(pool_size=5)):
            result = Engine().run(
                JobSpec(
                    dataset=easy_dataset,
                    config=config,
                    population=small_population,
                    num_records=20,
                )
            )
            assert result.records_labeled == 20


class TestPoolSizeGuidance:
    def test_guidance_covers_candidates(self, small_population):
        guidance = pool_size_guidance(full_clamshell(), small_population, (5, 10, 20))
        assert [g.pool_size for g in guidance] == [5, 10, 20]
        assert all(g.expected_batch_seconds > 0 for g in guidance)
        assert all(g.expected_cost_per_batch > 0 for g in guidance)

    def test_larger_pools_cost_more_per_batch(self, small_population):
        guidance = pool_size_guidance(full_clamshell(), small_population, (5, 50))
        assert guidance[1].expected_cost_per_batch > guidance[0].expected_cost_per_batch

    def test_invalid_pool_size_rejected(self, small_population):
        with pytest.raises(ValueError):
            pool_size_guidance(full_clamshell(), small_population, (0,))


class TestConfigReachesTheRun:
    def test_duplicate_cap_reaches_the_mitigator(self):
        from repro.experiments.common import make_labeling_workload, mixed_speed_population

        config = CLAMShellConfig(
            pool_size=6,
            straggler_mitigation=True,
            maintenance_threshold=None,
            max_extra_assignments=1,
            learning_strategy=LearningStrategy.NONE,
            seed=1,
        )
        _, batcher = build_run(
            JobSpec(
                dataset=make_labeling_workload(num_records=120, seed=1),
                config=config,
                population=mixed_speed_population(seed=1),
            )
        )
        assert batcher.lifeguard.mitigator.max_extra_assignments == 1

    def test_duplicate_cap_reduces_assignment_starts(self):
        """End to end: the cap bounds the tail."""
        from repro.experiments.common import make_labeling_workload, mixed_speed_population

        seed = 0
        dataset = make_labeling_workload(num_records=160, seed=seed)

        def starts(cap):
            config = CLAMShellConfig(
                pool_size=10,
                # A large pool against a small batch maximises duplication.
                pool_batch_ratio=2.0,
                straggler_mitigation=True,
                maintenance_threshold=None,
                max_extra_assignments=cap,
                learning_strategy=LearningStrategy.NONE,
                seed=seed,
            )
            result, stats = Engine().run_with_stats(
                JobSpec(
                    dataset=dataset,
                    config=config,
                    population=mixed_speed_population(seed=seed),
                    num_records=80,
                )
            )
            assert len(result.labels) == 80
            return stats.counters["assignments_started"]

        assert starts(0) < starts(1) < starts(None)
