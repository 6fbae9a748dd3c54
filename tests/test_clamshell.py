"""Unit tests for the CLAMShell facade."""

import pytest

from repro.api.engine import Engine, JobSpec
from repro.core.clamshell import CLAMShell
from repro.core.config import (
    CLAMShellConfig,
    LearningStrategy,
    baseline_no_retainer,
    baseline_retainer,
    full_clamshell,
)
from repro.learning.datasets import make_classification


@pytest.fixture
def easy_dataset():
    return make_classification(
        n_samples=400, n_features=12, n_informative=6, class_sep=2.0, flip_y=0.0, seed=1
    )


class TestConstruction:
    def test_default_config_is_full_clamshell(self, easy_dataset):
        system = CLAMShell(dataset=easy_dataset)
        assert system.config.straggler_mitigation
        assert system.config.learning_strategy == LearningStrategy.HYBRID

    def test_run_requires_dataset(self):
        system = CLAMShell(config=full_clamshell())
        with pytest.raises(ValueError):
            system.run(num_records=10)

    def test_build_platform_uses_dataset_classes(self, easy_dataset, small_population):
        system = CLAMShell(dataset=easy_dataset, population=small_population)
        system.run_iter(num_records=10)
        assert system.last_platform.num_classes == easy_dataset.num_classes


class TestRun:
    def test_run_returns_labels_and_accuracy(self, easy_dataset, small_population):
        system = CLAMShell(
            config=full_clamshell(pool_size=6, candidate_sample_size=100),
            dataset=easy_dataset,
            population=small_population,
        )
        result = system.run(num_records=40)
        assert len(result.labels) == 40
        assert result.final_accuracy is not None
        assert result.metrics.total_wall_clock > 0

    def test_runs_are_independent(self, easy_dataset, small_population):
        system = CLAMShell(
            config=full_clamshell(pool_size=6, candidate_sample_size=100),
            dataset=easy_dataset,
            population=small_population,
        )
        first = system.run(num_records=20)
        second = system.run(num_records=20)
        assert first.metrics.records_labeled == second.metrics.records_labeled == 20

    def test_facade_and_engine_build_the_same_learner(
        self, easy_dataset, small_population_factory
    ):
        """A non-default ``candidate_sample_size`` reaches the learner on
        both paths: the facade and a plain engine job run the same hybrid
        learner, so labels and learning curve agree exactly."""
        config = full_clamshell(pool_size=6, seed=2, candidate_sample_size=100)
        facade = CLAMShell(
            config=config,
            dataset=easy_dataset,
            population=small_population_factory(),
        ).run(num_records=60)
        engine = Engine().run(
            JobSpec(
                dataset=easy_dataset,
                config=config,
                population=small_population_factory(),
                num_records=60,
            )
        )
        assert engine.labels == facade.labels
        assert engine.learning_curve.points == facade.learning_curve.points

    def test_learning_none_strategy(self, easy_dataset, small_population):
        config = CLAMShellConfig(
            pool_size=5, learning_strategy=LearningStrategy.NONE, seed=0
        )
        system = CLAMShell(config=config, dataset=easy_dataset, population=small_population)
        result = system.run(num_records=15)
        assert result.learning_curve is None
        assert len(result.labels) == 15

    def test_baseline_configs_run(self, easy_dataset, small_population):
        for config in (baseline_no_retainer(pool_size=5), baseline_retainer(pool_size=5)):
            system = CLAMShell(config=config, dataset=easy_dataset, population=small_population)
            result = system.run(num_records=20)
            assert result.metrics.records_labeled == 20

    def test_last_platform_and_batcher_exposed(self, easy_dataset, small_population):
        system = CLAMShell(
            config=full_clamshell(pool_size=5),
            dataset=easy_dataset,
            population=small_population,
        )
        system.run(num_records=10)
        assert system.last_platform is not None
        assert system.last_batcher is not None


class TestPoolSizeGuidance:
    def test_guidance_covers_candidates(self, easy_dataset, small_population):
        system = CLAMShell(dataset=easy_dataset, population=small_population)
        guidance = system.pool_size_guidance((5, 10, 20))
        assert [g.pool_size for g in guidance] == [5, 10, 20]
        assert all(g.expected_batch_seconds > 0 for g in guidance)
        assert all(g.expected_cost_per_batch > 0 for g in guidance)

    def test_larger_pools_cost_more_per_batch(self, easy_dataset, small_population):
        system = CLAMShell(dataset=easy_dataset, population=small_population)
        guidance = system.pool_size_guidance((5, 50))
        assert guidance[1].expected_cost_per_batch > guidance[0].expected_cost_per_batch

    def test_invalid_pool_size_rejected(self, easy_dataset, small_population):
        system = CLAMShell(dataset=easy_dataset, population=small_population)
        with pytest.raises(ValueError):
            system.pool_size_guidance((0,))


class TestFacadeEngineEquivalence:
    """Regression for the facade-vs-engine divergence: the facade's
    constructor used `population or default(...)`, and parametric
    populations are falsy (len() == 0), so a caller's population was
    silently swapped for the default one — the two entry points then
    simulated different crowds from identical inputs."""

    def test_parametric_population_is_not_replaced(self):
        from repro.experiments.common import mixed_speed_population

        population = mixed_speed_population(seed=3)
        assert len(population) == 0  # parametric: falsy but very much real
        system = CLAMShell(
            config=full_clamshell(pool_size=5, seed=3), population=population
        )
        assert system.population is population

    def test_facade_and_engine_produce_identical_labels(self):
        from repro.api.engine import Engine, JobSpec
        from repro.experiments.common import make_labeling_workload, mixed_speed_population

        seed = 0
        dataset = make_labeling_workload(num_records=120, seed=seed)
        config = CLAMShellConfig(
            pool_size=6,
            straggler_mitigation=True,
            maintenance_threshold=8.0,
            learning_strategy=LearningStrategy.NONE,
            seed=seed,
        )
        facade_result = CLAMShell(
            config=config,
            dataset=dataset,
            population=mixed_speed_population(seed=seed),
        ).run(num_records=60)
        engine_result = Engine().run(
            JobSpec(
                dataset=dataset,
                config=config,
                population=mixed_speed_population(seed=seed),
                num_records=60,
            )
        )
        assert engine_result.labels == facade_result.labels
        assert (
            engine_result.metrics.total_wall_clock
            == facade_result.metrics.total_wall_clock
        )
        assert engine_result.total_cost == facade_result.total_cost

    def test_facade_and_engine_agree_with_duplicate_cap(self):
        """The max_extra_assignments knob reaches the mitigator identically
        through both entry points (it used to exist only on the mitigator
        and was never set from config at all)."""
        from repro.api.engine import Engine, JobSpec
        from repro.experiments.common import make_labeling_workload, mixed_speed_population

        seed = 1
        dataset = make_labeling_workload(num_records=120, seed=seed)
        config = CLAMShellConfig(
            pool_size=6,
            straggler_mitigation=True,
            maintenance_threshold=None,
            max_extra_assignments=1,
            learning_strategy=LearningStrategy.NONE,
            seed=seed,
        )
        facade = CLAMShell(
            config=config,
            dataset=dataset,
            population=mixed_speed_population(seed=seed),
        )
        facade_result = facade.run(num_records=60)
        assert (
            facade.last_batcher.lifeguard.mitigator.max_extra_assignments == 1
        )
        engine_result = Engine().run(
            JobSpec(
                dataset=dataset,
                config=config,
                population=mixed_speed_population(seed=seed),
                num_records=60,
            )
        )
        assert engine_result.labels == facade_result.labels
        assert (
            engine_result.metrics.total_wall_clock
            == facade_result.metrics.total_wall_clock
        )
        assert engine_result.total_cost == facade_result.total_cost

    def test_duplicate_cap_reduces_assignment_starts(self):
        """End to end through the facade: the cap bounds the tail."""
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
            system = CLAMShell(
                config=config,
                dataset=dataset,
                population=mixed_speed_population(seed=seed),
            )
            result = system.run(num_records=80)
            assert len(result.labels) == 80
            return system.last_platform.counters.assignments_started

        assert starts(0) < starts(1) < starts(None)
