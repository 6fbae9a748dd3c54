"""Unit tests for the Batcher full-run orchestration."""

import pytest

from repro.core.batcher import Batcher, SequentialSelector
from repro.core.config import CLAMShellConfig, LearningStrategy
from repro.core.maintainer import MaintenancePolicy, PoolMaintainer
from repro.crowd.platform import SimulatedCrowdPlatform
from repro.experiments.common import make_labeling_workload
from repro.learning.learners import BaseLearner


def build_batcher(config, dataset, population, seed=0):
    platform = SimulatedCrowdPlatform(
        population=population, seed=seed, num_classes=dataset.num_classes
    )
    return Batcher(config=config, dataset=dataset, platform=platform)


@pytest.fixture
def labeling_dataset():
    return make_labeling_workload(num_records=80, seed=0)


class TestSequentialSelector:
    def test_hands_out_all_records_once(self, labeling_dataset):
        selector = SequentialSelector(labeling_dataset, seed=0)
        seen = []
        while selector.has_remaining():
            seen.extend(selector.next_records(13))
        assert sorted(seen) == sorted(labeling_dataset.train_record_ids())

    def test_exhausted_selector_returns_empty(self, labeling_dataset):
        selector = SequentialSelector(labeling_dataset, seed=0)
        selector.next_records(10_000)
        assert selector.next_records(5) == []
        assert not selector.has_remaining()


class TestNoLearningRuns:
    def test_labels_requested_number_of_records(self, labeling_dataset, small_population):
        config = CLAMShellConfig(
            pool_size=5,
            learning_strategy=LearningStrategy.NONE,
            straggler_mitigation=True,
            maintenance_threshold=None,
            seed=0,
        )
        batcher = build_batcher(config, labeling_dataset, small_population)
        result = batcher.run(num_records=30)
        assert result.records_labeled == 30
        assert len(result.labels) == 30
        assert result.learning_curve is None
        assert result.final_accuracy is None

    def test_batches_respect_pool_batch_ratio(self, labeling_dataset, small_population):
        config = CLAMShellConfig(
            pool_size=6,
            pool_batch_ratio=2.0,
            learning_strategy=LearningStrategy.NONE,
            maintenance_threshold=None,
            seed=0,
        )
        batcher = build_batcher(config, labeling_dataset, small_population)
        result = batcher.run(num_records=12)
        # batch_size = 6 / 2 = 3 tasks per batch -> 4 batches for 12 records.
        assert result.num_batches == 4

    def test_cost_and_wall_clock_positive(self, labeling_dataset, small_population):
        config = CLAMShellConfig(
            pool_size=5, learning_strategy=LearningStrategy.NONE, seed=0
        )
        batcher = build_batcher(config, labeling_dataset, small_population)
        result = batcher.run(num_records=20)
        assert result.total_cost > 0
        assert result.total_wall_clock > 0

    def test_labels_over_time_is_monotone(self, labeling_dataset, small_population):
        config = CLAMShellConfig(
            pool_size=5, learning_strategy=LearningStrategy.NONE, seed=0
        )
        batcher = build_batcher(config, labeling_dataset, small_population)
        result = batcher.run(num_records=25)
        curve = result.labels_over_time()
        counts = [count for _, count in curve]
        assert counts == sorted(counts)
        assert counts[-1] == 25

    def test_maintenance_records_replacements(self, labeling_dataset, small_population):
        config = CLAMShellConfig(
            pool_size=5,
            learning_strategy=LearningStrategy.NONE,
            maintenance_threshold=8.0,
            maintenance_min_observations=1,
            seed=0,
        )
        batcher = build_batcher(config, labeling_dataset, small_population)
        result = batcher.run(num_records=60)
        # The small_population contains 10-28 s workers, so some evictions occur.
        assert len(result.replacements) >= 1

    def test_lifeguard_maintainer_alone_records_replacements(
        self, labeling_dataset, small_population
    ):
        """The LifeGuard owns the maintainer: setting it there is enough
        for the run to configure the reserve and report the evictions."""
        config = CLAMShellConfig(
            pool_size=5,
            learning_strategy=LearningStrategy.NONE,
            maintenance_threshold=None,
            seed=0,
        )
        batcher = build_batcher(config, labeling_dataset, small_population)
        maintainer = PoolMaintainer(MaintenancePolicy(threshold=8.0, min_observations=1))
        batcher.lifeguard.maintainer = maintainer
        result = batcher.run(num_records=60)
        assert result.replacements
        assert result.replacements == maintainer.replacements

    def test_records_labeled_matches_label_cache(self, labeling_dataset, small_population):
        config = CLAMShellConfig(
            pool_size=5, learning_strategy=LearningStrategy.NONE, seed=0
        )
        batcher = build_batcher(config, labeling_dataset, small_population)
        result = batcher.run(num_records=30)
        assert result.records_labeled == len(result.labels)

    def test_reproposed_records_do_not_inflate_records_labeled(
        self, labeling_dataset, small_population
    ):
        """A record proposed twice is labeled twice but counted once.

        Regression: the run loop accumulated ``len(outcome.labels)`` per
        batch while the label cache dedups record ids, so a re-proposed
        record silently inflated the run's ``records_labeled`` past
        ``len(RunResult.labels)``.
        """

        class OverlappingRecords:
            """Proposes [0..4], then [3..7] — records 3 and 4 twice."""

            def __init__(self):
                self._proposals = [[0, 1, 2, 3, 4], [3, 4, 5, 6, 7]]

            def next_records(self, previous_batch_seconds):
                return self._proposals.pop(0), None, 0.0

            def has_remaining(self):
                return bool(self._proposals)

        config = CLAMShellConfig(
            pool_size=5, learning_strategy=LearningStrategy.NONE, seed=0
        )
        batcher = build_batcher(config, labeling_dataset, small_population)
        batcher._records = OverlappingRecords()
        result = batcher.run(num_records=50)
        assert sorted(result.labels) == list(range(8))
        assert result.records_labeled == len(result.labels) == 8

    def test_votes_required_pays_for_extra_answers(self, labeling_dataset, small_population):
        single = CLAMShellConfig(
            pool_size=5, learning_strategy=LearningStrategy.NONE, votes_required=1, seed=0
        )
        redundant = single.with_overrides(votes_required=3)
        single_run = build_batcher(single, labeling_dataset, small_population).run(num_records=10)
        redundant_run = build_batcher(redundant, labeling_dataset, small_population).run(
            num_records=10
        )
        assert redundant_run.total_cost > single_run.total_cost


class TestLearningRuns:
    def test_passive_learning_produces_curve(self, tiny_dataset, small_population):
        config = CLAMShellConfig(
            pool_size=5,
            learning_strategy=LearningStrategy.PASSIVE,
            maintenance_threshold=None,
            seed=0,
        )
        batcher = build_batcher(config, tiny_dataset, small_population)
        result = batcher.run(num_records=40)
        assert result.learning_curve is not None
        assert len(result.learning_curve) >= 2
        assert result.final_accuracy is not None

    def test_hybrid_learning_improves_over_prior(self, tiny_dataset, small_population):
        config = CLAMShellConfig(
            pool_size=6,
            learning_strategy=LearningStrategy.HYBRID,
            maintenance_threshold=None,
            candidate_sample_size=100,
            seed=0,
        )
        batcher = build_batcher(config, tiny_dataset, small_population)
        result = batcher.run(num_records=60)
        curve = result.learning_curve
        assert curve is not None
        assert curve.final_accuracy() > curve.points[0].accuracy

    def test_active_learning_batches_are_small(self, tiny_dataset, small_population):
        config = CLAMShellConfig(
            pool_size=10,
            learning_strategy=LearningStrategy.ACTIVE,
            active_fraction=0.5,
            maintenance_threshold=None,
            candidate_sample_size=100,
            seed=0,
        )
        batcher = build_batcher(config, tiny_dataset, small_population)
        result = batcher.run(num_records=20)
        # active batch size = 5 records -> 4 batches.
        assert result.num_batches == 4

    def test_run_ends_when_the_records_run_out(self, tiny_dataset, small_population):
        """A budget above the training set ends once every training record
        is labeled, each batch labeling at least one new one."""
        config = CLAMShellConfig(
            pool_size=8,
            learning_strategy=LearningStrategy.PASSIVE,
            maintenance_threshold=None,
            seed=0,
        )
        train_ids = tiny_dataset.train_record_ids()
        batcher = build_batcher(config, tiny_dataset, small_population)
        result = batcher.run(num_records=10 * len(train_ids))
        assert sorted(result.labels) == sorted(train_ids)
        assert result.num_batches <= len(train_ids)

    @pytest.mark.parametrize("asynchronous", [True, False])
    @pytest.mark.parametrize(
        "strategy",
        [LearningStrategy.PASSIVE, LearningStrategy.ACTIVE, LearningStrategy.HYBRID],
    )
    def test_retrains_once_per_batch(
        self, tiny_dataset, small_population, monkeypatch, strategy, asynchronous
    ):
        retrain = BaseLearner.retrain
        calls = []

        def counting_retrain(learner):
            calls.append(learner.num_labeled)
            retrain(learner)

        monkeypatch.setattr(BaseLearner, "retrain", counting_retrain)
        config = CLAMShellConfig(
            pool_size=6,
            learning_strategy=strategy,
            asynchronous_retraining=asynchronous,
            maintenance_threshold=None,
            candidate_sample_size=100,
            seed=0,
        )
        result = build_batcher(config, tiny_dataset, small_population).run(num_records=30)
        assert result.num_batches > 2
        assert len(calls) == result.num_batches
        # Each refit follows its batch's labels: the label counts all differ.
        assert calls == sorted(set(calls))

    def test_scores_the_test_set_once_per_curve_point(
        self, tiny_dataset, small_population, monkeypatch
    ):
        """The initial point and one per batch; the final accuracy is the
        last point's, not a fresh evaluation of the same model."""
        test_accuracy = BaseLearner.test_accuracy
        scores = []

        def counting_test_accuracy(learner):
            scores.append(test_accuracy(learner))
            return scores[-1]

        monkeypatch.setattr(BaseLearner, "test_accuracy", counting_test_accuracy)
        config = CLAMShellConfig(
            pool_size=5,
            learning_strategy=LearningStrategy.HYBRID,
            maintenance_threshold=None,
            candidate_sample_size=100,
            seed=0,
        )
        result = build_batcher(config, tiny_dataset, small_population).run(num_records=40)
        assert result.num_batches > 2
        assert len(scores) == result.num_batches + 1
        assert result.learning_curve.accuracies().tolist() == scores
        assert result.final_accuracy == scores[-1]

    def test_no_retainer_pool_adds_recruitment_latency(self, labeling_dataset, small_population):
        with_pool = CLAMShellConfig(
            pool_size=5, learning_strategy=LearningStrategy.NONE, seed=0
        )
        without_pool = with_pool.with_overrides(use_retainer_pool=False)
        pooled = build_batcher(with_pool, labeling_dataset, small_population).run(num_records=20)
        unpooled = build_batcher(without_pool, labeling_dataset, small_population).run(
            num_records=20
        )
        assert unpooled.total_wall_clock > pooled.total_wall_clock

    def test_invalid_arguments_rejected(self, tiny_dataset, small_population):
        config = CLAMShellConfig(pool_size=5, seed=0)
        batcher = build_batcher(config, tiny_dataset, small_population)
        with pytest.raises(ValueError):
            batcher.run(num_records=0)
