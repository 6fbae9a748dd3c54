"""Unit tests for decision-latency modelling and asynchronous retraining."""

import pytest

from repro.learning.learners import HybridLearner, PassiveLearner
from repro.learning.retrainer import AsynchronousRetrainer, DecisionLatencyModel
from test_learners import FitCountingModel, label_proposal


class TestDecisionLatencyModel:
    def test_retrain_seconds_grow_with_labels(self):
        model = DecisionLatencyModel(base_seconds=1.0, per_label_seconds=0.1)
        assert model.retrain_seconds(0) == pytest.approx(1.0)
        assert model.retrain_seconds(100) == pytest.approx(11.0)

    def test_selection_seconds_grow_with_candidates(self):
        model = DecisionLatencyModel(per_candidate_seconds=0.01)
        assert model.selection_seconds(500) == pytest.approx(5.0)

    def test_total(self):
        model = DecisionLatencyModel(1.0, 0.1, 0.01)
        assert model.total_seconds(10, 100) == pytest.approx(1.0 + 1.0 + 1.0)

    def test_negative_constants_rejected(self):
        with pytest.raises(ValueError):
            DecisionLatencyModel(base_seconds=-1.0)


class TestAsynchronousRetrainer:
    def test_synchronous_charges_full_latency(self, tiny_dataset):
        learner = PassiveLearner(tiny_dataset, seed=0)
        retrainer = AsynchronousRetrainer(learner, asynchronous=False)
        full = DecisionLatencyModel().total_seconds(
            learner.num_labeled, min(500, learner.num_unlabeled)
        )
        overhead = retrainer.decision_overhead(batch_duration=100.0)
        assert overhead == pytest.approx(full)
        assert overhead >= DecisionLatencyModel().base_seconds

    def test_asynchronous_hides_latency_behind_batch(self, tiny_dataset):
        learner = PassiveLearner(tiny_dataset, seed=0)
        retrainer = AsynchronousRetrainer(learner, asynchronous=True)
        assert retrainer.decision_overhead(batch_duration=100.0) == 0.0

    def test_asynchronous_charges_remainder_for_short_batches(self, tiny_dataset):
        learner = PassiveLearner(tiny_dataset, seed=0)
        retrainer = AsynchronousRetrainer(learner, asynchronous=True)
        full = retrainer.decision_overhead(batch_duration=0.0)
        assert full > 0
        assert retrainer.decision_overhead(batch_duration=full / 4) == pytest.approx(
            0.75 * full
        )

    def test_next_batch_returns_proposal_and_overhead(self, tiny_dataset):
        learner = HybridLearner(tiny_dataset, seed=0)
        retrainer = AsynchronousRetrainer(learner, asynchronous=True)
        proposal, overhead = retrainer.next_batch(
            batch_size=5, pool_size=10, batch_duration=0.0
        )
        assert proposal.size == 10
        assert overhead >= 0.0

    def test_stale_proposal_drops_labeled_points(self, tiny_dataset):
        learner = HybridLearner(tiny_dataset, seed=0)
        retrainer = AsynchronousRetrainer(learner, asynchronous=True)
        first, _ = retrainer.next_batch(batch_size=5, pool_size=10)
        labels = {r: int(tiny_dataset.y[r]) for r in first.all_ids}
        learner.incorporate_labels(labels, first)
        learner.retrain()
        second, _ = retrainer.next_batch(batch_size=5, pool_size=10, batch_duration=50.0)
        assert not set(second.all_ids) & set(labels)
        assert second.size == 10

    @pytest.mark.parametrize("asynchronous", [True, False])
    def test_next_batch_never_fits(self, tiny_dataset, asynchronous):
        """Only the Batcher refits; proposing reads the current model."""
        model = FitCountingModel(num_classes=tiny_dataset.num_classes)
        learner = HybridLearner(tiny_dataset, model=model, seed=0, candidate_sample_size=200)
        label_proposal(learner, tiny_dataset, 5, 40)
        retrainer = AsynchronousRetrainer(learner, asynchronous=asynchronous)
        for _ in range(3):
            retrainer.next_batch(batch_size=5, pool_size=10)
        assert model.fit_calls == 0
        learner.retrain()
        assert model.fit_calls == 1
