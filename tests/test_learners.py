"""Unit tests for the crowd learners and the label cache."""

from dataclasses import dataclass

import numpy as np
import pytest

from repro.learning.learners import (
    ActiveLearner,
    BatchProposal,
    HybridLearner,
    LabelCache,
    PassiveLearner,
    make_learner,
)
from repro.learning.models import LogisticRegressionModel


@dataclass
class FitCountingModel(LogisticRegressionModel):
    """A logistic regression that counts how often it is fitted."""

    fit_calls: int = 0

    def fit(self, X, y, sample_weight=None):
        self.fit_calls += 1
        return super().fit(X, y, sample_weight=sample_weight)


def label_proposal(learner, dataset, batch_size, pool_size):
    proposal = learner.propose_batch(batch_size, pool_size)
    labels = {r: int(dataset.y[r]) for r in proposal.all_ids}
    learner.incorporate_labels(labels, proposal)
    return labels


class TestLabelCache:
    def test_add_and_get(self):
        cache = LabelCache()
        cache.add(5, 1, source="active")
        assert cache.get(5) == 1
        assert cache.source_of(5) == "active"
        assert 5 in cache

    def test_add_many_defaults_to_passive(self):
        cache = LabelCache()
        cache.add_many({1: 0, 2: 1})
        assert len(cache) == 2
        assert cache.source_of(1) == "passive"

    def test_invalid_source_rejected(self):
        with pytest.raises(ValueError):
            LabelCache().add(1, 0, source="oracle")

    def test_as_arrays_alignment(self):
        cache = LabelCache()
        cache.add(3, 1, source="active")
        cache.add(7, 0, source="passive")
        ids, labels, is_active = cache.as_arrays()
        assert set(ids) == {3, 7}
        lookup = dict(zip(ids, labels, strict=True))
        assert lookup[3] == 1 and lookup[7] == 0
        assert dict(zip(ids, is_active, strict=True))[3]

    def test_empty_as_arrays(self):
        ids, labels, is_active = LabelCache().as_arrays()
        assert ids.size == 0 and labels.size == 0 and is_active.size == 0

    def test_overwrite_updates_label(self):
        cache = LabelCache()
        cache.add(1, 0)
        cache.add(1, 1)
        assert cache.get(1) == 1
        assert len(cache) == 1


class TestBatchProposal:
    def test_all_ids_and_size(self):
        proposal = BatchProposal(active_ids=[1, 2], passive_ids=[3])
        assert proposal.all_ids == [1, 2, 3]
        assert proposal.size == 3

    def test_source_of(self):
        proposal = BatchProposal(active_ids=[1], passive_ids=[2])
        assert proposal.source_of(1) == "active"
        assert proposal.source_of(2) == "passive"


class TestPassiveLearner:
    def test_proposes_pool_sized_batches(self, tiny_dataset):
        learner = PassiveLearner(tiny_dataset, seed=0)
        proposal = learner.propose_batch(batch_size=5, pool_size=20)
        assert proposal.size == 20
        assert proposal.active_ids == []

    def test_incorporate_removes_from_unlabeled(self, tiny_dataset):
        learner = PassiveLearner(tiny_dataset, seed=0)
        proposal = learner.propose_batch(5, 10)
        labels = {r: int(tiny_dataset.y[r]) for r in proposal.all_ids}
        learner.incorporate_labels(labels, proposal)
        assert learner.num_labeled == 10
        assert not set(proposal.all_ids) & set(learner.unlabeled_ids())

    def test_accuracy_improves_with_labels(self, tiny_dataset):
        learner = PassiveLearner(tiny_dataset, seed=0)
        baseline = learner.test_accuracy()
        proposal = learner.propose_batch(5, 120)
        labels = {r: int(tiny_dataset.y[r]) for r in proposal.all_ids}
        learner.incorporate_labels(labels, proposal)
        learner.retrain()
        assert learner.test_accuracy() > baseline

    def test_retrain_noop_with_single_class(self, tiny_dataset):
        learner = PassiveLearner(tiny_dataset, seed=0)
        record = next(r for r in learner.unlabeled_ids() if tiny_dataset.y[r] == 0)
        learner.incorporate_labels({record: 0})
        learner.retrain()
        assert not learner.model.is_fitted


class TestActiveLearner:
    def test_proposes_bounded_batches(self, tiny_dataset):
        learner = ActiveLearner(tiny_dataset, seed=0)
        proposal = learner.propose_batch(batch_size=8, pool_size=50)
        assert proposal.size == 8
        assert proposal.passive_ids == []

    def test_uses_uncertainty_after_first_retrain(self, tiny_dataset):
        learner = ActiveLearner(tiny_dataset, seed=0, candidate_sample_size=1000)
        proposal = learner.propose_batch(30, 30)
        labels = {r: int(tiny_dataset.y[r]) for r in proposal.all_ids}
        learner.incorporate_labels(labels, proposal)
        learner.retrain()
        assert learner.model.is_fitted
        second = learner.propose_batch(10, 10)
        assert len(second.active_ids) == 10
        assert not set(second.all_ids) & set(labels)


class TestHybridLearner:
    def test_proposal_fills_pool(self, tiny_dataset):
        learner = HybridLearner(tiny_dataset, seed=0)
        proposal = learner.propose_batch(batch_size=5, pool_size=15)
        assert len(proposal.active_ids) == 5
        assert len(proposal.passive_ids) == 10

    def test_weights_reflect_sources(self, tiny_dataset):
        learner = HybridLearner(tiny_dataset, seed=0)
        learner._last_ratio = 0.5
        is_active = np.array([True, False, True, False])
        weights = learner._sample_weights(is_active)
        assert weights is not None
        assert weights.mean() == pytest.approx(1.0)

    def test_weights_none_when_single_source(self, tiny_dataset):
        learner = HybridLearner(tiny_dataset, seed=0)
        assert learner._sample_weights(np.array([True, True])) is None
        assert learner._sample_weights(np.array([False, False])) is None

    def test_invalid_boost_rejected(self, tiny_dataset):
        with pytest.raises(ValueError):
            HybridLearner(tiny_dataset, active_weight_boost=0.0)

    def test_full_loop_improves_accuracy(self, tiny_dataset):
        learner = HybridLearner(tiny_dataset, seed=0, candidate_sample_size=200)
        baseline = learner.test_accuracy()
        for _ in range(4):
            proposal = learner.propose_batch(5, 20)
            labels = {r: int(tiny_dataset.y[r]) for r in proposal.all_ids}
            learner.incorporate_labels(labels, proposal)
            learner.retrain()
        assert learner.test_accuracy() > baseline


class TestMakeLearner:
    def test_builds_each_strategy(self, tiny_dataset):
        assert isinstance(make_learner("active", tiny_dataset), ActiveLearner)
        assert isinstance(make_learner("passive", tiny_dataset), PassiveLearner)
        assert isinstance(make_learner("hybrid", tiny_dataset), HybridLearner)

    def test_unknown_strategy_rejected(self, tiny_dataset):
        with pytest.raises(ValueError):
            make_learner("oracle", tiny_dataset)


class TestRetrainMemo:
    """``retrain`` fits only when the labels or the sample weights changed."""

    def test_retrain_without_new_labels_fits_once(self, tiny_dataset):
        model = FitCountingModel(num_classes=tiny_dataset.num_classes)
        learner = PassiveLearner(tiny_dataset, model=model, seed=0)
        label_proposal(learner, tiny_dataset, 5, 40)
        learner.retrain()
        learner.retrain()
        assert model.fit_calls == 1
        assert learner.retrain_count == 1

    def test_new_label_refits(self, tiny_dataset):
        model = FitCountingModel(num_classes=tiny_dataset.num_classes)
        learner = PassiveLearner(tiny_dataset, model=model, seed=0)
        label_proposal(learner, tiny_dataset, 5, 40)
        learner.retrain()
        record = learner.unlabeled_ids()[0]
        learner.incorporate_labels({record: int(tiny_dataset.y[record])})
        learner.retrain()
        assert model.fit_calls == 2

    def test_relabeling_an_existing_id_refits(self, tiny_dataset):
        model = FitCountingModel(num_classes=tiny_dataset.num_classes)
        learner = PassiveLearner(tiny_dataset, model=model, seed=0)
        labels = label_proposal(learner, tiny_dataset, 5, 40)
        learner.retrain()
        record, label = next(iter(labels.items()))
        learner.incorporate_labels({record: 1 - label})
        learner.retrain()
        assert model.fit_calls == 2

    def test_changed_hybrid_ratio_refits(self, tiny_dataset):
        model = FitCountingModel(num_classes=tiny_dataset.num_classes)
        learner = HybridLearner(tiny_dataset, model=model, seed=0, candidate_sample_size=200)
        label_proposal(learner, tiny_dataset, 5, 20)
        learner.retrain()
        learner.propose_batch(5, 20)  # same ratio: same weights
        learner.retrain()
        assert model.fit_calls == 1
        learner.propose_batch(2, 20)  # ratio 0.25 -> 0.1: new weights
        learner.retrain()
        assert model.fit_calls == 2

    def test_skipped_refit_matches_a_fresh_fit(self, tiny_dataset):
        learner = HybridLearner(tiny_dataset, seed=0, candidate_sample_size=200)
        for _ in range(3):
            label_proposal(learner, tiny_dataset, 5, 20)
            learner.retrain()
        learner.retrain()
        ids, labels, is_active = learner.cache.as_arrays()
        fresh = LogisticRegressionModel(num_classes=tiny_dataset.num_classes).fit(
            tiny_dataset.X[ids], labels, sample_weight=learner._sample_weights(is_active)
        )
        assert np.array_equal(
            learner.model.predict_proba(tiny_dataset.X),
            fresh.predict_proba(tiny_dataset.X),
        )
