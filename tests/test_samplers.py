"""Unit tests for point-selection samplers."""

import numpy as np
import pytest

from repro.learning.models import LogisticRegressionModel, uncertainty_margin
from repro.learning.samplers import (
    HybridSampler,
    RandomSampler,
    UncertaintySampler,
    make_hybrid_sampler,
)


def _reference_random(rng, candidates, count):
    """Random selection as first written, over Python lists."""
    candidates = list(candidates)
    if count == 0 or not candidates:
        return []
    chosen = rng.choice(len(candidates), size=min(count, len(candidates)), replace=False)
    return [candidates[i] for i in chosen]


def _reference_hybrid(rngs, model, X, candidates, active_count, total_count, sample_size):
    """Hybrid selection as first written: list comprehensions over the
    candidates, the same RNG draws in the same order."""
    uncertainty_rng, fallback_rng, random_rng = rngs
    candidates = list(candidates)
    if model is None:
        active = _reference_random(fallback_rng, candidates, active_count)
    else:
        pool = candidates
        if len(candidates) > sample_size:
            positions = uncertainty_rng.choice(len(candidates), size=sample_size, replace=False)
            pool = [candidates[i] for i in positions]
        scores = uncertainty_margin(model.predict_proba(X[pool]))
        active = [pool[i] for i in np.argsort(scores)[::-1][:active_count]]
    remaining = [c for c in candidates if c not in set(active)]
    return active, _reference_random(random_rng, remaining, total_count - len(active))


@pytest.fixture
def fitted_model(tiny_dataset):
    return LogisticRegressionModel().fit(tiny_dataset.X_train, tiny_dataset.y_train)


class TestRandomSampler:
    def test_selects_requested_count(self):
        sampler = RandomSampler(seed=0)
        chosen = sampler.select(list(range(100)), 10)
        assert len(chosen) == 10
        assert len(set(chosen)) == 10

    def test_selects_all_when_count_exceeds_pool(self):
        sampler = RandomSampler(seed=0)
        assert sorted(sampler.select([1, 2, 3], 10)) == [1, 2, 3]

    def test_zero_count_returns_empty(self):
        assert RandomSampler().select([1, 2, 3], 0) == []

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            RandomSampler().select([1], -1)

    def test_empty_candidates(self):
        assert RandomSampler().select([], 5) == []

    def test_reproducible(self):
        a = RandomSampler(seed=3).select(list(range(50)), 5)
        b = RandomSampler(seed=3).select(list(range(50)), 5)
        assert a == b


class TestUncertaintySampler:
    def test_unknown_measure_rejected(self):
        with pytest.raises(ValueError):
            UncertaintySampler(measure="magic")

    def test_invalid_candidate_sample_size_rejected(self):
        with pytest.raises(ValueError):
            UncertaintySampler(candidate_sample_size=0)

    def test_falls_back_to_random_without_model(self, tiny_dataset):
        sampler = UncertaintySampler(seed=0)
        chosen = sampler.select(None, tiny_dataset.X, list(range(50)), 5)
        assert len(chosen) == 5

    def test_selects_most_uncertain(self, tiny_dataset, fitted_model):
        sampler = UncertaintySampler(candidate_sample_size=10_000, seed=0)
        candidates = tiny_dataset.train_record_ids()
        chosen = sampler.select(fitted_model, tiny_dataset.X, candidates, 10)
        probs = fitted_model.predict_proba(tiny_dataset.X[candidates])
        margins = 1.0 - np.abs(probs[:, 0] - probs[:, 1])
        chosen_margins = 1.0 - np.abs(
            fitted_model.predict_proba(tiny_dataset.X[chosen])[:, 0]
            - fitted_model.predict_proba(tiny_dataset.X[chosen])[:, 1]
        )
        # Every selected point should be at least as uncertain as the median candidate.
        assert chosen_margins.min() >= np.median(margins)

    def test_candidate_subsampling_limits_scored_pool(self, tiny_dataset, fitted_model):
        sampler = UncertaintySampler(candidate_sample_size=5, seed=0)
        chosen = sampler.select(
            fitted_model, tiny_dataset.X, tiny_dataset.train_record_ids(), 5
        )
        assert len(chosen) == 5

    def test_zero_count(self, tiny_dataset, fitted_model):
        sampler = UncertaintySampler(seed=0)
        assert sampler.select(fitted_model, tiny_dataset.X, [1, 2, 3], 0) == []

    def test_each_measure_runs(self, tiny_dataset, fitted_model):
        for measure in ("margin", "entropy", "least_confidence"):
            sampler = UncertaintySampler(measure=measure, seed=0)
            chosen = sampler.select(fitted_model, tiny_dataset.X, list(range(100)), 3)
            assert len(chosen) == 3


class TestHybridSampler:
    def test_split_counts(self, tiny_dataset, fitted_model):
        sampler = make_hybrid_sampler(seed=0)
        active, passive = sampler.select(
            fitted_model, tiny_dataset.X, tiny_dataset.train_record_ids(), 5, 15
        )
        assert len(active) == 5
        assert len(passive) == 10

    def test_active_and_passive_disjoint(self, tiny_dataset, fitted_model):
        sampler = make_hybrid_sampler(seed=0)
        active, passive = sampler.select(
            fitted_model, tiny_dataset.X, tiny_dataset.train_record_ids(), 8, 20
        )
        assert not set(active) & set(passive)

    def test_total_not_less_than_active_rejected(self, tiny_dataset, fitted_model):
        sampler = make_hybrid_sampler(seed=0)
        with pytest.raises(ValueError):
            sampler.select(fitted_model, tiny_dataset.X, [1, 2, 3], 5, 3)

    def test_cold_start_without_model(self, tiny_dataset):
        sampler = make_hybrid_sampler(seed=0)
        active, passive = sampler.select(
            None, tiny_dataset.X, tiny_dataset.train_record_ids(), 4, 10
        )
        assert len(active) == 4
        assert len(passive) == 6

    def test_small_candidate_pool(self, tiny_dataset, fitted_model):
        sampler = make_hybrid_sampler(seed=0)
        active, passive = sampler.select(fitted_model, tiny_dataset.X, [1, 2, 3], 2, 10)
        assert len(active) + len(passive) == 3


@pytest.mark.parametrize("sample_size", [40, 10_000])
@pytest.mark.parametrize("seed", [0, 7])
def test_samplers_match_the_list_reference_exactly(tiny_dataset, fitted_model, sample_size, seed):
    sampler = make_hybrid_sampler(candidate_sample_size=sample_size, seed=seed)
    rngs = tuple(np.random.default_rng(seed + offset) for offset in (0, 1, 17))
    candidates = tiny_dataset.train_record_ids()[::-1]
    for model in (None, fitted_model, fitted_model):
        args = (model, tiny_dataset.X, candidates, 5, 12)
        active, passive = sampler.select(*args)
        assert (active, passive) == _reference_hybrid(rngs, *args, sample_size)
        assert all(type(record_id) is int for record_id in active + passive)
        candidates = [c for c in candidates if c not in set(active + passive)]
