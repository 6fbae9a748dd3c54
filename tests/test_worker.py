"""Unit tests for worker profiles, populations, and observations."""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crowd.worker import (
    MIN_TASK_LATENCY_SECONDS,
    PopulationParameters,
    WorkerDrawBlock,
    WorkerObservations,
    WorkerPopulation,
    WorkerProfile,
    sample_mean,
)


class TestWorkerProfile:
    def test_rejects_nonpositive_mean_latency(self):
        with pytest.raises(ValueError):
            WorkerProfile(0, mean_latency=0.0, latency_std=1.0, accuracy=0.9)

    def test_rejects_negative_std(self):
        with pytest.raises(ValueError):
            WorkerProfile(0, mean_latency=5.0, latency_std=-1.0, accuracy=0.9)

    def test_rejects_out_of_range_accuracy(self):
        with pytest.raises(ValueError):
            WorkerProfile(0, mean_latency=5.0, latency_std=1.0, accuracy=1.5)

    def test_draw_latency_respects_floor(self, rng):
        worker = WorkerProfile(0, mean_latency=1.0, latency_std=10.0, accuracy=0.9)
        draws = [worker.draw_latency(rng) for _ in range(200)]
        assert min(draws) >= MIN_TASK_LATENCY_SECONDS

    def test_draw_latency_scales_with_records(self, rng, fast_worker):
        single = np.mean([fast_worker.draw_latency(rng, 1) for _ in range(300)])
        grouped = np.mean([fast_worker.draw_latency(rng, 5) for _ in range(300)])
        assert grouped > 3 * single

    def test_draw_latency_rejects_zero_records(self, rng, fast_worker):
        with pytest.raises(ValueError):
            fast_worker.draw_latency(rng, 0)

    def test_draw_labels_match_accuracy(self):
        worker = WorkerProfile(0, mean_latency=5.0, latency_std=1.0, accuracy=0.8)
        labels = WorkerDrawBlock(worker, seed=0).draw_labels([1] * 3000, num_classes=2)
        assert np.mean(np.array(labels) == 1) == pytest.approx(0.8, abs=0.04)

    def test_draw_labels_wrong_labels_differ_from_truth(self):
        worker = WorkerProfile(0, mean_latency=5.0, latency_std=1.0, accuracy=0.0)
        labels = set(WorkerDrawBlock(worker, seed=0).draw_labels([2] * 200, num_classes=4))
        assert 2 not in labels
        assert labels <= {0, 1, 3}

    def test_draw_labels_rejects_single_class(self, fast_worker):
        with pytest.raises(ValueError):
            WorkerDrawBlock(fast_worker, seed=0).draw_labels([0], num_classes=1)

    def test_with_id_preserves_parameters(self, fast_worker):
        renamed = fast_worker.with_id(42)
        assert renamed.worker_id == 42
        assert renamed.mean_latency == fast_worker.mean_latency


def draw(population, count):
    """The first ``count`` workers of a stream drawn from ``population``."""
    stream = population.draw_workers(np.random.default_rng(population.seed))
    return list(itertools.islice(stream, count))


class TestWorkerPopulation:
    def test_explicit_population_draws_templates(self, small_population):
        (worker,) = draw(small_population, 1)
        assert worker.mean_latency in {4.0, 10.0, 16.0, 22.0, 28.0}

    def test_drawn_workers_get_fresh_ids(self, small_population):
        first, second = draw(small_population, 2)
        assert (first.worker_id, second.worker_id) == (20, 21)

    def test_a_stream_is_a_function_of_its_generator(self, parametric_population):
        assert draw(parametric_population, 7) == draw(parametric_population, 7)

    def test_parametric_generation_respects_accuracy_floor(self, parametric_population):
        workers = draw(parametric_population, 200)
        assert all(w.accuracy >= 0.5 for w in workers)

    def test_population_is_immutable(self, small_population):
        with pytest.raises(dataclasses.FrozenInstanceError):
            small_population.seed = 1

    def test_mean_latency_explicit(self, small_population):
        assert small_population.mean_latency() == pytest.approx(16.0)

    def test_mean_latency_parametric_matches_lognormal(self):
        params = PopulationParameters(log_mean_latency=2.0, log_std_latency=0.5)
        population = WorkerPopulation(parameters=params, seed=0)
        expected = float(np.exp(2.0 + 0.125))
        assert population.mean_latency() == pytest.approx(expected)

    def test_split_by_threshold_masses_sum(self, small_population):
        q, mu_fast, mu_slow = small_population.split_by_threshold(15.0)
        assert 0.0 < q < 1.0
        assert mu_fast < 15.0 < mu_slow

    def test_parametric_split_leaves_the_population_unchanged(
        self, parametric_population
    ):
        before = draw(parametric_population, 3)
        split = parametric_population.split_by_threshold(8.0)
        assert parametric_population.split_by_threshold(8.0) == split
        assert draw(parametric_population, 3) == before

    def test_split_by_threshold_rejects_nonpositive(self, small_population):
        with pytest.raises(ValueError):
            small_population.split_by_threshold(0.0)

    def test_explicit_profiles_are_kept_as_a_tuple(self, fast_worker, slow_worker):
        population = WorkerPopulation(profiles=[fast_worker, slow_worker])
        assert population.profiles == (fast_worker, slow_worker)
        assert population.parameters is None

    def test_default_population_is_parametric(self):
        population = WorkerPopulation()
        assert population.parameters is not None
        (worker,) = draw(population, 1)
        assert worker.mean_latency > 0


class TestWorkerObservations:
    def test_counts(self):
        obs = WorkerObservations(worker_id=0)
        obs.record_completion(5.0)
        obs.record_completion(7.0)
        obs.record_termination(terminator_latency=3.0)
        assert obs.completed_count == 2
        assert obs.terminated_count == 1
        assert obs.started_count == 3

    def test_empirical_mean(self):
        obs = WorkerObservations(worker_id=0)
        obs.record_completion(4.0)
        obs.record_completion(8.0)
        assert obs.empirical_mean_latency() == pytest.approx(6.0)

    # Lengths up to 300 cross NumPy's 8-way unrolled pairwise blocks and its
    # 128-element recursion, where a plain running sum would differ.
    @given(
        st.lists(
            st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
            min_size=1,
            max_size=300,
        )
    )
    def test_sample_mean_is_numpy_mean_bit_for_bit(self, values):
        assert sample_mean(values).hex() == float(np.mean(values)).hex()

    def test_empirical_mean_none_without_completions(self):
        assert WorkerObservations(worker_id=0).empirical_mean_latency() is None

    def test_empirical_std_requires_two_samples(self):
        obs = WorkerObservations(worker_id=0)
        obs.record_completion(4.0)
        assert obs.empirical_std_latency() is None
        obs.record_completion(8.0)
        assert obs.empirical_std_latency() == pytest.approx(np.std([4.0, 8.0], ddof=1))

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            WorkerObservations(worker_id=0).record_completion(-1.0)

    def test_terminator_latencies_recorded(self):
        obs = WorkerObservations(worker_id=0)
        obs.record_termination(terminator_latency=2.5)
        obs.record_termination()
        assert obs.terminator_latencies == [2.5]
        assert obs.terminated_count == 2

    def test_disagreement_rate_needs_two_comparisons(self):
        obs = WorkerObservations(worker_id=1)
        assert obs.disagreement_rate() is None
        obs.record_vote(True)
        assert obs.disagreement_rate() is None
        obs.record_vote(False)
        assert obs.disagreement_rate() == pytest.approx(0.5)
        assert (obs.votes_compared, obs.votes_agreed) == (2, 1)

    def test_votes_leave_the_latency_record_alone(self):
        obs = WorkerObservations(worker_id=7)
        for _ in range(4):
            obs.record_vote(False)
        assert obs.disagreement_rate() == pytest.approx(1.0)
        assert obs.started_count == 0
        assert obs.empirical_mean_latency() is None
