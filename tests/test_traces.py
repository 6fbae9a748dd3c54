"""Unit tests for trace generation and summarisation."""

import numpy as np
import pytest

from repro.crowd.recruitment import Recruiter
from repro.crowd.traces import (
    CrowdTrace,
    MedicalDeploymentParameters,
    TraceRecord,
    default_simulation_population,
    generate_medical_trace,
    summarize_trace,
)


@pytest.fixture(scope="module")
def medical_trace():
    params = MedicalDeploymentParameters(num_workers=80, num_tasks=4000)
    return generate_medical_trace(params, seed=3)


class TestTraceRecord:
    def test_latency(self):
        record = TraceRecord(worker_id=0, task_id=0, accepted_at=10.0, completed_at=25.0)
        assert record.latency == pytest.approx(15.0)


class TestGenerateMedicalTrace:
    def test_task_count(self, medical_trace):
        assert len(medical_trace) == 4000

    def test_all_workers_have_positive_latencies(self, medical_trace):
        assert (medical_trace.latencies() > 0).all()

    def test_recruitment_latencies_have_floor(self, medical_trace):
        assert min(medical_trace.recruitment_latencies) >= 300.0

    def test_reproducible_for_fixed_seed(self):
        params = MedicalDeploymentParameters(num_workers=20, num_tasks=200)
        first = generate_medical_trace(params, seed=7)
        second = generate_medical_trace(params, seed=7)
        assert np.allclose(first.latencies(), second.latencies())

    def test_different_seeds_differ(self):
        params = MedicalDeploymentParameters(num_workers=20, num_tasks=200)
        first = generate_medical_trace(params, seed=1)
        second = generate_medical_trace(params, seed=2)
        assert not np.allclose(first.latencies(), second.latencies())

    def test_fast_workers_complete_more_tasks(self, medical_trace):
        by_worker = medical_trace.latencies_by_worker()
        means = {w: v.mean() for w, v in by_worker.items()}
        counts = {w: len(v) for w, v in by_worker.items()}
        fastest = min(means, key=means.get)
        slowest = max(means, key=means.get)
        assert counts[fastest] > counts[slowest]


class TestTraceAccessors:
    def test_latencies_by_worker_partitions_records(self, medical_trace):
        per_worker = medical_trace.latencies_by_worker()
        assert sum(len(v) for v in per_worker.values()) == len(medical_trace)

    def test_fit_worker_profiles_skips_sparse_workers(self, medical_trace):
        profiles = medical_trace.fit_worker_profiles(min_assignments=5)
        sparse = {
            w for w, v in medical_trace.latencies_by_worker().items() if len(v) < 5
        }
        assert all(p.worker_id not in sparse for p in profiles)

    def test_fit_worker_profiles_match_empirical_means(self, medical_trace):
        profiles = medical_trace.fit_worker_profiles()
        per_worker = medical_trace.latencies_by_worker()
        for profile in profiles[:10]:
            assert profile.mean_latency == pytest.approx(
                per_worker[profile.worker_id].mean()
            )

    def test_to_population_samples_trace_workers(self, medical_trace):
        population = medical_trace.to_population(seed=0)
        assert population.profiles
        worker, _ = Recruiter(population).recruit()
        assert worker.mean_latency > 0

    def test_save_and_load_roundtrip(self, medical_trace, tmp_path):
        path = tmp_path / "trace.json"
        medical_trace.save(path)
        loaded = CrowdTrace.load(path)
        assert len(loaded) == len(medical_trace)
        assert loaded.records[0] == medical_trace.records[0]
        assert loaded.recruitment_latencies == medical_trace.recruitment_latencies


class TestSummarizeTrace:
    def test_summary_fields_consistent(self, medical_trace):
        stats = summarize_trace(medical_trace)
        assert stats.num_assignments == len(medical_trace)
        assert stats.num_workers == len(medical_trace.worker_ids())
        assert stats.worker_mean_latency_min <= stats.worker_mean_latency_median
        assert stats.worker_mean_latency_median <= stats.worker_mean_latency_max
        assert stats.task_latency_median <= stats.task_latency_p90

    def test_heavy_tail_shape(self, medical_trace):
        """The generated deployment should have a long upper tail (p90 >> median)."""
        stats = summarize_trace(medical_trace)
        assert stats.task_latency_p90 > 2.0 * stats.task_latency_median

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            summarize_trace(CrowdTrace())

    def test_as_dict_keys(self, medical_trace):
        payload = summarize_trace(medical_trace).as_dict()
        assert "task_latency_median" in payload
        assert "recruitment_latency_median" in payload


class TestDefaultSimulationPopulation:
    def test_fast_pool_is_faster(self):
        regular = default_simulation_population(seed=0)
        fast = default_simulation_population(seed=0, fast_pool=True)
        assert fast.mean_latency() < regular.mean_latency()

    def test_scale_is_seconds(self):
        population = default_simulation_population(seed=0)
        assert 5.0 < population.mean_latency() < 60.0
