"""End-to-end integration tests across the whole system.

These exercise the public API the way the examples and benchmarks do, and
check cross-cutting invariants (accounting consistency, determinism, and the
direction of the paper's headline comparisons).
"""

import pytest

from repro import (
    Engine,
    JobSpec,
    baseline_no_retainer,
    baseline_retainer,
    full_clamshell,
    make_cifar_like,
    make_classification,
)
from repro.api.engine import build_run
from repro.core.config import CLAMShellConfig, LearningStrategy
from repro.core.metrics import CostModel
from repro.crowd.worker import WorkerPopulation, WorkerProfile
from repro.experiments.common import make_labeling_workload, run_configuration


@pytest.fixture(scope="module")
def dataset():
    return make_classification(
        n_samples=600, n_features=24, n_informative=10, class_sep=1.8, flip_y=0.02, seed=2
    )


#: A mixed-speed population: 30 workers at 3 to 28 s per record.
POPULATION = WorkerPopulation(
    profiles=[
        WorkerProfile(
            worker_id=index,
            mean_latency=3.0 + (index % 6) * 5.0,
            latency_std=0.3 * (3.0 + (index % 6) * 5.0),
            accuracy=0.92,
        )
        for index in range(30)
    ]
)


@pytest.fixture
def population():
    return POPULATION


def run_job(config, dataset, population, num_records):
    """One labeling run through the engine."""
    return Engine().run(
        JobSpec(
            dataset=dataset, config=config, population=population, num_records=num_records
        )
    )


class TestFullSystemRuns:
    def test_clamshell_run_is_deterministic_for_fixed_seed(self, dataset):
        config = full_clamshell(pool_size=6, seed=11, candidate_sample_size=100)
        first = run_job(config, dataset, POPULATION, 40)
        second = run_job(config, dataset, POPULATION, 40)
        assert first.fingerprint() == second.fingerprint()

    def test_different_seeds_give_different_runs(self, dataset, population):
        a = run_job(full_clamshell(pool_size=6, seed=1), dataset, population, 30)
        b = run_job(full_clamshell(pool_size=6, seed=2), dataset, population, 30)
        assert a.total_wall_clock != pytest.approx(b.total_wall_clock)

    def test_clamshell_faster_than_base_nr(self, dataset):
        clamshell = run_job(
            full_clamshell(pool_size=8, seed=3, candidate_sample_size=100),
            dataset,
            POPULATION,
            60,
        )
        base_nr = run_job(
            baseline_no_retainer(pool_size=8, seed=3), dataset, POPULATION, 60
        )
        assert clamshell.total_wall_clock < base_nr.total_wall_clock

    def test_clamshell_faster_than_base_r(self, dataset):
        clamshell = run_job(
            full_clamshell(pool_size=8, seed=4, candidate_sample_size=100),
            dataset,
            POPULATION,
            60,
        )
        base_r = run_job(
            baseline_retainer(pool_size=8, seed=4, candidate_sample_size=100),
            dataset,
            POPULATION,
            60,
        )
        assert clamshell.total_wall_clock < base_r.total_wall_clock

    def test_labels_are_mostly_correct(self, dataset, population):
        result = run_job(
            full_clamshell(pool_size=6, seed=5, candidate_sample_size=100),
            dataset,
            population,
            50,
        )
        correct = sum(
            1 for record_id, label in result.labels.items() if label == int(dataset.y[record_id])
        )
        assert correct / len(result.labels) > 0.75


class TestAccountingConsistency:
    def test_cost_matches_cost_model_recomputation(self, dataset, population):
        config = full_clamshell(pool_size=6, seed=6, candidate_sample_size=100)
        platform, batcher = build_run(
            JobSpec(dataset=dataset, config=config, population=population, num_records=30)
        )
        result = batcher.run(num_records=30)
        recomputed = CostModel(rates=config.pay_rates).total_cost(platform)
        assert result.total_cost == pytest.approx(recomputed)

    def test_batch_latencies_sum_close_to_wall_clock(self, population):
        workload = make_labeling_workload(num_records=40, seed=0)
        config = CLAMShellConfig(
            pool_size=5,
            learning_strategy=LearningStrategy.NONE,
            maintenance_threshold=None,
            straggler_mitigation=False,
            seed=0,
        )
        run = run_configuration(config, workload, population=population, num_records=40)
        batches_total = run.batch_latencies().sum()
        assert batches_total <= run.total_wall_clock + 1e-6

    def test_every_labeled_record_was_requested(self, dataset, population):
        result = run_job(
            full_clamshell(pool_size=6, seed=7, candidate_sample_size=100),
            dataset,
            population,
            40,
        )
        train_ids = set(dataset.train_record_ids())
        assert set(result.labels) <= train_ids

    def test_quality_control_run_completes_with_redundancy(self, population):
        workload = make_labeling_workload(num_records=20, seed=1)
        config = CLAMShellConfig(
            pool_size=6,
            votes_required=3,
            learning_strategy=LearningStrategy.NONE,
            maintenance_threshold=None,
            seed=0,
        )
        run = run_configuration(config, workload, population=population, num_records=20)
        assert run.records_labeled == 20
        for outcome in run.batch_outcomes:
            for task in outcome.batch.tasks:
                assert task.votes_received >= 3


class TestHardDatasetBehaviour:
    def test_cifar_like_accuracy_band(self, population):
        dataset = make_cifar_like(n_samples=1200, n_features=128, seed=3)
        result = run_job(
            full_clamshell(pool_size=8, seed=8, candidate_sample_size=150),
            dataset,
            population,
            120,
        )
        assert result.final_accuracy is not None
        assert 0.55 <= result.final_accuracy <= 0.95
