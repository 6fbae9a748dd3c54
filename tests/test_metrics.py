"""Unit tests for latency/cost metrics and the Problem-1 objective."""

import dataclasses

import numpy as np
import pytest

from repro.api.engine import Engine, JobSpec, build_run
from repro.core.batcher import RunResult
from repro.core.config import CLAMShellConfig, LearningStrategy, PayRates, full_clamshell
from repro.core.lifeguard import BatchOutcome
from repro.core.metrics import (
    CostModel,
    ExecutionStats,
    RunFingerprint,
    collect_stats,
    crowd_labeling_objective,
    speedup_factor,
    variance_reduction_factor,
)
from repro.crowd.platform import SimulatedCrowdPlatform
from repro.crowd.tasks import Batch, Task
from repro.experiments.common import make_labeling_workload, mixed_speed_population


def make_batch(index=0, start=0.0, end=10.0, latencies=(3.0, 7.0, 10.0)):
    return BatchOutcome(
        batch=Batch(batch_id=index, tasks=[Task(task_id=0, record_ids=[0], true_labels=[1])]),
        batch_index=index,
        dispatched_at=start,
        completed_at=end,
        task_latencies=list(latencies),
    )


def make_result(**fields):
    return RunResult(config=CLAMShellConfig(), learning_curve=None, **fields)


class TestCostModel:
    def test_waiting_cost_per_minute(self):
        model = CostModel(PayRates(waiting_per_minute=0.06, per_record=0.0))
        assert model.waiting_cost(600.0) == pytest.approx(0.60)

    def test_labeling_cost_per_record(self):
        model = CostModel(PayRates(waiting_per_minute=0.0, per_record=0.02))
        assert model.labeling_cost(50) == pytest.approx(1.0)

    def test_total_cost_counts_terminated_work(self, small_population):
        platform = SimulatedCrowdPlatform(small_population, seed=0)
        platform.initialize_pool(2)
        task = Task(task_id=0, record_ids=[0], true_labels=[1])
        a1 = platform.start_assignment(task, platform.pool.worker_ids[0])
        platform.terminate_assignment(a1)
        platform.settle()
        model = CostModel()
        assert model.total_cost(platform) > 0


class TestBatchOutcome:
    def test_latency_and_stats(self):
        batch = make_batch()
        assert batch.batch_latency == pytest.approx(10.0)
        assert batch.task_latency_mean == pytest.approx(np.mean([3.0, 7.0, 10.0]))
        assert batch.task_latency_std == pytest.approx(np.std([3.0, 7.0, 10.0], ddof=1))

    def test_std_zero_for_single_task(self):
        batch = make_batch(latencies=(5.0,))
        assert batch.task_latency_std == 0.0


class TestRunResult:
    def test_aggregations(self):
        result = make_result(
            batch_outcomes=[make_batch(0, 0.0, 10.0), make_batch(1, 10.0, 30.0)]
        )
        assert result.num_batches == 2
        assert result.mean_batch_latency() == pytest.approx(15.0)
        assert result.batch_latency_std() == pytest.approx(np.std([10.0, 20.0], ddof=1))
        assert len(result.task_latencies()) == 6

    def test_throughput(self):
        result = make_result(
            labels={record: 0 for record in range(100)}, total_wall_clock=50.0
        )
        assert result.records_labeled == 100
        assert result.throughput_labels_per_second() == pytest.approx(2.0)

    def test_throughput_zero_wall_clock(self):
        assert make_result().throughput_labels_per_second() == 0.0

    def test_labels_over_time_counts_from_run_start(self):
        first, second = make_batch(0, 100.0, 101.0), make_batch(1, 101.0, 102.0)
        first.completion_times = [(101.0, 5)]
        second.completion_times = [(102.0, 5)]
        result = make_result(batch_outcomes=[first, second], started_at=100.0)
        assert result.labels_over_time() == [(1.0, 5), (2.0, 10)]


def golden_spec() -> JobSpec:
    return JobSpec(
        dataset=make_labeling_workload(num_records=40, seed=7),
        config=full_clamshell(
            pool_size=4, records_per_task=2, seed=7,
            learning_strategy=LearningStrategy.NONE,
        ),
        population=mixed_speed_population(seed=7),
        num_records=32,
    )


def exact(expected):
    """Equal up to the last bits a different libm may round differently."""
    return pytest.approx(expected, rel=1e-12)


class TestSeededRunGolden:
    """One seeded run's per-batch series, pinned to the values the run loop
    used to accumulate batch by batch; ``RunResult`` now derives them all
    from its ``batch_outcomes``."""

    def test_series_match_the_accumulated_values(self):
        result = Engine().run(golden_spec())
        assert list(result.batch_latencies()) == exact([
            11.886382524091093, 9.456979473311087,
            13.758211707570428, 13.841617376857442,
        ])
        assert list(result.per_batch_stddevs()) == exact([
            4.013492743419997, 3.1113418398287855,
            4.428480851082236, 4.227336852358405,
        ])
        mpl = result.mean_pool_latency_curve()
        assert [index for index, _ in mpl] == [0, 1, 2, 3]
        assert [value for _, value in mpl] == exact([
            5.461739844019501, 4.60635408167818,
            3.439552926892608, 6.492121427701531,
        ])
        curve = result.labels_over_time()
        assert [count for _, count in curve] == list(range(2, 34, 2))
        assert [seconds for seconds, _ in curve] == exact([
            2.7813134943583195, 6.4683793762734885, 9.960576851986911,
            11.886382524091093, 14.76214704188212, 17.29334936629651,
            20.85481937749273, 21.34336199740218, 24.56316435004701,
            28.19559341866167, 30.71004529850896, 35.10157370497261,
            39.53765919792876, 43.09884576346262, 47.228442038921294,
            48.94319108183005,
        ])
        assert result.throughput_labels_per_second() == exact(0.6538192400756612)
        assert result.records_labeled == 32
        assert result.total_cost == exact(1.3347991276284459)
        assert result.total_wall_clock == exact(48.94319108183005)

    def test_second_run_on_one_batcher_counts_from_its_own_start(self):
        """A Batcher run twice starts its second run at a later platform
        clock; that run's labels-over-time series still starts near 0."""
        _, batcher = build_run(golden_spec())
        batcher.run(num_records=16)
        second = batcher.run(num_records=16)
        assert second.started_at == exact(21.34336199740218)
        assert [count for _, count in second.labels_over_time()] == list(range(2, 18, 2))
        assert [seconds for seconds, _ in second.labels_over_time()] == exact([
            3.2198023526448303, 6.852231421259489, 9.366683301106779,
            13.758211707570428, 18.19429720052658, 21.75548376606044,
            25.885080041519114, 27.59982908442787,
        ])
        assert second.total_wall_clock == exact(27.59982908442787)
        assert second.records_labeled == 16


class TestRunFingerprint:
    """A run's record carries its stats and reduces to one fingerprint."""

    STATS = ExecutionStats(
        sim_seconds=12.5,
        events_processed=7,
        events_scheduled=9,
        labels=2,
        total_cost=0.1,
        counters={"assignments_started": 4.0, "probes_attempted": 6.0, "probes_futile": 2.0},
    )

    def test_stats_are_the_settled_platforms(self):
        """The Batcher fills ``stats`` at the end of the run; reading the
        platform again after the stream is drained gives the same values."""
        platform, batcher = build_run(golden_spec())
        result = batcher.run(num_records=32)
        assert result.stats == collect_stats(platform, result)
        assert result.stats.labels == result.records_labeled == 32

    def test_probe_counters_sit_outside_the_behaviour(self):
        fingerprint = RunFingerprint.of({3: 1, 1: 0}, self.STATS)
        assert fingerprint.probes == {"probes_attempted": 6.0, "probes_futile": 2.0}
        assert fingerprint.behaviour == {
            "labels": [(1, 0), (3, 1)],
            "sim_seconds": 12.5,
            "events_processed": 7,
            "events_scheduled": 9,
            "total_cost": 0.1,
            "counters": {"assignments_started": 4.0},
        }

    def test_digest_covers_the_behaviour_only(self):
        digest = RunFingerprint.of({1: 0, 3: 1}, self.STATS).digest
        assert len(digest) == 64
        more_probes = dict(self.STATS.counters, probes_attempted=60.0)
        assert RunFingerprint.of(
            {3: 1, 1: 0}, dataclasses.replace(self.STATS, counters=more_probes)
        ).digest == digest
        assert RunFingerprint.of({1: 1, 3: 1}, self.STATS).digest != digest
        assert RunFingerprint.of({np.int64(1): np.int64(0), 3: 1}, self.STATS).digest == digest
        later = dataclasses.replace(self.STATS, sim_seconds=np.nextafter(12.5, 13.0))
        assert RunFingerprint.of({1: 0, 3: 1}, later).digest != digest

    def test_a_result_without_stats_has_no_fingerprint(self):
        with pytest.raises(ValueError, match="without stats"):
            make_result().fingerprint()


class TestObjective:
    def test_weighted_sum(self):
        objective = crowd_labeling_objective(100.0, 10.0, beta=0.9)
        assert objective.weighted_sum == pytest.approx(0.9 * 100 + 0.1 * 10)
        assert objective.paper_metric == pytest.approx(1.0 / objective.weighted_sum)

    def test_invalid_beta_rejected(self):
        with pytest.raises(ValueError):
            crowd_labeling_objective(1.0, 1.0, beta=2.0)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            crowd_labeling_objective(-1.0, 1.0, beta=0.5)

    def test_zero_denominator_gives_infinity(self):
        assert crowd_labeling_objective(0.0, 0.0, beta=0.5).paper_metric == float("inf")


class TestRatios:
    def test_variance_reduction(self):
        baseline = [10.0, 50.0, 90.0]
        optimized = [10.0, 11.0, 12.0]
        assert variance_reduction_factor(baseline, optimized) > 1.0

    def test_variance_reduction_requires_two_samples(self):
        with pytest.raises(ValueError):
            variance_reduction_factor([1.0], [1.0, 2.0])

    def test_variance_reduction_zero_optimized_std(self):
        assert variance_reduction_factor([1.0, 5.0], [2.0, 2.0]) == float("inf")

    def test_speedup_factor(self):
        assert speedup_factor(100.0, 25.0) == pytest.approx(4.0)

    def test_speedup_factor_invalid(self):
        with pytest.raises(ValueError):
            speedup_factor(10.0, 0.0)

    def test_speedup_factor_rejects_zero_baseline(self):
        # Used to slip through the `< 0` check and return a nonsensical 0x
        # speedup despite the "must be positive" error message.
        with pytest.raises(ValueError):
            speedup_factor(0.0, 10.0)
        with pytest.raises(ValueError):
            speedup_factor(-1.0, 10.0)
