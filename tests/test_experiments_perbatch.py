"""Integration tests for the per-batch experiment drivers (Figures 3-14, Table 1).

These run the actual experiment drivers at reduced scale and assert the
*shape* of the paper's claims: who wins and in which direction, not absolute
numbers.
"""

import pytest

from repro.experiments.combined import run_combined_experiment, run_termest_experiment
from repro.experiments.common import format_table, make_labeling_workload
from repro.experiments.pool_maintenance import (
    run_pool_maintenance_experiment,
    slow_task_fraction_by_age,
    worker_age_scatter,
)
from repro.experiments.simulation_claims import (
    run_convergence_experiment,
    run_decoupling_experiment,
    run_ratio_sweep,
    run_routing_policy_experiment,
)
from repro.experiments.straggler import fastest_worker_share, run_straggler_experiment
from repro.experiments.taxonomy import (
    fastest_vs_median_throughput_ratio,
    run_taxonomy_experiment,
)
from repro.experiments.threshold_sweep import run_threshold_sweep


@pytest.fixture(scope="module")
def straggler_result():
    return run_straggler_experiment(num_tasks=40, ratios=(0.75, 1.0), seed=0)


@pytest.fixture(scope="module")
def maintenance_result():
    return run_pool_maintenance_experiment(
        num_tasks=80, complexities={"medium": 5}, seed=0
    )


@pytest.fixture(scope="module")
def combined_result():
    return run_combined_experiment(num_tasks=60, seed=0)


class TestTaxonomyExperiment:
    def test_trace_has_heavy_tail(self):
        result = run_taxonomy_experiment(num_tasks=3000, num_workers=80, seed=0)
        stats = result.trace_statistics
        assert stats.task_latency_p90 > 2 * stats.task_latency_median
        assert stats.worker_mean_latency_max > 10 * stats.worker_mean_latency_min

    def test_headline_rows_have_paper_reference(self):
        result = run_taxonomy_experiment(num_tasks=2000, num_workers=50, seed=0)
        rows = result.headline_rows()
        assert all(len(row) == 3 for row in rows)

    def test_fastest_worker_completes_many_more_tasks(self):
        run_taxonomy_experiment(num_tasks=3000, num_workers=80, seed=0)
        # §4.1: the fastest worker can complete ~8x as many tasks as the median.
        ratio = fastest_vs_median_throughput_ratio(
            __import__("repro.crowd.traces", fromlist=["generate_medical_trace"]).generate_medical_trace(
                __import__("repro.crowd.traces", fromlist=["MedicalDeploymentParameters"]).MedicalDeploymentParameters(
                    num_tasks=3000, num_workers=80
                ),
                seed=0,
            )
        )
        assert ratio > 3.0


class TestStragglerExperiment:
    def test_mitigation_reduces_latency(self, straggler_result):
        for comparison in straggler_result.comparisons:
            assert comparison.latency_speedup > 1.5

    def test_mitigation_reduces_variance(self, straggler_result):
        for comparison in straggler_result.comparisons:
            assert comparison.stddev_reduction > 1.5

    def test_mitigation_costs_more(self, straggler_result):
        for comparison in straggler_result.comparisons:
            assert comparison.cost_increase > 1.0

    def test_fastest_workers_do_most_of_the_work(self, straggler_result):
        run = straggler_result.comparisons[0].with_mitigation
        assert fastest_worker_share(run) > 0.25

    def test_summary_rows_printable(self, straggler_result):
        text = format_table(
            ["R", "speedup", "std reduction", "cost"], straggler_result.summary_rows()
        )
        assert "R" in text


class TestPoolMaintenanceExperiment:
    def test_maintenance_reduces_latency_for_medium_tasks(self, maintenance_result):
        comparison = maintenance_result.comparisons[0]
        assert comparison.latency_speedup > 1.1

    def test_maintenance_does_not_explode_cost(self, maintenance_result):
        comparison = maintenance_result.comparisons[0]
        assert comparison.cost_ratio < 1.3

    def test_worker_age_scatter_shows_purging(self, maintenance_result):
        comparison = maintenance_result.comparisons[0]
        points = worker_age_scatter(comparison)
        assert len(points) > 0
        maintained_slow = slow_task_fraction_by_age(points, age_cutoff=5, maintained=True)
        unmaintained_slow = slow_task_fraction_by_age(points, age_cutoff=5, maintained=False)
        assert maintained_slow <= unmaintained_slow

    def test_figure3_series_reach_total_records(self, maintenance_result):
        comparison = maintenance_result.comparisons[0]
        series = comparison.labels_over_time()
        assert series["maintained"][-1][1] == 400
        assert series["unmaintained"][-1][1] == 400

    def test_figure6_mpl_lower_with_maintenance(self, maintenance_result):
        comparison = maintenance_result.comparisons[0]
        curves = comparison.mean_pool_latency_curves()
        maintained_tail = [m for _, m in curves["maintained"][-3:] if m is not None]
        unmaintained_tail = [m for _, m in curves["unmaintained"][-3:] if m is not None]
        assert sum(maintained_tail) / len(maintained_tail) < sum(unmaintained_tail) / len(
            unmaintained_tail
        )


class TestThresholdSweep:
    def test_lower_thresholds_replace_more_workers(self):
        result = run_threshold_sweep(
            thresholds=(2.0, 32.0, None), num_tasks=60, seed=0
        )
        by_threshold = {run.threshold: run.total_replacements for run in result.runs}
        assert by_threshold[2.0] >= by_threshold[32.0]
        assert by_threshold[None] == 0

    def test_percentile_rows_structure(self):
        result = run_threshold_sweep(thresholds=(8.0, None), num_tasks=40, seed=0)
        rows = result.percentile_rows()
        assert all(len(row) == 5 for row in rows)

    def test_best_threshold_is_finite(self):
        result = run_threshold_sweep(thresholds=(8.0, None), num_tasks=40, seed=0)
        assert result.best_threshold() in (8.0, None)


class TestCombinedExperiment:
    def test_full_configuration_beats_baseline(self, combined_result):
        assert combined_result.speedup_over_baseline("SM/PM8") > 1.5

    def test_all_four_configurations_present(self, combined_result):
        assert set(combined_result.runs) == {"NoSM/PMinf", "NoSM/PM8", "SM/PMinf", "SM/PM8"}

    def test_assignment_timelines_nonempty(self, combined_result):
        timelines = combined_result.assignment_timelines()
        assert all(len(records) > 0 for records in timelines.values())


class TestTermEstExperiment:
    def test_termest_restores_replacement_rate(self):
        result = run_termest_experiment(num_tasks=60, seed=0)
        assert result.replacements_with > result.replacements_without
        assert result.replacements_with >= 0.5 * max(1, result.replacements_reference)


class TestSimulationClaims:
    def test_routing_policies_are_roughly_equivalent(self):
        result = run_routing_policy_experiment(num_tasks=60, seed=0)
        assert len(result.latencies) == 4
        assert result.max_relative_spread() < 0.6

    def test_ratio_sweep_latency_decreases(self):
        result = run_ratio_sweep(ratios=(0.5, 3.0), num_tasks=40, seed=0)
        assert result.latency_decreases_with_ratio()

    def test_maintained_pool_converges_toward_fast_mean(self):
        result = run_convergence_experiment(num_batches=15, seed=0)
        assert result.converged_toward_fast_mean()
        assert result.q > 0
        assert result.mu_fast < result.mu_slow
        assert len(result.predicted_mpl) == len(result.observed_mpl) + 1

    def test_decoupling_does_not_hurt(self):
        result = run_decoupling_experiment(num_tasks=30, seed=0)
        # Decoupling should be at least roughly as fast as the naive combination.
        assert result.decoupled.total_wall_clock <= result.naive.total_wall_clock * 1.2

    def test_workload_helper_validates(self):
        with pytest.raises(ValueError):
            make_labeling_workload(num_records=0)
