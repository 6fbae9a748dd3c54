"""§4.1 / §4.2 simulation claims: routing policy, R sweep, convergence, QC decoupling."""

import functools

from claims import check, judge, over_seeds

from repro.experiments.simulation_claims import (
    run_convergence_experiment,
    run_decoupling_experiment,
    run_ratio_sweep,
    run_routing_policy_experiment,
)


def test_sim_routing_policy_irrelevance():
    results = over_seeds(functools.partial(run_routing_policy_experiment, num_tasks=90))
    check(
        judge(
            "S4.1: relative spread of mean batch latency across routing policies",
            [result.max_relative_spread() for result in results],
            "<",
            0.6,
        )
    )


def test_sim_pool_batch_ratio_sweep():
    results = over_seeds(
        functools.partial(run_ratio_sweep, ratios=(0.5, 1.0, 2.0, 3.0), num_tasks=60)
    )
    check(
        judge(
            "S4.1: batch latency decreases with R",
            [result.latency_decreases_with_ratio() for result in results],
        )
    )


def test_sim_maintenance_convergence_model():
    results = over_seeds(functools.partial(run_convergence_experiment, num_batches=25))
    check(
        judge(
            "S4.2: pool mean latency converges toward the fast mean",
            [result.converged_toward_fast_mean() for result in results],
        )
    )


def test_sim_quality_control_decoupling():
    results = over_seeds(functools.partial(run_decoupling_experiment, num_tasks=40))
    check(
        judge(
            "S4.1: decoupled over naive QC total latency",
            [r.decoupled.total_latency / r.naive.total_latency for r in results],
            "<=",
            1.2,
        )
    )
