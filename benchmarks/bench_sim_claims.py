"""§4.1 / §4.2 simulation claims: routing policy, R sweep, convergence, QC decoupling."""

from claims import check, judge, over_seeds


def test_sim_routing_policy_irrelevance():
    results = over_seeds("sec4.1-routing")
    check(
        judge(
            "S4.1: relative spread of mean batch latency across routing policies",
            [result.max_relative_spread() for result in results],
            "<",
            0.6,
        )
    )


def test_sim_pool_batch_ratio_sweep():
    results = over_seeds("sec4.1-ratio")
    check(
        judge(
            "S4.1: batch latency decreases with R",
            [result.latency_decreases_with_ratio() for result in results],
        )
    )


def test_sim_maintenance_convergence_model():
    results = over_seeds("sec4.2-convergence")
    check(
        judge(
            "S4.2: pool mean latency converges toward the fast mean",
            [result.converged_toward_fast_mean() for result in results],
        )
    )


def test_sim_quality_control_decoupling():
    results = over_seeds("sec4.1-decoupling")
    check(
        judge(
            "S4.1: decoupled over naive QC total latency",
            [r.decoupled.total_wall_clock / r.naive.total_wall_clock for r in results],
            "<=",
            1.2,
        )
    )
