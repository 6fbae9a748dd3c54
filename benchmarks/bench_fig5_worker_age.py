"""Figure 5: per-label latency versus worker age, with and without maintenance."""

from claims import by_comparison, check, judge, over_seeds

from repro.experiments.pool_maintenance import slow_task_fraction_by_age, worker_age_scatter


def _slow_fraction_excess(comparison):
    """Slow-task fraction of workers aged >= 5 tasks, PM8 minus PMinf."""
    points = worker_age_scatter(comparison)
    return slow_task_fraction_by_age(points, 5, True) - slow_task_fraction_by_age(
        points, 5, False
    )


def test_fig5_worker_age_vs_latency():
    results = over_seeds("fig5")
    # With maintenance, experienced workers should produce (at most) as many
    # slow tasks as without it.
    check(
        *(
            judge(
                f"Fig 5 {comparisons[0].complexity}: slow-task fraction of workers"
                " aged >=5, PM8 minus PMinf",
                [_slow_fraction_excess(c) for c in comparisons],
                "<=",
                0.05,
            )
            for comparisons in by_comparison(results)
        )
    )
