"""Figure 8: task-latency percentiles by threshold and worker-age slice."""

from claims import check, judge, over_seeds


def test_fig8_latency_percentiles_vs_threshold():
    results = over_seeds("fig8")
    # Some finite threshold should beat maintenance-off on tail latency.
    check(
        judge(
            "Fig 8: a finite threshold has the lowest p99 task latency",
            [result.best_threshold() is not None for result in results],
        )
    )
