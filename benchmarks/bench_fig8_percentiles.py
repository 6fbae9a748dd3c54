"""Figure 8: task-latency percentiles by threshold and worker-age slice."""

import functools

from claims import check, judge, over_seeds

from repro.experiments.threshold_sweep import run_threshold_sweep


def test_fig8_latency_percentiles_vs_threshold():
    results = over_seeds(
        functools.partial(
            run_threshold_sweep, thresholds=(2.0, 8.0, 32.0, None), num_tasks=100
        )
    )
    # Some finite threshold should beat maintenance-off on tail latency.
    check(
        judge(
            "Fig 8: a finite threshold has the lowest p99 task latency",
            [result.best_threshold() is not None for result in results],
        )
    )
