"""Figure 2: CDFs of per-worker mean and standard-deviation latency."""

import functools

from claims import check, judge, over_seeds

from repro.experiments.taxonomy import run_taxonomy_experiment


def test_fig2_worker_latency_cdfs():
    results = over_seeds(
        functools.partial(run_taxonomy_experiment, num_tasks=20_000, num_workers=300)
    )
    # The paper's observation: means span tens of seconds to hours.
    check(
        judge(
            "Fig 2: p99 over p10 of per-worker mean latency",
            [
                r.mean_latency_cdf.quantile(0.99) / r.mean_latency_cdf.quantile(0.1)
                for r in results
            ],
            ">",
            10,
        )
    )
