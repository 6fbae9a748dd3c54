"""Figure 2: CDFs of per-worker mean and standard-deviation latency."""

from claims import check, judge, over_seeds


def test_fig2_worker_latency_cdfs():
    results = over_seeds("fig2")
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
