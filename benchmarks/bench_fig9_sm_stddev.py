"""Figure 9: straggler mitigation's effect on per-batch latency standard deviation."""

from claims import by_comparison, check, judge, over_seeds, straggler


def test_fig9_per_batch_stddev():
    check(
        *(
            judge(
                f"Fig 9 R={comparisons[0].ratio:g}: SM stddev reduction",
                [c.stddev_reduction for c in comparisons],
                ">",
                1.5,
            )
            for comparisons in by_comparison(over_seeds(straggler))
        )
    )
