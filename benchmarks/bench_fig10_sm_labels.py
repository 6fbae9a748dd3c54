"""Figure 10: points labeled over time with and without straggler mitigation."""

from claims import by_comparison, check, judge, over_seeds, straggler


def test_fig10_labels_over_time():
    check(
        *(
            judge(
                f"Fig 10 R={comparisons[0].ratio:g}: SM latency speedup",
                [c.latency_speedup for c in comparisons],
                ">",
                1.5,
            )
            for comparisons in by_comparison(over_seeds(straggler))
        )
    )
