"""Figure 10: points labeled over time with and without straggler mitigation."""

from claims import by_comparison, check, judge, shared_over_seeds


def test_fig10_labels_over_time():
    check(
        *(
            judge(
                f"Fig 10 R={comparisons[0].ratio:g}: SM latency speedup",
                [c.latency_speedup for c in comparisons],
                ">",
                1.5,
            )
            for comparisons in by_comparison(shared_over_seeds("fig9-11"))
        )
    )
