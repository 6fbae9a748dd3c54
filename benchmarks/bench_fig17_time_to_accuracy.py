"""Figure 17: wall-clock time to reach accuracy thresholds for the three strategies."""

from claims import by_comparison, check, judge, shared_over_seeds


def test_fig17_time_to_accuracy():
    check(
        *(
            judge(
                f"Fig 17 {comparisons[0].dataset_name}: speedup to 65% accuracy"
                " over Base-NR",
                [c.speedup_to_accuracy(0.65) for c in comparisons],
                ">",
                1.5,
            )
            for comparisons in by_comparison(shared_over_seeds("fig17-18"))
        )
    )
