"""Figure 18: accuracy versus wall-clock time for CLAMShell and both baselines."""

from claims import by_comparison, check, end_to_end, judge, over_seeds


def test_fig18_learning_curves():
    check(
        *(
            judge(
                f"Fig 18 {comparisons[0].dataset_name}: CLAMShell dominates"
                " (tolerance 0.06)",
                [c.clamshell_dominates(tolerance=0.06) for c in comparisons],
            )
            for comparisons in by_comparison(over_seeds(end_to_end))
        )
    )
