"""Figure 7: workers replaced over a run as the maintenance threshold varies."""

from claims import check, judge, over_seeds


def test_fig7_replacement_rate_vs_threshold():
    results = over_seeds("fig7")
    by_threshold = [
        {run.threshold: run.total_replacements for run in result.runs}
        for result in results
    ]
    # Lower thresholds replace at least as many workers as higher ones.
    check(
        judge(
            "Fig 7: replacements at PM2 minus at PM32",
            [counts[2.0] - counts[32.0] for counts in by_threshold],
            ">=",
            0,
        ),
        judge(
            "Fig 7: replacements with maintenance off",
            [counts[None] for counts in by_threshold],
            "==",
            0,
            every_seed=True,
        ),
    )
