"""Figure 17: wall-clock time to reach accuracy thresholds for the three strategies."""

from claims import PAPER_RECORDS, by_comparison, check, judge, shared_over_seeds


def _speedup_verdicts(results, scale=""):
    return (
        judge(
            f"Fig 17 {comparisons[0].dataset_name}{scale}: speedup to 65% accuracy"
            " over Base-NR",
            [c.speedup_to_accuracy(0.65) for c in comparisons],
            ">",
            1.5,
        )
        for comparisons in by_comparison(results)
    )


def test_fig17_time_to_accuracy():
    check(*_speedup_verdicts(shared_over_seeds("fig17-18")))


def test_fig17_time_to_accuracy_at_paper_scale():
    results = shared_over_seeds("fig17-18", num_records=PAPER_RECORDS)
    check(*_speedup_verdicts(results, f" at {PAPER_RECORDS} records"))
