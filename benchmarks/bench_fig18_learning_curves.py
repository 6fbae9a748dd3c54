"""Figure 18: accuracy versus wall-clock time for CLAMShell and both baselines."""

from claims import PAPER_RECORDS, by_comparison, check, judge, shared_over_seeds


def _dominance_verdicts(results, scale=""):
    return (
        judge(
            f"Fig 18 {comparisons[0].dataset_name}{scale}: CLAMShell dominates"
            " (tolerance 0.06)",
            [c.clamshell_dominates(tolerance=0.06) for c in comparisons],
        )
        for comparisons in by_comparison(results)
    )


def test_fig18_learning_curves():
    check(*_dominance_verdicts(shared_over_seeds("fig17-18")))


def test_fig18_learning_curves_at_paper_scale():
    results = shared_over_seeds("fig17-18", num_records=PAPER_RECORDS)
    check(*_dominance_verdicts(results, f" at {PAPER_RECORDS} records"))
