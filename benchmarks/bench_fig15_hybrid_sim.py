"""Figure 15: active / passive / hybrid learning on generated datasets (simulator)."""

from claims import check, judge, over_seeds


def test_fig15_hybrid_on_generated_datasets():
    results = over_seeds("fig15")
    # The paper's claim: hybrid is as good as or better than both pure
    # strategies across the grid (within noise).
    check(
        judge(
            "Fig 15: hybrid competitive in every cell (tolerance 0.10)",
            [result.hybrid_always_competitive(tolerance=0.10) for result in results],
        )
    )
