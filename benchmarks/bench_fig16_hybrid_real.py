"""Figure 16: active / passive / hybrid learning on the MNIST/CIFAR stand-ins."""

from claims import check, judge, over_seeds


def test_fig16_hybrid_on_real_datasets():
    results = over_seeds("fig16")
    check(
        judge(
            "Fig 16: hybrid competitive in every cell (tolerance 0.08)",
            [result.hybrid_always_competitive(tolerance=0.08) for result in results],
        )
    )
