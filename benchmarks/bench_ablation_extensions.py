"""Ablations for the paper's extensions: quality-maintained pools and hybrid re-weighting."""

from claims import check, judge, over_seeds


def test_ablation_quality_maintained_pool():
    results = over_seeds("ext-quality-pool")
    check(
        judge(
            "S4.2 ext: replacements in the quality-maintained pool",
            [r.replacements["quality-maintained"] for r in results],
            ">=",
            1,
            every_seed=True,
        ),
        judge(
            "S4.2 ext: label accuracy, quality-maintained minus unmaintained",
            [
                r.label_accuracy["quality-maintained"] - r.label_accuracy["unmaintained"]
                for r in results
            ],
            ">=",
            -0.05,
        ),
    )


def test_ablation_hybrid_reweighting():
    results = over_seeds("ext-reweighting")
    check(
        judge(
            "S5.1 ext: spread of final accuracy across weight boosts",
            [max(r.accuracies.values()) - min(r.accuracies.values()) for r in results],
            "<",
            0.25,
        )
    )
