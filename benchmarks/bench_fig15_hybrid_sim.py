"""Figure 15: active / passive / hybrid learning on generated datasets (simulator)."""

import functools

from claims import check, judge, over_seeds

from repro.experiments.hybrid_learning import run_generated_dataset_experiment


def test_fig15_hybrid_on_generated_datasets():
    results = over_seeds(
        functools.partial(
            run_generated_dataset_experiment,
            hardness_levels=(20, 100, 400),
            active_fractions=(0.25, 0.5, 0.75),
            num_records=120,
            pool_size=10,
            n_samples=1500,
        )
    )
    # The paper's claim: hybrid is as good as or better than both pure
    # strategies across the grid (within noise).
    check(
        judge(
            "Fig 15: hybrid competitive in every cell (tolerance 0.10)",
            [result.hybrid_always_competitive(tolerance=0.10) for result in results],
        )
    )
