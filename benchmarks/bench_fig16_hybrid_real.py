"""Figure 16: active / passive / hybrid learning on the MNIST/CIFAR stand-ins."""

import functools

from claims import check, judge, over_seeds

from repro.experiments.hybrid_learning import run_real_dataset_experiment


def test_fig16_hybrid_on_real_datasets():
    results = over_seeds(
        functools.partial(
            run_real_dataset_experiment,
            num_records=200,
            pool_size=10,
            mnist_features=256,
            cifar_features=256,
        )
    )
    check(
        judge(
            "Fig 16: hybrid competitive in every cell (tolerance 0.08)",
            [result.hybrid_always_competitive(tolerance=0.08) for result in results],
        )
    )
