"""§6.6 headline numbers: throughput speedup and variance reduction vs Base-NR.

The crowd's simulated timings do not depend on the dataset, so the
MNIST-like and CIFAR-like comparisons of one seed give the same speedup and
variance reduction.  That is judged as an invariant, and each number is
then judged once per seed.
"""

from claims import by_comparison, check, judge, shared_over_seeds


def test_e2e_headline_numbers():
    per_dataset = list(by_comparison(shared_over_seeds("fig17-18")))
    names = " and ".join(comparisons[0].dataset_name for comparisons in per_dataset)
    per_seed = list(zip(*per_dataset, strict=True))
    check(
        judge(
            f"S6.6 {names}: equal throughput speedup and variance reduction",
            [
                len({(c.throughput_speedup(), c.variance_reduction()) for c in seed}) == 1
                for seed in per_seed
            ],
            every_seed=True,
        ),
        judge(
            "S6.6: throughput speedup over Base-NR",
            [seed[0].throughput_speedup() for seed in per_seed],
            ">",
            2.0,
        ),
        judge(
            "S6.6: batch-latency variance reduction over Base-NR",
            [seed[0].variance_reduction() for seed in per_seed],
            ">",
            1.5,
        ),
    )
