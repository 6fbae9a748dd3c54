"""§6.6 headline numbers: throughput speedup and variance reduction vs Base-NR."""

from claims import by_comparison, check, judge, shared_over_seeds


def test_e2e_headline_numbers():
    verdicts = []
    for comparisons in by_comparison(shared_over_seeds("fig17-18")):
        name = comparisons[0].dataset_name
        verdicts += [
            judge(
                f"S6.6 {name}: throughput speedup over Base-NR",
                [c.throughput_speedup() for c in comparisons],
                ">",
                2.0,
            ),
            judge(
                f"S6.6 {name}: batch-latency variance reduction over Base-NR",
                [c.variance_reduction() for c in comparisons],
                ">",
                1.5,
            ),
        ]
    check(*verdicts)
