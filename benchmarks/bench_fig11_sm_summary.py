"""Figure 11: straggler mitigation cost / latency / variance summary across R."""

from claims import by_comparison, check, judge, over_seeds, straggler


def test_fig11_straggler_summary():
    verdicts = []
    for comparisons in by_comparison(over_seeds(straggler)):
        ratio = comparisons[0].ratio
        verdicts += [
            judge(
                f"Fig 11 R={ratio:g}: SM latency speedup",
                [c.latency_speedup for c in comparisons],
                ">",
                1.5,
            ),
            judge(
                f"Fig 11 R={ratio:g}: SM stddev reduction",
                [c.stddev_reduction for c in comparisons],
                ">",
                1.5,
            ),
            judge(
                f"Fig 11 R={ratio:g}: SM cost increase",
                [c.cost_increase for c in comparisons],
                ">",
                1.0,
            ),
        ]
    check(*verdicts)
