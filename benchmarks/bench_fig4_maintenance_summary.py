"""Figure 4: end-to-end latency and cost with and without pool maintenance."""

from claims import by_comparison, check, judge, shared_over_seeds


def test_fig4_maintenance_cost_latency():
    verdicts = []
    for comparisons in by_comparison(shared_over_seeds("fig3-4")):
        complexity = comparisons[0].complexity
        if complexity in ("medium", "complex"):
            verdicts.append(
                judge(
                    f"Fig 4 {complexity}: PM8 latency speedup over PMinf",
                    [c.latency_speedup for c in comparisons],
                    ">",
                    1.1,
                )
            )
        verdicts.append(
            judge(
                f"Fig 4 {complexity}: PM8 cost over PMinf cost",
                [c.cost_ratio for c in comparisons],
                "<",
                1.0,
            )
        )
    check(*verdicts)
