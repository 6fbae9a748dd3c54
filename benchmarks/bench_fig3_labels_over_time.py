"""Figure 3: points labeled over time by task complexity, PM8 vs PMinf."""

from claims import by_comparison, check, judge, over_seeds, pool_maintenance


def test_fig3_labels_over_time():
    check(
        *(
            judge(
                "Fig 3 complex: PM8 latency speedup over PMinf",
                [c.latency_speedup for c in comparisons],
                ">",
                1.0,
            )
            for comparisons in by_comparison(over_seeds(pool_maintenance))
            if comparisons[0].complexity == "complex"
        )
    )
