"""Table 1 + §2.1 statistics: the latency-source taxonomy on the medical trace."""

from claims import check, judge, over_seeds


def test_table1_latency_taxonomy():
    results = over_seeds("table1")
    stats = [result.trace_statistics for result in results]
    check(
        judge(
            "Table 1: p90 over median task latency",
            [s.task_latency_p90 / s.task_latency_median for s in stats],
            ">",
            2,
        )
    )
