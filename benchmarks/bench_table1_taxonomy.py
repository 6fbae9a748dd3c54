"""Table 1 + §2.1 statistics: the latency-source taxonomy on the medical trace."""

import functools

from claims import check, judge, over_seeds

from repro.experiments.taxonomy import run_taxonomy_experiment


def test_table1_latency_taxonomy():
    results = over_seeds(
        functools.partial(run_taxonomy_experiment, num_tasks=20_000, num_workers=200)
    )
    stats = [result.trace_statistics for result in results]
    check(
        judge(
            "Table 1: p90 over median task latency",
            [s.task_latency_p90 / s.task_latency_median for s in stats],
            ">",
            2,
        )
    )
