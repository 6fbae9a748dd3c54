"""Table 2: the technique impact matrix, derived from measured runs."""

from claims import check, judge, over_seeds


def test_table2_technique_matrix():
    matrices = over_seeds("table2")
    straggler = [matrix.by_technique("straggler") for matrix in matrices]
    pool = [matrix.by_technique("pool") for matrix in matrices]
    check(
        judge(
            "Table 2: straggler mitigation improves mean latency",
            [s.improves_mean_latency for s in straggler],
        ),
        judge(
            "Table 2: straggler mitigation reduces variance",
            [s.reduces_variance for s in straggler],
        ),
        judge(
            "Table 2: straggler mitigation increases cost",
            [s.increases_cost for s in straggler],
        ),
        judge(
            "Table 2: pool maintenance improves mean latency",
            [p.improves_mean_latency for p in pool],
        ),
    )
