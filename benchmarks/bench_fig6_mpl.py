"""Figure 6: mean pool latency per batch with and without maintenance."""

import numpy as np
from claims import check, judge, over_seeds


def _tail(curve):
    """Mean pool latency after the first three batches."""
    return np.mean([m for _, m in curve[3:] if m is not None])


def test_fig6_mean_pool_latency():
    results = over_seeds("fig6")
    curves = [result.comparisons[0].mean_pool_latency_curves() for result in results]
    check(
        judge(
            "Fig 6: tail mean pool latency, PMinf minus PM8 (s)",
            [_tail(c["unmaintained"]) - _tail(c["maintained"]) for c in curves],
            ">",
            0,
        )
    )
