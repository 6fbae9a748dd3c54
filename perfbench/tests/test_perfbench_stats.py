"""The benchmark's order statistics."""

from __future__ import annotations

import pytest

from perfbench.stats import MIN_BEYOND, beyond, percentile, tail_percentile


def test_percentile_is_nearest_rank():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(samples, 50.0) == 3.0
    assert percentile(samples, 100.0) == 5.0
    assert percentile(samples, 1.0) == 1.0
    assert percentile(list(range(1, 101)), 90.0) == 90.0


@pytest.mark.parametrize("bad", [0.0, -1.0, 100.5])
def test_percentile_rejects_out_of_range(bad):
    with pytest.raises(ValueError):
        percentile([1.0], bad)


def test_percentile_of_nothing_raises():
    with pytest.raises(ValueError):
        percentile([], 50.0)


@pytest.mark.parametrize(
    "count, expected",
    [
        (19, None),  # 9 samples lie above the median: not even p50
        (20, 50.0),
        (99, 50.0),  # 9 above p90
        (100, 90.0),
        (999, 90.0),  # 9 above p99
        (1000, 99.0),
        (10_000, 99.9),
    ],
)
def test_tail_percentile_picks_highest_with_enough_samples_beyond(count, expected):
    samples = [float(value) for value in range(count)]
    chosen = tail_percentile(samples)
    if expected is None:
        assert chosen is None
    else:
        assert chosen is not None
        p, value = chosen
        assert p == expected
        assert value == percentile(samples, p)
        assert beyond(count, p) >= MIN_BEYOND
