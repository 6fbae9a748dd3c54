"""Order statistics for the benchmark's reports."""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence

#: Percentiles a tail report may pick from, lowest first.
TAIL_LADDER: tuple[float, ...] = (50.0, 90.0, 99.0, 99.9)

#: A percentile is reported only when this many samples lie beyond it.
MIN_BEYOND = 10


def _rank(count: int, p: float) -> int:
    """1-based nearest rank of percentile ``p`` among ``count`` samples.

    Rounded before the ceiling so that, say, p99.9 of 10,000 samples is
    rank 9,990 and not 9,991 through floating-point error.
    """
    return max(1, math.ceil(round(p * count / 100.0, 9)))


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile ``p`` (0 < p <= 100) of ``samples``."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0.0 < p <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {p}")
    return float(sorted(samples)[_rank(len(samples), p) - 1])


def beyond(count: int, p: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank percentile ``p``."""
    return count - _rank(count, p)


def tail_percentile(samples: Sequence[float]) -> Optional[tuple[float, float]]:
    """``(p, value)`` for the highest ladder percentile with at least
    :data:`MIN_BEYOND` samples beyond it, or ``None`` when even the median
    has fewer."""
    chosen = None
    for p in TAIL_LADDER:
        if beyond(len(samples), p) >= MIN_BEYOND:
            chosen = p
    return None if chosen is None else (chosen, percentile(samples, chosen))


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))
