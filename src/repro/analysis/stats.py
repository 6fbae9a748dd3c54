"""Statistical helpers shared by maintenance and the experiment drivers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np


def empirical_std(values: Sequence[float]) -> Optional[float]:
    """Sample standard deviation (``ddof=1``), or ``None`` below two values.

    This is the one definition of "do we have a variance estimate?" shared
    by pool maintenance: :meth:`repro.crowd.worker.WorkerObservations.
    empirical_std_latency` delegates here, and :func:`one_sided_mean_test`
    treats the ``None`` sentinel (no estimate) and an exact-zero estimate
    (degenerate sample) as the same direct mean-vs-threshold fallback.
    Before this helper the two call sites hand-rolled the <2-observations
    case with different conventions.
    """
    array = np.asarray(values, dtype=float)
    if array.size < 2:
        return None
    return float(array.std(ddof=1))


def one_sided_t_test(values: np.ndarray, threshold: float) -> tuple[float, float]:
    """``(statistic, p_value)`` of the one-sided t-test "mean > threshold".

    The one place that imports :mod:`scipy.stats`, so that only a process
    that actually tests a worker pays for loading it.  Pool maintenance
    (§4.2, :meth:`repro.core.maintainer.PoolMaintainer.is_slow`) and
    :func:`one_sided_mean_test` both call it.
    """
    from scipy import stats

    statistic, p_value = stats.ttest_1samp(values, popmean=threshold, alternative="greater")
    return float(statistic), float(p_value)


@dataclass(frozen=True)
class OneSidedTestResult:
    """Result of a one-sided mean-above-threshold test."""

    statistic: float
    p_value: float
    significant: bool
    sample_mean: float
    threshold: float


def one_sided_mean_test(
    values: Sequence[float], threshold: float, significance: float = 0.05
) -> OneSidedTestResult:
    """Test whether the mean of ``values`` is significantly above ``threshold``.

    With fewer than two observations, or zero variance, the decision falls
    back to comparing the sample mean against the threshold directly.
    Otherwise it runs :func:`one_sided_t_test`, the t-test pool maintenance
    runs too.
    """
    if not 0.0 < significance < 1.0:
        raise ValueError("significance must be in (0, 1)")
    array = np.asarray(values, dtype=float)
    if array.size == 0:
        raise ValueError("values must not be empty")
    sample_mean = float(array.mean())
    std = empirical_std(array)
    if std is None or std == 0.0:
        exceeds = sample_mean > threshold
        return OneSidedTestResult(
            statistic=float("nan"),
            p_value=0.0 if exceeds else 1.0,
            significant=exceeds,
            sample_mean=sample_mean,
            threshold=threshold,
        )
    statistic, p_value = one_sided_t_test(array, threshold)
    return OneSidedTestResult(
        statistic=statistic,
        p_value=p_value,
        significant=p_value <= significance,
        sample_mean=sample_mean,
        threshold=threshold,
    )


def percentile_summary(
    values: Sequence[float], percentiles: Sequence[float] = (50, 95, 99)
) -> dict[float, float]:
    """Map percentile -> value; the summary used in Figure 8."""
    array = np.asarray(values, dtype=float)
    if array.size == 0:
        raise ValueError("values must not be empty")
    return {float(p): float(np.percentile(array, p)) for p in percentiles}


def coefficient_of_variation(values: Sequence[float]) -> float:
    """Standard deviation divided by mean; a scale-free variability measure."""
    array = np.asarray(values, dtype=float)
    if array.size < 2:
        raise ValueError("need at least two values")
    mean = array.mean()
    if mean == 0:
        raise ValueError("mean is zero; coefficient of variation undefined")
    return float(array.std(ddof=1) / mean)


def bootstrap_mean_ci(
    values: Sequence[float],
    confidence: float = 0.95,
    num_resamples: int = 2000,
    seed: int = 0,
) -> tuple[float, float]:
    """Bootstrap confidence interval for the mean."""
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    array = np.asarray(values, dtype=float)
    if array.size < 2:
        raise ValueError("need at least two values")
    rng = np.random.default_rng(seed)
    resample_means = np.array(
        [
            array[rng.integers(0, array.size, size=array.size)].mean()
            for _ in range(num_resamples)
        ]
    )
    lower = (1.0 - confidence) / 2.0
    upper = 1.0 - lower
    return (
        float(np.quantile(resample_means, lower)),
        float(np.quantile(resample_means, upper)),
    )
