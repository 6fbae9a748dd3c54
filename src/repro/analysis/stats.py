"""Statistical helpers shared by maintenance and the experiment drivers."""

from __future__ import annotations

import math
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

    Pool maintenance (§4.2, :meth:`repro.core.maintainer.PoolMaintainer.
    is_slow`) and :func:`one_sided_mean_test` both call it.  It needs NumPy
    and :mod:`math` only, so a process that tests workers loads no SciPy.
    The statistic is ``(mean - threshold) / sqrt(var / n)`` with the
    ``ddof=1`` variance, and the p-value is Student's t upper tail at
    ``n - 1`` degrees of freedom (:func:`_student_t_sf`).  Both agree with
    SciPy's ``ttest_1samp(values, threshold, alternative="greater")`` to
    about 1e-13, not bit for bit.

    At least two values with a positive variance are required; callers check
    both before testing, and anything else raises :class:`ValueError`.
    """
    array = np.asarray(values, dtype=float)
    if array.size < 2:
        raise ValueError("the t-test needs at least two values")
    variance = float(array.var(ddof=1))
    if not variance > 0.0:
        raise ValueError("the t-test needs a positive variance")
    statistic = (float(array.mean()) - threshold) / math.sqrt(variance / array.size)
    return statistic, _student_t_sf(statistic, array.size - 1)


def _student_t_sf(t: float, df: int) -> float:
    """``P(T > t)`` for Student's t with ``df >= 1`` integer degrees of freedom.

    The exact finite series of Abramowitz & Stegun 26.7.3 (odd ``df``) and
    26.7.4 (even ``df``) give ``A = P(|T| < |t|)``, signed like ``t``, from
    ``theta = atan(t / sqrt(df))``; the upper tail is ``(1 - A) / 2``.  Each
    term of the series is the last one times ``cos(theta)**2 * j / (j + 1)``,
    up to the ``cos(theta)**(df - 2)`` term, so the cost is O(df).
    """
    theta = math.atan(t / math.sqrt(df))
    sin, cos = math.sin(theta), math.cos(theta)
    cos_squared = cos * cos
    term = series = 1.0
    for j in range(1 + df % 2, df - 1, 2):
        term *= cos_squared * j / (j + 1)
        series += term
    if df % 2 == 0:
        a = sin * series
    elif df == 1:
        a = 2.0 * theta / math.pi
    else:
        a = 2.0 / math.pi * (theta + sin * cos * series)
    return (1.0 - a) / 2.0


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
    runs too, whose p-values agree with SciPy's to about 1e-13, not bit for
    bit.
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
