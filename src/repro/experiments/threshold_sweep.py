"""Experiments F7/F8: sweeping the pool-maintenance latency threshold (§6.2).

Figure 7 shows that lowering PM_ell replaces more workers over a run; Figure 8
shows the 50th/95th/99th percentiles of task latency for each threshold,
sliced by how long the worker had been in the pool, with the optimum at PM8
for the Ng=5 workload and thrashing below it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ..analysis.stats import percentile_summary
from ..core.config import CLAMShellConfig, LearningStrategy
from ..core.batcher import RunResult
from .common import make_labeling_workload, run_configuration
from .pool_maintenance import worker_age_points

#: Thresholds studied in the paper (seconds per label), plus "off".
DEFAULT_THRESHOLDS: tuple[Optional[float], ...] = (2.0, 4.0, 8.0, 16.0, 32.0, None)

#: Worker-age slices used by Figure 8 (tasks completed when starting a task).
DEFAULT_AGE_SLICES: tuple[tuple[int, Optional[int]], ...] = ((0, 5), (5, 15), (15, None))


@dataclass
class ThresholdRun:
    """One threshold's outcome."""

    threshold: Optional[float]
    run: RunResult
    replacements_over_time: dict[int, int]

    @property
    def threshold_label(self) -> str:
        return f"PM{self.threshold:g}" if self.threshold is not None else "PMinf"

    @property
    def total_replacements(self) -> int:
        return sum(self.replacements_over_time.values())


@dataclass
class ThresholdSweepResult:
    """The Figure 7 and Figure 8 content."""

    records_per_task: int
    runs: list[ThresholdRun] = field(default_factory=list)

    def replacement_rows(self) -> list[list[object]]:
        """Figure-7-style rows: threshold, workers replaced, mean batch latency."""
        return [
            [
                run.threshold_label,
                run.total_replacements,
                run.run.mean_batch_latency(),
                run.run.batch_latency_std(),
            ]
            for run in self.runs
        ]

    def percentile_rows(
        self,
        age_slices: Sequence[tuple[int, Optional[int]]] = DEFAULT_AGE_SLICES,
        percentiles: Sequence[float] = (50, 95, 99),
    ) -> list[list[object]]:
        """Figure-8-style rows: threshold x age slice -> latency percentiles."""
        rows = []
        for run in self.runs:
            points = worker_age_points(
                run.run,
                self.records_per_task,
                complexity=f"Ng={self.records_per_task}",
                maintained=run.threshold is not None,
            )
            for low, high in age_slices:
                in_slice = [
                    p.per_label_latency
                    for p in points
                    if p.worker_age >= low and (high is None or p.worker_age < high)
                ]
                if not in_slice:
                    continue
                summary = percentile_summary(in_slice, percentiles)
                slice_label = f"age {low}-{high if high is not None else 'inf'}"
                rows.append(
                    [run.threshold_label, slice_label]
                    + [summary[float(p)] for p in percentiles]
                )
        return rows

    def best_threshold(self) -> Optional[float]:
        """Threshold with the lowest 99th-percentile task latency (paper: PM8)."""
        best = None
        best_p99 = float("inf")
        for run in self.runs:
            latencies = run.run.task_latencies()
            if latencies.size == 0:
                continue
            p99 = float(np.percentile(latencies, 99))
            if p99 < best_p99:
                best_p99 = p99
                best = run.threshold
        return best


def run_threshold_sweep(
    thresholds: Sequence[Optional[float]] = DEFAULT_THRESHOLDS,
    num_tasks: int = 100,
    pool_size: int = 15,
    records_per_task: int = 5,
    seed: int = 0,
) -> ThresholdSweepResult:
    """Sweep PM_ell over the Figure 7/8 range on the Ng=5 workload."""
    result = ThresholdSweepResult(records_per_task=records_per_task)
    num_records = num_tasks * records_per_task
    dataset = make_labeling_workload(num_records=num_records, seed=seed)
    for threshold in thresholds:
        config = CLAMShellConfig(
            pool_size=pool_size,
            records_per_task=records_per_task,
            pool_batch_ratio=1.0,
            straggler_mitigation=False,
            maintenance_threshold=threshold,
            learning_strategy=LearningStrategy.NONE,
            seed=seed,
        )
        run = run_configuration(
            config,
            dataset,
            num_records=num_records,
            label=f"PM{threshold}" if threshold else "PMinf",
        )
        histogram: dict[int, int] = {}
        for event in run.replacements:
            if event.batch_index is None:
                continue
            histogram[event.batch_index] = histogram.get(event.batch_index, 0) + 1
        result.runs.append(
            ThresholdRun(threshold=threshold, run=run, replacements_over_time=histogram)
        )
    return result
