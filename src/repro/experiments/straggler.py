"""Experiments F9-F11: straggler mitigation (§6.3).

The paper gives workers CIFAR-10 tasks with Ng = 5 and a pool of Np = 15, and
varies the pool-to-batch ratio R.  It reports:

* Figure 9 — per-batch standard deviation of task latencies drops 5-10x with
  mitigation on;
* Figure 10 — points labeled over time: mitigation finishes batches up to 5x
  faster because it never waits on stragglers;
* Figure 11 — the summary: cost rises 1-2x, latency improves 2.5-5x, and
  variance improves 4-14x; R between 0.75 and 1 is the sweet spot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ..core.config import CLAMShellConfig, LearningStrategy
from ..core.batcher import RunResult
from ..crowd.tasks import AssignmentStatus
from .common import make_labeling_workload, run_configuration

#: Pool-to-batch ratios studied in §6.3.
DEFAULT_RATIOS: tuple[float, ...] = (0.75, 1.0, 3.0)


@dataclass
class StragglerComparison:
    """Paired runs (mitigation on/off) at one pool-to-batch ratio R."""

    ratio: float
    with_mitigation: RunResult
    without_mitigation: RunResult

    @property
    def latency_speedup(self) -> float:
        on = self.with_mitigation.total_wall_clock
        return self.without_mitigation.total_wall_clock / on if on > 0 else float("inf")

    @property
    def stddev_reduction(self) -> float:
        """Mean per-batch task-latency std without mitigation over with it."""
        on = self.with_mitigation.per_batch_stddevs()
        off = self.without_mitigation.per_batch_stddevs()
        on_mean = float(on.mean()) if on.size else 0.0
        off_mean = float(off.mean()) if off.size else 0.0
        if on_mean <= 0:
            return float("inf")
        return off_mean / on_mean

    @property
    def cost_increase(self) -> float:
        off = self.without_mitigation.total_cost
        return self.with_mitigation.total_cost / off if off > 0 else float("inf")


@dataclass
class StragglerExperimentResult:
    """The Figure 9/10/11 content across ratios."""

    comparisons: list[StragglerComparison] = field(default_factory=list)

    def summary_rows(self) -> list[list[object]]:
        """Figure-11-style rows: R, latency speedup, stddev reduction, cost increase."""
        return [
            [
                comparison.ratio,
                comparison.latency_speedup,
                comparison.stddev_reduction,
                comparison.cost_increase,
            ]
            for comparison in self.comparisons
        ]


def _straggler_config(
    ratio: float,
    mitigation: bool,
    pool_size: int,
    records_per_task: int,
    seed: int,
    max_extra_assignments: Optional[int] = None,
) -> CLAMShellConfig:
    return CLAMShellConfig(
        pool_size=pool_size,
        records_per_task=records_per_task,
        pool_batch_ratio=ratio,
        straggler_mitigation=mitigation,
        maintenance_threshold=None,
        max_extra_assignments=max_extra_assignments,
        learning_strategy=LearningStrategy.NONE,
        seed=seed,
    )


def run_straggler_experiment(
    ratios: Sequence[float] = DEFAULT_RATIOS,
    num_tasks: int = 80,
    pool_size: int = 15,
    records_per_task: int = 5,
    seed: int = 0,
    max_extra_assignments: Optional[int] = None,
) -> StragglerExperimentResult:
    """Run the §6.3 experiment: SM on/off across pool-to-batch ratios.

    ``max_extra_assignments`` bounds mitigation duplication per task
    (``None`` reproduces the paper's unlimited behaviour).
    """
    result = StragglerExperimentResult()
    num_records = num_tasks * records_per_task
    dataset = make_labeling_workload(num_records=num_records, seed=seed)
    for ratio in ratios:
        with_mitigation = run_configuration(
            _straggler_config(
                ratio, True, pool_size, records_per_task, seed,
                max_extra_assignments=max_extra_assignments,
            ),
            dataset,
            num_records=num_records,
            label=f"SM R={ratio:g}",
        )
        without_mitigation = run_configuration(
            _straggler_config(ratio, False, pool_size, records_per_task, seed),
            dataset,
            num_records=num_records,
            label=f"NoSM R={ratio:g}",
        )
        result.comparisons.append(
            StragglerComparison(
                ratio=ratio,
                with_mitigation=with_mitigation,
                without_mitigation=without_mitigation,
            )
        )
    return result


def fastest_worker_share(run: RunResult) -> float:
    """Fraction of completed assignments done by the fastest quartile of workers.

    Under straggler mitigation the fastest workers complete the majority of
    tasks (§4.1); this measures that concentration for a finished run.
    """
    completed = [
        a for a in run.assignments() if a.status is AssignmentStatus.COMPLETED
    ]
    if not completed:
        return 0.0
    durations: dict[int, list[float]] = {}
    counts: dict[int, int] = {}
    for assignment in completed:
        durations.setdefault(assignment.worker_id, []).append(assignment.elapsed)
        counts[assignment.worker_id] = counts.get(assignment.worker_id, 0) + 1
    mean_by_worker = {w: float(np.mean(v)) for w, v in durations.items()}
    ordered = sorted(mean_by_worker, key=mean_by_worker.get)
    quartile = max(1, len(ordered) // 4)
    fast_workers = set(ordered[:quartile])
    fast_completions = sum(counts[w] for w in fast_workers)
    return fast_completions / len(completed)
