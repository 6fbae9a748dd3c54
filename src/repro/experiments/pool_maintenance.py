"""Experiments F3-F6: pool maintenance on labeling workloads (§6.2).

The paper labels 500 MNIST tasks at three complexities (Ng = 1, 5, 10) with
the maintenance threshold at PM8 and PM∞ (off), and reports:

* Figure 3 — cumulative points labeled over time per configuration;
* Figure 4 — end-to-end latency and cost with/without maintenance (1.3x and
  1.8x latency reduction for medium/complex tasks, 7-16% cost reduction);
* Figure 5 — per-label latency versus the worker's age in the pool
  (maintenance purges slow workers, so old workers are uniformly fast);
* Figure 6 — mean pool latency per batch (maintenance trims the long tail,
  reducing variance across batches).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..core.config import CLAMShellConfig, LearningStrategy
from ..core.batcher import RunResult
from ..crowd.tasks import AssignmentStatus
from .common import make_labeling_workload, mixed_speed_population, run_configuration

#: Task complexities studied: simple, medium, complex (records per HIT).
TASK_COMPLEXITIES = {"simple": 1, "medium": 5, "complex": 10}


@dataclass
class MaintenanceComparison:
    """Paired runs (maintenance on/off) for one task complexity."""

    complexity: str
    records_per_task: int
    with_maintenance: RunResult
    without_maintenance: RunResult

    @property
    def latency_speedup(self) -> float:
        """End-to-end latency of PM∞ divided by PM-on (values > 1 favour maintenance)."""
        on = self.with_maintenance.total_wall_clock
        off = self.without_maintenance.total_wall_clock
        return off / on if on > 0 else float("inf")

    @property
    def cost_ratio(self) -> float:
        """Cost of PM-on divided by PM∞ (values < 1 mean maintenance saves money)."""
        off = self.without_maintenance.total_cost
        return self.with_maintenance.total_cost / off if off > 0 else float("inf")

    def labels_over_time(self) -> dict[str, list[tuple[float, int]]]:
        """The two Figure-3 series for this complexity."""
        return {
            "maintained": self.with_maintenance.labels_over_time(),
            "unmaintained": self.without_maintenance.labels_over_time(),
        }

    def mean_pool_latency_curves(self) -> dict[str, list[tuple[int, Optional[float]]]]:
        """The two Figure-6 MPL-per-batch series for this complexity."""
        return {
            "maintained": self.with_maintenance.mean_pool_latency_curve(),
            "unmaintained": self.without_maintenance.mean_pool_latency_curve(),
        }


@dataclass
class PoolMaintenanceExperimentResult:
    """All complexities, the Figure 3/4/6 content."""

    comparisons: list[MaintenanceComparison] = field(default_factory=list)

    def summary_rows(self) -> list[list[object]]:
        """Figure-4-style rows: complexity, latency (on/off), speedup, cost ratio."""
        rows = []
        for comparison in self.comparisons:
            rows.append(
                [
                    comparison.complexity,
                    comparison.with_maintenance.total_wall_clock,
                    comparison.without_maintenance.total_wall_clock,
                    comparison.latency_speedup,
                    comparison.with_maintenance.total_cost,
                    comparison.without_maintenance.total_cost,
                    comparison.cost_ratio,
                ]
            )
        return rows


def _maintenance_config(
    records_per_task: int,
    threshold: Optional[float],
    pool_size: int,
    seed: int,
) -> CLAMShellConfig:
    return CLAMShellConfig(
        pool_size=pool_size,
        records_per_task=records_per_task,
        pool_batch_ratio=1.0,
        straggler_mitigation=False,
        maintenance_threshold=threshold,
        learning_strategy=LearningStrategy.NONE,
        seed=seed,
    )


def run_pool_maintenance_experiment(
    num_tasks: int = 500,
    pool_size: int = 15,
    threshold: float = 8.0,
    complexities: Optional[dict[str, int]] = None,
    seed: int = 0,
) -> PoolMaintenanceExperimentResult:
    """Run the §6.2 experiment at all task complexities, 500 tasks each as
    in the paper."""
    complexities = complexities or TASK_COMPLEXITIES
    result = PoolMaintenanceExperimentResult()
    for complexity, records_per_task in complexities.items():
        num_records = num_tasks * records_per_task
        dataset = make_labeling_workload(num_records=num_records, seed=seed)
        population = mixed_speed_population(seed=seed + records_per_task)
        maintained = run_configuration(
            _maintenance_config(records_per_task, threshold, pool_size, seed),
            dataset,
            population=population,
            num_records=num_records,
            label=f"{complexity}/PM{threshold:g}",
        )
        unmaintained = run_configuration(
            _maintenance_config(records_per_task, None, pool_size, seed),
            dataset,
            population=population,
            num_records=num_records,
            label=f"{complexity}/PMinf",
        )
        result.comparisons.append(
            MaintenanceComparison(
                complexity=complexity,
                records_per_task=records_per_task,
                with_maintenance=maintained,
                without_maintenance=unmaintained,
            )
        )
    return result


@dataclass(frozen=True)
class WorkerAgePoint:
    """One task in the Figure-5 scatter: worker age versus per-label latency."""

    worker_age: int
    per_label_latency: float
    complexity: str
    maintained: bool

    @property
    def speed_bucket(self) -> str:
        """Fast (<4 s), medium (5-7 s), slow (>=8 s) — Figure 5's colour coding."""
        if self.per_label_latency < 4.0:
            return "fast"
        if self.per_label_latency < 8.0:
            return "medium"
        return "slow"


def worker_age_points(
    run: RunResult, records_per_task: int, complexity: str, maintained: bool
) -> list[WorkerAgePoint]:
    """One point per completed assignment of ``run``.

    Worker age is the number of tasks the worker had completed before
    starting the plotted task; per-label latency is assignment duration
    divided by Ng.
    """
    points: list[WorkerAgePoint] = []
    completions_per_worker: dict[int, int] = {}
    for assignment in sorted(run.assignments(), key=lambda a: a.started_at):
        if assignment.status is not AssignmentStatus.COMPLETED:
            continue
        age = completions_per_worker.get(assignment.worker_id, 0)
        points.append(
            WorkerAgePoint(
                worker_age=age,
                per_label_latency=assignment.elapsed / records_per_task,
                complexity=complexity,
                maintained=maintained,
            )
        )
        completions_per_worker[assignment.worker_id] = age + 1
    return points


def worker_age_scatter(
    comparison: MaintenanceComparison,
) -> list[WorkerAgePoint]:
    """The Figure-5 scatter for one complexity, maintained runs first."""
    return [
        point
        for maintained, run in (
            (True, comparison.with_maintenance),
            (False, comparison.without_maintenance),
        )
        for point in worker_age_points(
            run, comparison.records_per_task, comparison.complexity, maintained
        )
    ]


def slow_task_fraction_by_age(
    points: list[WorkerAgePoint], age_cutoff: int, maintained: bool
) -> float:
    """Fraction of slow (>= 8 s/label) tasks among workers older than the cutoff.

    Figure 5's claim is that with maintenance, slow tasks disappear once
    workers have been in the pool a while; without it they persist.
    """
    old = [
        p for p in points if p.maintained == maintained and p.worker_age >= age_cutoff
    ]
    if not old:
        return 0.0
    return float(np.mean([p.speed_bucket == "slow" for p in old]))
