"""Experiments F12-F14: combining per-batch techniques and TermEst (§6.4).

* Figure 12 — the 2x2 factorial of straggler mitigation x pool maintenance:
  combining both is never worse than using neither, with up to a 6x latency
  and 15x standard-deviation reduction, though interference between the two
  is possible on individual runs;
* Figure 13 — the per-assignment timeline for one run of each configuration
  (start/end of every assignment, completed versus terminated);
* Figure 14 — the worker replacement rate with and without TermEst: without
  it, straggler mitigation censors slow workers' latencies and maintenance
  stops replacing anyone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..core.config import CLAMShellConfig, LearningStrategy
from ..core.batcher import RunResult
from ..crowd.tasks import Assignment
from .common import make_labeling_workload, run_configuration

#: The four §6.4 configurations: (straggler mitigation, pool maintenance).
COMBINED_CONFIGURATIONS: tuple[tuple[str, bool, bool], ...] = (
    ("NoSM/PMinf", False, False),
    ("NoSM/PM8", False, True),
    ("SM/PMinf", True, False),
    ("SM/PM8", True, True),
)


@dataclass
class CombinedExperimentResult:
    """The Figure 12/13 content."""

    runs: dict[str, RunResult] = field(default_factory=dict)

    def summary_rows(self) -> list[list[object]]:
        """Figure-12-style rows: config, latency, batch stddev, cost."""
        return [
            [
                label,
                run.total_wall_clock,
                run.batch_latency_std(),
                run.total_cost,
            ]
            for label, run in self.runs.items()
        ]

    def speedup_over_baseline(self, label: str = "SM/PM8") -> float:
        """Latency of the unoptimised run divided by the given configuration's."""
        baseline = self.runs["NoSM/PMinf"].total_wall_clock
        optimized = self.runs[label].total_wall_clock
        return baseline / optimized if optimized > 0 else float("inf")

    def assignment_timelines(self) -> dict[str, list[Assignment]]:
        """The Figure-13 per-assignment view for each configuration."""
        return {label: list(run.assignments()) for label, run in self.runs.items()}


def _combined_config(
    mitigation: bool,
    maintenance: bool,
    pool_size: int,
    records_per_task: int,
    threshold: float,
    seed: int,
    max_extra_assignments: Optional[int] = None,
) -> CLAMShellConfig:
    return CLAMShellConfig(
        pool_size=pool_size,
        records_per_task=records_per_task,
        pool_batch_ratio=1.0,
        straggler_mitigation=mitigation,
        maintenance_threshold=threshold if maintenance else None,
        max_extra_assignments=max_extra_assignments,
        learning_strategy=LearningStrategy.NONE,
        seed=seed,
    )


def run_combined_experiment(
    num_tasks: int = 100,
    pool_size: int = 15,
    records_per_task: int = 5,
    threshold: float = 8.0,
    seed: int = 0,
    max_extra_assignments: Optional[int] = None,
) -> CombinedExperimentResult:
    """Run the 2x2 straggler-mitigation x pool-maintenance factorial."""
    result = CombinedExperimentResult()
    num_records = num_tasks * records_per_task
    dataset = make_labeling_workload(num_records=num_records, seed=seed)
    for label, mitigation, maintenance in COMBINED_CONFIGURATIONS:
        result.runs[label] = run_configuration(
            _combined_config(
                mitigation, maintenance, pool_size, records_per_task, threshold, seed,
                max_extra_assignments=max_extra_assignments,
            ),
            dataset,
            num_records=num_records,
            label=label,
        )
    return result


@dataclass
class TermEstComparison:
    """Figure 14: replacement counts with and without TermEst, SM on."""

    with_termest: RunResult
    without_termest: RunResult
    no_mitigation_reference: RunResult

    @property
    def replacements_with(self) -> int:
        return len(self.with_termest.replacements)

    @property
    def replacements_without(self) -> int:
        return len(self.without_termest.replacements)

    @property
    def replacements_reference(self) -> int:
        return len(self.no_mitigation_reference.replacements)

    def summary_rows(self) -> list[list[object]]:
        return [
            ["SM + TermEst(alpha=1)", self.replacements_with],
            ["SM without TermEst", self.replacements_without],
            ["NoSM reference", self.replacements_reference],
        ]


def run_termest_experiment(
    num_tasks: int = 100,
    pool_size: int = 15,
    records_per_task: int = 5,
    threshold: float = 8.0,
    termest_alpha: float = 1.0,
    seed: int = 0,
    max_extra_assignments: Optional[int] = None,
) -> TermEstComparison:
    """Run the Figure-14 ablation: does TermEst restore the replacement rate?"""
    num_records = num_tasks * records_per_task
    dataset = make_labeling_workload(num_records=num_records, seed=seed)

    def config(mitigation: bool, use_termest: bool) -> CLAMShellConfig:
        return CLAMShellConfig(
            pool_size=pool_size,
            records_per_task=records_per_task,
            pool_batch_ratio=1.0,
            straggler_mitigation=mitigation,
            maintenance_threshold=threshold,
            max_extra_assignments=max_extra_assignments,
            use_termest=use_termest,
            termest_alpha=termest_alpha,
            learning_strategy=LearningStrategy.NONE,
            seed=seed,
        )

    runs = {}
    for label, mitigation, use_termest in (
        ("with", True, True),
        ("without", True, False),
        ("reference", False, True),
    ):
        runs[label] = run_configuration(
            config(mitigation, use_termest),
            dataset,
            num_records=num_records,
            label=f"termest-{label}",
        )
    return TermEstComparison(
        with_termest=runs["with"],
        without_termest=runs["without"],
        no_mitigation_reference=runs["reference"],
    )
