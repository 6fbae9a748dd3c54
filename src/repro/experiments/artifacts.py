"""One declaration per paper artifact: the experiment behind each claimed
table or figure, at the scale its claims are judged.

``repro run <id>`` prints ``ARTIFACTS[id]`` and ``benchmarks/bench_*.py``
judge it, so the command runs exactly the experiment the claims judge.  A
driver that backs one artifact carries the claim scale as its defaults; an
artifact that shares a driver with another keeps in ``kwargs`` only what
differs.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from .combined import run_combined_experiment, run_termest_experiment
from .end_to_end import EndToEndResult, headline_numbers, run_end_to_end_experiment
from .extensions import run_quality_maintenance_experiment, run_reweighting_ablation
from .hybrid_learning import run_generated_dataset_experiment, run_real_dataset_experiment
from .pool_maintenance import run_pool_maintenance_experiment
from .simulation_claims import (
    run_convergence_experiment,
    run_decoupling_experiment,
    run_ratio_sweep,
    run_routing_policy_experiment,
)
from .straggler import run_straggler_experiment
from .summary import build_technique_matrix
from .taxonomy import TaxonomyExperimentResult, run_taxonomy_experiment
from .threshold_sweep import run_threshold_sweep


@dataclass(frozen=True)
class Table:
    """One titled table of an artifact's printout."""

    title: str
    headers: tuple[str, ...]
    rows: list[list[object]]


@dataclass(frozen=True)
class Artifact:
    """A claimed table or figure: its driver, claim-scale keyword arguments
    and a printer from the driver's result to titled tables."""

    id: str
    title: str
    driver: Callable[..., Any]
    printer: Callable[[Any], list[Table]]
    kwargs: Mapping[str, Any] = field(default_factory=dict)

    def run(self, seed: int = 0, **options: Any) -> Any:
        """The experiment the claims judge for ``seed``."""
        return self.driver(seed=seed, **self.kwargs, **options)

    def accepts(self, option: str) -> bool:
        """Whether the driver takes the keyword argument ``option``."""
        return option in inspect.signature(self.driver).parameters


_MEASURED = ("metric", "measured", "paper")
_MAINTENANCE = (
    "complexity", "latency PM8", "latency PMinf", "speedup", "cost PM8", "cost PMinf", "ratio"
)
_FACTORIAL = ("config", "total latency (s)", "batch std (s)", "cost ($)")
_STRATEGIES = ("dataset", "r", "active", "passive", "hybrid", "best")


def _one_table(
    id: str,
    title: str,
    driver: Callable[..., Any],
    headers: tuple[str, ...],
    rows: Callable[[Any], list[list[object]]],
    **kwargs: Any,
) -> Artifact:
    """An artifact that prints the one table ``rows(result)`` under its title."""
    return Artifact(id, title, driver, lambda result: [Table(title, headers, rows(result))], kwargs)


def _taxonomy_tables(result: TaxonomyExperimentResult) -> list[Table]:
    return [
        Table(
            "Table 1 — latency sources",
            ("granularity", "source", "addressed by"),
            [list(row) for row in result.taxonomy.rows()],
        ),
        Table("S2.1 — deployment statistics", _MEASURED, result.headline_rows()),
    ]


def _end_to_end_tables(result: EndToEndResult) -> list[Table]:
    return [
        Table(
            f"Figure 17 — time to accuracy on {comparison.dataset_name}",
            ("threshold", "CLAMShell", "Base-R", "Base-NR"),
            comparison.time_to_accuracy_rows(),
        )
        for comparison in result.comparisons
    ] + [Table("S6.6 headline numbers", _MEASURED, headline_numbers(result).rows())]


ARTIFACTS: dict[str, Artifact] = {
    artifact.id: artifact
    for artifact in (
        Artifact(
            "table1",
            "Table 1 / S2.1 — latency taxonomy of the medical deployment",
            run_taxonomy_experiment,
            _taxonomy_tables,
        ),
        _one_table(
            "fig2",
            "Figure 2 — deployment statistics over 300 workers",
            run_taxonomy_experiment,
            _MEASURED,
            lambda result: result.headline_rows(),
            num_workers=300,
        ),
        _one_table(
            "fig3-4",
            "Figures 3/4 — pool maintenance",
            run_pool_maintenance_experiment,
            _MAINTENANCE,
            lambda result: result.summary_rows(),
        ),
        _one_table(
            "fig5",
            "Figure 5 — pool maintenance, medium and complex tasks",
            run_pool_maintenance_experiment,
            _MAINTENANCE,
            lambda result: result.summary_rows(),
            num_tasks=120,
            complexities={"medium": 5, "complex": 10},
        ),
        _one_table(
            "fig6",
            "Figure 6 — pool maintenance, medium tasks",
            run_pool_maintenance_experiment,
            _MAINTENANCE,
            lambda result: result.summary_rows(),
            num_tasks=150,
            complexities={"medium": 5},
        ),
        _one_table(
            "fig7",
            "Figure 7 — maintenance threshold sweep",
            run_threshold_sweep,
            ("threshold", "replacements", "mean batch latency", "batch latency std"),
            lambda result: result.replacement_rows(),
        ),
        _one_table(
            "fig8",
            "Figure 8 — per-label latency percentiles (s) by threshold and worker age",
            run_threshold_sweep,
            ("threshold", "worker age", "p50", "p95", "p99"),
            lambda result: result.percentile_rows(),
            thresholds=(2.0, 8.0, 32.0, None),
        ),
        _one_table(
            "fig9-11",
            "Figures 9/10/11 — straggler mitigation",
            run_straggler_experiment,
            ("R", "latency speedup", "stddev reduction", "cost increase"),
            lambda result: result.summary_rows(),
        ),
        _one_table(
            "fig12",
            "Figure 12 — combining SM and PM",
            run_combined_experiment,
            _FACTORIAL,
            lambda result: result.summary_rows(),
        ),
        _one_table(
            "fig13",
            "Figure 13 — combining SM and PM, 60 tasks",
            run_combined_experiment,
            _FACTORIAL,
            lambda result: result.summary_rows(),
            num_tasks=60,
        ),
        _one_table(
            "fig14",
            "Figure 14 — TermEst ablation",
            run_termest_experiment,
            ("configuration", "workers replaced"),
            lambda result: result.summary_rows(),
        ),
        _one_table(
            "fig15",
            "Figure 15 — hybrid learning on generated datasets",
            run_generated_dataset_experiment,
            _STRATEGIES,
            lambda result: result.summary_rows(),
        ),
        _one_table(
            "fig16",
            "Figure 16 — hybrid learning on the MNIST/CIFAR stand-ins",
            run_real_dataset_experiment,
            _STRATEGIES,
            lambda result: result.summary_rows(),
        ),
        Artifact(
            "fig17-18",
            "Figures 17/18 + S6.6 — end-to-end comparison",
            run_end_to_end_experiment,
            _end_to_end_tables,
        ),
        _one_table(
            "table2",
            "Table 2 — technique impact matrix",
            build_technique_matrix,
            ("technique", "mean latency", "variance", "cost", "general"),
            lambda result: result.rows(),
        ),
        _one_table(
            "sec4.1-routing",
            "S4.1 — mean batch latency by straggler routing policy",
            run_routing_policy_experiment,
            ("policy", "mean batch latency (s)"),
            lambda result: result.rows(),
        ),
        _one_table(
            "sec4.1-ratio",
            "S4.1 — batch latency by pool-to-batch ratio",
            run_ratio_sweep,
            ("R", "mean batch latency (s)", "batch latency std (s)"),
            lambda result: result.rows(),
        ),
        _one_table(
            "sec4.1-decoupling",
            "S4.1 — decoupled vs naive quality control",
            run_decoupling_experiment,
            ("mitigation", "total latency (s)", "cost ($)"),
            lambda result: result.rows(),
        ),
        _one_table(
            "sec4.2-convergence",
            "S4.2 — mean pool latency, observed vs the convergence model",
            run_convergence_experiment,
            ("batch", "observed MPL (s)", "predicted MPL (s)"),
            lambda result: result.rows(),
        ),
        _one_table(
            "ext-quality-pool",
            "Extension — quality-maintained pools",
            run_quality_maintenance_experiment,
            ("pool", "label accuracy", "total latency (s)", "replacements"),
            lambda result: result.rows(),
        ),
        _one_table(
            "ext-reweighting",
            "Extension — hybrid re-weighting ablation",
            run_reweighting_ablation,
            ("active weight boost", "final accuracy"),
            lambda result: result.rows(),
        ),
    )
}
