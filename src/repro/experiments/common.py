"""Shared plumbing for the experiment drivers.

Every driver in ``repro.experiments`` reproduces one figure or table from the
paper's evaluation (§6).  They all need the same scaffolding: a worker
population shaped like the live MTurk pools, a labeling workload of the right
size and task complexity, and a way to run a configuration end to end and
collect metrics.  Scale parameters default to the scale the paper's claims
are judged at (:mod:`.artifacts`), which finishes in seconds; where the
paper's own scale differs, the driver's docstring notes it.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from ..api.engine import Engine, JobSpec
from ..api.events import ProgressEvent
from ..core.batcher import RunResult
from ..core.config import CLAMShellConfig
from ..crowd.traces import default_simulation_population
from ..crowd.worker import PopulationParameters, WorkerPopulation
from ..learning.datasets import Dataset


def make_labeling_workload(
    num_records: int = 500, num_classes: int = 2, seed: int = 0
) -> Dataset:
    """A minimal dataset for labeling-only experiments (Figures 3-14).

    The per-batch experiments measure crowd latency, not model quality, so
    the records carry trivial two-dimensional features; what matters is that
    there are ``num_records`` of them with ground-truth labels for the
    simulated workers to (mostly) agree with.
    """
    if num_records < 1:
        raise ValueError("num_records must be >= 1")
    rng = np.random.default_rng(seed)
    y = rng.integers(0, num_classes, size=num_records)
    X = rng.normal(size=(num_records, 2)) + y[:, None]
    indices = np.arange(num_records)
    return Dataset(
        name="labeling-workload",
        X=X.astype(float),
        y=y.astype(int),
        train_indices=indices,
        test_indices=indices[: max(1, num_records // 10)],
        num_classes=num_classes,
        source={
            "generator": "labeling_workload",
            "params": {
                "num_records": num_records,
                "num_classes": num_classes,
                "seed": seed,
            },
        },
    )


def mixed_speed_population(seed: int = 0) -> WorkerPopulation:
    """A worker population with a pronounced slow tail.

    Per-worker mean latency is log-normal with median ~8 s/record and a tail
    stretching to minutes, the regime in which pool maintenance and straggler
    mitigation have the most to gain (matching the Figure 5/8 latency
    buckets: fast < 4 s, medium 5-7 s, slow >= 8 s per label).
    """
    return WorkerPopulation(
        parameters=PopulationParameters(
            log_mean_latency=np.log(8.0),
            log_std_latency=0.8,
            relative_std=0.5,
            relative_std_noise=0.4,
        ),
        seed=seed,
        source={"factory": "mixed_speed", "seed": seed},
    )


def fast_population(seed: int = 0) -> WorkerPopulation:
    """A tighter, faster population approximating a well-qualified pool."""
    return default_simulation_population(seed=seed, fast_pool=True)


def run_configuration(
    config: CLAMShellConfig,
    dataset: Dataset,
    population: Optional[WorkerPopulation] = None,
    num_records: int = 500,
    label: str = "",
    on_event: Optional[Callable[[ProgressEvent], None]] = None,
) -> RunResult:
    """Run one configuration against a fresh platform and return its result.

    Execution goes through the :mod:`repro.api` engine; pass ``on_event`` to
    observe the per-batch :class:`ProgressEvent` stream while the run
    advances.
    """
    population = population if population is not None else mixed_speed_population(seed=config.seed)
    spec = JobSpec(
        dataset=dataset,
        config=config,
        population=population,
        num_records=num_records,
        name=label or config.describe(),
    )
    return Engine().run(spec, on_event=on_event)


def format_table(headers: list[str], rows: list[list[object]]) -> str:
    """Plain-text table formatting for benchmark output."""
    all_rows = [headers] + [[_format_cell(c) for c in row] for row in rows]
    widths = [max(len(str(row[i])) for row in all_rows) for i in range(len(headers))]
    lines = []
    for index, row in enumerate(all_rows):
        line = "  ".join(str(cell).ljust(widths[i]) for i, cell in enumerate(row))
        lines.append(line.rstrip())
        if index == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _format_cell(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.2f}"
    return str(cell)
