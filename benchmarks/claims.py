"""The claims harness: the paper's evaluation (§6) as plain tests over seeds.

Every ``bench_*.py`` reruns the experiment behind one table or figure on the
simulated crowd substrate and states the paper's claims about it.  Absolute
numbers are not expected to match the paper (the substrate is a simulator,
not MTurk); the *shape* — who wins and by roughly what factor — is what a
claim asserts.  Run them with::

    PYTHONPATH=src python -m pytest benchmarks -q

A claim is judged over every seed in :data:`CLAIM_SEEDS`, declared before
any result was seen.  A numeric claim passes when its median meets the
threshold and at least two thirds of the seeds meet it too; a boolean claim
passes when at least two thirds of the seeds hold it.  An invariant, judged
with ``every_seed=True``, must hold on every seed.  ``conftest.py`` prints
one verdict row per claim at the end of the run.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from repro.experiments.end_to_end import EndToEndResult, run_end_to_end_experiment
from repro.experiments.pool_maintenance import (
    PoolMaintenanceExperimentResult,
    run_pool_maintenance_experiment,
)
from repro.experiments.straggler import StragglerExperimentResult, run_straggler_experiment

CLAIM_SEEDS = tuple(range(20))

_COMPARE: dict[str, Callable[[Any, Any], bool]] = {
    ">": operator.gt,
    ">=": operator.ge,
    "<": operator.lt,
    "<=": operator.le,
    "==": operator.eq,
}


@dataclass(frozen=True)
class Verdict:
    """One claim judged over a seed set."""

    claim: str
    rule: str
    median: float
    low: float
    high: float
    agreeing: int
    seeds: int
    passed: bool

    def row(self) -> str:
        return (
            f"{'PASS' if self.passed else 'FAIL'}  {self.claim}: {self.rule}  "
            f"median {self.median:.3g}  range {self.low:.3g}-{self.high:.3g}  "
            f"{self.agreeing}/{self.seeds} seeds agree"
        )


#: Every verdict judged this session, printed by ``conftest.pytest_terminal_summary``.
VERDICTS: list[Verdict] = []


def judge(
    claim: str,
    values: Sequence[Any],
    op: str = "==",
    threshold: Any = True,
    every_seed: bool = False,
) -> Verdict:
    """Judge ``value <op> threshold`` over one value per seed.

    With the default ``== True`` the values are booleans and the claim is
    that they hold.  The median must meet the threshold, and at least two
    thirds of the values must meet it too, or all of them when
    ``every_seed`` is set.
    """
    compare = _COMPARE[op]
    numbers = np.asarray(values, dtype=float)
    median = float(np.median(numbers))
    agreeing = sum(bool(compare(value, threshold)) for value in values)
    enough = agreeing == len(values) if every_seed else 3 * agreeing >= 2 * len(values)
    rule = "holds" if threshold is True else f"{op} {threshold:g}"
    return Verdict(
        claim=claim,
        rule=f"{rule} on every seed" if every_seed else rule,
        median=median,
        low=float(np.nanmin(numbers)),
        high=float(np.nanmax(numbers)),
        agreeing=agreeing,
        seeds=len(values),
        passed=bool(compare(median, threshold)) and enough,
    )


def check(*verdicts: Verdict) -> None:
    """Record the verdicts and fail with every failed claim's row."""
    VERDICTS.extend(verdicts)
    failed = [verdict.row() for verdict in verdicts if not verdict.passed]
    assert not failed, "\n".join(failed)


def over_seeds(experiment: Callable[..., Any]) -> list[Any]:
    """``experiment(seed=seed)`` for every claim seed."""
    return [experiment(seed=seed) for seed in CLAIM_SEEDS]


def by_comparison(results: Sequence[Any]) -> Iterator[tuple[Any, ...]]:
    """Regroup the results' ``comparisons``: one tuple per comparison,
    holding that comparison from every seed."""
    return zip(*(result.comparisons for result in results), strict=True)


# Experiments that several figures read, each run once per seed per session.


@functools.cache
def end_to_end(seed: int) -> EndToEndResult:
    """Figures 17 and 18 and the §6.6 headline numbers."""
    return run_end_to_end_experiment(num_records=250, pool_size=10, seed=seed)


@functools.cache
def straggler(seed: int) -> StragglerExperimentResult:
    """Figures 9, 10 and 11."""
    return run_straggler_experiment(num_tasks=80, ratios=(0.75, 1.0, 3.0), seed=seed)


@functools.cache
def pool_maintenance(seed: int) -> PoolMaintenanceExperimentResult:
    """Figures 3 and 4, at the paper's 500 tasks."""
    return run_pool_maintenance_experiment(num_tasks=500, seed=seed)

