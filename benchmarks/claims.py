"""The claims harness: the paper's evaluation (§6) as plain tests over seeds.

Every ``bench_*.py`` reruns the experiment behind one table or figure
(its declaration in :mod:`repro.experiments.artifacts`) on the simulated
crowd substrate and states the paper's claims about it.  Absolute
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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from repro.api.engine import _process_context
from repro.experiments.artifacts import ARTIFACTS

CLAIM_SEEDS = tuple(range(20))
#: Processes :func:`over_seeds` maps the claim seeds over.
SEED_PROCESSES = 2
#: Records labeled per strategy in the paper's §6.6 comparison; the
#: ``fig17-18`` artifact judges 250 by default.
PAPER_RECORDS = 500

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


def run_artifact(artifact_id: str, seed: int, **options: Any) -> Any:
    """``ARTIFACTS[artifact_id]`` for one seed; a pool worker's task."""
    return ARTIFACTS[artifact_id].run(seed=seed, **options)


def over_seeds(artifact_id: str, **options: Any) -> list[Any]:
    """The experiment of ``ARTIFACTS[artifact_id]``, given the keyword
    ``options``, for every claim seed, in :data:`CLAIM_SEEDS` order.

    Each run is a pure function of its seed, so the seeds are mapped over
    :data:`SEED_PROCESSES` worker processes, started by the engine's process
    executor context (a fork server with NumPy and SciPy preloaded).
    """
    with ProcessPoolExecutor(
        max_workers=SEED_PROCESSES, mp_context=_process_context()
    ) as pool:
        run = functools.partial(run_artifact, artifact_id, **options)
        return list(pool.map(run, CLAIM_SEEDS))


#: :func:`over_seeds` run once per session, for the artifacts that several
#: files judge (``fig3-4``, ``fig9-11``, ``fig17-18`` at either scale).  The
#: others are not kept, so their results are freed after their test.
shared_over_seeds = functools.cache(over_seeds)


def by_comparison(results: Sequence[Any]) -> Iterator[tuple[Any, ...]]:
    """Regroup the results' ``comparisons``: one tuple per comparison,
    holding that comparison from every seed."""
    return zip(*(result.comparisons for result in results), strict=True)

