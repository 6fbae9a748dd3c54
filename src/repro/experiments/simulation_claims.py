"""Experiment SIM: the simulation-only claims of §4.1 and §4.2.

Four claims from the design sections are checked in simulation:

1. *Routing-policy irrelevance* (§4.1) — under straggler mitigation, routing
   idle workers to a random active task performs as well as routing them to
   the longest-running task, the task with fewest active workers, or the task
   an oracle knows will finish slowest.
2. *Pool-to-batch ratio sweep* (§4.1) — mitigation's benefit grows with
   R = Npool / Nbatch, because higher ratios give every batch the full
   benefit of the fast workers.
3. *Maintenance convergence* (§4.2) — with maintenance, the pool's mean
   latency converges toward the analytic model
   E[mu] = (1 - q**(n+1)) mu_f + q**(n+1) mu_s, i.e. toward the fast-side
   conditional mean.
4. *Quality-control decoupling* (§4.1) — decoupling mitigation duplicates
   from quality-control redundancy saves up to ~30% batch latency compared
   with naively duplicating quality-controlled tasks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..core.config import CLAMShellConfig, LearningStrategy, StragglerRoutingPolicy
from ..core.maintainer import predicted_latency_series
from ..core.batcher import RunResult
from .common import make_labeling_workload, mixed_speed_population, run_configuration


# --------------------------------------------------------------------------
# Claim 1: routing policy irrelevance
# --------------------------------------------------------------------------

@dataclass
class RoutingPolicyResult:
    """Mean batch latency per routing policy."""

    latencies: dict[str, float] = field(default_factory=dict)

    def max_relative_spread(self) -> float:
        """(max - min) / min over policy mean latencies; small = irrelevant."""
        values = np.array(list(self.latencies.values()))
        if values.size == 0 or values.min() <= 0:
            return float("inf")
        return float((values.max() - values.min()) / values.min())

    def rows(self) -> list[list[object]]:
        return [[name, latency] for name, latency in self.latencies.items()]


def run_routing_policy_experiment(
    num_tasks: int = 90,
    pool_size: int = 15,
    records_per_task: int = 1,
    seed: int = 0,
) -> RoutingPolicyResult:
    """Compare the four straggler routing policies at matched seeds."""
    result = RoutingPolicyResult()
    num_records = num_tasks * records_per_task
    dataset = make_labeling_workload(num_records=num_records, seed=seed)
    for policy in StragglerRoutingPolicy:
        config = CLAMShellConfig(
            pool_size=pool_size,
            records_per_task=records_per_task,
            pool_batch_ratio=1.0,
            straggler_mitigation=True,
            straggler_routing=policy,
            maintenance_threshold=None,
            learning_strategy=LearningStrategy.NONE,
            seed=seed,
        )
        run = run_configuration(
            config,
            dataset,
            num_records=num_records,
            label=policy.value,
        )
        result.latencies[policy.value] = run.mean_batch_latency()
    return result


# --------------------------------------------------------------------------
# Claim 2: pool-to-batch ratio sweep
# --------------------------------------------------------------------------

@dataclass
class RatioSweepResult:
    """Per-batch latency and per-task throughput across R values."""

    rows_data: list[tuple[float, float, float]] = field(default_factory=list)

    def rows(self) -> list[list[object]]:
        return [[r, latency, stddev] for r, latency, stddev in self.rows_data]

    def latency_decreases_with_ratio(self) -> bool:
        """Mean batch latency at the highest R should not exceed that at the lowest."""
        if len(self.rows_data) < 2:
            return True
        ordered = sorted(self.rows_data)
        return ordered[-1][1] <= ordered[0][1]


def run_ratio_sweep(
    ratios: Sequence[float] = (0.5, 1.0, 2.0, 3.0),
    num_tasks: int = 60,
    pool_size: int = 15,
    seed: int = 0,
) -> RatioSweepResult:
    """Sweep R with straggler mitigation on."""
    result = RatioSweepResult()
    dataset = make_labeling_workload(num_records=num_tasks, seed=seed)
    for ratio in ratios:
        config = CLAMShellConfig(
            pool_size=pool_size,
            records_per_task=1,
            pool_batch_ratio=ratio,
            straggler_mitigation=True,
            maintenance_threshold=None,
            learning_strategy=LearningStrategy.NONE,
            seed=seed,
        )
        run = run_configuration(
            config,
            dataset,
            num_records=num_tasks,
            label=f"R={ratio:g}",
        )
        result.rows_data.append(
            (ratio, run.mean_batch_latency(), run.batch_latency_std())
        )
    return result


# --------------------------------------------------------------------------
# Claim 3: maintenance convergence toward the analytic model
# --------------------------------------------------------------------------

@dataclass
class ConvergenceResult:
    """Observed MPL per batch versus the analytic prediction."""

    observed_mpl: list[float]
    predicted_mpl: list[float]
    mu_fast: float
    mu_slow: float
    q: float
    initial_pool_latency: float
    final_pool_latency: float

    def converged_toward_fast_mean(self, slack: float = 0.35) -> bool:
        """Did the pool's true mean latency move toward mu_f (within slack)?

        The check is directional: the final pool mean must be closer to the
        fast-side conditional mean than the initial pool mean was, or already
        within ``slack`` (relative) of it.
        """
        initial_gap = abs(self.initial_pool_latency - self.mu_fast)
        final_gap = abs(self.final_pool_latency - self.mu_fast)
        within_slack = final_gap <= slack * max(self.mu_fast, 1e-9)
        return final_gap <= initial_gap or within_slack

    def rows(self) -> list[list[object]]:
        """Batch, observed MPL, predicted MPL: one row per batch that
        measured a pool latency, numbered from 1."""
        return [
            [batch, observed, predicted]
            for batch, (observed, predicted) in enumerate(
                zip(self.observed_mpl, self.predicted_mpl), start=1
            )
        ]


def run_convergence_experiment(
    num_batches: int = 25,
    pool_size: int = 15,
    threshold: float = 8.0,
    seed: int = 0,
) -> ConvergenceResult:
    """Maintain a pool over many batches and compare MPL with the model."""
    population = mixed_speed_population(seed=seed)
    q, mu_fast, mu_slow = population.split_by_threshold(threshold)
    num_records = num_batches * pool_size
    dataset = make_labeling_workload(num_records=num_records, seed=seed)
    config = CLAMShellConfig(
        pool_size=pool_size,
        records_per_task=1,
        pool_batch_ratio=1.0,
        straggler_mitigation=False,
        maintenance_threshold=threshold,
        learning_strategy=LearningStrategy.NONE,
        seed=seed,
    )
    run = run_configuration(
        config,
        dataset,
        population=population,
        num_records=num_records,
        label="convergence",
    )
    observed = [
        mpl for _, mpl in run.mean_pool_latency_curve() if mpl is not None
    ]
    predicted = predicted_latency_series(q, mu_fast, mu_slow, len(observed))

    initial_pool_latency = observed[0] if observed else float("nan")
    final_pool_latency = observed[-1] if observed else float("nan")
    return ConvergenceResult(
        observed_mpl=observed,
        predicted_mpl=predicted,
        mu_fast=mu_fast,
        mu_slow=mu_slow,
        q=q,
        initial_pool_latency=initial_pool_latency,
        final_pool_latency=final_pool_latency,
    )


# --------------------------------------------------------------------------
# Claim 4: quality-control decoupling
# --------------------------------------------------------------------------

@dataclass
class DecouplingResult:
    """Batch latency with and without QC decoupling, mitigation on."""

    decoupled: RunResult
    naive: RunResult

    @property
    def improvement(self) -> float:
        """Fractional latency improvement of decoupling over the naive combination."""
        naive_latency = self.naive.total_wall_clock
        if naive_latency <= 0:
            return 0.0
        return (naive_latency - self.decoupled.total_wall_clock) / naive_latency

    def rows(self) -> list[list[object]]:
        return [
            ["decoupled", self.decoupled.total_wall_clock, self.decoupled.total_cost],
            ["naive", self.naive.total_wall_clock, self.naive.total_cost],
            ["improvement", self.improvement, ""],
        ]


def run_decoupling_experiment(
    num_tasks: int = 40,
    pool_size: int = 15,
    votes_required: int = 3,
    seed: int = 0,
) -> DecouplingResult:
    """Quality-controlled labeling with decoupled vs naive mitigation."""
    num_records = num_tasks
    dataset = make_labeling_workload(num_records=num_records, seed=seed)

    def config(decouple: bool) -> CLAMShellConfig:
        return CLAMShellConfig(
            pool_size=pool_size,
            records_per_task=1,
            votes_required=votes_required,
            pool_batch_ratio=1.0,
            straggler_mitigation=True,
            decouple_quality_control=decouple,
            maintenance_threshold=None,
            learning_strategy=LearningStrategy.NONE,
            seed=seed,
        )

    decoupled = run_configuration(
        config(True),
        dataset,
        num_records=num_records,
        label="decoupled",
    )
    naive = run_configuration(
        config(False),
        dataset,
        num_records=num_records,
        label="naive",
    )
    return DecouplingResult(decoupled=decoupled, naive=naive)
