"""Latency, variance, and cost accounting.

The Crowd Labeling Problem (Problem 1 in §2.2) scores a run by a weighted
combination of its latency ``l`` and cost ``c`` with a user preference
``beta``.  The paper prints the metric as ``1/(beta*l + (1-beta)*c)``; the
quantity actually being driven down is the weighted sum
``beta*l + (1-beta)*c``, so :class:`ObjectiveValue` exposes both forms and
experiments can report either.

Costs follow the live-deployment pay rates: workers are paid per minute while
waiting in the retainer pool and per record once work arrives, and they are
paid for terminated (pre-empted) assignments too (§4.1).

A finished run's record also carries its simulator-side
:class:`ExecutionStats` and, through :class:`RunFingerprint`, the one
definition of "the same run" that every entry point, test and benchmark
compares by.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping, Sequence

import numpy as np

from ..crowd.platform import SimulatedCrowdPlatform, split_probe_counters
from ..crowd.worker import WorkerPopulation
from .config import CLAMShellConfig, PayRates

if TYPE_CHECKING:
    from .batcher import RunResult


@dataclass
class CostModel:
    """Translates platform counters into dollars."""

    rates: PayRates = field(default_factory=PayRates)

    def waiting_cost(self, waiting_seconds: float) -> float:
        return self.rates.waiting_per_minute * waiting_seconds / 60.0

    def labeling_cost(self, records_paid: int) -> float:
        return self.rates.per_record * records_paid

    def recruitment_cost(self, recruitment_seconds: float) -> float:
        """Cost of keeping background recruits on retainer until they are seated."""
        return self.rates.waiting_per_minute * recruitment_seconds / 60.0

    def total_cost(self, platform: SimulatedCrowdPlatform) -> float:
        """Total dollars spent on a run, from the platform's raw counters."""
        waiting = platform.pool.total_waiting_seconds()
        return (
            self.waiting_cost(waiting)
            + self.labeling_cost(platform.counters.records_labeled_paid)
            + self.recruitment_cost(platform.reserve.total_recruitment_seconds)
        )


@dataclass(frozen=True)
class ExecutionStats:
    """Simulator-side measurements of one completed run.

    The Batcher reads them off the platform once, when the run has settled
    (:func:`collect_stats`), into :attr:`RunResult.stats`.  They describe
    how much simulation the run performed, independent of the wall-clock
    time it took, and are what the benchmark subsystem (:mod:`repro.bench`)
    serialises.
    """

    #: Simulation seconds the run covered (the platform clock at the end).
    sim_seconds: float
    #: Events popped from the platform's event queue during the run.
    events_processed: int
    #: Events scheduled onto the queue during the run.
    events_scheduled: int
    #: Records the run produced consensus labels for.
    labels: int
    #: Total dollars spent (waiting + labeling + recruitment).
    total_cost: float
    #: Raw platform counters (assignments, recruitment, abandonment, ...)
    #: plus the pool's accrued waiting/working seconds.
    counters: dict[str, float]

    def merged_with(self, other: "ExecutionStats") -> "ExecutionStats":
        """Aggregate stats across independent runs (sums everywhere)."""
        counters = dict(self.counters)
        for key, value in other.counters.items():
            counters[key] = counters.get(key, 0) + value
        return ExecutionStats(
            sim_seconds=self.sim_seconds + other.sim_seconds,
            events_processed=self.events_processed + other.events_processed,
            events_scheduled=self.events_scheduled + other.events_scheduled,
            labels=self.labels + other.labels,
            total_cost=self.total_cost + other.total_cost,
            counters=counters,
        )


def collect_stats(platform: SimulatedCrowdPlatform, result: "RunResult") -> ExecutionStats:
    """Read an :class:`ExecutionStats` off a platform after a finished run."""
    counters = {
        key: float(value)
        for key, value in dataclasses.asdict(platform.counters).items()
    }
    counters["waiting_seconds"] = float(platform.pool.total_waiting_seconds())
    counters["working_seconds"] = float(platform.pool.total_working_seconds())
    return ExecutionStats(
        sim_seconds=float(platform.now),
        events_processed=platform.queue.events_processed,
        events_scheduled=platform.queue.events_scheduled,
        labels=result.records_labeled,
        total_cost=float(result.total_cost),
        counters=counters,
    )


@dataclass(frozen=True)
class RunFingerprint:
    """A run reduced to what a rerun of its spec must reproduce.

    ``behaviour`` holds the ``(record, label)`` pairs in record order and
    every :class:`ExecutionStats` field but the probe counters (the label
    count is ``len(labels)``): the same on every executor and in either
    dispatch mode.  ``probes`` holds the dispatch-probe counters, which
    only runs in the same mode share.  Wall time is in neither part.
    ``digest`` is the sha256 hex of ``behaviour`` as JSON with sorted keys,
    no whitespace and each float as its exact ``repr``.
    """

    behaviour: dict[str, Any]
    probes: dict[str, float]
    digest: str

    @classmethod
    def of(cls, labels: Mapping[int, int], stats: ExecutionStats) -> "RunFingerprint":
        counters, probes = split_probe_counters(stats.counters)
        behaviour = {
            "labels": sorted(labels.items()),
            "sim_seconds": stats.sim_seconds,
            "events_processed": stats.events_processed,
            "events_scheduled": stats.events_scheduled,
            "total_cost": stats.total_cost,
            "counters": counters,
        }
        # ``default=int`` encodes NumPy integer labels as the ints they equal.
        encoded = json.dumps(behaviour, sort_keys=True, separators=(",", ":"), default=int)
        return cls(behaviour, probes, hashlib.sha256(encoded.encode()).hexdigest())


@dataclass
class PoolSizeGuidance:
    """Rough latency/cost guidance for a candidate pool size (§2.2, item 1).

    CLAMShell "provides guidance about how the cost and latency will be
    affected by changing p": with ``p`` workers of mean latency ``mu`` and a
    batch of ``B`` tasks, a batch takes about ``ceil(B / p) * mu`` seconds,
    waiting cost accrues at ``p * waiting_rate`` and labeling cost is fixed
    per record.
    """

    pool_size: int
    expected_batch_seconds: float
    expected_cost_per_batch: float


def pool_size_guidance(
    config: CLAMShellConfig,
    population: WorkerPopulation,
    candidate_sizes: tuple[int, ...] = (5, 10, 15, 25, 50),
) -> list[PoolSizeGuidance]:
    """Expected per-batch latency and cost of ``config`` for a range of pool sizes."""
    guidance = []
    mean_latency = population.mean_latency() * config.records_per_task
    per_record = config.pay_rates.per_record
    waiting_per_second = config.pay_rates.waiting_per_minute / 60.0
    for pool_size in candidate_sizes:
        if pool_size < 1:
            raise ValueError("pool sizes must be >= 1")
        batch_tasks = max(1, int(round(pool_size / config.pool_batch_ratio)))
        waves = -(-batch_tasks // pool_size)  # ceil division
        batch_seconds = waves * mean_latency
        cost = (
            batch_tasks * config.records_per_task * per_record
            + pool_size * batch_seconds * waiting_per_second
        )
        guidance.append(
            PoolSizeGuidance(
                pool_size=pool_size,
                expected_batch_seconds=batch_seconds,
                expected_cost_per_batch=cost,
            )
        )
    return guidance


@dataclass(frozen=True)
class ObjectiveValue:
    """The Problem-1 objective for a run at a given beta."""

    latency_seconds: float
    cost_dollars: float
    beta: float

    @property
    def weighted_sum(self) -> float:
        """``beta * l + (1 - beta) * c`` — lower is better."""
        return self.beta * self.latency_seconds + (1.0 - self.beta) * self.cost_dollars

    @property
    def paper_metric(self) -> float:
        """The reciprocal form as printed in Problem 1 (§2.2)."""
        denominator = self.weighted_sum
        if denominator <= 0:
            return float("inf")
        return 1.0 / denominator


def crowd_labeling_objective(
    latency_seconds: float, cost_dollars: float, beta: float
) -> ObjectiveValue:
    """Evaluate the Problem-1 objective for a (latency, cost) outcome."""
    if not 0.0 <= beta <= 1.0:
        raise ValueError("beta must be in [0, 1]")
    if latency_seconds < 0 or cost_dollars < 0:
        raise ValueError("latency and cost must be non-negative")
    return ObjectiveValue(latency_seconds, cost_dollars, beta)


def variance_reduction_factor(
    baseline_latencies: Sequence[float], optimized_latencies: Sequence[float]
) -> float:
    """Ratio of baseline to optimised latency standard deviation.

    The headline §6.6 result reports a 151x reduction in the variability of
    label acquisition; this helper computes the analogous ratio for any two
    runs (values > 1 mean the optimised run is more predictable).
    """
    baseline = np.asarray(baseline_latencies, dtype=float)
    optimized = np.asarray(optimized_latencies, dtype=float)
    if baseline.size < 2 or optimized.size < 2:
        raise ValueError("need at least two latencies per run")
    optimized_std = optimized.std(ddof=1)
    if optimized_std == 0:
        return float("inf")
    return float(baseline.std(ddof=1) / optimized_std)


def speedup_factor(baseline_latency: float, optimized_latency: float) -> float:
    """Ratio of baseline to optimised latency (values > 1 mean faster)."""
    if baseline_latency <= 0 or optimized_latency <= 0:
        raise ValueError("latencies must be positive")
    return baseline_latency / optimized_latency
