"""The CLAMShell facade: one object that wires the whole system together.

Typical use::

    from repro import CLAMShell, full_clamshell, make_mnist_like
    from repro.crowd import default_simulation_population

    dataset = make_mnist_like(seed=1)
    system = CLAMShell(
        config=full_clamshell(pool_size=15),
        dataset=dataset,
        population=default_simulation_population(seed=1),
    )
    result = system.run(num_records=500)
    print(result.final_accuracy, result.metrics.total_wall_clock)

The facade is a thin compatibility wrapper over the :mod:`repro.api` engine:
``run`` delegates to the same single execution path the
:class:`~repro.api.engine.Engine` uses (:func:`repro.api.engine.build_run`),
``run_iter`` exposes the per-batch
:class:`~repro.api.events.ProgressEvent` stream directly, and
``to_job_spec`` converts the facade's configuration into a
:class:`~repro.api.engine.JobSpec` for submission to an engine.  Each run
uses a fresh platform, created through the crowd-backend registry, so
repeated runs are independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from ..api.backends import CrowdBackend
from ..api.events import ProgressEvent, drain_stream
from ..crowd.traces import default_simulation_population
from ..crowd.worker import WorkerPopulation
from ..learning.datasets import Dataset
from ..learning.learners import BaseLearner
from ..learning.retrainer import DecisionLatencyModel
from .batcher import Batcher, RunResult
from .config import CLAMShellConfig, full_clamshell


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


class CLAMShell:
    """End-to-end low-latency crowd labeling system (legacy facade)."""

    def __init__(
        self,
        config: Optional[CLAMShellConfig] = None,
        dataset: Optional[Dataset] = None,
        population: Optional[WorkerPopulation] = None,
        learner: Optional[BaseLearner] = None,
        decision_latency: Optional[DecisionLatencyModel] = None,
    ) -> None:
        self.config = config or full_clamshell()
        self.dataset = dataset
        # `is None`, not truthiness: parametric populations have len() == 0,
        # so `population or default` silently replaced a caller's population
        # with the default one — the facade then simulated a different crowd
        # than an Engine run built from the very same inputs.
        self.population = (
            population
            if population is not None
            else default_simulation_population(seed=self.config.seed)
        )
        self._learner_override = learner
        self._decision_latency = decision_latency
        self.last_platform: Optional[CrowdBackend] = None
        self.last_batcher: Optional[Batcher] = None

    # -- the new API --------------------------------------------------------------

    def to_job_spec(
        self,
        num_records: int = 500,
        accuracy_target: Optional[float] = None,
        max_batches: int = 1000,
    ):
        """This facade's configuration as an engine-submittable ``JobSpec``."""
        from ..api.engine import JobSpec

        if self.dataset is None:
            raise ValueError("a dataset is required to run CLAMShell")
        # Only an explicit learner travels as a factory; otherwise the run's
        # Batcher builds one from the config, as for any engine job.
        learner = self._learner_override
        return JobSpec(
            dataset=self.dataset,
            config=self.config,
            population=self.population,
            num_records=num_records,
            accuracy_target=accuracy_target,
            max_batches=max_batches,
            learner_factory=None if learner is None else (lambda: learner),
            decision_latency=self._decision_latency,
        )

    # -- running -----------------------------------------------------------------

    def run_iter(
        self,
        num_records: int = 500,
        accuracy_target: Optional[float] = None,
        max_batches: int = 1000,
    ) -> Iterator[ProgressEvent]:
        """Stream the run: one :class:`ProgressEvent` per batch.

        The platform and batcher are wired eagerly (so ``last_platform`` /
        ``last_batcher`` are set as soon as this returns); the final event
        carries the same :class:`RunResult` that :meth:`run` returns.
        """
        from ..api.engine import build_run

        spec = self.to_job_spec(
            num_records=num_records,
            accuracy_target=accuracy_target,
            max_batches=max_batches,
        )
        platform, batcher = build_run(spec)
        self.last_platform = platform
        self.last_batcher = batcher
        return batcher.run_iter(
            num_records=num_records,
            accuracy_target=accuracy_target,
            max_batches=max_batches,
        )

    def run(
        self,
        num_records: int = 500,
        accuracy_target: Optional[float] = None,
        max_batches: int = 1000,
    ) -> RunResult:
        """Label ``num_records`` records (or stop at ``accuracy_target``)."""
        return drain_stream(
            self.run_iter(
                num_records=num_records,
                accuracy_target=accuracy_target,
                max_batches=max_batches,
            )
        )

    # -- guidance ------------------------------------------------------------------

    def pool_size_guidance(
        self, candidate_sizes: tuple[int, ...] = (5, 10, 15, 25, 50)
    ) -> list[PoolSizeGuidance]:
        """Expected per-batch latency and cost for a range of pool sizes."""
        guidance = []
        mean_latency = self.population.mean_latency() * self.config.records_per_task
        per_record = self.config.pay_rates.per_record
        waiting_per_second = self.config.pay_rates.waiting_per_minute / 60.0
        for pool_size in candidate_sizes:
            if pool_size < 1:
                raise ValueError("pool sizes must be >= 1")
            batch_tasks = max(1, int(round(pool_size / self.config.pool_batch_ratio)))
            waves = -(-batch_tasks // pool_size)  # ceil division
            batch_seconds = waves * mean_latency
            cost = (
                batch_tasks * self.config.records_per_task * per_record
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
