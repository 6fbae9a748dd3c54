"""The Batcher: full-run orchestration across batches.

The Batcher owns the outer loop of Figure 1: pick the next batch of records
(via the configured learning strategy or plain sequential selection), build
tasks, hand the batch to LifeGuard, fold the returned labels into the label
cache and the learner, retrain (pipelined, if asynchronous retraining is on),
and keep each batch's outcome and the learning curve.  It stops when the
requested number of records has been labeled, when an accuracy target is
hit, or when the training pool runs out of unlabeled records.

The Batcher talks to the crowd purely through the
:class:`~repro.api.backends.CrowdBackend` protocol, and a run can be consumed
as a stream: :meth:`Batcher.run_iter` yields a typed
:class:`~repro.api.events.ProgressEvent` per batch, and :meth:`Batcher.run`
is a thin wrapper that drains the stream and returns the final result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from ..api.backends import CrowdBackend
from ..api.events import ProgressEvent, ProgressKind, drain_stream
from ..crowd.tasks import Batch, TaskFactory
from ..learning.datasets import Dataset
from ..learning.learners import BaseLearner, BatchProposal, make_learner
from ..learning.evaluation import LearningCurve
from ..learning.retrainer import AsynchronousRetrainer, DecisionLatencyModel
from .config import CLAMShellConfig, LearningStrategy
from .lifeguard import AssignmentRecord, BatchOutcome, LifeGuard
from .maintainer import MaintenancePolicy, PoolMaintainer
from .metrics import CostModel, ExecutionStats, RunFingerprint, collect_stats
from .mitigator import StragglerMitigator


@dataclass
class RunResult:
    """Everything a labeling run produced: the one record of the run.

    ``batch_outcomes`` holds one :class:`BatchOutcome` per batch, and every
    per-batch series the §6 figures plot is derived from it.  Times in the
    series are measured from ``started_at``, the platform clock when the run
    began (later than 0 when a Batcher runs more than once).  ``stats``
    is what the platform reported once the run settled, and
    :meth:`fingerprint` reduces the run to what a rerun must reproduce.
    """

    config: CLAMShellConfig
    learning_curve: Optional[LearningCurve]
    labels: dict[int, int] = field(default_factory=dict)
    batch_outcomes: list[BatchOutcome] = field(default_factory=list)
    replacements: list = field(default_factory=list)
    total_cost: float = 0.0
    final_accuracy: Optional[float] = None
    started_at: float = 0.0
    #: Simulated seconds from ``started_at`` until the run settled.
    total_wall_clock: float = 0.0
    #: Filled by the Batcher when the run settles.
    stats: Optional[ExecutionStats] = None

    @property
    def records_labeled(self) -> int:
        """Distinct records labeled: a record labeled twice counts once."""
        return len(self.labels)

    @property
    def num_batches(self) -> int:
        return len(self.batch_outcomes)

    def batch_latencies(self) -> np.ndarray:
        return np.array([b.batch_latency for b in self.batch_outcomes], dtype=float)

    def task_latencies(self) -> np.ndarray:
        return np.array(
            [latency for b in self.batch_outcomes for latency in b.task_latencies],
            dtype=float,
        )

    def per_batch_stddevs(self) -> np.ndarray:
        return np.array([b.task_latency_std for b in self.batch_outcomes], dtype=float)

    def mean_batch_latency(self) -> float:
        latencies = self.batch_latencies()
        return float(latencies.mean()) if latencies.size else 0.0

    def batch_latency_std(self) -> float:
        latencies = self.batch_latencies()
        return float(latencies.std(ddof=1)) if latencies.size > 1 else 0.0

    def mean_pool_latency_curve(self) -> list[tuple[int, Optional[float]]]:
        """(batch index, MPL) series, the quantity plotted in Figure 6."""
        return [(b.batch_index, b.mean_pool_latency) for b in self.batch_outcomes]

    def labels_over_time(self) -> list[tuple[float, int]]:
        """Cumulative (seconds since the run began, records in completed
        tasks) series, one point per task completion (Figures 3, 10)."""
        series = []
        total = 0
        for outcome in self.batch_outcomes:
            for completed_at, records in outcome.completion_times:
                total += records
                series.append((completed_at - self.started_at, total))
        return series

    def throughput_labels_per_second(self) -> float:
        if self.total_wall_clock <= 0:
            return 0.0
        return self.records_labeled / self.total_wall_clock

    def assignment_records(self) -> list[AssignmentRecord]:
        records: list[AssignmentRecord] = []
        for outcome in self.batch_outcomes:
            records.extend(outcome.assignment_records)
        return records

    def fingerprint(self) -> RunFingerprint:
        """The run's labels and stats as a :class:`RunFingerprint`."""
        if self.stats is None:
            raise ValueError("a RunResult without stats has no fingerprint")
        return RunFingerprint.of(self.labels, self.stats)


class SequentialSelector:
    """Record selection when no learning is configured (Alg = NL).

    Hands out unlabeled training records in a shuffled but fixed order, the
    behaviour of a plain "label these 500 points" deployment.
    """

    def __init__(self, dataset: Dataset, seed: int = 0) -> None:
        rng = np.random.default_rng(seed)
        self._order: list[int] = [
            int(i) for i in rng.permutation(dataset.train_record_ids())
        ]
        self._cursor = 0

    def next_records(self, count: int) -> list[int]:
        chosen = self._order[self._cursor : self._cursor + count]
        self._cursor += len(chosen)
        return chosen

    def has_remaining(self) -> bool:
        return self._cursor < len(self._order)


def _default_learner(config: CLAMShellConfig, dataset: Dataset) -> BaseLearner:
    """The learner a run builds when the caller supplies none.

    Uncertainty-sampling strategies (active, hybrid) take the config's
    ``candidate_sample_size`` and ``uncertainty_measure``; passive
    learning samples at random and needs neither.
    """
    strategy = config.learning_strategy
    if strategy == LearningStrategy.PASSIVE:
        return make_learner(strategy.value, dataset, seed=config.seed)
    return make_learner(
        strategy.value,
        dataset,
        seed=config.seed,
        measure=config.uncertainty_measure,
        candidate_sample_size=config.candidate_sample_size,
    )


class Batcher:
    """Drives a full labeling run against a platform and (optionally) a learner."""

    def __init__(
        self,
        config: CLAMShellConfig,
        dataset: Dataset,
        platform: CrowdBackend,
        learner: Optional[BaseLearner] = None,
        decision_latency: Optional[DecisionLatencyModel] = None,
    ) -> None:
        self.config = config
        self.dataset = dataset
        self.platform = platform
        self.cost_model = CostModel(rates=config.pay_rates)

        self._task_factory = TaskFactory(
            records_per_task=config.records_per_task,
            votes_required=config.votes_required,
        )
        mitigator = StragglerMitigator(
            enabled=config.straggler_mitigation,
            policy=config.straggler_routing,
            decouple_quality_control=config.decouple_quality_control,
            max_extra_assignments=config.max_extra_assignments,
            seed=config.seed + 101,
        )
        maintainer = None
        if config.maintenance_enabled:
            assert config.maintenance_threshold is not None
            maintainer = PoolMaintainer(
                MaintenancePolicy(
                    threshold=config.maintenance_threshold,
                    significance=config.maintenance_significance,
                    min_observations=config.maintenance_min_observations,
                    use_termest=config.use_termest,
                    termest_alpha=config.termest_alpha,
                ),
                records_per_task=config.records_per_task,
            )
        self.maintainer = maintainer
        self.lifeguard = LifeGuard(
            platform,
            mitigator,
            maintainer,
            pool_target_size=config.pool_size,
            reference=config.reference,
        )

        if config.learning_strategy == LearningStrategy.NONE:
            self.learner: Optional[BaseLearner] = None
            self.retrainer: Optional[AsynchronousRetrainer] = None
            self._selector: Optional[SequentialSelector] = SequentialSelector(
                dataset, seed=config.seed
            )
        else:
            self.learner = (
                learner
                if learner is not None
                else _default_learner(config, dataset)
            )
            self.retrainer = AsynchronousRetrainer(
                self.learner,
                latency_model=decision_latency or DecisionLatencyModel(),
                asynchronous=config.asynchronous_retraining,
                candidate_sample_size=config.candidate_sample_size,
            )
            self._selector = None

    # -- batch sizing -------------------------------------------------------------

    def _records_per_batch(self) -> int:
        """How many records one batch should contain.

        For non-learning and passive runs, a batch is ``batch_size`` tasks of
        ``Ng`` records (driven by the pool-to-batch ratio R).  For active
        learning the batch is limited to ``k`` records; hybrid fills the pool.
        """
        config = self.config
        if config.learning_strategy == LearningStrategy.ACTIVE:
            return config.active_batch_size
        return config.batch_size * config.records_per_task

    def _propose_records(self, now: float, previous_batch_seconds: float) -> tuple[
        list[int], Optional[BatchProposal], float
    ]:
        """Pick the record ids for the next batch.

        Returns ``(record_ids, proposal, decision_seconds)``.
        """
        config = self.config
        if self.learner is None:
            assert self._selector is not None
            return self._selector.next_records(self._records_per_batch()), None, 0.0

        assert self.retrainer is not None
        if config.learning_strategy == LearningStrategy.ACTIVE:
            batch_size = config.active_batch_size
            pool_records = batch_size
        elif config.learning_strategy == LearningStrategy.PASSIVE:
            batch_size = 0
            pool_records = config.batch_size * config.records_per_task
        else:  # HYBRID
            batch_size = config.active_batch_size
            pool_records = max(
                config.batch_size * config.records_per_task, batch_size
            )
        proposal, decision_seconds = self.retrainer.next_batch(
            now=now,
            batch_size=batch_size,
            pool_size=pool_records,
            batch_duration=previous_batch_seconds,
        )
        return proposal.all_ids, proposal, decision_seconds

    # -- main loop -------------------------------------------------------------------

    def run(
        self,
        num_records: int = 500,
        accuracy_target: Optional[float] = None,
        max_batches: int = 1000,
    ) -> RunResult:
        """Label up to ``num_records`` records (stopping early at the accuracy target)."""
        return drain_stream(
            self.run_iter(
                num_records=num_records,
                accuracy_target=accuracy_target,
                max_batches=max_batches,
            )
        )

    def run_iter(
        self,
        num_records: int = 500,
        accuracy_target: Optional[float] = None,
        max_batches: int = 1000,
    ) -> Iterator[ProgressEvent]:
        """Stream the run: one event at start, one per batch, one at the end.

        The final event carries the :class:`RunResult`; draining the iterator
        is exactly equivalent to calling :meth:`run` with the same arguments.
        Arguments are validated eagerly (before the first ``next()``).
        """
        if num_records < 1:
            raise ValueError("num_records must be >= 1")
        if max_batches < 1:
            raise ValueError("max_batches must be >= 1")
        return self._iter_run(num_records, accuracy_target, max_batches)

    def _iter_run(
        self,
        num_records: int,
        accuracy_target: Optional[float],
        max_batches: int,
    ) -> Iterator[ProgressEvent]:
        config = self.config
        if len(self.platform.pool) == 0:
            self.platform.initialize_pool(config.pool_size)
        # The reserve refills seats that maintenance evicts or workers
        # abandon; without one, an abandoned seat stays empty for good.
        if self.maintainer is not None or config.abandonment_rate > 0:
            self.platform.configure_reserve(config.maintenance_reserve_size)

        curve: Optional[LearningCurve] = None
        initial_accuracy: Optional[float] = None
        if self.learner is not None:
            curve = LearningCurve(
                strategy=self.learner.strategy_name, dataset=self.dataset.name
            )
            initial_accuracy = self.learner.test_accuracy()
            curve.record(0, 0.0, initial_accuracy, batch_index=-1)

        all_labels: dict[int, int] = {}
        outcomes: list[BatchOutcome] = []
        previous_batch_seconds = 0.0
        start_time = self.platform.now

        yield ProgressEvent(
            kind=ProgressKind.RUN_STARTED,
            batch_index=-1,
            wall_clock=0.0,
            records_labeled=0,
            pool_size=len(self.platform.pool),
            accuracy_estimate=initial_accuracy,
        )

        for batch_index in range(max_batches):
            if len(all_labels) >= num_records:
                break
            record_ids, proposal, decision_seconds = self._propose_records(
                self.platform.now, previous_batch_seconds
            )
            if not record_ids:
                break
            remaining = num_records - len(all_labels)
            if len(record_ids) > remaining:
                record_ids = record_ids[:remaining]
            if decision_seconds > 0:
                self.platform.queue.advance_to(self.platform.now + decision_seconds)
            if not config.use_retainer_pool:
                # Without a retainer pool, each batch waits on the open
                # marketplace until workers accept the newly-posted tasks.
                recruitment_wait = self.platform.recruiter.draw_recruitment_latency()
                self.platform.queue.advance_to(self.platform.now + recruitment_wait)

            true_labels = self.dataset.labels_for(record_ids)
            tasks = self._task_factory.build_tasks(record_ids, true_labels)
            batch = Batch(batch_id=batch_index, tasks=tasks)
            outcome = self.lifeguard.run_batch(batch, batch_index=batch_index)
            outcomes.append(outcome)
            previous_batch_seconds = outcome.batch_latency

            all_labels.update(outcome.labels)
            if self.learner is not None:
                self.learner.incorporate_labels(outcome.labels, proposal)

            batch_accuracy: Optional[float] = None
            if curve is not None and self.learner is not None:
                self.learner.retrain()
                batch_accuracy = self.learner.test_accuracy()
                curve.record(
                    self.learner.num_labeled,
                    self.platform.now - start_time,
                    batch_accuracy,
                    batch_index=batch_index,
                )

            yield ProgressEvent(
                kind=ProgressKind.BATCH_COMPLETED,
                batch_index=batch_index,
                wall_clock=self.platform.now - start_time,
                records_labeled=len(all_labels),
                pool_size=len(self.platform.pool),
                new_labels=dict(outcome.labels),
                batch_latency=outcome.batch_latency,
                accuracy_estimate=batch_accuracy,
                workers_replaced=outcome.workers_replaced,
                assignments_started=outcome.assignments_started,
                assignments_terminated=outcome.assignments_terminated,
            )

            if (
                accuracy_target is not None
                and batch_accuracy is not None
                and batch_accuracy >= accuracy_target
            ):
                break
            if self.learner is not None and not self.learner.has_unlabeled():
                break
            if self.learner is None and self._selector is not None:
                if not self._selector.has_remaining():
                    break

        self.platform.settle()
        final_accuracy = None
        if self.learner is not None:
            final_accuracy = self.learner.test_accuracy()

        result = RunResult(
            config=config,
            learning_curve=curve,
            labels=all_labels,
            batch_outcomes=outcomes,
            replacements=list(self.maintainer.replacements) if self.maintainer else [],
            total_cost=self.cost_model.total_cost(self.platform),
            final_accuracy=final_accuracy,
            started_at=start_time,
            total_wall_clock=self.platform.now - start_time,
        )
        # The platform is settled and nothing runs on it after this point.
        result.stats = collect_stats(self.platform, result)
        yield ProgressEvent(
            kind=ProgressKind.RUN_FINISHED,
            batch_index=len(outcomes) - 1,
            wall_clock=result.total_wall_clock,
            records_labeled=result.records_labeled,
            pool_size=len(self.platform.pool),
            accuracy_estimate=final_accuracy,
            result=result,
        )
