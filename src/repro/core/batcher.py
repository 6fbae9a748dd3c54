"""The Batcher: full-run orchestration across batches.

The Batcher owns the outer loop of Figure 1 as three steps.  ``_start``
seats the pool.  Each ``_step`` takes the next batch's records from the
run's one record source (the learner's proposal, or plain sequential
selection without learning), hands the batch to LifeGuard, folds the labels
into the learner and refits it once.  ``_finish`` settles the platform and
builds the :class:`RunResult`.  A run stops when the requested number of
records has been labeled, when the record source proposes nothing, or when
it runs dry.  Every proposal holds only unlabeled records and every batch
runs to completion, so each step labels at least one new record and a run
ends within ``num_records`` batches.

The Batcher drives a :class:`~repro.crowd.platform.SimulatedCrowdPlatform`,
and a run can be consumed as a stream: :meth:`Batcher.run_iter` yields a typed
:class:`~repro.api.events.ProgressEvent` per step, and :meth:`Batcher.run`
is a thin wrapper that drains the stream and returns the final result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from ..api.events import ProgressEvent, ProgressKind, drain_stream
from ..crowd.platform import SimulatedCrowdPlatform
from ..crowd.tasks import Assignment, Batch, TaskFactory
from ..learning.datasets import Dataset
from ..learning.learners import BaseLearner, BatchProposal, make_learner
from ..learning.evaluation import LearningCurve
from ..learning.retrainer import AsynchronousRetrainer
from .config import CLAMShellConfig, LearningStrategy
from .lifeguard import BatchOutcome, LifeGuard
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

    def assignments(self) -> Iterator[Assignment]:
        """Every resolved assignment of the run, batch by batch, then task by
        task in batch order, each task's in start order (Figure 13)."""
        for outcome in self.batch_outcomes:
            for task in outcome.batch.tasks:
                for assignment in task.assignments:
                    if assignment.ended_at is not None:
                        yield assignment

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


#: A batch's record ids, the learner's proposal (if any) and the decision
#: seconds to wait before the batch is posted.
_Records = tuple[list[int], Optional[BatchProposal], float]


@dataclass(frozen=True)
class _SelectorRecords:
    """A run without learning labels the selector's next ``records`` ids."""

    selector: SequentialSelector
    records: int

    def next_records(self, previous_batch_seconds: float) -> _Records:
        return self.selector.next_records(self.records), None, 0.0

    def has_remaining(self) -> bool:
        return self.selector.has_remaining()


@dataclass(frozen=True)
class _LearnerRecords:
    """A learning run labels the retrainer's next proposal: ``active``
    uncertainty-sampled records among ``records``."""

    retrainer: AsynchronousRetrainer
    active: int
    records: int

    def next_records(self, previous_batch_seconds: float) -> _Records:
        proposal, decision_seconds = self.retrainer.next_batch(
            self.active, self.records, batch_duration=previous_batch_seconds
        )
        return proposal.all_ids, proposal, decision_seconds

    def has_remaining(self) -> bool:
        return self.retrainer.learner.has_unlabeled()


def _batch_shape(config: CLAMShellConfig) -> tuple[int, int]:
    """``(active records, records)`` of every batch the config asks for.

    A batch is ``batch_size`` tasks of ``Ng`` records, set by the
    pool-to-batch ratio R.  Active learning labels only its ``k`` records;
    hybrid adds passive records to the ``k`` active ones until the pool is
    full.
    """
    records = config.batch_size * config.records_per_task
    strategy = config.learning_strategy
    if strategy == LearningStrategy.ACTIVE:
        return config.active_batch_size, config.active_batch_size
    if strategy == LearningStrategy.HYBRID:
        return config.active_batch_size, max(records, config.active_batch_size)
    return 0, records


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


@dataclass
class _Run:
    """One run between :meth:`Batcher._start` and :meth:`Batcher._finish`:
    its record budget, the latest batch's accuracy and the result it fills
    in."""

    result: RunResult
    num_records: int
    #: Test accuracy after the latest batch's refit; ``None`` before one.
    accuracy: Optional[float] = None


class Batcher:
    """Drives a full labeling run against a platform and (optionally) a learner.

    A run is :meth:`_start`, one :meth:`_step` per batch and :meth:`_finish`
    over one :class:`_Run`; each returns the event :meth:`run_iter` yields.
    """

    def __init__(
        self,
        config: CLAMShellConfig,
        dataset: Dataset,
        platform: SimulatedCrowdPlatform,
        learner: Optional[BaseLearner] = None,
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
                    objective=config.maintenance_objective,
                    significance=config.maintenance_significance,
                    min_observations=config.maintenance_min_observations,
                    use_termest=config.use_termest,
                    termest_alpha=config.termest_alpha,
                ),
                records_per_task=config.records_per_task,
            )
        self.lifeguard = LifeGuard(
            platform,
            mitigator,
            maintainer,
            pool_target_size=config.pool_size,
            reference=config.reference,
        )

        active, records = _batch_shape(config)
        self.learner: Optional[BaseLearner] = None
        self._records: _SelectorRecords | _LearnerRecords
        if config.learning_strategy == LearningStrategy.NONE:
            self._records = _SelectorRecords(
                SequentialSelector(dataset, seed=config.seed), records
            )
        else:
            self.learner = (
                learner if learner is not None else _default_learner(config, dataset)
            )
            retrainer = AsynchronousRetrainer(
                self.learner,
                asynchronous=config.asynchronous_retraining,
                candidate_sample_size=config.candidate_sample_size,
            )
            self._records = _LearnerRecords(retrainer, active, records)

    # -- main loop -------------------------------------------------------------------

    def run(self, num_records: int = 500) -> RunResult:
        """Label up to ``num_records`` records."""
        return drain_stream(self.run_iter(num_records=num_records))

    def run_iter(self, num_records: int = 500) -> Iterator[ProgressEvent]:
        """Stream the run: one event at start, one per batch, one at the end.

        The final event carries the :class:`RunResult`; draining the iterator
        is exactly equivalent to calling :meth:`run` with the same arguments.
        Arguments are validated eagerly (before the first ``next()``).
        """
        if num_records < 1:
            raise ValueError("num_records must be >= 1")
        return self._iter_run(num_records)

    def _iter_run(self, num_records: int) -> Iterator[ProgressEvent]:
        run, started = self._start(num_records)
        yield started
        while (event := self._step(run)) is not None:
            yield event
        yield self._finish(run)

    def _start(self, num_records: int) -> tuple[_Run, ProgressEvent]:
        """Seat the pool, record the curve's first point, begin the run."""
        platform = self.platform
        if len(platform.pool) == 0:
            platform.initialize_pool(self.config.pool_size)
        # The reserve refills seats that maintenance evicts or workers
        # abandon; without one, an abandoned seat stays empty for good.
        if self.lifeguard.maintainer is not None or self.config.abandonment_rate > 0:
            platform.configure_reserve(self.config.maintenance_reserve_size)

        curve: Optional[LearningCurve] = None
        initial_accuracy: Optional[float] = None
        if self.learner is not None:
            curve = LearningCurve(
                strategy=self.learner.strategy_name, dataset=self.dataset.name
            )
            initial_accuracy = self.learner.test_accuracy()
            curve.record(0, 0.0, initial_accuracy, batch_index=-1)

        run = _Run(
            result=RunResult(
                config=self.config, learning_curve=curve, started_at=platform.now
            ),
            num_records=num_records,
        )
        return run, ProgressEvent(
            kind=ProgressKind.RUN_STARTED,
            batch_index=-1,
            wall_clock=0.0,
            records_labeled=0,
            pool_size=len(platform.pool),
            accuracy_estimate=initial_accuracy,
        )

    def _step(self, run: _Run) -> Optional[ProgressEvent]:
        """Label one batch and refit the learner on it.

        Returns ``None``, having labeled nothing, once the record budget is
        spent or the record source has nothing left to propose.
        """
        result = run.result
        outcomes = result.batch_outcomes
        remaining = run.num_records - len(result.labels)
        if remaining <= 0 or not self._records.has_remaining():
            return None
        platform = self.platform
        previous_batch_seconds = outcomes[-1].batch_latency if outcomes else 0.0
        record_ids, proposal, decision_seconds = self._records.next_records(
            previous_batch_seconds
        )
        if not record_ids:
            return None
        record_ids = record_ids[:remaining]
        if decision_seconds > 0:
            platform.queue.advance_to(platform.now + decision_seconds)
        if not self.config.use_retainer_pool:
            # Without a retainer pool, each batch waits on the open
            # marketplace until workers accept the newly-posted tasks.
            recruitment_wait = platform.recruiter.draw_recruitment_latency()
            platform.queue.advance_to(platform.now + recruitment_wait)

        batch_index = len(outcomes)
        tasks = self._task_factory.build_tasks(
            record_ids, self.dataset.labels_for(record_ids)
        )
        outcome = self.lifeguard.run_batch(
            Batch(batch_id=batch_index, tasks=tasks), batch_index=batch_index
        )
        outcomes.append(outcome)
        result.labels.update(outcome.labels)

        wall_clock = platform.now - result.started_at
        if self.learner is not None:
            assert result.learning_curve is not None
            self.learner.incorporate_labels(outcome.labels, proposal)
            self.learner.retrain()
            run.accuracy = self.learner.test_accuracy()
            result.learning_curve.record(
                self.learner.num_labeled, wall_clock, run.accuracy, batch_index=batch_index
            )

        return ProgressEvent(
            kind=ProgressKind.BATCH_COMPLETED,
            batch_index=batch_index,
            wall_clock=wall_clock,
            records_labeled=len(result.labels),
            pool_size=len(platform.pool),
            new_labels=dict(outcome.labels),
            batch_latency=outcome.batch_latency,
            accuracy_estimate=run.accuracy,
            workers_replaced=outcome.workers_replaced,
            assignments_started=outcome.assignments_started,
            assignments_terminated=outcome.assignments_terminated,
        )

    def _finish(self, run: _Run) -> ProgressEvent:
        """Settle the platform and complete the run's :class:`RunResult`."""
        platform = self.platform
        platform.settle()
        result = run.result
        maintainer = self.lifeguard.maintainer
        if maintainer is not None:
            result.replacements = list(maintainer.replacements)
        result.total_cost = self.cost_model.total_cost(platform)
        if result.learning_curve is not None:
            # Nothing refits after the curve's last point, which scored the
            # final model.
            result.final_accuracy = result.learning_curve.final_accuracy()
        result.total_wall_clock = platform.now - result.started_at
        # The platform is settled and nothing runs on it after this point.
        result.stats = collect_stats(platform, result)
        return ProgressEvent(
            kind=ProgressKind.RUN_FINISHED,
            batch_index=result.num_batches - 1,
            wall_clock=result.total_wall_clock,
            records_labeled=result.records_labeled,
            pool_size=len(platform.pool),
            accuracy_estimate=result.final_accuracy,
            result=result,
        )
