"""Decision-latency modelling and asynchronous model retraining.

Active learning blocks between batches while the learner retrains its model
and scores candidates for the next batch — the *decision latency* of §2.1.
CLAMShell hides it two ways (§5.3):

* candidate subsampling — only a uniform sample of unlabeled points is scored,
  so selection time is linear in the sample size, not the dataset size;
* asynchronous retraining — models are retrained continuously in the
  background on the latest available labels, so when a batch completes, a
  (possibly slightly stale) model and a pre-computed selection are already
  waiting, and labeling never blocks on training.

The simulator needs a *time model* for these steps because wall-clock training
time on the authors' machines is not something we can replay; the
:class:`DecisionLatencyModel` charges time proportional to the number of
labeled points and candidate evaluations, with constants chosen to match the
"seconds per retrain" scale the paper implies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .learners import BaseLearner, BatchProposal


@dataclass(frozen=True)
class DecisionLatencyModel:
    """Charges simulated seconds for model retraining and point selection.

    ``retrain_seconds = base + per_label * n_labeled``
    ``selection_seconds = per_candidate * candidates_scored``
    """

    base_seconds: float = 1.0
    per_label_seconds: float = 0.02
    per_candidate_seconds: float = 0.002

    def __post_init__(self) -> None:
        if self.base_seconds < 0 or self.per_label_seconds < 0 or self.per_candidate_seconds < 0:
            raise ValueError("latency-model constants must be non-negative")

    def retrain_seconds(self, num_labeled: int) -> float:
        return self.base_seconds + self.per_label_seconds * max(0, num_labeled)

    def selection_seconds(self, candidates_scored: int) -> float:
        return self.per_candidate_seconds * max(0, candidates_scored)

    def total_seconds(self, num_labeled: int, candidates_scored: int) -> float:
        return self.retrain_seconds(num_labeled) + self.selection_seconds(candidates_scored)


@dataclass
class RetrainEvent:
    """Record of one (possibly asynchronous) retrain for diagnostics."""

    started_at: float
    finished_at: float
    num_labeled: int
    synchronous: bool

    @property
    def duration(self) -> float:
        return self.finished_at - self.started_at


class AsynchronousRetrainer:
    """Pipelines retraining and selection with crowd labeling.

    In synchronous mode (``asynchronous=False``, what Base-R does), every
    iteration blocks for the full decision latency.  In asynchronous mode
    (CLAMShell), retraining proceeds concurrently with labeling: the decision
    latency charged on the critical path is only the portion that has not
    already overlapped with the just-finished batch.  The proposal handed out
    is computed from the most recently *completed* model, so it may be one
    batch stale — the trade the paper accepts (§5.3).
    """

    def __init__(
        self,
        learner: BaseLearner,
        latency_model: Optional[DecisionLatencyModel] = None,
        asynchronous: bool = True,
        candidate_sample_size: int = 500,
    ) -> None:
        self.learner = learner
        self.latency_model = latency_model or DecisionLatencyModel()
        self.asynchronous = asynchronous
        self.candidate_sample_size = candidate_sample_size
        self.history: list[RetrainEvent] = []
        #: Simulation time at which the most recent background retrain finishes.
        self._background_ready_at = 0.0
        #: Pending proposal computed from the latest completed model.
        self._pending_proposal: Optional[BatchProposal] = None

    def decision_overhead(self, now: float, batch_duration: float) -> float:
        """Seconds of decision latency charged to the critical path at ``now``.

        ``batch_duration`` is how long the just-finished labeling batch took;
        an asynchronous retrain that fit entirely inside it costs nothing.
        """
        full = self.latency_model.total_seconds(
            self.learner.num_labeled,
            min(self.candidate_sample_size, len(self.learner.unlabeled_ids())),
        )
        if not self.asynchronous:
            return full
        return max(0.0, full - batch_duration)

    def next_batch(
        self,
        now: float,
        batch_size: int,
        pool_size: int,
        batch_duration: float = 0.0,
    ) -> tuple[BatchProposal, float]:
        """Retrain (charging overlapped time) and return the next proposal.

        Returns ``(proposal, decision_seconds)`` where ``decision_seconds`` is
        the latency added to the critical path before the proposal is ready.
        """
        overhead = self.decision_overhead(now, batch_duration)
        self.learner.retrain()
        self.history.append(
            RetrainEvent(
                started_at=now,
                finished_at=now + overhead,
                num_labeled=self.learner.num_labeled,
                synchronous=not self.asynchronous,
            )
        )
        if self.asynchronous and self._pending_proposal is not None:
            # Use the selection prepared from the previous (stale) model, then
            # prepare a fresh one from the model we just trained.
            proposal = self._refresh_stale_proposal(self._pending_proposal, batch_size, pool_size)
        else:
            proposal = self.learner.propose_batch(batch_size, pool_size)
        self._pending_proposal = self.learner.propose_batch(batch_size, pool_size)
        return proposal, overhead

    def _refresh_stale_proposal(
        self, stale: BatchProposal, batch_size: int, pool_size: int
    ) -> BatchProposal:
        """Drop already-labeled points from a stale proposal, topping up if needed.

        Because CLAMShell caches all labels, points in a stale selection that
        were labeled in the meantime are read from the cache and replaced with
        fresh selections (§5.1).
        """
        unlabeled = set(self.learner.unlabeled_ids())
        active = [r for r in stale.active_ids if r in unlabeled]
        chosen = set(active)
        passive = [r for r in stale.passive_ids if r in unlabeled and r not in chosen]
        missing = (batch_size + max(0, pool_size - batch_size)) - (len(active) + len(passive))
        if missing > 0:
            top_up = self.learner.propose_batch(batch_size, pool_size)
            chosen.update(passive)
            extra = [r for r in top_up.all_ids if r in unlabeled and r not in chosen]
            for record_id in extra[:missing]:
                passive.append(record_id)
        return BatchProposal(active_ids=active, passive_ids=passive)
