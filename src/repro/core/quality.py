"""Quality control: redundancy-based voting and worker-accuracy estimation.

CLAMShell's latency optimisations are explicitly compatible with standard
quality-control machinery (§1, §4.1): redundancy-based voting schemes that
aggregate several workers' answers per task, and algorithms that estimate
per-worker quality from agreement patterns.  This module provides both:

* :func:`majority_vote` / :func:`weighted_vote` — aggregate the answers a
  quality-controlled task collected;
* :class:`WorkerQualityEstimator` — an EM-style (Dawid & Skene flavoured)
  estimator of per-worker accuracy from redundant labels, in the spirit of
  Ipeirotis et al. and Karger et al.;
* inter-worker agreement between pairs of workers.

The "quality pool" extension of §4.2 maintains on a simpler proxy: each
worker's agreement with their tasks' consensus, tallied by the LifeGuard
(``MaintenanceObjective.AGREEMENT`` in :mod:`repro.core.config`).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np


def majority_vote(
    answers: Sequence[int], tie_break: str = "lowest"
) -> int:
    """Majority vote over a task's answers.

    ``tie_break`` is ``lowest`` (deterministic: smallest label wins) or
    ``first`` (the earliest answer among the tied labels wins, which favours
    low latency).
    """
    if not answers:
        raise ValueError("cannot vote over an empty answer list")
    if tie_break not in ("lowest", "first"):
        raise ValueError("tie_break must be 'lowest' or 'first'")
    counts = Counter(int(a) for a in answers)
    best_count = max(counts.values())
    tied = [label for label, count in counts.items() if count == best_count]
    if len(tied) == 1:
        return tied[0]
    if tie_break == "lowest":
        return min(tied)
    for answer in answers:
        if int(answer) in tied:
            return int(answer)
    raise AssertionError("unreachable")


def weighted_vote(
    answers: Sequence[int], weights: Sequence[float]
) -> int:
    """Vote where each answer is weighted (e.g. by estimated worker accuracy)."""
    if len(answers) != len(weights):
        raise ValueError("answers and weights must have equal length")
    if not answers:
        raise ValueError("cannot vote over an empty answer list")
    if any(w < 0 for w in weights):
        raise ValueError("weights must be non-negative")
    totals: dict[int, float] = defaultdict(float)
    for answer, weight in zip(answers, weights, strict=True):
        totals[int(answer)] += float(weight)
    best_weight = max(totals.values())
    tied = [label for label, total in totals.items() if total == best_weight]
    return min(tied)


def votes_needed(votes_required: int, votes_received: int) -> int:
    """How many more answers a quality-controlled task still needs."""
    if votes_required < 1 or votes_received < 0:
        raise ValueError("votes_required must be >= 1 and votes_received >= 0")
    return max(0, votes_required - votes_received)


def inter_worker_agreement(
    labels_by_worker: Mapping[int, Mapping[int, int]]
) -> dict[int, float]:
    """Fraction of co-labeled records on which each worker agrees with peers.

    ``labels_by_worker`` maps worker id -> {record id -> label}.  A worker
    with no co-labeled records gets agreement 1.0 (no evidence against them).
    This is the quality signal Callison-Burch-style maintenance would use.
    """
    agreement: dict[int, float] = {}
    worker_ids = list(labels_by_worker.keys())
    for worker_id in worker_ids:
        own = labels_by_worker[worker_id]
        agreements = 0
        comparisons = 0
        for other_id in worker_ids:
            if other_id == worker_id:
                continue
            other = labels_by_worker[other_id]
            # Iterate the dict, not a set intersection: dict order is the
            # deterministic insertion order (and skips a hash-ordered
            # intermediate the lint pass rightly flags).
            for record_id, own_label in own.items():
                if record_id not in other:
                    continue
                comparisons += 1
                if own_label == other[record_id]:
                    agreements += 1
        agreement[worker_id] = agreements / comparisons if comparisons else 1.0
    return agreement


@dataclass
class QualityEstimate:
    """Output of the EM worker-quality estimator."""

    worker_accuracy: dict[int, float]
    record_labels: dict[int, int]
    iterations: int
    converged: bool


class WorkerQualityEstimator:
    """EM estimation of worker accuracies and true labels from redundant votes.

    A simplified Dawid-Skene model with a single accuracy parameter per
    worker (symmetric confusion): alternately (E-step) infer a posterior over
    each record's true label given current accuracies, and (M-step) re-estimate
    each worker's accuracy as the expected fraction of records they got right.
    """

    def __init__(
        self,
        num_classes: int,
        max_iterations: int = 50,
        tolerance: float = 1e-4,
        accuracy_floor: float = 0.05,
    ) -> None:
        if num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        if max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        self.num_classes = num_classes
        self.max_iterations = max_iterations
        self.tolerance = tolerance
        self.accuracy_floor = accuracy_floor

    def estimate(
        self, votes: Mapping[int, Mapping[int, int]]
    ) -> QualityEstimate:
        """Run EM over ``votes``: {record id -> {worker id -> label}}."""
        if not votes:
            raise ValueError("votes must not be empty")
        record_ids = list(votes.keys())
        worker_ids = sorted({w for record in votes.values() for w in record})
        if not worker_ids:
            raise ValueError("votes contain no workers")
        accuracy = {w: 0.8 for w in worker_ids}

        posteriors: dict[int, np.ndarray] = {}
        converged = False
        iterations = 0
        for _ in range(self.max_iterations):
            iterations += 1
            # E-step: posterior over each record's true label.
            for record_id in record_ids:
                log_post = np.zeros(self.num_classes)
                for worker_id, label in votes[record_id].items():
                    acc = accuracy[worker_id]
                    wrong = (1.0 - acc) / (self.num_classes - 1)
                    for c in range(self.num_classes):
                        log_post[c] += np.log(acc if c == label else wrong)
                log_post -= log_post.max()
                post = np.exp(log_post)
                posteriors[record_id] = post / post.sum()

            # M-step: expected accuracy per worker.
            new_accuracy = {}
            for worker_id in worker_ids:
                numerator = 0.0
                denominator = 0.0
                for record_id in record_ids:
                    if worker_id not in votes[record_id]:
                        continue
                    label = votes[record_id][worker_id]
                    numerator += posteriors[record_id][label]
                    denominator += 1.0
                estimate = numerator / denominator if denominator else 0.8
                new_accuracy[worker_id] = float(
                    np.clip(estimate, self.accuracy_floor, 1.0 - 1e-6)
                )

            delta = max(abs(new_accuracy[w] - accuracy[w]) for w in worker_ids)
            accuracy = new_accuracy
            if delta < self.tolerance:
                converged = True
                break

        labels = {
            record_id: int(np.argmax(post)) for record_id, post in posteriors.items()
        }
        return QualityEstimate(
            worker_accuracy=accuracy,
            record_labels=labels,
            iterations=iterations,
            converged=converged,
        )


@dataclass
class VoteAggregator:
    """Collects per-record votes across tasks and produces consensus labels."""

    num_classes: int
    #: record id -> {worker id -> label}
    votes: dict[int, dict[int, int]] = field(default_factory=dict)

    def add_vote(self, record_id: int, worker_id: int, label: int) -> None:
        if not 0 <= label < self.num_classes:
            raise ValueError(f"label {label} outside [0, {self.num_classes})")
        self.votes.setdefault(int(record_id), {})[int(worker_id)] = int(label)

    def consensus(
        self, worker_accuracy: Optional[Mapping[int, float]] = None
    ) -> dict[int, int]:
        """Consensus label per record, majority or accuracy-weighted."""
        consensus = {}
        for record_id, record_votes in self.votes.items():
            answers = list(record_votes.values())
            if worker_accuracy is None:
                consensus[record_id] = majority_vote(answers)
            else:
                weights = [
                    worker_accuracy.get(worker_id, 0.5)
                    for worker_id in record_votes
                ]
                consensus[record_id] = weighted_vote(answers, weights)
        return consensus

    def estimate_quality(self) -> QualityEstimate:
        """Run the EM estimator over everything collected so far."""
        estimator = WorkerQualityEstimator(num_classes=self.num_classes)
        return estimator.estimate(self.votes)
