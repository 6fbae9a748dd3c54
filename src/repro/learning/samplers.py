"""Point-selection strategies: uncertainty, random, and hybrid sampling.

The Task Selector in the CLAMShell architecture (Figure 1) picks which
unlabeled points go into the next batch.  Active learning uses *uncertainty
sampling* against the most recently trained model; passive learning uses
*random sampling*; hybrid learning uses both, splitting the pool between
them (§5.1).

To bound decision latency, uncertainty sampling only scores a uniform random
subsample of the unlabeled points rather than the full dataset (§5.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Protocol, Sequence, Union

import numpy as np

from .models import (
    uncertainty_entropy,
    uncertainty_least_confidence,
    uncertainty_margin,
)

#: Named uncertainty measures selectable by configuration.
UNCERTAINTY_MEASURES: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "margin": uncertainty_margin,
    "entropy": uncertainty_entropy,
    "least_confidence": uncertainty_least_confidence,
}


#: Candidate record ids: a sequence of ints or an integer array.
RecordIds = Union[Sequence[int], np.ndarray]


def _as_ids(candidate_ids: RecordIds) -> np.ndarray:
    """The candidates as an integer array, so that selections index it in C;
    the samplers return the chosen ids as a list of Python ints."""
    return np.asarray(candidate_ids, dtype=np.intp)


class ProbabilisticModel(Protocol):
    """The minimal model surface samplers rely on."""

    @property
    def is_fitted(self) -> bool: ...

    def predict_proba(self, X: np.ndarray) -> np.ndarray: ...


@dataclass
class RandomSampler:
    """Uniform random selection over the unlabeled points (passive learning)."""

    seed: int = 0

    def __post_init__(self) -> None:
        self._rng = np.random.default_rng(self.seed)

    def select(self, candidate_ids: RecordIds, count: int) -> list[int]:
        """Choose up to ``count`` distinct record ids uniformly at random."""
        if count < 0:
            raise ValueError("count must be non-negative")
        candidates = _as_ids(candidate_ids)
        if count == 0 or candidates.size == 0:
            return []
        count = min(count, candidates.size)
        chosen = self._rng.choice(candidates.size, size=count, replace=False)
        return candidates[chosen].tolist()


@dataclass
class UncertaintySampler:
    """Uncertainty sampling over a candidate subsample (active learning).

    Parameters
    ----------
    measure:
        One of ``margin``, ``entropy``, ``least_confidence``.
    candidate_sample_size:
        Number of unlabeled points scored per selection; selection time is
        linear in this, not in the dataset size (§5.3).
    seed:
        RNG seed for the candidate subsample and cold-start fallback.
    """

    measure: str = "margin"
    candidate_sample_size: int = 500
    seed: int = 0

    def __post_init__(self) -> None:
        if self.measure not in UNCERTAINTY_MEASURES:
            raise ValueError(
                f"unknown uncertainty measure {self.measure!r}; "
                f"expected one of {sorted(UNCERTAINTY_MEASURES)}"
            )
        if self.candidate_sample_size < 1:
            raise ValueError("candidate_sample_size must be >= 1")
        self._rng = np.random.default_rng(self.seed)
        self._fallback = RandomSampler(seed=self.seed + 1)

    def select(
        self,
        model: Optional[ProbabilisticModel],
        X: np.ndarray,
        candidate_ids: RecordIds,
        count: int,
    ) -> list[int]:
        """Choose the ``count`` most uncertain points among a candidate sample.

        Falls back to random sampling when no fitted model is available yet
        (the cold-start batches of an active-learning run).
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        candidates = _as_ids(candidate_ids)
        if count == 0 or candidates.size == 0:
            return []
        if model is None or not model.is_fitted:
            return self._fallback.select(candidates, count)

        count = min(count, candidates.size)
        if candidates.size > self.candidate_sample_size:
            pool = candidates[
                self._rng.choice(candidates.size, size=self.candidate_sample_size, replace=False)
            ]
        else:
            pool = candidates
        probabilities = model.predict_proba(X[pool])
        scores = UNCERTAINTY_MEASURES[self.measure](probabilities)
        order = np.argsort(scores)[::-1][:count]
        return pool[order].tolist()


@dataclass
class HybridSampler:
    """Hybrid selection: ``k`` active points plus ``p - k`` passive points.

    Given an active-learning batch size ``k`` and a pool size ``p``, hybrid
    learning selects ``k`` points by uncertainty and ``max(0, p - k)`` points
    at random so that every pool worker has something to label (§5.1).  The
    two sets are disjoint.
    """

    uncertainty: UncertaintySampler
    random: RandomSampler

    def select(
        self,
        model: Optional[ProbabilisticModel],
        X: np.ndarray,
        candidate_ids: RecordIds,
        active_count: int,
        total_count: int,
    ) -> tuple[list[int], list[int]]:
        """Return ``(active_ids, passive_ids)``; their union has ``total_count`` points."""
        if total_count < active_count:
            raise ValueError("total_count must be >= active_count")
        candidates = _as_ids(candidate_ids)
        active_ids = self.uncertainty.select(model, X, candidates, active_count)
        remaining = candidates[~np.isin(candidates, active_ids)]
        passive_ids = self.random.select(remaining, total_count - len(active_ids))
        return active_ids, passive_ids


def make_hybrid_sampler(
    measure: str = "margin", candidate_sample_size: int = 500, seed: int = 0
) -> HybridSampler:
    """Convenience constructor wiring the two underlying samplers."""
    return HybridSampler(
        uncertainty=UncertaintySampler(
            measure=measure, candidate_sample_size=candidate_sample_size, seed=seed
        ),
        random=RandomSampler(seed=seed + 17),
    )
