"""Crowd learners: active, passive, and hybrid label-acquisition strategies.

A *learner* decides which unlabeled records to send to the crowd next,
incorporates the labels that come back, and trains a model that can impute
labels for everything not yet labeled (§5).  Three strategies are
implemented:

* :class:`PassiveLearner` — random sampling; can use the full parallelism of
  the pool but may need many more labels on easy tasks;
* :class:`ActiveLearner` — uncertainty sampling with a bounded batch size
  ``k``; label-efficient on easy tasks but throttles parallelism and can be
  misled on hard tasks;
* :class:`HybridLearner` — CLAMShell's strategy: ``k`` active points plus
  ``p - k`` passive points per iteration, with retraining on the union and
  per-point weights derived from the active fraction ``r = k / p`` (§5.1).

All learners share a :class:`LabelCache` so previously-acquired labels are
never re-requested.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Protocol

import numpy as np

from .datasets import Dataset
from .models import LogisticRegressionModel
from .samplers import HybridSampler, RandomSampler, UncertaintySampler, make_hybrid_sampler


class TrainableModel(Protocol):
    """Model surface required by learners."""

    @property
    def is_fitted(self) -> bool: ...

    def clone(self) -> "TrainableModel": ...

    def fit(
        self, X: np.ndarray, y: np.ndarray, sample_weight: Optional[np.ndarray] = None
    ) -> "TrainableModel": ...

    def predict_proba(self, X: np.ndarray) -> np.ndarray: ...

    def predict(self, X: np.ndarray) -> np.ndarray: ...

    def score(self, X: np.ndarray, y: np.ndarray) -> float: ...


class LabelCache:
    """Crowd labels acquired so far, keyed by record id.

    Each label remembers whether it arrived via the active or the passive
    selection path, which drives hybrid learning's re-weighting.
    """

    def __init__(self) -> None:
        self._labels: dict[int, int] = {}
        self._source: dict[int, str] = {}
        #: Bumped by every :meth:`add`; equal versions mean equal contents.
        self.version = 0
        #: ``(version, as_arrays())`` of the last :meth:`as_arrays` call.
        self._arrays: Optional[tuple[int, tuple[np.ndarray, np.ndarray, np.ndarray]]] = None

    def __len__(self) -> int:
        return len(self._labels)

    def __contains__(self, record_id: int) -> bool:
        return record_id in self._labels

    def add(self, record_id: int, label: int, source: str = "passive") -> None:
        if source not in ("active", "passive"):
            raise ValueError(f"source must be 'active' or 'passive', got {source!r}")
        self._labels[int(record_id)] = int(label)
        self._source[int(record_id)] = source
        self.version += 1

    def add_many(self, labels: dict[int, int], source: str = "passive") -> None:
        for record_id, label in labels.items():
            self.add(record_id, label, source)

    def get(self, record_id: int) -> Optional[int]:
        return self._labels.get(int(record_id))

    def items(self) -> list[tuple[int, int]]:
        return list(self._labels.items())

    def source_of(self, record_id: int) -> Optional[str]:
        return self._source.get(int(record_id))

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(record_ids, labels, is_active)`` as aligned arrays.

        Rows follow first-insertion order: overwriting a record id keeps its
        row.  The arrays are built once per :attr:`version` and shared by
        every caller until the next :meth:`add`, so they are read-only.
        """
        if self._arrays is not None and self._arrays[0] == self.version:
            return self._arrays[1]
        count = len(self._labels)
        arrays = (
            np.fromiter(self._labels, dtype=int, count=count),
            np.fromiter(self._labels.values(), dtype=int, count=count),
            # ``add`` writes both dicts, so their orders agree.
            np.fromiter(
                (source == "active" for source in self._source.values()),
                dtype=bool,
                count=count,
            ),
        )
        for array in arrays:
            array.flags.writeable = False
        self._arrays = (self.version, arrays)
        return arrays


@dataclass
class BatchProposal:
    """The learner's request for the next iteration of crowd labeling."""

    active_ids: list[int] = field(default_factory=list)
    passive_ids: list[int] = field(default_factory=list)

    @property
    def all_ids(self) -> list[int]:
        return list(self.active_ids) + list(self.passive_ids)

    @property
    def size(self) -> int:
        return len(self.active_ids) + len(self.passive_ids)

    def source_of(self, record_id: int) -> str:
        return "active" if record_id in self.active_ids else "passive"


class BaseLearner:
    """Shared plumbing: the label cache, retraining, and accuracy evaluation."""

    strategy_name = "base"

    def __init__(
        self,
        dataset: Dataset,
        model: Optional[TrainableModel] = None,
        seed: int = 0,
    ) -> None:
        self.dataset = dataset
        self.model: TrainableModel = model or LogisticRegressionModel(
            num_classes=dataset.num_classes
        )
        self.cache = LabelCache()
        self.seed = seed
        #: ``_unlabeled[i]`` says whether record ``i`` is an unlabeled
        #: training record; the samplers take its indices as an array.
        self._unlabeled = np.zeros(dataset.num_records, dtype=bool)
        self._unlabeled[dataset.train_indices] = True

    # -- state ----------------------------------------------------------------

    @property
    def num_labeled(self) -> int:
        return len(self.cache)

    @property
    def num_unlabeled(self) -> int:
        return int(np.count_nonzero(self._unlabeled))

    def is_unlabeled(self, record_id: int) -> bool:
        return 0 <= record_id < self._unlabeled.size and bool(self._unlabeled[record_id])

    def unlabeled_ids(self) -> list[int]:
        return self._unlabeled_array().tolist()

    def _unlabeled_array(self) -> np.ndarray:
        """The unlabeled training record ids, ascending."""
        return np.flatnonzero(self._unlabeled)

    def has_unlabeled(self) -> bool:
        return bool(self._unlabeled.any())

    # -- label flow -------------------------------------------------------------

    def propose_batch(self, batch_size: int, pool_size: int) -> BatchProposal:
        """Pick the records the crowd should label next.  Strategy-specific."""
        raise NotImplementedError

    def incorporate_labels(
        self, labels: dict[int, int], proposal: Optional[BatchProposal] = None
    ) -> None:
        """Record crowd labels and remove those records from the unlabeled set."""
        active = set(proposal.active_ids) if proposal else set()
        for record_id, label in labels.items():
            source = "active" if record_id in active else "passive"
            self.cache.add(record_id, label, source=source)
            if self.is_unlabeled(record_id):
                self._unlabeled[record_id] = False

    def retrain(self) -> None:
        """Refit the model on every label acquired so far.

        Nothing is fitted until the labels span at least two classes.
        """
        ids, labels, is_active = self.cache.as_arrays()
        if ids.size == 0 or len(np.unique(labels)) < 2:
            return
        weights = self._sample_weights(is_active)
        self.model.fit(self.dataset.X[ids], labels, sample_weight=weights)

    def _sample_weights(self, is_active: np.ndarray) -> Optional[np.ndarray]:
        """Per-point training weights; strategies may override."""
        return None

    # -- evaluation ---------------------------------------------------------------

    def test_accuracy(self) -> float:
        """Accuracy of the current model on the held-out test split.

        Before the model can be trained (fewer than two classes observed),
        accuracy is the majority-class rate of the test labels, the value a
        constant predictor would achieve.
        """
        if not self.model.is_fitted:
            counts = np.bincount(self.dataset.y_test)
            return float(counts.max() / counts.sum())
        return float(self.model.score(self.dataset.X_test, self.dataset.y_test))


class PassiveLearner(BaseLearner):
    """Random sampling at full pool parallelism."""

    strategy_name = "passive"

    def __init__(
        self,
        dataset: Dataset,
        model: Optional[TrainableModel] = None,
        seed: int = 0,
    ) -> None:
        super().__init__(dataset, model, seed)
        self._sampler = RandomSampler(seed=seed)

    def propose_batch(self, batch_size: int, pool_size: int) -> BatchProposal:
        """Passive learning labels as many random points as the pool can take."""
        count = max(batch_size, pool_size)
        chosen = self._sampler.select(self._unlabeled_array(), count)
        return BatchProposal(active_ids=[], passive_ids=chosen)


class ActiveLearner(BaseLearner):
    """Uncertainty sampling with a bounded batch size."""

    strategy_name = "active"

    def __init__(
        self,
        dataset: Dataset,
        model: Optional[TrainableModel] = None,
        seed: int = 0,
        measure: str = "margin",
        candidate_sample_size: int = 500,
    ) -> None:
        super().__init__(dataset, model, seed)
        self._sampler = UncertaintySampler(
            measure=measure, candidate_sample_size=candidate_sample_size, seed=seed
        )

    def propose_batch(self, batch_size: int, pool_size: int) -> BatchProposal:
        """Active learning is limited to ``batch_size`` points regardless of pool size."""
        chosen = self._sampler.select(
            self.model, self.dataset.X, self._unlabeled_array(), batch_size
        )
        return BatchProposal(active_ids=chosen, passive_ids=[])


class HybridLearner(BaseLearner):
    """CLAMShell's hybrid strategy: active batch plus passive filler points."""

    strategy_name = "hybrid"

    def __init__(
        self,
        dataset: Dataset,
        model: Optional[TrainableModel] = None,
        seed: int = 0,
        measure: str = "margin",
        candidate_sample_size: int = 500,
        active_weight_boost: float = 1.0,
    ) -> None:
        """``active_weight_boost`` scales the weight of actively-selected points

        relative to the baseline ``k/p``-derived weighting; 1.0 reproduces the
        paper's scheme, values above 1 emphasise active points further (the
        "difficulty hint" knob mentioned in §5.1).
        """
        super().__init__(dataset, model, seed)
        if active_weight_boost <= 0:
            raise ValueError("active_weight_boost must be positive")
        self._sampler: HybridSampler = make_hybrid_sampler(
            measure=measure, candidate_sample_size=candidate_sample_size, seed=seed
        )
        self.active_weight_boost = active_weight_boost
        self._last_ratio = 0.5

    def propose_batch(self, batch_size: int, pool_size: int) -> BatchProposal:
        """Select ``batch_size`` active points and ``pool_size - batch_size`` passive ones."""
        total = max(batch_size, pool_size)
        self._last_ratio = batch_size / total if total else 0.5
        active_ids, passive_ids = self._sampler.select(
            self.model, self.dataset.X, self._unlabeled_array(), batch_size, total
        )
        return BatchProposal(active_ids=active_ids, passive_ids=passive_ids)

    def _sample_weights(self, is_active: np.ndarray) -> Optional[np.ndarray]:
        """Weight points by selection path using the active-to-passive ratio.

        With active fraction ``r = k/p``, active points receive weight
        proportional to ``r`` and passive points to ``1 - r`` (normalised so
        the mean weight is 1), scaled by ``active_weight_boost``.
        """
        if is_active.size == 0 or not is_active.any() or is_active.all():
            return None
        ratio = min(max(self._last_ratio, 0.05), 0.95)
        weights = np.where(
            is_active, ratio * self.active_weight_boost, 1.0 - ratio
        ).astype(float)
        return weights * (is_active.size / weights.sum())


LEARNER_CLASSES: dict[str, type[BaseLearner]] = {
    "active": ActiveLearner,
    "passive": PassiveLearner,
    "hybrid": HybridLearner,
}


def make_learner(
    strategy: str,
    dataset: Dataset,
    model: Optional[TrainableModel] = None,
    seed: int = 0,
    **kwargs: object,
) -> BaseLearner:
    """Instantiate a learner by strategy name (``active``/``passive``/``hybrid``)."""
    if strategy not in LEARNER_CLASSES:
        raise ValueError(
            f"unknown strategy {strategy!r}; expected one of {sorted(LEARNER_CLASSES)}"
        )
    return LEARNER_CLASSES[strategy](dataset, model, seed, **kwargs)  # type: ignore[arg-type]
