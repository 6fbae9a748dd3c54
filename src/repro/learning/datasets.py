"""Dataset generators for the learning experiments.

The paper evaluates learning strategies on three families of data (§6.1):

* *generated datasets of varying difficulty*, built with scikit-learn's
  classification-data generator (an adaptation of Guyon's NIPS-2003 variable
  selection benchmark design).  :func:`make_classification` reimplements that
  generator: informative features are drawn around class centroids placed on
  the vertices of a hypercube, redundant features are random linear
  combinations of informative ones, the remainder is noise, and ``flip_y``
  injects label noise;
* *MNIST* (70,000 handwritten-digit images, 10 classes, 784 raw-pixel
  features).  We cannot ship MNIST, so :func:`make_mnist_like` generates a
  10-class, 784-feature dataset whose difficulty is tuned so that a logistic
  model trained on a few hundred labels reaches accuracy in the 60-80% band,
  matching the operating region in Figures 16-18;
* *CIFAR-10 restricted to Birds vs Airplanes* (2 classes, 3072 raw-pixel
  features) — a much harder task for a linear model.  :func:`make_cifar_like`
  generates a 2-class, high-dimensional, low-separability dataset in the 65-85%
  reachable-accuracy band.

Every generator returns a :class:`Dataset` with train/test split helpers.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

#: The cached split arrays of a :class:`Dataset`.
_SPLITS = frozenset({"X_train", "y_train", "X_test", "y_test"})


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass
class Dataset:
    """A labeled dataset with a held-out test split.

    ``X``/``y`` are the full data; ``train_indices``/``test_indices`` index
    into them.  The crowd labels only training records; accuracy is always
    reported on the test split.
    """

    name: str
    X: np.ndarray
    y: np.ndarray
    train_indices: np.ndarray
    test_indices: np.ndarray
    num_classes: int
    #: Generation provenance — ``{"generator": <registered name>, "params":
    #: {...}}`` — recorded by the built-in generators so the dataset can be
    #: rebuilt deterministically elsewhere (the wire format serialises this
    #: recipe instead of the arrays).  ``None`` for hand-assembled datasets.
    source: Optional[dict] = None

    def __post_init__(self) -> None:
        if self.X.shape[0] != self.y.shape[0]:
            raise ValueError("X and y must have the same number of rows")
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")

    @property
    def num_records(self) -> int:
        return int(self.X.shape[0])

    @property
    def num_features(self) -> int:
        return int(self.X.shape[1])

    # The splits are fancy-indexed copies, built on first read and shared
    # read-only after it: the learners read the test split after every
    # batch.  ``__getstate__`` leaves them out of pickles.
    @functools.cached_property
    def X_train(self) -> np.ndarray:
        return _read_only(self.X[self.train_indices])

    @functools.cached_property
    def y_train(self) -> np.ndarray:
        return _read_only(self.y[self.train_indices])

    @functools.cached_property
    def X_test(self) -> np.ndarray:
        return _read_only(self.X[self.test_indices])

    @functools.cached_property
    def y_test(self) -> np.ndarray:
        return _read_only(self.y[self.test_indices])

    def __getstate__(self) -> dict:
        return {key: value for key, value in self.__dict__.items() if key not in _SPLITS}

    def train_record_ids(self) -> list[int]:
        """Record ids (indices into X) available for crowd labeling."""
        return [int(i) for i in self.train_indices]

    def labels_for(self, record_ids: list[int]) -> list[int]:
        """Ground-truth labels for the given record ids (simulator only)."""
        return [int(self.y[i]) for i in record_ids]


def _train_test_split(
    n: int, test_fraction: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    permutation = rng.permutation(n)
    n_test = max(1, int(round(n * test_fraction)))
    return permutation[n_test:], permutation[:n_test]


#: Largest accepted ``class_sep``.  Class bases sit about ``2 * class_sep``
#: within-cluster standard deviations apart, so this is already trivially
#: separable.
MAX_CLASS_SEP = 100.0


def make_classification(
    n_samples: int = 2000,
    n_features: int = 20,
    n_informative: Optional[int] = None,
    n_redundant: Optional[int] = None,
    n_classes: int = 2,
    class_sep: float = 1.0,
    flip_y: float = 0.01,
    clusters_per_class: int = 2,
    test_fraction: float = 0.3,
    seed: int = 0,
    name: Optional[str] = None,
) -> Dataset:
    """Generate a classification problem in the style of Guyon's benchmark.

    Each class gets a base centroid on a vertex of an ``n_informative``-dim
    hypercube scaled by ``class_sep``; the class is a mixture of
    ``clusters_per_class`` Gaussian clusters jittered around that base, so
    the classes stay (mostly) linearly separable while remaining multi-modal;
    redundant features are random linear combinations of the informative
    ones; the rest are standard-normal noise.  ``flip_y`` randomly reassigns
    that fraction of labels, bounding the achievable accuracy.

    ``n_informative`` defaults to half the features (at least 2, at most 32)
    and ``n_redundant`` to a quarter of the informative count, so any feature
    count yields a valid configuration without extra arguments.
    """
    source = {
        "generator": "classification",
        "params": {
            "n_samples": n_samples,
            "n_features": n_features,
            "n_informative": n_informative,
            "n_redundant": n_redundant,
            "n_classes": n_classes,
            "class_sep": class_sep,
            "flip_y": flip_y,
            "clusters_per_class": clusters_per_class,
            "test_fraction": test_fraction,
            "seed": seed,
            "name": name,
        },
    }
    if n_informative is None:
        n_informative = min(32, max(2, n_features // 2))
    if n_redundant is None:
        n_redundant = min(max(0, n_features - n_informative), max(1, n_informative // 4))
    if n_informative + n_redundant > n_features:
        raise ValueError("n_informative + n_redundant must not exceed n_features")
    if n_informative < 1:
        raise ValueError("n_informative must be >= 1")
    if not 0.0 <= flip_y < 1.0:
        raise ValueError("flip_y must be in [0, 1)")
    # Also refuses NaN and infinities.  Far past the ceiling the squared
    # distances overflow and the dataset degenerates to chance accuracy.
    if not 0.0 <= class_sep <= MAX_CLASS_SEP:
        raise ValueError(f"class_sep must be in [0, {MAX_CLASS_SEP:g}], got {class_sep!r}")
    if clusters_per_class < 1:
        raise ValueError("clusters_per_class must be >= 1")
    if 2 ** min(n_informative, 30) < n_classes:
        raise ValueError("n_informative too small for the requested number of classes")
    rng = np.random.default_rng(seed)

    n_clusters = n_classes * clusters_per_class
    # One base hypercube vertex per class, scaled by class separation; each
    # cluster of the class is a jittered copy of the base so that the class
    # structure is multi-modal but still learnable by a linear model.
    vertex_count = 2 ** min(n_informative, 30)
    chosen = rng.choice(vertex_count, size=n_classes, replace=False)
    class_bases = np.array(
        [[(v >> (bit % 30)) & 1 for bit in range(n_informative)] for v in chosen],
        dtype=float,
    )
    # Scale the vertices so the *expected Euclidean distance* between two
    # class bases is ``2 * class_sep`` regardless of dimensionality (two
    # random vertices differ in about half their coordinates).  With unit
    # within-cluster variance, class_sep ~ 1 then corresponds to roughly a
    # 2-sigma separation, making the knob comparable across feature counts.
    expected_hamming = max(1.0, n_informative / 2.0)
    scale = class_sep / np.sqrt(expected_hamming)
    class_bases = (2.0 * class_bases - 1.0) * scale
    centroids = np.empty((n_clusters, n_informative))
    for cluster_index in range(n_clusters):
        cluster_class = cluster_index % n_classes
        jitter = rng.normal(scale=0.35 * scale, size=n_informative)
        centroids[cluster_index] = class_bases[cluster_class] + jitter

    samples_per_cluster = np.full(n_clusters, n_samples // n_clusters)
    samples_per_cluster[: n_samples % n_clusters] += 1

    X_informative = np.empty((n_samples, n_informative))
    y = np.empty(n_samples, dtype=int)
    row = 0
    for cluster_index in range(n_clusters):
        count = samples_per_cluster[cluster_index]
        cluster_class = cluster_index % n_classes
        # Random within-cluster covariance structure for non-spherical blobs.
        A = rng.normal(size=(n_informative, n_informative))
        cov_factor = np.eye(n_informative) + 0.5 * A / np.sqrt(n_informative)
        points = rng.normal(size=(count, n_informative)) @ cov_factor
        X_informative[row : row + count] = points + centroids[cluster_index]
        y[row : row + count] = cluster_class
        row += count

    blocks = [X_informative]
    if n_redundant > 0:
        B = rng.normal(size=(n_informative, n_redundant))
        blocks.append(X_informative @ B)
    n_noise = n_features - n_informative - n_redundant
    if n_noise > 0:
        blocks.append(rng.normal(size=(n_samples, n_noise)))
    X = np.hstack(blocks)

    # Shuffle rows and feature columns so informative features are not in a
    # predictable position, then flip a fraction of the labels.
    row_order = rng.permutation(n_samples)
    col_order = rng.permutation(n_features)
    X = X[row_order][:, col_order]
    y = y[row_order]
    flip_mask = rng.random(n_samples) < flip_y
    y[flip_mask] = rng.integers(0, n_classes, size=int(flip_mask.sum()))

    # Standardise features: raw-pixel-style inputs are handled by callers.
    X = (X - X.mean(axis=0)) / (X.std(axis=0) + 1e-9)

    train_idx, test_idx = _train_test_split(n_samples, test_fraction, rng)
    return Dataset(
        name=name or f"generated-{n_features}f-{n_classes}c",
        X=X,
        y=y,
        train_indices=train_idx,
        test_indices=test_idx,
        num_classes=n_classes,
        source=source,
    )


def make_hardness_series(
    hardness_levels: tuple[int, ...] = (20, 100, 400),
    n_samples: int = 2000,
    seed: int = 0,
) -> list[Dataset]:
    """Datasets of increasing difficulty, as in the rows of Figure 15.

    Difficulty is controlled the same way the paper does: by growing the
    number of generated features (most of which are noise) while shrinking
    class separation.
    """
    datasets = []
    for level_index, n_features in enumerate(hardness_levels):
        n_informative = max(4, n_features // 10)
        class_sep = max(0.6, 2.2 - 0.65 * level_index)
        datasets.append(
            make_classification(
                n_samples=n_samples,
                n_features=n_features,
                n_informative=n_informative,
                n_redundant=min(4, n_features - n_informative),
                n_classes=2,
                class_sep=class_sep,
                flip_y=0.02 + 0.03 * level_index,
                seed=seed + level_index,
                name=f"generated-hardness-{n_features}",
            )
        )
    return datasets


def make_mnist_like(
    n_samples: int = 4000,
    n_features: int = 784,
    test_fraction: float = 0.3,
    seed: int = 0,
) -> Dataset:
    """A 10-class, 784-feature stand-in for MNIST digits.

    Difficulty is tuned so that ~500 labels put a logistic model in the
    60-80% accuracy band, the region Figures 16-18 operate in.
    """
    return make_classification(
        n_samples=n_samples,
        n_features=n_features,
        n_informative=40,
        n_redundant=40,
        n_classes=10,
        class_sep=2.6,
        flip_y=0.03,
        clusters_per_class=1,
        test_fraction=test_fraction,
        seed=seed,
        name="mnist-like",
    )


def make_cifar_like(
    n_samples: int = 3000,
    n_features: int = 512,
    test_fraction: float = 0.3,
    seed: int = 0,
) -> Dataset:
    """A 2-class stand-in for CIFAR-10 Birds-vs-Airplanes.

    The real task uses 3072 raw-pixel features and is hard for a linear
    model; we default to 512 features to keep simulation fast while keeping
    the reachable-accuracy band (~65-85%) and the relative hardness versus
    the MNIST-like task.  Pass ``n_features=3072`` for the full-size variant.
    """
    return make_classification(
        n_samples=n_samples,
        n_features=n_features,
        n_informative=24,
        n_redundant=24,
        n_classes=2,
        class_sep=1.5,
        flip_y=0.05,
        clusters_per_class=3,
        test_fraction=test_fraction,
        seed=seed,
        name="cifar-like",
    )
