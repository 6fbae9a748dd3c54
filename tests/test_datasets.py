"""Unit tests for the dataset generators."""

import pickle

import numpy as np
import pytest

from repro.learning.datasets import (
    Dataset,
    make_cifar_like,
    make_classification,
    make_hardness_series,
    make_mnist_like,
)
from repro.learning.models import LogisticRegressionModel


class TestDatasetContainer:
    def test_split_accessors(self, tiny_dataset):
        assert tiny_dataset.X_train.shape[0] == len(tiny_dataset.train_indices)
        assert tiny_dataset.X_test.shape[0] == len(tiny_dataset.test_indices)
        assert tiny_dataset.num_records == 300

    def test_splits_are_disjoint(self, tiny_dataset):
        assert not set(tiny_dataset.train_indices) & set(tiny_dataset.test_indices)

    def test_labels_for_returns_ground_truth(self, tiny_dataset):
        ids = tiny_dataset.train_record_ids()[:5]
        labels = tiny_dataset.labels_for(ids)
        assert labels == [int(tiny_dataset.y[i]) for i in ids]

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            Dataset(
                name="broken",
                X=np.zeros((3, 2)),
                y=np.zeros(4, dtype=int),
                train_indices=np.array([0]),
                test_indices=np.array([1]),
                num_classes=2,
            )


class TestSplitCache:
    """The split arrays are built once, shared read-only, and never pickled."""

    SPLITS = (
        ("X_train", "X", "train_indices"),
        ("y_train", "y", "train_indices"),
        ("X_test", "X", "test_indices"),
        ("y_test", "y", "test_indices"),
    )

    @pytest.mark.parametrize(("split", "data", "indices"), SPLITS)
    def test_split_is_built_once_and_read_only(self, tiny_dataset, split, data, indices):
        array = getattr(tiny_dataset, split)
        assert getattr(tiny_dataset, split) is array
        expected = getattr(tiny_dataset, data)[getattr(tiny_dataset, indices)]
        assert np.array_equal(array, expected)
        with pytest.raises(ValueError):
            array[0] = 0

    def test_pickle_carries_no_cached_split(self, tiny_dataset):
        for split, _, _ in self.SPLITS:
            getattr(tiny_dataset, split)
        payload = pickle.dumps(tiny_dataset)
        restored = pickle.loads(payload)
        assert not {split for split, _, _ in self.SPLITS} & set(vars(restored))
        assert len(payload) < tiny_dataset.X.nbytes * 1.5
        assert np.array_equal(restored.X_test, tiny_dataset.X_test)


class TestMakeClassification:
    def test_shapes(self):
        ds = make_classification(n_samples=200, n_features=10, seed=1)
        assert ds.X.shape == (200, 10)
        assert ds.y.shape == (200,)

    def test_class_count(self):
        ds = make_classification(n_samples=300, n_classes=3, n_informative=6, seed=1)
        assert set(np.unique(ds.y)) == {0, 1, 2}
        assert ds.num_classes == 3

    def test_reproducible(self):
        a = make_classification(n_samples=100, seed=5)
        b = make_classification(n_samples=100, seed=5)
        assert np.allclose(a.X, b.X)
        assert (a.y == b.y).all()

    def test_different_seeds_differ(self):
        a = make_classification(n_samples=100, seed=1)
        b = make_classification(n_samples=100, seed=2)
        assert not np.allclose(a.X, b.X)

    def test_features_standardised(self):
        ds = make_classification(n_samples=500, seed=0)
        assert np.allclose(ds.X.mean(axis=0), 0.0, atol=1e-6)
        assert np.allclose(ds.X.std(axis=0), 1.0, atol=1e-3)

    def test_too_many_informative_rejected(self):
        with pytest.raises(ValueError):
            make_classification(n_features=5, n_informative=4, n_redundant=3)

    def test_flip_y_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            make_classification(flip_y=1.5)

    def test_separable_dataset_is_learnable(self):
        ds = make_classification(
            n_samples=400, n_features=10, n_informative=6, class_sep=2.0, flip_y=0.0, seed=0
        )
        model = LogisticRegressionModel().fit(ds.X_train, ds.y_train)
        assert model.score(ds.X_test, ds.y_test) > 0.85

    def test_class_sep_controls_difficulty(self):
        easy = make_classification(n_samples=600, class_sep=2.5, flip_y=0.0, seed=3)
        hard = make_classification(n_samples=600, class_sep=0.3, flip_y=0.0, seed=3)
        easy_score = LogisticRegressionModel().fit(easy.X_train, easy.y_train).score(
            easy.X_test, easy.y_test
        )
        hard_score = LogisticRegressionModel().fit(hard.X_train, hard.y_train).score(
            hard.X_test, hard.y_test
        )
        assert easy_score > hard_score

    @pytest.mark.parametrize("class_sep", [float("nan"), float("inf"), -1.0, 1e300])
    def test_out_of_range_class_sep_is_refused(self, class_sep):
        with pytest.raises(ValueError, match="class_sep"):
            make_classification(n_samples=200, n_features=6, class_sep=class_sep)

    def test_class_sep_bounds_are_accepted(self):
        for class_sep in (0.0, 100.0):
            make_classification(n_samples=200, n_features=6, class_sep=class_sep)


class TestHardnessSeries:
    def test_levels_and_names(self):
        series = make_hardness_series(hardness_levels=(20, 100), n_samples=300, seed=0)
        assert len(series) == 2
        assert series[0].num_features == 20
        assert series[1].num_features == 100

    def test_hardness_increases(self):
        series = make_hardness_series(hardness_levels=(20, 400), n_samples=800, seed=0)
        scores = []
        for ds in series:
            model = LogisticRegressionModel().fit(ds.X_train, ds.y_train)
            scores.append(model.score(ds.X_test, ds.y_test))
        assert scores[0] > scores[1]


class TestStandIns:
    def test_mnist_like_shape(self):
        ds = make_mnist_like(n_samples=300, n_features=128, seed=0)
        assert ds.num_classes == 10
        assert ds.num_features == 128
        assert ds.name == "mnist-like"

    def test_cifar_like_shape(self):
        ds = make_cifar_like(n_samples=300, n_features=128, seed=0)
        assert ds.num_classes == 2
        assert ds.name == "cifar-like"

    def test_cifar_like_is_harder_than_mnist_like_binary_rate(self):
        """CIFAR-like accuracy should sit well below its ceiling; the task is hard."""
        ds = make_cifar_like(n_samples=1500, n_features=128, seed=1)
        model = LogisticRegressionModel().fit(ds.X_train, ds.y_train)
        score = model.score(ds.X_test, ds.y_test)
        assert 0.55 < score < 0.95
