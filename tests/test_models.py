"""Unit tests for the learning models."""

import numpy as np
import pytest
from scipy import optimize

from repro.learning.models import (
    LogisticRegressionModel,
    MajorityClassModel,
    uncertainty_entropy,
    uncertainty_least_confidence,
    uncertainty_margin,
)


def _reference_fit(X, y, classes, weights, regularization, max_iter):
    """The fit as first written: per-row class lookup, product formed per call,
    every weight multiplied in, softmax and gradient in fresh arrays.

    ``LogisticRegressionModel.fit`` maps labels and weights the one-hot
    targets with array operations, works in place and skips unit weights;
    the fitted parameters must not move.
    """
    class_index = {int(c): i for i, c in enumerate(classes)}
    y_idx = np.array([class_index[int(label)] for label in y])
    n_samples, n_features = X.shape
    n_classes = len(classes)
    target = np.zeros((n_samples, n_classes))
    target[np.arange(n_samples), y_idx] = 1.0
    weight_sum = weights.sum()

    def objective(flat):
        W = flat[: n_features * n_classes].reshape(n_features, n_classes)
        b = flat[n_features * n_classes :]
        logits = X @ W + b
        shifted = logits - logits.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        probs = exp / exp.sum(axis=1, keepdims=True)
        log_likelihood = (weights[:, None] * target * np.log(probs + 1e-12)).sum()
        penalty = 0.5 * regularization * np.sum(W * W)
        loss = -log_likelihood / weight_sum + penalty / weight_sum
        grad_logits = (probs - target) * weights[:, None]
        grad_W = (X.T @ grad_logits + regularization * W) / weight_sum
        grad_b = grad_logits.sum(axis=0) / weight_sum
        return loss, np.concatenate([grad_W.ravel(), grad_b])

    x0 = np.zeros(n_features * n_classes + n_classes)
    return optimize.minimize(
        objective, x0, jac=True, method="L-BFGS-B", options={"maxiter": max_iter}
    ).x


class TestLogisticRegression:
    def test_unfitted_model_rejects_prediction(self):
        model = LogisticRegressionModel()
        with pytest.raises(ValueError):
            model.predict(np.zeros((2, 3)))

    def test_learns_linearly_separable_data(self, rng):
        X = np.vstack([rng.normal(-2, 0.5, size=(100, 2)), rng.normal(2, 0.5, size=(100, 2))])
        y = np.array([0] * 100 + [1] * 100)
        model = LogisticRegressionModel().fit(X, y)
        assert model.score(X, y) > 0.95

    def test_multiclass(self, rng):
        centers = np.array([[0, 0], [6, 0], [0, 6]])
        X = np.vstack([rng.normal(c, 0.6, size=(80, 2)) for c in centers])
        y = np.repeat([0, 1, 2], 80)
        model = LogisticRegressionModel().fit(X, y)
        assert model.score(X, y) > 0.9

    def test_predict_proba_rows_sum_to_one(self, tiny_dataset):
        model = LogisticRegressionModel().fit(tiny_dataset.X_train, tiny_dataset.y_train)
        probs = model.predict_proba(tiny_dataset.X_test)
        assert np.allclose(probs.sum(axis=1), 1.0)
        assert (probs >= 0).all()

    def test_fixed_num_classes_allows_unseen_labels(self):
        X = np.array([[0.0], [1.0], [2.0]])
        y = np.array([0, 0, 0])
        model = LogisticRegressionModel(num_classes=3).fit(X, y)
        probs = model.predict_proba(X)
        assert probs.shape == (3, 3)

    def test_label_outside_classes_rejected(self):
        X = np.zeros((3, 2))
        y = np.array([0, 1, 5])
        with pytest.raises(ValueError):
            LogisticRegressionModel(num_classes=3).fit(X, y)

    def test_empty_fit_rejected(self):
        with pytest.raises(ValueError):
            LogisticRegressionModel().fit(np.zeros((0, 2)), np.array([], dtype=int))

    def test_mismatched_rows_rejected(self):
        with pytest.raises(ValueError):
            LogisticRegressionModel().fit(np.zeros((3, 2)), np.array([0, 1]))

    def test_sample_weights_change_fit(self, rng):
        X = np.vstack([rng.normal(-1, 1.0, size=(50, 2)), rng.normal(1, 1.0, size=(50, 2))])
        y = np.array([0] * 50 + [1] * 50)
        weights = np.ones(100)
        weights[:50] = 100.0
        unweighted = LogisticRegressionModel().fit(X, y)
        weighted = LogisticRegressionModel().fit(X, y, sample_weight=weights)
        class0 = X[:50]
        assert weighted.score(class0, y[:50]) >= unweighted.score(class0, y[:50])

    @pytest.mark.parametrize(
        ("num_classes", "labels"),
        [
            (None, (1, 4, 7)),
            (4, (0, 2, 3)),
            (None, (3, 8)),
            (2, (0, 1)),
            (None, tuple(range(7))),
            (8, tuple(range(8))),
            (None, tuple(range(10))),
            (10, tuple(range(10))),
        ],
    )
    @pytest.mark.parametrize("weighted", [True, False], ids=["weighted", "unit"])
    def test_fit_matches_the_reference_objective_exactly(
        self, rng, num_classes, labels, weighted
    ):
        X = rng.normal(size=(60, 3))
        y = rng.choice(labels, size=60)
        weights = rng.uniform(0.5, 2.0, size=60) if weighted else None
        model = LogisticRegressionModel(num_classes=num_classes).fit(X, y, sample_weight=weights)
        classes = np.arange(num_classes) if num_classes is not None else np.unique(y)
        reference_weights = weights if weighted else np.ones(60)
        expected = _reference_fit(
            X, y, classes, reference_weights, model.regularization, model.max_iter
        )
        n_weights = X.shape[1] * len(classes)
        assert np.array_equal(model._weights.ravel(), expected[:n_weights])
        assert np.array_equal(model._intercept, expected[n_weights:])

    @pytest.mark.parametrize("num_classes", [2, 3, 7, 8, 10])
    def test_predict_proba_matches_the_plain_softmax(self, rng, num_classes):
        """The column-by-column softmax gives the row-wise formula's floats,
        on both sides of the eight classes where NumPy's row sum turns
        pairwise."""
        X = rng.normal(size=(80, 4))
        y = rng.integers(num_classes, size=80)
        model = LogisticRegressionModel(num_classes=num_classes).fit(X, y)
        X_new = rng.normal(scale=5.0, size=(300, 4))
        z = model.decision_function(X_new)
        exp = np.exp(z - z.max(1, keepdims=True))
        assert np.array_equal(model.predict_proba(X_new), exp / exp.sum(1, keepdims=True))

    @pytest.mark.parametrize("labels", [(0, 1), (3, 7), (0, 1, 2)])
    def test_predict_is_argmax_of_the_probabilities(self, monkeypatch, rng, labels):
        """Two classes compare their columns in place of ``np.argmax``; ties
        go to the first column and the first NaN wins, as argmax rules,
        including a NaN in the second column only."""
        X = rng.normal(size=(40, 2))
        model = LogisticRegressionModel().fit(X, rng.choice(labels, size=40))
        values = [0.0, 0.25, 0.5, 1.0, np.inf, -np.inf, np.nan]
        grid = [column.ravel() for column in np.meshgrid(*[values] * len(labels))]
        probs = np.stack(grid, axis=1)
        expected = model._classes[np.argmax(probs, axis=1)]
        monkeypatch.setattr(model, "predict_proba", lambda X: probs.copy())
        predicted = model.predict(X)
        assert predicted.dtype == expected.dtype
        assert np.array_equal(predicted, expected)

    def test_negative_sample_weights_rejected(self):
        X = np.zeros((2, 2))
        y = np.array([0, 1])
        with pytest.raises(ValueError):
            LogisticRegressionModel().fit(X, y, sample_weight=np.array([-1.0, 1.0]))

    def test_all_zero_sample_weights_rejected(self):
        X = np.zeros((2, 2))
        y = np.array([0, 1])
        with pytest.raises(ValueError):
            LogisticRegressionModel().fit(X, y, sample_weight=np.zeros(2))

    def test_regularization_shrinks_weights(self, tiny_dataset):
        light = LogisticRegressionModel(regularization=0.01).fit(
            tiny_dataset.X_train, tiny_dataset.y_train
        )
        heavy = LogisticRegressionModel(regularization=100.0).fit(
            tiny_dataset.X_train, tiny_dataset.y_train
        )
        assert np.linalg.norm(heavy._weights) < np.linalg.norm(light._weights)

    def test_clone_is_unfitted_with_same_hyperparameters(self):
        model = LogisticRegressionModel(regularization=3.0, max_iter=50, num_classes=4)
        clone = model.clone()
        assert not clone.is_fitted
        assert clone.regularization == 3.0
        assert clone.num_classes == 4

    def test_generalizes_to_test_split(self, tiny_dataset):
        model = LogisticRegressionModel().fit(tiny_dataset.X_train, tiny_dataset.y_train)
        assert model.score(tiny_dataset.X_test, tiny_dataset.y_test) > 0.85


class TestMajorityClassModel:
    def test_predicts_majority(self):
        X = np.zeros((5, 2))
        y = np.array([1, 1, 1, 0, 0])
        model = MajorityClassModel().fit(X, y)
        assert (model.predict(X) == 1).all()

    def test_proba_matches_proportions(self):
        X = np.zeros((4, 2))
        y = np.array([0, 1, 1, 1])
        model = MajorityClassModel().fit(X, y)
        probs = model.predict_proba(X)
        assert probs[0, 1] == pytest.approx(0.75)

    def test_unfitted_rejects_prediction(self):
        with pytest.raises(ValueError):
            MajorityClassModel().predict(np.zeros((1, 2)))

    def test_empty_fit_rejected(self):
        with pytest.raises(ValueError):
            MajorityClassModel().fit(np.zeros((0, 2)), np.array([], dtype=int))

    def test_score_is_majority_fraction(self):
        X = np.zeros((4, 1))
        y = np.array([0, 0, 0, 1])
        model = MajorityClassModel().fit(X, y)
        assert model.score(X, y) == pytest.approx(0.75)


class TestUncertaintyMeasures:
    def test_margin_highest_for_uniform(self):
        probs = np.array([[0.5, 0.5], [0.9, 0.1]])
        scores = uncertainty_margin(probs)
        assert scores[0] > scores[1]

    def test_entropy_highest_for_uniform(self):
        probs = np.array([[0.5, 0.5], [0.99, 0.01]])
        scores = uncertainty_entropy(probs)
        assert scores[0] > scores[1]

    def test_least_confidence_highest_for_uniform(self):
        probs = np.array([[0.5, 0.5], [0.8, 0.2]])
        scores = uncertainty_least_confidence(probs)
        assert scores[0] > scores[1]

    @pytest.mark.parametrize("num_classes", [2, 3, 10])
    def test_margin_matches_the_sorted_definition(self, rng, num_classes):
        probs = rng.dirichlet(np.ones(num_classes), size=200)
        # Half the rows carry their maximum in two random columns.
        for row in probs[:100]:
            row[rng.choice(num_classes, size=2, replace=False)] = row.max()
        ordered = np.sort(probs, axis=1)
        expected = 1.0 - (ordered[:, -1] - ordered[:, -2])
        assert np.array_equal(uncertainty_margin(probs), expected)
        assert (expected[:100] == 1.0).all()

    def test_margin_requires_two_classes(self):
        with pytest.raises(ValueError):
            uncertainty_margin(np.array([[1.0]]))

    def test_entropy_non_negative(self, rng):
        probs = rng.dirichlet(np.ones(4), size=50)
        assert (uncertainty_entropy(probs) >= 0).all()
