"""Classification models for the learning substrate.

The paper's simulator trains scikit-learn models and uses uncertainty
sampling on top of them (§6.1).  scikit-learn is not available in this
environment, so this module provides a self-contained multinomial logistic
regression (softmax regression) with L2 regularisation, optimised with
L-BFGS via SciPy.  It exposes the small surface the rest of the system
needs: ``fit``, ``predict``, ``predict_proba``, and ``score``.  SciPy is
imported inside ``fit``, so a process that never trains a model never
loads it.

A trivial :class:`MajorityClassModel` baseline is included for sanity checks
and for the cold-start phase before any labels exist.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np


def _one_hot(y: np.ndarray, num_classes: int) -> np.ndarray:
    encoded = np.zeros((y.shape[0], num_classes))
    encoded[np.arange(y.shape[0]), y] = 1.0
    return encoded


#: From this many classes on, the softmax's row sum runs row-wise.  NumPy sums
#: a row of fewer than eight values one by one, left to right, so adding its
#: columns in turn gives the same bits; from eight on it sums pairwise, and
#: only its own reduction matches.  The branch is there for correctness: this
#: is NumPy's internal behaviour, not a documented rule, and the pinned cases
#: in ``tests/test_models.py`` (7 and 8 classes among them) guard it.
_ROW_WISE_CLASSES = 8


def _columns(array: np.ndarray) -> list[np.ndarray]:
    """Strided views of ``array``'s class columns."""
    return [array[:, j] for j in range(array.shape[1])]


def _softmax(logits: np.ndarray, intercept: np.ndarray) -> np.ndarray:
    """Row-wise softmax of ``logits + intercept``, computed in place: returns
    ``logits``, overwritten.

    The class axis is short (two classes in most paper workloads), and NumPy
    pays a per-row loop overhead to reduce or broadcast along it, so below
    ``_ROW_WISE_CLASSES`` each step is one ufunc call per class column.  Every
    element sees the arithmetic of the row-wise form in the same order, so
    the result is the same floats.
    """
    if logits.shape[1] >= _ROW_WISE_CLASSES:
        logits += intercept
        logits -= np.maximum.reduce(logits, axis=1, keepdims=True)
        np.exp(logits, out=logits)
        logits /= np.add.reduce(logits, axis=1, keepdims=True)
        return logits
    columns = _columns(logits)
    for column, bias in zip(columns, intercept):
        column += bias
    row_max = columns[0].copy()
    for column in columns[1:]:
        np.maximum(row_max, column, out=row_max)
    for column in columns:
        column -= row_max
    np.exp(logits, out=logits)
    row_sum = columns[0].copy()
    for column in columns[1:]:
        row_sum += column
    for column in columns:
        column /= row_sum
    return logits


def _second_column_wins(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """``np.argmax`` over two columns, as 0/1 indices, without its per-row loop.

    argmax's rules hold: on a tie the first column wins, and a NaN counts as
    the maximum, the first NaN winning.  So the second column wins where it is
    larger, or where it alone is NaN: where ``first >= second`` is false (the
    second is larger or either is NaN) and ``first`` is not NaN.
    """
    return (~(first >= second) & (first == first)).view(np.int8)


@dataclass
class LogisticRegressionModel:
    """Multinomial logistic regression with L2 regularisation.

    Parameters
    ----------
    regularization:
        Inverse-variance weight on the L2 penalty (0 disables it).
    max_iter:
        Maximum L-BFGS iterations per ``fit``.
    num_classes:
        If provided, the label space is fixed up front so the model can be
        queried for classes it has not yet observed in training data (this
        matters early in active learning when a batch may contain only one
        class).  If ``None``, classes are inferred from the first ``fit``.
    """

    regularization: float = 1.0
    max_iter: int = 200
    num_classes: Optional[int] = None
    sample_weighting: bool = True
    _classes: Optional[np.ndarray] = field(default=None, repr=False)
    _weights: Optional[np.ndarray] = field(default=None, repr=False)
    _intercept: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def is_fitted(self) -> bool:
        return self._weights is not None

    def clone(self) -> "LogisticRegressionModel":
        """A fresh, unfitted copy with the same hyperparameters."""
        return LogisticRegressionModel(
            regularization=self.regularization,
            max_iter=self.max_iter,
            num_classes=self.num_classes,
            sample_weighting=self.sample_weighting,
        )

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        sample_weight: Optional[np.ndarray] = None,
    ) -> "LogisticRegressionModel":
        """Fit the model to labeled data.

        ``sample_weight`` lets hybrid learning weight actively- and
        passively-sampled points differently (§5.1).
        """
        from scipy import optimize

        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=int)
        if X.ndim != 2:
            raise ValueError("X must be a 2-D array")
        if X.shape[0] != y.shape[0]:
            raise ValueError("X and y must have the same number of rows")
        if X.shape[0] == 0:
            raise ValueError("cannot fit on an empty dataset")

        if self.num_classes is not None:
            classes = np.arange(self.num_classes)
            if np.any((y < 0) | (y >= self.num_classes)):
                raise ValueError("y contains labels outside the configured classes")
            y_idx = y
        else:
            classes, y_idx = np.unique(y, return_inverse=True)
        self._classes = classes
        n_samples, n_features = X.shape
        n_classes = len(classes)

        unit_weights = sample_weight is None or not self.sample_weighting
        if unit_weights:
            weights = np.ones(n_samples)
        else:
            weights = np.asarray(sample_weight, dtype=float)
            if weights.shape[0] != n_samples:
                raise ValueError("sample_weight length must match X")
            if np.any(weights < 0):
                raise ValueError("sample_weight must be non-negative")
        weight_sum = weights.sum()
        if weight_sum <= 0:
            raise ValueError("sample_weight must not be all zero")

        # The objective runs once per L-BFGS evaluation, so it works in place,
        # calls the ufuncs directly and does its class-axis work column by
        # column.  It keeps the arithmetic of the plain formulation,
        # operation for operation, so the fitted parameters do not move by a
        # bit; a product with unit weights is exact, so it is skipped.
        target = _one_hot(y_idx, n_classes)
        weighted_target = target if unit_weights else weights[:, None] * target
        n_weights = n_features * n_classes
        regularization = self.regularization
        add = np.add.reduce
        accumulate = np.add.accumulate

        def objective(flat: np.ndarray) -> tuple[float, np.ndarray]:
            W = flat[:n_weights].reshape(n_features, n_classes)
            probs = _softmax(X @ W, flat[n_weights:])
            log_probs = probs + 1e-12
            np.log(log_probs, out=log_probs)
            log_probs *= weighted_target
            log_likelihood = add(log_probs, axis=None)
            penalty = 0.5 * regularization * add(W * W, axis=None)
            loss = -log_likelihood / weight_sum + penalty / weight_sum
            grad_logits = probs
            grad_logits -= target
            grad = np.empty(flat.shape[0])
            grad_b = grad[n_weights:]
            columns = _columns(grad_logits)
            if not unit_weights:
                for column in columns:
                    column *= weights
            # Each column summed down its rows in the order
            # np.add.reduce(axis=0) adds them: one by one, top to bottom.
            for j, column in enumerate(columns):
                grad_b[j] = accumulate(column)[-1]
            grad_W = grad[:n_weights].reshape(n_features, n_classes)
            np.matmul(X.T, grad_logits, out=grad_W)
            grad_W += regularization * W
            grad_W /= weight_sum
            grad_b /= weight_sum
            return loss, grad

        x0 = np.zeros(n_weights + n_classes)
        result = optimize.minimize(
            objective,
            x0,
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": self.max_iter},
        )
        flat = result.x
        self._weights = flat[:n_weights].reshape(n_features, n_classes)
        self._intercept = flat[n_weights:]
        return self

    def _parameters(self) -> tuple[np.ndarray, np.ndarray]:
        """The fitted ``(weights, intercept)``."""
        if self._weights is None or self._intercept is None:
            raise ValueError("model has not been fitted")
        return self._weights, self._intercept

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        weights, intercept = self._parameters()
        return np.asarray(X, dtype=float) @ weights + intercept

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Class-membership probabilities, one row per sample."""
        weights, intercept = self._parameters()
        return _softmax(np.asarray(X, dtype=float) @ weights, intercept)

    def predict(self, X: np.ndarray) -> np.ndarray:
        probs = self.predict_proba(X)
        assert self._classes is not None
        if probs.shape[1] == 2:
            return self._classes.take(_second_column_wins(*_columns(probs)))
        return self._classes[np.argmax(probs, axis=1)]

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        """Mean accuracy on the given test data."""
        y = np.asarray(y, dtype=int)
        return float(np.mean(self.predict(X) == y))


@dataclass
class MajorityClassModel:
    """Predicts the most frequent training label; the weakest useful baseline."""

    num_classes: Optional[int] = None
    _majority: Optional[int] = None
    _class_counts: Optional[np.ndarray] = None

    @property
    def is_fitted(self) -> bool:
        return self._majority is not None

    def clone(self) -> "MajorityClassModel":
        return MajorityClassModel(num_classes=self.num_classes)

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        sample_weight: Optional[np.ndarray] = None,
    ) -> "MajorityClassModel":
        y = np.asarray(y, dtype=int)
        if y.size == 0:
            raise ValueError("cannot fit on an empty dataset")
        n_classes = self.num_classes or int(y.max()) + 1
        counts = np.bincount(y, weights=sample_weight, minlength=n_classes)
        self._class_counts = counts
        self._majority = int(np.argmax(counts))
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self._majority is None:
            raise ValueError("model has not been fitted")
        return np.full(np.asarray(X).shape[0], self._majority, dtype=int)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        if self._class_counts is None:
            raise ValueError("model has not been fitted")
        proportions = self._class_counts / self._class_counts.sum()
        return np.tile(proportions, (np.asarray(X).shape[0], 1))

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        y = np.asarray(y, dtype=int)
        return float(np.mean(self.predict(X) == y))


def uncertainty_margin(probabilities: np.ndarray) -> np.ndarray:
    """Margin-based uncertainty: 1 - (p_top1 - p_top2); higher is more uncertain."""
    if probabilities.ndim != 2 or probabilities.shape[1] < 2:
        raise ValueError("probabilities must be (n_samples, n_classes>=2)")
    # The top two values of each row, found column by column: the same two
    # values a row-wise sort puts last, ties included, without its per-row
    # overhead on a short class axis.
    first, *rest = _columns(probabilities)
    top = np.maximum(first, rest[0])
    second = np.minimum(first, rest[0])
    for column in rest[1:]:
        np.maximum(second, np.minimum(top, column), out=second)
        np.maximum(top, column, out=top)
    return 1.0 - (top - second)


def uncertainty_entropy(probabilities: np.ndarray) -> np.ndarray:
    """Entropy of the predictive distribution; higher is more uncertain."""
    eps = 1e-12
    return -np.sum(probabilities * np.log(probabilities + eps), axis=1)


def uncertainty_least_confidence(probabilities: np.ndarray) -> np.ndarray:
    """1 - max class probability; higher is more uncertain."""
    return 1.0 - probabilities.max(axis=1)
