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


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, computed in place: returns ``logits``, overwritten."""
    logits -= np.maximum.reduce(logits, axis=1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= np.add.reduce(logits, axis=1, keepdims=True)
    return logits


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

        # The objective runs once per L-BFGS evaluation, so it works in place
        # and calls the ufunc reductions directly.  It keeps the arithmetic
        # of the plain formulation, operation for operation, so the fitted
        # parameters do not move by a bit; a product with unit weights is
        # exact, so it is skipped.
        target = _one_hot(y_idx, n_classes)
        weight_column = weights[:, None]
        weighted_target = target if unit_weights else weight_column * target
        n_weights = n_features * n_classes
        regularization = self.regularization
        add = np.add.reduce

        def objective(flat: np.ndarray) -> tuple[float, np.ndarray]:
            W = flat[:n_weights].reshape(n_features, n_classes)
            logits = X @ W
            logits += flat[n_weights:]
            probs = _softmax(logits)
            log_probs = probs + 1e-12
            np.log(log_probs, out=log_probs)
            log_probs *= weighted_target
            log_likelihood = add(log_probs, axis=None)
            penalty = 0.5 * regularization * add(W * W, axis=None)
            loss = -log_likelihood / weight_sum + penalty / weight_sum
            grad_logits = probs
            grad_logits -= target
            if not unit_weights:
                grad_logits *= weight_column
            grad = np.empty(flat.shape[0])
            grad_W = grad[:n_weights].reshape(n_features, n_classes)
            np.matmul(X.T, grad_logits, out=grad_W)
            grad_W += regularization * W
            grad_W /= weight_sum
            grad_b = add(grad_logits, axis=0, out=grad[n_weights:])
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

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        if not self.is_fitted:
            raise ValueError("model has not been fitted")
        X = np.asarray(X, dtype=float)
        assert self._weights is not None and self._intercept is not None
        return X @ self._weights + self._intercept

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Class-membership probabilities, one row per sample."""
        return _softmax(self.decision_function(X))

    def predict(self, X: np.ndarray) -> np.ndarray:
        probs = self.predict_proba(X)
        assert self._classes is not None
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
    part = np.sort(probabilities, axis=1)
    return 1.0 - (part[:, -1] - part[:, -2])


def uncertainty_entropy(probabilities: np.ndarray) -> np.ndarray:
    """Entropy of the predictive distribution; higher is more uncertain."""
    eps = 1e-12
    return -np.sum(probabilities * np.log(probabilities + eps), axis=1)


def uncertainty_least_confidence(probabilities: np.ndarray) -> np.ndarray:
    """1 - max class probability; higher is more uncertain."""
    return 1.0 - probabilities.max(axis=1)
