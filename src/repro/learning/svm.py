"""Linear soft-margin SVM trained with the Pegasos algorithm.

Pegasos (Shalev-Shwartz et al.) performs stochastic sub-gradient descent on
the primal L2-regularised hinge loss; for the low-dimensional feature
vectors used by entity resolution (2-8 similarity features) it converges in
a few thousand iterations and reproduces the ranking behaviour of an
off-the-shelf linear SVM.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


class LinearSVM:
    """Binary linear SVM with hinge loss, L2 regularisation and an
    (unregularised) bias term.

    ``REGULARIZATION`` is the lambda of the Pegasos objective (larger
    values mean a wider margin / stronger regularisation) and
    ``ITERATIONS`` the number of stochastic sub-gradient steps; ``seed``
    seeds the sampling RNG, for reproducible training.
    """

    REGULARIZATION = 1e-3
    ITERATIONS = 20_000

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.weights: Optional[np.ndarray] = None
        self.bias: float = 0.0

    @property
    def is_fitted(self) -> bool:
        """True once :meth:`fit` has completed."""
        return self.weights is not None

    def fit(self, features: np.ndarray, labels: np.ndarray) -> "LinearSVM":
        """Train on a feature matrix and 0/1 (or +/-1) labels.

        Raises ``ValueError`` if only one class is present: a margin cannot
        be defined in that case and the caller should fall back to a
        similarity-threshold ranking instead.
        """
        features = np.asarray(features, dtype=float)
        labels = np.asarray(labels)
        if features.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        if features.shape[0] != labels.shape[0]:
            raise ValueError("features and labels must have the same number of rows")
        signed = np.where(labels > 0, 1.0, -1.0)
        if len(np.unique(signed)) < 2:
            raise ValueError("training data must contain both classes")

        n_samples, n_features = features.shape
        rng = np.random.default_rng(self.seed)
        weights = np.zeros(n_features)
        bias = 0.0
        for step in range(1, self.ITERATIONS + 1):
            index = int(rng.integers(0, n_samples))
            x = features[index]
            y = signed[index]
            learning_rate = 1.0 / (self.REGULARIZATION * step)
            margin = y * (float(np.dot(weights, x)) + bias)
            weights *= 1.0 - learning_rate * self.REGULARIZATION
            if margin < 1.0:
                weights += learning_rate * y * x
                bias += learning_rate * y
            # Optional projection step of Pegasos keeps ||w|| bounded.
            norm = float(np.linalg.norm(weights))
            limit = 1.0 / np.sqrt(self.REGULARIZATION)
            if norm > limit:
                weights *= limit / norm
        self.weights = weights
        self.bias = bias
        return self

    def decision_function(self, features: np.ndarray) -> np.ndarray:
        """Signed distance to the separating hyperplane (ranking score)."""
        if not self.is_fitted:
            raise RuntimeError("LinearSVM must be fitted before scoring")
        features = np.asarray(features, dtype=float)
        if features.ndim == 1:
            features = features.reshape(1, -1)
        return features @ self.weights + self.bias
