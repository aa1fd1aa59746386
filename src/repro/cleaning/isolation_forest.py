"""Isolation forest for outlier detection (Liu, Ting & Zhou 2008).

scikit-learn is unavailable, so the paper's third outlier detector is
implemented from scratch: an ensemble of isolation trees, each built on a
subsample by recursively picking a random feature and a random split
point.  Outliers isolate quickly, so their expected path length is short;
the anomaly score is ``2^(-E[h(x)] / c(n))`` and the ``contamination``
quantile of training scores becomes the decision threshold (the paper
uses contamination 0.01).
"""

from __future__ import annotations

import numpy as np

_EULER_MASCHERONI = 0.5772156649015329


def average_path_length(n: int | np.ndarray) -> np.ndarray:
    """c(n): expected path length of an unsuccessful BST search."""
    n = np.asarray(n, dtype=np.float64)
    out = np.zeros_like(n)
    big = n > 2
    out[big] = 2.0 * (np.log(n[big] - 1.0) + _EULER_MASCHERONI) - 2.0 * (
        n[big] - 1.0
    ) / n[big]
    out[n == 2] = 1.0
    return out


class _IsolationNode:
    __slots__ = ("feature", "threshold", "left", "right", "size")

    def __init__(self, size: int) -> None:
        self.feature: int | None = None
        self.threshold = 0.0
        self.left: "_IsolationNode | None" = None
        self.right: "_IsolationNode | None" = None
        self.size = size


class IsolationForest:
    """Unsupervised anomaly detector.

    Parameters
    ----------
    n_estimators:
        Number of isolation trees.
    max_samples:
        Subsample size per tree (capped at the data size).
    contamination:
        Expected fraction of outliers; sets the score threshold.
    """

    def __init__(
        self,
        n_estimators: int = 100,
        max_samples: int = 256,
        contamination: float = 0.01,
        random_state: int | None = None,
    ) -> None:
        if not 0.0 < contamination < 0.5:
            raise ValueError("contamination must be in (0, 0.5)")
        self.n_estimators = n_estimators
        self.max_samples = max_samples
        self.contamination = contamination
        self.random_state = random_state

    def fit(self, X: np.ndarray) -> "IsolationForest":
        self.fit_scores(X)
        return self

    def fit_scores(self, X: np.ndarray) -> np.ndarray:
        """Fit, returning the training scores the threshold is drawn from."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or len(X) == 0:
            raise ValueError("X must be a non-empty 2-D array")
        rng = np.random.default_rng(self.random_state)
        sample_size = min(self.max_samples, len(X))
        # height limit from the paper: ceil(log2(subsample size))
        self._height_limit = int(np.ceil(np.log2(max(sample_size, 2))))
        self._sample_size = sample_size
        self._trees = []
        for _ in range(self.n_estimators):
            rows = rng.choice(len(X), size=sample_size, replace=False)
            self._trees.append(self._grow(X[rows], depth=0, rng=rng))
        train_scores = self.score(X)
        self.threshold_ = float(
            np.quantile(train_scores, 1.0 - self.contamination)
        )
        return train_scores

    def _grow(self, X: np.ndarray, depth: int, rng: np.random.Generator) -> _IsolationNode:
        node = _IsolationNode(size=len(X))
        if depth >= self._height_limit or len(X) <= 1:
            return node
        spans = X.max(axis=0) - X.min(axis=0)
        candidates = np.nonzero(spans > 0.0)[0]
        if len(candidates) == 0:
            return node
        feature = int(rng.choice(candidates))
        low, high = X[:, feature].min(), X[:, feature].max()
        threshold = float(rng.uniform(low, high))
        mask = X[:, feature] < threshold
        if not mask.any() or mask.all():
            return node
        node.feature = feature
        node.threshold = threshold
        node.left = self._grow(X[mask], depth + 1, rng)
        node.right = self._grow(X[~mask], depth + 1, rng)
        return node

    def score(self, X: np.ndarray) -> np.ndarray:
        """Anomaly scores in (0, 1); larger = more anomalous."""
        X = np.asarray(X, dtype=np.float64)
        depths = np.zeros(len(X))
        for tree in self._trees:
            depths += self._path_lengths(tree, X)
        mean_depth = depths / len(self._trees)
        c = average_path_length(np.array([self._sample_size]))[0]
        return np.power(2.0, -mean_depth / max(c, 1e-9))

    def predict_outliers(self, X: np.ndarray) -> np.ndarray:
        """Boolean mask: True where the score exceeds the threshold."""
        if not hasattr(self, "threshold_"):
            raise RuntimeError("IsolationForest must be fitted first")
        return self.score(X) > self.threshold_

    def _path_lengths(self, root: _IsolationNode, X: np.ndarray) -> np.ndarray:
        out = np.zeros(len(X))
        self._descend(root, X, np.arange(len(X)), 0, out)
        return out

    def _descend(self, node, X, indices, depth, out) -> None:
        if len(indices) == 0:
            return
        if node.feature is None:
            # unresolved leaves get the expected extra depth for their size
            extra = average_path_length(np.array([max(node.size, 1)]))[0]
            out[indices] = depth + extra
            return
        mask = X[indices, node.feature] < node.threshold
        self._descend(node.left, X, indices[mask], depth + 1, out)
        self._descend(node.right, X, indices[~mask], depth + 1, out)
