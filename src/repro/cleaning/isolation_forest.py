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


class _IsolationTree:
    """One isolation tree as flat node arrays, the root at index 0.

    ``feature`` is -1 at a leaf; ``left`` and ``right`` are child
    indices; ``size`` is the number of subsample rows that reached the
    node.  ``path_length`` holds, at each leaf, ``depth + c(size)`` —
    the path length of every row that lands there, an unresolved leaf
    adding the expected depth of a subtree of its size — computed once
    when the tree is grown.
    """

    __slots__ = ("feature", "threshold", "left", "right", "size", "path_length")

    def __init__(self, nodes: list[list]) -> None:
        feature, threshold, left, right, size, depth = zip(*nodes)
        self.feature = np.array(feature, dtype=np.intp)
        self.threshold = np.array(threshold, dtype=np.float64)
        self.left = np.array(left, dtype=np.intp)
        self.right = np.array(right, dtype=np.intp)
        self.size = np.array(size, dtype=np.int64)
        leaves = self.feature < 0
        self.path_length = np.zeros(len(nodes))
        self.path_length[leaves] = np.array(depth)[leaves] + average_path_length(
            np.maximum(self.size[leaves], 1)
        )

    def path_lengths(self, X: np.ndarray) -> np.ndarray:
        """Each row's path length: descend all rows level by level."""
        node = np.zeros(len(X), dtype=np.intp)
        active = np.arange(len(X))
        while len(active):
            at = node[active]
            feature = self.feature[at]
            inner = feature >= 0
            active, at, feature = active[inner], at[inner], feature[inner]
            go_left = X[active, feature] < self.threshold[at]
            node[active] = np.where(go_left, self.left[at], self.right[at])
        return self.path_length[node]


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
        self._trees = [
            self._grow(X[rng.choice(len(X), size=sample_size, replace=False)], rng)
            for _ in range(self.n_estimators)
        ]
        train_scores = self.score(X)
        self.threshold_ = float(
            np.quantile(train_scores, 1.0 - self.contamination)
        )
        return train_scores

    def _grow(self, X: np.ndarray, rng: np.random.Generator) -> _IsolationTree:
        """One tree, grown depth first (left subtree before right).

        Nodes are numbered in that order, and the random draws follow
        it: each split draws its feature, then its threshold, then
        grows its left and its right subtree.
        """
        #: per node: feature, threshold, left, right, size, depth
        nodes: list[list] = []

        def grow(X: np.ndarray, depth: int) -> int:
            index = len(nodes)
            node = [-1, 0.0, -1, -1, len(X), depth]
            nodes.append(node)
            if depth >= self._height_limit or len(X) <= 1:
                return index
            spans = X.max(axis=0) - X.min(axis=0)
            candidates = np.nonzero(spans > 0.0)[0]
            if len(candidates) == 0:
                return index
            feature = int(rng.choice(candidates))
            low, high = X[:, feature].min(), X[:, feature].max()
            threshold = float(rng.uniform(low, high))
            mask = X[:, feature] < threshold
            if not mask.any() or mask.all():
                return index
            node[0], node[1] = feature, threshold
            node[2] = grow(X[mask], depth + 1)
            node[3] = grow(X[~mask], depth + 1)
            return index

        grow(X, 0)
        return _IsolationTree(nodes)

    def score(self, X: np.ndarray) -> np.ndarray:
        """Anomaly scores in (0, 1); larger = more anomalous.

        The per-tree path lengths are summed in tree order.
        """
        X = np.asarray(X, dtype=np.float64)
        depths = np.zeros(len(X))
        for tree in self._trees:
            depths += tree.path_lengths(X)
        mean_depth = depths / len(self._trees)
        c = average_path_length(np.array([self._sample_size]))[0]
        return np.power(2.0, -mean_depth / max(c, 1e-9))

    def predict_outliers(self, X: np.ndarray) -> np.ndarray:
        """Boolean mask: True where the score exceeds the threshold."""
        if not hasattr(self, "threshold_"):
            raise RuntimeError("IsolationForest must be fitted first")
        return self.score(X) > self.threshold_
