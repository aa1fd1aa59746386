"""k-nearest-neighbors classifier.

Fully vectorized: pairwise squared euclidean distances via the expansion
``|a-b|^2 = |a|^2 + |b|^2 - 2ab``, then a partial sort for the k smallest.
KNN is the model the paper singles out as most sensitive to outliers
(Table 12, Q3), so distance behaviour matters here.

The distance matrix is a pure function of ``(train, query)`` — not of
``(n_neighbors, weights)`` — so the fold-major tuning kernel computes it
once per CV fold and serves every (k, weights) search candidate from an
``argpartition`` over it (:class:`_KNNFoldWorkspace`).
"""

from __future__ import annotations

import numpy as np

from .base import Classifier, check_fit_inputs
from .cv_kernel import FoldWorkspace


def _vote(
    vote_weights: np.ndarray, neighbor_labels: np.ndarray, n_classes: int
) -> np.ndarray:
    """Per-class vote totals in one vectorized pass.

    Bit-identical to the per-class Python loop kept as the test oracle
    (``tests/oracles/knn.py``).  The obvious scatter-add —
    ``np.add.at(proba, (row, label), weight)`` — accumulates strictly
    left-to-right, while the reference's ``np.sum`` reduces its
    contiguous axis pairwise in blocks of 8; for ``k >= 8`` with
    inverse-distance weights the two orders disagree in the last ulp,
    so the scatter is *not* bit-identical (measured, not hypothetical).  The class-major masked product below reduces a
    contiguous ``(n_classes, n_rows, k)`` block over its last axis —
    the same values in the same pairwise order as the reference's
    per-class ``(n_rows, k)`` reduction — with the Python class loop
    replaced by one broadcast.
    """
    mask = np.arange(n_classes)[:, None, None] == neighbor_labels[None, :, :]
    votes = (vote_weights[None, :, :] * mask).sum(axis=2)
    return np.ascontiguousarray(votes.T)


def _proba_from_distances(
    distances: np.ndarray,
    train_labels: np.ndarray,
    n_classes: int,
    k: int,
    weights: str,
) -> np.ndarray:
    """Class probabilities given a precomputed squared-distance matrix.

    The single post-distance code path: ``predict_proba`` calls it with
    the matrix it just computed, the fold workspace with the matrix it
    computed once per fold — which is what makes the shared-distance
    path bit-identical to a per-candidate refit by construction.
    """
    neighbor_idx = np.argpartition(distances, k - 1, axis=1)[:, :k]
    neighbor_labels = train_labels[neighbor_idx]

    if weights == "uniform":
        vote_weights = np.ones_like(neighbor_labels, dtype=np.float64)
    else:
        rows = np.arange(len(distances))[:, None]
        neighbor_dist = np.sqrt(np.maximum(distances[rows, neighbor_idx], 0.0))
        vote_weights = 1.0 / (neighbor_dist + 1e-9)

    proba = _vote(vote_weights, neighbor_labels, n_classes)
    totals = proba.sum(axis=1, keepdims=True)
    return proba / np.where(totals == 0.0, 1.0, totals)


class KNeighborsClassifier(Classifier):
    """KNN with uniform or inverse-distance voting.

    Parameters
    ----------
    n_neighbors:
        Number of neighbors, silently capped at the training-set size.
    weights:
        ``"uniform"`` for majority voting, ``"distance"`` for
        inverse-distance weighted voting.
    """

    def __init__(self, n_neighbors: int = 5, weights: str = "uniform") -> None:
        if weights not in ("uniform", "distance"):
            raise ValueError("weights must be 'uniform' or 'distance'")
        self.n_neighbors = n_neighbors
        self.weights = weights

    def fit(self, X: np.ndarray, y: np.ndarray) -> "KNeighborsClassifier":
        X, y, n_classes = check_fit_inputs(X, y)
        self.n_classes_ = n_classes
        self._X = X
        self._y = y
        self._sq_norms = np.sum(X**2, axis=1)
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        k = min(self.n_neighbors, len(self._X))
        distances = self._pairwise_sq_distances(X)
        return _proba_from_distances(
            distances, self._y, self.n_classes_, k, self.weights
        )

    def _pairwise_sq_distances(self, X: np.ndarray) -> np.ndarray:
        query_norms = np.sum(X**2, axis=1)[:, None]
        cross = X @ self._X.T
        return np.maximum(query_norms + self._sq_norms[None, :] - 2.0 * cross, 0.0)

    def make_fold_workspace(self, X_train, y_train, X_val):
        return _KNNFoldWorkspace(X_train, y_train, X_val)


class _KNNFoldWorkspace(FoldWorkspace):
    """One train<->validation distance matrix shared by every candidate.

    Fitting KNN is trivial (store the matrix, square the norms); the
    cost is the pairwise distance computation at prediction time, which
    does not depend on ``(n_neighbors, weights)`` at all.  The workspace
    fits one reference model per fold, computes the validation distance
    matrix once through the model's own ``_pairwise_sq_distances``, and
    serves every candidate from :func:`_proba_from_distances` — exactly
    the operations a per-candidate refit performs, minus the repeats.
    """

    def __init__(self, X_train, y_train, X_val) -> None:
        reference = KNeighborsClassifier().fit(X_train, y_train)
        self._n_train = len(reference._X)
        self._labels = reference._y
        self._n_classes = reference.n_classes_
        self._distances = reference._pairwise_sq_distances(
            np.asarray(X_val, dtype=np.float64)
        )

    def predict_val(self, model) -> np.ndarray:
        k = min(model.n_neighbors, self._n_train)
        proba = _proba_from_distances(
            self._distances, self._labels, self._n_classes, k, model.weights
        )
        return np.argmax(proba, axis=1)
