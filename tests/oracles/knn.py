"""KNN reference paths — the spec of ``repro.ml.knn``'s kernel.

``vote_reference`` is the per-class vote loop behind ``_vote``.
``pairwise_sq_distances_reference`` is the plain, allocating distance
expression behind ``KNeighborsClassifier._pairwise_sq_distances``,
``select_neighbors_reference`` the one whole-matrix ``argpartition``
behind the row-blocked ``_select_neighbors``, and
``knn_proba_reference`` the one-selection-per-call select-and-vote
path behind ``_select_neighbors`` + ``_proba_from_distances`` and the
fold workspace's memos.
"""

import numpy as np


def vote_reference(
    vote_weights: np.ndarray, neighbor_labels: np.ndarray, n_classes: int
) -> np.ndarray:
    """Sum each row's neighbor weights per class with one pass per class."""
    proba = np.zeros((len(neighbor_labels), n_classes))
    for cls in range(n_classes):
        proba[:, cls] = np.sum(vote_weights * (neighbor_labels == cls), axis=1)
    return proba


def pairwise_sq_distances_reference(model, X: np.ndarray) -> np.ndarray:
    """Squared distances from each row of ``X`` to ``model``'s training rows."""
    query_norms = np.sum(X**2, axis=1)[:, None]
    cross = X @ model._X.T
    return np.maximum(query_norms + model._sq_norms[None, :] - 2.0 * cross, 0.0)


def select_neighbors_reference(distances: np.ndarray, k: int) -> np.ndarray:
    """Each row's ``k`` nearest columns from one whole-matrix ``argpartition``."""
    return np.argpartition(distances, k - 1, axis=1)[:, :k]


def knn_proba_reference(
    distances: np.ndarray,
    train_labels: np.ndarray,
    n_classes: int,
    k: int,
    weights: str,
) -> np.ndarray:
    """Class probabilities of a fresh ``k``-neighbor selection and vote."""
    neighbor_idx = select_neighbors_reference(distances, k)
    neighbor_labels = train_labels[neighbor_idx]

    if weights == "uniform":
        vote_weights = np.ones_like(neighbor_labels, dtype=np.float64)
    else:
        rows = np.arange(len(distances))[:, None]
        neighbor_dist = np.sqrt(np.maximum(distances[rows, neighbor_idx], 0.0))
        vote_weights = 1.0 / (neighbor_dist + 1e-9)

    proba = vote_reference(vote_weights, neighbor_labels, n_classes)
    totals = proba.sum(axis=1, keepdims=True)
    return proba / np.where(totals == 0.0, 1.0, totals)
