"""Per-class KNN vote loop — the spec of ``repro.ml.knn._vote``."""

import numpy as np


def vote_reference(
    vote_weights: np.ndarray, neighbor_labels: np.ndarray, n_classes: int
) -> np.ndarray:
    """Sum each row's neighbor weights per class with one pass per class."""
    proba = np.zeros((len(neighbor_labels), n_classes))
    for cls in range(n_classes):
        proba[:, cls] = np.sum(vote_weights * (neighbor_labels == cls), axis=1)
    return proba
