"""Isolation-forest reference path — the spec of ``IsolationForest.score``.

``isolation_score_reference`` is the recursive descent the forest
scored with before its trees became flat node arrays: each tree splits
the row indices node by node, and a leaf writes ``depth + c(size)``,
computed on the spot, into the rows that reach it.  The production
forest reads each leaf's precomputed path length after an array descent
of all rows at once.  The oracle reads the production trees, so it
pins scoring; the trees' growth (the random draws and the splits) is
pinned by the isolation-forest entries of ``tests/golden_cleaning.json``.
"""

import numpy as np

from repro.cleaning.isolation_forest import average_path_length


def _descend(tree, node, X, indices, depth, out) -> None:
    if len(indices) == 0:
        return
    if tree.feature[node] < 0:
        # unresolved leaves get the expected extra depth for their size
        extra = average_path_length(np.array([max(int(tree.size[node]), 1)]))[0]
        out[indices] = depth + extra
        return
    mask = X[indices, tree.feature[node]] < tree.threshold[node]
    _descend(tree, tree.left[node], X, indices[mask], depth + 1, out)
    _descend(tree, tree.right[node], X, indices[~mask], depth + 1, out)


def isolation_path_lengths_reference(tree, X: np.ndarray) -> np.ndarray:
    """Each row's path length in one tree, by recursive descent."""
    out = np.zeros(len(X))
    _descend(tree, 0, X, np.arange(len(X)), 0, out)
    return out


def isolation_score_reference(forest, X: np.ndarray) -> np.ndarray:
    """Anomaly scores of a fitted forest, summing path lengths in tree order."""
    X = np.asarray(X, dtype=np.float64)
    depths = np.zeros(len(X))
    for tree in forest._trees:
        depths += isolation_path_lengths_reference(tree, X)
    mean_depth = depths / len(forest._trees)
    c = average_path_length(np.array([forest._sample_size]))[0]
    return np.power(2.0, -mean_depth / max(c, 1e-9))
