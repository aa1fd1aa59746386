"""Per-feature split searches — the specs of the vectorized tree split kernel.

Production runs one kernel (``repro.ml.tree._best_split``) with a gain
statistic per model; each function here is one model's whole search,
one feature at a time.  Each takes the tree instance whose node is
being split, so it sees the same hyper-parameters, feature-subsampling
generator and root sort cache as that model's ``_best_split_vectorized``.
"""

import numpy as np

from repro.ml.gbt import _GradientTree
from repro.ml.tree import _EPS, DecisionTreeClassifier, _feature_order, _gini


def _gini_rows(counts: np.ndarray, weights: np.ndarray) -> np.ndarray:
    safe = np.maximum(weights, _EPS)[:, None]
    proportions = counts / safe
    return 1.0 - np.sum(proportions**2, axis=1)


def cart_best_split_reference(
    tree: DecisionTreeClassifier,
    X: np.ndarray,
    wy: np.ndarray,
    sort_cache: dict | None = None,
) -> tuple[int, float] | None:
    """Best (feature, threshold) by weighted Gini gain, one feature at a time."""
    n_samples, n_features = X.shape
    candidates = tree._candidate_features(n_features)

    counts = wy.sum(axis=0)
    total_weight = counts.sum()
    parent_impurity = _gini(counts)

    best_gain = _EPS
    best: tuple[int, float] | None = None
    for feature in candidates:
        order = _feature_order(X, feature, sort_cache)
        sorted_x = X[order, feature]
        cum_wy = np.cumsum(wy[order], axis=0)

        # split between positions i-1 and i requires a value change
        boundary = np.nonzero(sorted_x[1:] > sorted_x[:-1] + _EPS)[0] + 1
        if len(boundary) == 0:
            continue
        leaf = tree.min_samples_leaf
        boundary = boundary[(boundary >= leaf) & (boundary <= n_samples - leaf)]
        if len(boundary) == 0:
            continue

        left_counts = cum_wy[boundary - 1]
        right_counts = counts[None, :] - left_counts
        left_weight = left_counts.sum(axis=1)
        right_weight = right_counts.sum(axis=1)
        left_gini = _gini_rows(left_counts, left_weight)
        right_gini = _gini_rows(right_counts, right_weight)
        weighted = (left_weight * left_gini + right_weight * right_gini) / max(
            total_weight, _EPS
        )
        gains = parent_impurity - weighted

        pick = int(np.argmax(gains))
        if gains[pick] > best_gain:
            best_gain = float(gains[pick])
            position = boundary[pick]
            threshold = 0.5 * (sorted_x[position - 1] + sorted_x[position])
            best = (feature, float(threshold))
    return best


def gbt_best_split_reference(
    tree: _GradientTree,
    X: np.ndarray,
    grad: np.ndarray,
    hess: np.ndarray,
    grad_sum: float,
    hess_sum: float,
    sort_cache: dict | None = None,
) -> tuple[int, float] | None:
    """Best (feature, threshold) by regularized gain, one feature at a time."""
    parent_score = grad_sum**2 / (hess_sum + tree.reg_lambda + _EPS)
    best_gain = _EPS
    best: tuple[int, float] | None = None
    for feature in range(X.shape[1]):
        order = _feature_order(X, feature, sort_cache)
        sorted_x = X[order, feature]
        cum_grad = np.cumsum(grad[order])
        cum_hess = np.cumsum(hess[order])

        boundary = np.nonzero(sorted_x[1:] > sorted_x[:-1] + _EPS)[0] + 1
        if len(boundary) == 0:
            continue

        left_grad = cum_grad[boundary - 1]
        left_hess = cum_hess[boundary - 1]
        right_grad = grad_sum - left_grad
        right_hess = hess_sum - left_hess

        ok = (left_hess >= tree.min_child_weight) & (
            right_hess >= tree.min_child_weight
        )
        if not np.any(ok):
            continue

        gains = 0.5 * (
            left_grad**2 / (left_hess + tree.reg_lambda + _EPS)
            + right_grad**2 / (right_hess + tree.reg_lambda + _EPS)
            - parent_score
        ) - tree.gamma
        gains[~ok] = -np.inf

        pick = int(np.argmax(gains))
        if gains[pick] > best_gain:
            best_gain = float(gains[pick])
            position = boundary[pick]
            best = (
                feature,
                float(0.5 * (sorted_x[position - 1] + sorted_x[position])),
            )
    return best
