"""XGBoost-style gradient-boosted trees.

Implements the second-order boosting objective of Chen & Guestrin's
XGBoost on the softmax cross-entropy loss: per round and per class, a
regression tree is grown greedily on (gradient, hessian) statistics with
the regularized gain

    gain = 1/2 * [ G_L^2/(H_L+lambda) + G_R^2/(H_R+lambda)
                   - G^2/(H+lambda) ] - gamma

and leaf weights ``-G/(H+lambda)`` shrunk by ``learning_rate``.  Row
subsampling per round matches XGBoost's stochastic variant.

The trees reuse the CART module's machinery: splits come from the one
tree split kernel (:func:`.tree._best_split`) with the gain above as
its statistic, nodes are :class:`.tree._Node` (``value`` holds the leaf
weight) and prediction routes through :func:`.tree._route`.
"""

from __future__ import annotations

import numpy as np

from .base import Classifier, check_fit_inputs, one_hot, softmax
from .tree import _EPS, RootSortWorkspace, _best_split, _Node, _route


class _GradientTree:
    """One regression tree over (gradient, hessian) statistics."""

    def __init__(
        self,
        max_depth: int,
        reg_lambda: float,
        gamma: float,
        min_child_weight: float,
    ) -> None:
        self.max_depth = max_depth
        self.reg_lambda = reg_lambda
        self.gamma = gamma
        self.min_child_weight = min_child_weight

    def fit(
        self,
        X: np.ndarray,
        grad: np.ndarray,
        hess: np.ndarray,
        root_sort_cache: dict | None = None,
    ) -> "_GradientTree":
        """Grow the tree; ``root_sort_cache`` shares root argsorts.

        The root's per-feature stable argsort depends only on ``X`` —
        never on the (gradient, hessian) targets — so fits on the same
        matrix (boosting rounds, classes, search candidates) may pass
        one shared ``feature -> order`` dict, filled lazily.  Cached
        orders equal the argsorts the root would recompute.
        """
        self._root_sort_cache = root_sort_cache
        self._root = self._build(X, grad, hess, depth=0)
        self._root_sort_cache = None
        return self

    def _leaf_value(self, grad_sum: float, hess_sum: float) -> float:
        return -grad_sum / (hess_sum + self.reg_lambda + _EPS)

    def _build(
        self, X: np.ndarray, grad: np.ndarray, hess: np.ndarray, depth: int
    ) -> _Node:
        grad_sum, hess_sum = float(grad.sum()), float(hess.sum())
        node = _Node(self._leaf_value(grad_sum, hess_sum))
        if depth >= self.max_depth or len(X) < 2:
            return node

        split = self._best_split_vectorized(
            X,
            grad,
            hess,
            grad_sum,
            hess_sum,
            sort_cache=self._root_sort_cache if depth == 0 else None,
        )
        if split is None:
            return node
        feature, threshold = split
        mask = X[:, feature] <= threshold
        node.feature = feature
        node.threshold = threshold
        node.left = self._build(X[mask], grad[mask], hess[mask], depth + 1)
        node.right = self._build(X[~mask], grad[~mask], hess[~mask], depth + 1)
        return node

    def _best_split_vectorized(
        self,
        X: np.ndarray,
        grad: np.ndarray,
        hess: np.ndarray,
        grad_sum: float,
        hess_sum: float,
        sort_cache: dict | None = None,
    ) -> tuple[int, float] | None:
        """Best (feature, threshold) by regularized gain, or ``None``.

        The :func:`.tree._best_split` kernel with XGBoost's statistic:
        cumulative gradient and hessian sums along each sort order,
        scored by the reference's gain formula per lane, with
        ``min_child_weight`` hessian mass on both sides and no row-count
        bound.
        """
        parent_score = grad_sum**2 / (hess_sum + self.reg_lambda + _EPS)

        def regularized_gain(orders: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            left_grad = np.cumsum(grad[orders], axis=0)[:-1]
            left_hess = np.cumsum(hess[orders], axis=0)[:-1]
            right_grad = grad_sum - left_grad
            right_hess = hess_sum - left_hess
            # the denominators repeat the reference's left-to-right adds
            # (float addition is non-associative; pre-summing the
            # regularizer would shift bits)
            gains = 0.5 * (
                left_grad**2 / (left_hess + self.reg_lambda + _EPS)
                + right_grad**2 / (right_hess + self.reg_lambda + _EPS)
                - parent_score
            ) - self.gamma
            heavy_enough = (left_hess >= self.min_child_weight) & (
                right_hess >= self.min_child_weight
            )
            return gains, heavy_enough

        # ~6 (rows, features) float64 temporaries live at once (two
        # cumsums, two child sums, gains, sorted values)
        return _best_split(
            X,
            np.arange(X.shape[1]),
            regularized_gain,
            min_rows=1,
            sort_cache=sort_cache,
            lane_width=6,
        )

    def predict(self, X: np.ndarray) -> np.ndarray:
        out = np.empty(len(X))
        _route(self._root, X, np.arange(len(X)), out)
        return out


class XGBoostClassifier(Classifier):
    """Gradient-boosted trees with the XGBoost objective (softmax loss).

    Parameters
    ----------
    n_estimators / learning_rate / max_depth:
        The usual boosting knobs.
    reg_lambda / gamma / min_child_weight:
        XGBoost's L2 leaf regularizer, minimum split gain, and minimum
        hessian mass per child.
    subsample:
        Row-sampling fraction per boosting round, in ``(0, 1]``; a
        subsampled round keeps at least two rows (all of them when
        there are fewer).
    """

    def __init__(
        self,
        n_estimators: int = 50,
        learning_rate: float = 0.3,
        max_depth: int = 3,
        reg_lambda: float = 1.0,
        gamma: float = 0.0,
        min_child_weight: float = 1e-3,
        subsample: float = 1.0,
        random_state: int | None = None,
    ) -> None:
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.reg_lambda = reg_lambda
        self.gamma = gamma
        self.min_child_weight = min_child_weight
        self.subsample = subsample
        self.random_state = random_state

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        root_sort_cache: dict | None = None,
    ) -> "XGBoostClassifier":
        """Boost; full-sample rounds share one root argsort cache.

        With ``subsample >= 1.0`` (the default, and the only mode the
        registry search space exercises) every round and class grows
        its tree on the *same* matrix, so the trees share a root
        argsort cache — internally across rounds x classes, and across
        search candidates when the tuning kernel passes
        ``root_sort_cache`` in.  The former ``X[rows]`` /
        ``grad_all[rows, cls]`` fancy indexing with ``rows ==
        arange(n)`` copied the matrix and gradients every round for
        nothing; fitting the originals is value-identical.  Subsampled
        rounds keep the per-round copies and skip the cache (their row
        sets differ), so the knob still behaves exactly as before.
        """
        X, y, n_classes = check_fit_inputs(X, y)
        if not 0.0 < self.subsample <= 1.0:
            raise ValueError(f"subsample must be in (0, 1], got {self.subsample!r}")
        self.n_classes_ = n_classes
        rng = np.random.default_rng(self.random_state)
        targets = one_hot(y, n_classes)

        n_samples = len(X)
        scores = np.zeros((n_samples, n_classes))
        self.trees_: list[list[_GradientTree]] = []
        full_sample = self.subsample >= 1.0
        sort_cache: dict | None = None
        if full_sample:
            sort_cache = {} if root_sort_cache is None else root_sort_cache

        for _ in range(self.n_estimators):
            proba = softmax(scores)
            grad_all = proba - targets
            hess_all = proba * (1.0 - proba)

            if full_sample:
                rows = None
            else:
                size = max(2, int(round(self.subsample * n_samples)))
                rows = rng.choice(n_samples, size=min(size, n_samples), replace=False)

            round_trees: list[_GradientTree] = []
            for cls in range(n_classes):
                tree = _GradientTree(
                    max_depth=self.max_depth,
                    reg_lambda=self.reg_lambda,
                    gamma=self.gamma,
                    min_child_weight=self.min_child_weight,
                )
                if rows is None:
                    tree.fit(
                        X,
                        grad_all[:, cls],
                        hess_all[:, cls],
                        root_sort_cache=sort_cache,
                    )
                else:
                    tree.fit(X[rows], grad_all[rows, cls], hess_all[rows, cls])
                scores[:, cls] += self.learning_rate * tree.predict(X)
                round_trees.append(tree)
            self.trees_.append(round_trees)
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Raw additive scores before the softmax."""
        X = np.asarray(X, dtype=np.float64)
        scores = np.zeros((len(X), self.n_classes_))
        for round_trees in self.trees_:
            for cls, tree in enumerate(round_trees):
                scores[:, cls] += self.learning_rate * tree.predict(X)
        return scores

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return softmax(self.decision_function(X))

    def make_fold_workspace(self, X_train, y_train, X_val):
        return RootSortWorkspace(X_train, y_train, X_val)
