"""CART decision tree with weighted Gini impurity, and the tree split kernel.

Every tree in the package splits through one vectorized kernel,
:func:`_best_split`: for each candidate feature the rows are sorted once
and every threshold is scored in a single cumulative-sum pass by the
model's gain statistic — weighted Gini here, XGBoost's regularized gain
in :mod:`.gbt`, whose trees also share :class:`_Node` and :func:`_route`.
Sample weights make the CART builder serve AdaBoost; a ``max_features``
knob makes it serve the random forest.

The root split's per-feature ``argsort`` depends only on the training
matrix — never on depth/leaf hyper-parameters or sample weights — so
fits that share a training matrix can share it: ``fit`` accepts a
``root_sort_cache`` dict that the fold-major tuning kernel
(:class:`RootSortWorkspace`) carries across search candidates, AdaBoost
carries across boosting rounds, and XGBoost carries across rounds and
classes.
"""

from __future__ import annotations

import numpy as np

from .base import Classifier, check_fit_inputs, one_hot
from .cv_kernel import FoldWorkspace

_EPS = 1e-12

#: per-block element budget of the split kernel (CART's (rows,
#: features, classes) cumsum or XGBoost's ~6 (rows, features) planes
#: are the largest temporaries; 2^23 float64 elements = 64MB).  Wider
#: candidate sets are processed in feature chunks — per-feature best
#: gains are chunk-independent, so the result is unaffected.
_SPLIT_BLOCK_ELEMENTS = 1 << 23


class _Node:
    """Tree node; leaves have ``feature is None``.  ``value`` is a CART
    node's class probabilities or a gradient tree's leaf weight."""

    __slots__ = ("feature", "threshold", "left", "right", "value")

    def __init__(self, value) -> None:
        self.feature: int | None = None
        self.threshold = 0.0
        self.left: "_Node | None" = None
        self.right: "_Node | None" = None
        self.value = value


def _best_split(
    X: np.ndarray,
    candidates: np.ndarray,
    gain,
    min_rows: int,
    sort_cache: dict | None,
    lane_width: int,
) -> tuple[int, float] | None:
    """Best (feature, threshold) over ``candidates`` by ``gain``, or ``None``.

    One broadcast pass over every candidate feature at once: the
    per-feature reference loops (``tests/oracles/trees.py``) pay ~8
    small numpy calls per feature per node, and on wide one-hot
    matrices that Python overhead, not the sorting, dominates tree
    building.  ``gain(orders)`` maps a chunk's ``(rows, features)``
    stable sort orders to the ``(rows - 1, features)`` gains of
    splitting after each sorted position, plus an optional extra
    validity mask.  The kernel owns the rest: a split needs a value
    change and ``min_rows`` rows on both sides, the first maximum wins
    over positions and then features (the reference's "strictly greater
    beats earlier feature" scan), the threshold is the midpoint, and
    only gains above ``_EPS`` split.  With the reference's elementwise
    formula and sequential per-lane cumsums in ``gain``, the chosen
    split is bit-identical, which ``tests/test_tuning_kernel.py`` pins
    for both models on every node of real and adversarial trees.

    Features are processed in chunks that keep ``lane_width`` float64
    temporaries per (row, feature) lane near
    :data:`_SPLIT_BLOCK_ELEMENTS`; per-feature best gains are
    chunk-independent, so the result is unaffected.  ``sort_cache``
    (root nodes only) serves and collects per-feature sort orders.
    """
    n_samples = len(X)
    n_candidates = len(candidates)
    chunk = max(1, _SPLIT_BLOCK_ELEMENTS // max(n_samples * lane_width, 1))
    best_gain = np.full(n_candidates, -np.inf)
    best_threshold = np.zeros(n_candidates)
    for start in range(0, n_candidates, chunk):
        selected = candidates[start : start + chunk]
        columns = X[:, selected]
        if sort_cache is None:
            orders = np.argsort(columns, axis=0, kind="stable")
        else:
            orders = np.empty((n_samples, len(selected)), dtype=np.intp)
            for column, feature in enumerate(selected):
                orders[:, column] = _feature_order(X, feature, sort_cache)
        sorted_x = np.take_along_axis(columns, orders, axis=0)

        # row i splits between sorted positions i and i + 1: it needs a
        # value change and min_rows rows on both sides
        valid = sorted_x[1:] > sorted_x[:-1] + _EPS
        valid[: max(min_rows - 1, 0)] = False
        valid[max(n_samples - min_rows, 0) :] = False
        if not np.any(valid):
            continue
        gains, extra_valid = gain(orders)
        if extra_valid is not None:
            valid &= extra_valid
        gains[~valid] = -np.inf

        splits_at = np.argmax(gains, axis=0) + 1
        best_gain[start : start + len(selected)] = gains.max(axis=0)
        best_threshold[start : start + len(selected)] = 0.5 * (
            np.take_along_axis(sorted_x, (splits_at - 1)[None, :], 0)[0]
            + np.take_along_axis(sorted_x, splits_at[None, :], 0)[0]
        )

    column = int(np.argmax(best_gain))
    if not best_gain[column] > _EPS:
        return None
    return (int(candidates[column]), float(best_threshold[column]))


def _feature_order(X: np.ndarray, feature: int, sort_cache: dict | None) -> np.ndarray:
    """Stable argsort of column ``feature``, via ``sort_cache`` when given."""
    if sort_cache is None:
        return np.argsort(X[:, feature], kind="stable")
    order = sort_cache.get(int(feature))
    if order is None:
        order = np.argsort(X[:, feature], kind="stable")
        order.setflags(write=False)
        sort_cache[int(feature)] = order
    return order


def _route(
    node: _Node,
    X: np.ndarray,
    indices: np.ndarray,
    out: np.ndarray,
    depth_limit: int | None = None,
    depth: int = 0,
) -> None:
    """Write each row's ``value`` into ``out``, stopping at ``depth_limit``."""
    if len(indices) == 0:
        return
    if node.feature is None or (depth_limit is not None and depth >= depth_limit):
        out[indices] = node.value
        return
    go_left = X[indices, node.feature] <= node.threshold
    _route(node.left, X, indices[go_left], out, depth_limit, depth + 1)
    _route(node.right, X, indices[~go_left], out, depth_limit, depth + 1)


class DecisionTreeClassifier(Classifier):
    """Gini-criterion CART.

    Parameters
    ----------
    max_depth:
        Maximum tree depth (root = depth 0); ``None`` grows until pure.
    min_samples_split / min_samples_leaf:
        Pre-pruning thresholds in *row counts* (not weight).
    max_features:
        Number of features considered per split: ``None`` (all),
        ``"sqrt"``, or an integer >= 1.  Random subsets are drawn per
        node with ``random_state``.
    """

    def __init__(
        self,
        max_depth: int | None = 8,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | str | None = None,
        random_state: int | None = None,
    ) -> None:
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state

    # -- training ------------------------------------------------------------

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        sample_weight: np.ndarray | None = None,
        n_classes: int | None = None,
        root_sort_cache: dict | None = None,
    ) -> "DecisionTreeClassifier":
        """Train the tree.

        ``n_classes`` may widen the class space beyond ``max(y) + 1`` —
        ensemble methods (random forest bootstraps, AdaBoost rounds) use
        it so every tree emits probability vectors of the same width even
        when a resample misses a class.

        ``root_sort_cache`` shares the root split's per-feature stable
        argsorts between fits: entries map ``feature -> argsort`` of the
        exact training matrix passed here, filled lazily on first use.
        Callers must only reuse a cache across fits whose training
        matrices are value-identical row for row — then every cached
        order equals the argsort the root would recompute, so the fitted
        tree is bit-identical.  Child nodes sort their (weight-dependent)
        row subsets as before.
        """
        X, y, observed = check_fit_inputs(X, y)
        _check_max_features(self.max_features)
        n_classes = observed if n_classes is None else max(int(n_classes), observed)
        self.n_classes_ = n_classes
        if sample_weight is None:
            sample_weight = np.ones(len(y), dtype=np.float64)
        else:
            sample_weight = np.asarray(sample_weight, dtype=np.float64)
            if sample_weight.shape != y.shape:
                raise ValueError("sample_weight shape must match y")
            if np.any(sample_weight < 0):
                raise ValueError("sample weights must be non-negative")
        self._rng = np.random.default_rng(self.random_state)
        self._root_sort_cache = root_sort_cache
        weighted_labels = sample_weight[:, None] * one_hot(y, n_classes)
        self._root = self._build(X, weighted_labels, depth=0)
        # the cache is only valid for this fit's training matrix; do not
        # let it outlive the call through the fitted model
        self._root_sort_cache = None
        return self

    def _build(self, X: np.ndarray, wy: np.ndarray, depth: int) -> _Node:
        counts = wy.sum(axis=0)
        total = counts.sum()
        proba = counts / total if total > 0 else np.full(len(counts), 1.0 / len(counts))
        node = _Node(proba)

        n_samples = len(X)
        if (
            (self.max_depth is not None and depth >= self.max_depth)
            or n_samples < self.min_samples_split
            or n_samples < 2 * self.min_samples_leaf
            or _gini(counts) <= _EPS
        ):
            return node

        split = self._best_split_vectorized(
            X, wy, sort_cache=self._root_sort_cache if depth == 0 else None
        )
        if split is None:
            return node

        feature, threshold = split
        left_mask = X[:, feature] <= threshold
        node.feature = feature
        node.threshold = threshold
        node.left = self._build(X[left_mask], wy[left_mask], depth + 1)
        node.right = self._build(X[~left_mask], wy[~left_mask], depth + 1)
        return node

    def _best_split_vectorized(
        self, X: np.ndarray, wy: np.ndarray, sort_cache: dict | None = None
    ) -> tuple[int, float] | None:
        """Best (feature, threshold) by weighted Gini gain, or ``None``.

        The :func:`_best_split` kernel with CART's statistic: cumulative
        weighted class counts along each sort order, scored by the
        reference's weighted-Gini formula per lane, with
        ``min_samples_leaf`` rows on both sides.  Its
        ``(rows, features, classes)`` cumsum is the largest temporary.
        """
        counts = wy.sum(axis=0)
        total_weight = counts.sum()
        parent_impurity = _gini(counts)

        def gini_gain(orders: np.ndarray) -> tuple[np.ndarray, None]:
            left_counts = np.cumsum(wy[orders], axis=0)[:-1]
            right_counts = counts[None, None, :] - left_counts
            left_weight = left_counts.sum(axis=2)
            right_weight = right_counts.sum(axis=2)
            left_gini = _gini_planes(left_counts, left_weight)
            right_gini = _gini_planes(right_counts, right_weight)
            weighted = (left_weight * left_gini + right_weight * right_gini) / max(
                total_weight, _EPS
            )
            return parent_impurity - weighted, None

        return _best_split(
            X,
            self._candidate_features(X.shape[1]),
            gini_gain,
            min_rows=self.min_samples_leaf,
            sort_cache=sort_cache,
            lane_width=wy.shape[1],
        )

    def _candidate_features(self, n_features: int) -> np.ndarray:
        if self.max_features is None:
            return np.arange(n_features)
        if self.max_features == "sqrt":
            k = max(1, int(np.sqrt(n_features)))
        else:
            k = max(1, min(int(self.max_features), n_features))
        if k >= n_features:
            return np.arange(n_features)
        return self._rng.choice(n_features, size=k, replace=False)

    # -- prediction -----------------------------------------------------------

    def predict_proba(
        self, X: np.ndarray, depth_limit: int | None = None
    ) -> np.ndarray:
        """Class probabilities; ``depth_limit`` truncates the routing.

        Every internal node stores the class distribution of its
        training subset (computed *before* the stopping checks), so
        emitting ``node.value`` at depth ``d`` yields exactly the
        probabilities a tree fitted with ``max_depth=d`` — identical
        splits above ``d``, because the split search never consults the
        depth — would produce.  The tuning kernel uses this to serve
        every ``max_depth`` candidate from one deep tree.
        """
        X = np.asarray(X, dtype=np.float64)
        out = np.empty((len(X), self.n_classes_))
        _route(self._root, X, np.arange(len(X)), out, depth_limit)
        return out

    # -- introspection ----------------------------------------------------------

    def depth(self) -> int:
        """Actual depth of the fitted tree (leaf-only tree = 0)."""
        return _depth(self._root)

    def n_leaves(self) -> int:
        """Number of leaves in the fitted tree."""
        return _leaves(self._root)

    def make_fold_workspace(self, X_train, y_train, X_val):
        return _TreeFoldWorkspace(X_train, y_train, X_val)


class RootSortWorkspace(FoldWorkspace):
    """Shared root-split sort orders for the CART family's candidates.

    One lazily-filled cache dict rides through every candidate's
    ``fit(..., root_sort_cache=...)``: AdaBoost threads it
    (``feature -> argsort`` of the fold's training matrix) into every
    boosting round (all stumps fit the full matrix); XGBoost into every
    round and class; the random forest nests per-tree sub-caches keyed
    by ``(random_state, tree index)``, valid because its bootstrap
    draws are a pure function of ``random_state`` and so identical
    across candidates.  Candidate hyper-parameters (depth,
    leaf sizes, learning rate, sample weights) never influence a root
    argsort, so reuse is bit-exact.
    """

    def __init__(self, X_train, y_train, X_val) -> None:
        self.X_train = X_train
        self.y_train = y_train
        self.X_val = X_val
        self.root_orders: dict = {}

    def predict_val(self, model) -> np.ndarray:
        model.fit(self.X_train, self.y_train, root_sort_cache=self.root_orders)
        return model.predict(self.X_val)


class _TreeFoldWorkspace(RootSortWorkspace):
    """Depth candidates share one deep tree; the rest share root argsorts.

    CART's split search is depth-independent — ``max_depth`` only stops
    the recursion, and every node's class distribution is computed
    before the stopping checks — so the tree fitted with
    ``max_depth=d`` is exactly any deeper-fitted tree (same non-depth
    parameters) truncated at depth ``d``.  The workspace keeps the
    deepest tree fitted so far per group of non-depth parameters:
    candidates the stored tree covers are answered by depth-limited
    routing, bit-identical to the bounded refit; deeper candidates are
    fitted for real (sharing the fold's root argsorts) and become the
    new group tree.  Fit work is therefore never *more* than the naive
    path's — at worst (candidates arriving shallowest-first) it matches
    it, at best one fit serves the whole group.

    Candidates that subsample features (``max_features`` set) always
    take the real-refit fallback: feature subsampling consumes the
    per-node rng in build order, and a deeper recursion would shift the
    stream at the extra nodes.
    """

    def __init__(self, X_train, y_train, X_val) -> None:
        super().__init__(X_train, y_train, X_val)
        #: (min_samples_split, min_samples_leaf) -> (built_depth, tree)
        self._deep_trees: dict[tuple, tuple[int | None, DecisionTreeClassifier]] = {}
        #: group key -> deepest max_depth any announced candidate requests
        self._group_depth: dict[tuple, int | None] = {}

    @staticmethod
    def _group_key(model) -> tuple:
        return (model.min_samples_split, model.min_samples_leaf)

    def prepare(self, models) -> None:
        """Record each group's deepest requested ``max_depth`` up front.

        Knowing the whole candidate list turns the per-group fit count
        from "one per depth record" (candidates arriving shallowest
        first refit repeatedly) into exactly one, built at the group
        maximum and truncated for everyone else.
        """
        for model in models:
            if model.max_features is not None:
                continue
            key = self._group_key(model)
            deepest = self._group_depth.get(key, 0)
            if deepest is None or model.max_depth is None:
                self._group_depth[key] = None
            else:
                self._group_depth[key] = max(deepest, model.max_depth)

    def predict_val(self, model) -> np.ndarray:
        if model.max_features is not None:
            return super().predict_val(model)
        key = self._group_key(model)
        entry = self._deep_trees.get(key)
        covered = entry is not None and (
            entry[0] is None
            or (model.max_depth is not None and model.max_depth <= entry[0])
        )
        if not covered:
            build_depth = model.max_depth
            if key in self._group_depth:
                announced = self._group_depth[key]
                if announced is None or (
                    build_depth is not None and announced > build_depth
                ):
                    build_depth = announced
            deep = model.clone(max_depth=build_depth)
            deep.fit(self.X_train, self.y_train, root_sort_cache=self.root_orders)
            entry = (build_depth, deep)
            self._deep_trees[key] = entry
        proba = entry[1].predict_proba(self.X_val, depth_limit=model.max_depth)
        return np.argmax(proba, axis=1)


def _check_max_features(max_features) -> None:
    integer = isinstance(max_features, (int, np.integer)) and not isinstance(
        max_features, bool
    )
    if not (max_features in (None, "sqrt") or (integer and max_features >= 1)):
        raise ValueError(
            "max_features must be None, 'sqrt' or an integer >= 1, "
            f"got {max_features!r}"
        )


def _gini(counts: np.ndarray) -> float:
    total = counts.sum()
    if total <= 0:
        return 0.0
    proportions = counts / total
    return float(1.0 - np.sum(proportions**2))


def _gini_planes(counts: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Gini impurity of each (row, feature) lane of a weighted class-count
    block, guarding zero-weight lanes against division by zero."""
    safe = np.maximum(weights, _EPS)[:, :, None]
    proportions = counts / safe
    return 1.0 - np.sum(proportions**2, axis=2)


def _depth(node: _Node) -> int:
    if node.feature is None:
        return 0
    return 1 + max(_depth(node.left), _depth(node.right))


def _leaves(node: _Node) -> int:
    if node.feature is None:
        return 1
    return _leaves(node.left) + _leaves(node.right)
