"""Tests for the fold-major tuning kernel (ISSUE 4).

The kernel's contract mirrors the split/cleaning kernels': shared fold
slices, per-model ``FoldWorkspace``s (KNN distance matrix, naive Bayes
class statistics, CART root argsorts) and the fold-major candidate loop
must be **invisible in the output** — identical ``best_params_`` /
``best_score_`` / test scores against the candidate-major oracle
(``tests/oracles/tuning.py``) for every registry model, and
bit-identical predictions from every workspace against a from-scratch
refit.  The satellites ride along: the degenerate ``n_folds < 2`` path
no longer mutates the caller's model, candidates see read-only fold
slices, a fold's workspace is freed before the next fold's is built,
KNN's vectorized vote is pinned against its per-class loop oracle, and
the vectorized CART and XGBoost split searches are pinned against their
per-feature oracles at every node they visit.
"""

import gc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from repro.cleaning import OUTLIERS, OutlierCleaning
from repro.core import CleanMLStudy, StudyConfig
from repro.datasets import load_dataset
from repro.ml import (
    MODEL_NAMES,
    AdaBoostClassifier,
    DecisionTreeClassifier,
    GaussianNB,
    KNeighborsClassifier,
    LogisticRegression,
    RandomForestClassifier,
    RandomSearch,
    XGBoostClassifier,
    cross_val_score,
    evaluate_candidates,
    kfold_plan,
    make_model,
    search_space,
)
from repro.ml.gbt import _GradientTree
from repro.ml.knn import _proba_from_distances, _select_neighbors, _vote
from repro.ml.naive_bayes import _ClassStatistics
from repro.ml.tree import RootSortWorkspace
from repro.table import FeatureEncoder, LabelEncoder
from tests.conftest import assert_matches_golden, make_blobs, make_xor
from tests.oracles import (
    cart_best_split_reference,
    cross_val_score_reference,
    gbt_best_split_reference,
    knn_proba_reference,
    pairwise_sq_distances_reference,
    random_search_reference,
    vote_reference,
)

PARITY_DATASETS = ("Sensor", "Titanic")


def encoded_dataset(name: str, n_rows: int = 140):
    """(X, y) of a registry dataset's dirty table under the study encoders."""
    dataset = load_dataset(name, seed=0, n_rows=n_rows)
    table = dataset.dirty
    X = FeatureEncoder().fit_transform(table.features_table())
    y = LabelEncoder().fit(
        table.column(table.schema.label).unique()
    ).transform(table.labels)
    return X, y


def fold_slices(X, y, fold):
    """One fold's ``(X_train, y_train, X_val, y_val)``, indexed directly."""
    train_idx, val_idx = fold
    return SimpleNamespace(
        X_train=X[train_idx],
        y_train=y[train_idx],
        X_val=X[val_idx],
        y_val=y[val_idx],
    )


class TestSearchParity:
    """Fold-major tuning vs the candidate-major oracle, for every registry model."""

    @pytest.mark.parametrize("dataset_name", PARITY_DATASETS)
    @pytest.mark.parametrize("model_name", MODEL_NAMES)
    def test_registry_search_parity(self, model_name, dataset_name):
        X, y = encoded_dataset(dataset_name)
        cut = int(0.7 * len(y))
        X_train, y_train = X[:cut], y[:cut]
        X_test, y_test = X[cut:], y[cut:]

        def make_search():
            return RandomSearch(
                make_model(model_name, seed=3),
                search_space(model_name),
                n_iter=2,
                n_folds=3,
                seed=17,
            )

        kernel = make_search().fit(X_train, y_train)
        reference = random_search_reference(make_search(), X_train, y_train)

        assert kernel.best_params_ == reference.best_params_
        assert kernel.best_score_ == reference.best_score_
        assert len(y_test) > 0
        assert np.array_equal(
            kernel.predict(X_test), reference.best_model_.predict(X_test)
        )

    @pytest.mark.parametrize("model_name", MODEL_NAMES)
    def test_cross_val_score_parity(self, model_name):
        X, y = make_blobs(n_per_class=30, n_classes=3, seed=2)
        kernel = cross_val_score(make_model(model_name, seed=5), X, y, n_folds=4, seed=9)
        reference = cross_val_score_reference(
            make_model(model_name, seed=5), X, y, n_folds=4, seed=9
        )
        assert kernel == reference


class TestFoldWorkspaces:
    """Each workspace's predictions == a from-scratch refit, bit for bit."""

    def fold(self, seed=0):
        X, y = make_blobs(n_per_class=40, n_classes=3, seed=seed)
        return fold_slices(X, y, kfold_plan(len(y), 3, seed=7)[0])

    def assert_workspace_matches_refit(self, prototype, candidates, fold=None):
        fold = fold or self.fold()
        workspace = prototype.make_fold_workspace(
            fold.X_train, fold.y_train, fold.X_val
        )
        assert workspace is not None
        for params in candidates:
            shared = workspace.predict_val(prototype.clone(**params))
            refit = prototype.clone(**params)
            refit.fit(fold.X_train, fold.y_train)
            assert np.array_equal(shared, refit.predict(fold.X_val)), params

    def test_knn_workspace_all_candidates(self):
        self.assert_workspace_matches_refit(
            KNeighborsClassifier(),
            [
                {"n_neighbors": k, "weights": w}
                for k in (1, 3, 5, 7, 11, 15, 500)  # 500 > n_train: cap path
                for w in ("uniform", "distance")
            ],
        )

    def test_naive_bayes_workspace_all_candidates(self):
        self.assert_workspace_matches_refit(
            GaussianNB(),
            [{"var_smoothing": v} for v in (1e-10, 1e-9, 1e-6, 1e-2)],
        )

    @pytest.mark.parametrize("dataset_name", ("Credit", "Restaurant", "blobs"))
    def test_naive_bayes_shared_squares_equal_fit(self, dataset_name):
        # announced candidates share each class's squared deviations;
        # every candidate must still predict what a plain fit does
        if dataset_name == "blobs":
            X, y = make_blobs(n_per_class=30, n_classes=4, seed=6)
            y = np.where(y == 1, 0, y)  # an empty class: the -inf prior path
        else:
            X, y = encoded_dataset(dataset_name)
        fold = fold_slices(X, y, kfold_plan(len(y), 3, seed=5)[1])
        candidates = [
            GaussianNB(var_smoothing=v) for v in (1e-11, 1e-9, 1e-5, 1e-2, 0.5)
        ]
        workspace = GaussianNB().make_fold_workspace(
            fold.X_train, fold.y_train, fold.X_val
        )
        workspace.prepare(candidates)
        assert workspace._squares is not None
        for candidate in candidates:
            shared = workspace.predict_val(candidate.clone())
            refit = candidate.clone().fit(fold.X_train, fold.y_train)
            assert shared.tobytes() == refit.predict(fold.X_val).tobytes()
            assert candidate.clone()._apply_statistics(workspace._stats)._proba(
                fold.X_val, workspace._squares
            ).tobytes() == refit.predict_proba(fold.X_val).tobytes()

    def test_naive_bayes_apply_statistics_equals_fit(self):
        X, y = make_blobs(n_per_class=25, n_classes=4, seed=4)
        y = y.copy()
        y[y == 3] = 0  # leave class 3 empty: the -inf prior path
        stats = _ClassStatistics(X, y, 4)
        for smoothing in (1e-10, 1e-9, 1e-5):
            from_stats = GaussianNB(var_smoothing=smoothing)._apply_statistics(stats)
            # a plain fit observes only the 3 populated classes; its
            # arrays must coincide with the widened statistics' prefix
            fitted = GaussianNB(var_smoothing=smoothing).fit(X, y)
            assert np.array_equal(from_stats.theta_[:3], fitted.theta_[:3])
            assert np.array_equal(from_stats.var_[:3], fitted.var_[:3])
            assert np.array_equal(
                from_stats.class_log_prior_[:3], fitted.class_log_prior_[:3]
            )
            assert np.isneginf(from_stats.class_log_prior_[3])
            assert np.all(from_stats.var_[3] == 1.0)

    def test_decision_tree_workspace_all_candidates(self):
        self.assert_workspace_matches_refit(
            DecisionTreeClassifier(random_state=5),
            [
                {"max_depth": d, "min_samples_leaf": leaf}
                for d in (1, 3, 8, None)
                for leaf in (1, 5)
            ]
            # feature-subsampled candidates take the real-refit fallback
            + [{"max_depth": 4, "max_features": 2}],
        )

    def test_depth_limited_routing_equals_bounded_fit(self):
        X, y = make_xor(n=200, seed=7)
        deep = DecisionTreeClassifier(max_depth=None, random_state=0).fit(X, y)
        for depth in (0, 1, 2, 4, 9):
            bounded = DecisionTreeClassifier(max_depth=depth, random_state=0).fit(X, y)
            assert np.array_equal(
                deep.predict_proba(X, depth_limit=depth),
                bounded.predict_proba(X),
            ), depth

    def test_adaboost_workspace_all_candidates(self):
        self.assert_workspace_matches_refit(
            AdaBoostClassifier(n_estimators=12, random_state=5),
            [
                {"n_estimators": n, "max_depth": d, "learning_rate": rate}
                for n in (5, 12)
                for d in (1, 2)
                for rate in (0.5, 1.0)
            ],
        )

    def test_random_forest_workspace_all_candidates(self):
        self.assert_workspace_matches_refit(
            RandomForestClassifier(n_estimators=8, random_state=5),
            [
                {"n_estimators": n, "max_depth": d}
                for n in (4, 8)
                for d in (3, 8, None)
            ],
        )

    def test_xgboost_workspace_all_candidates(self):
        self.assert_workspace_matches_refit(
            XGBoostClassifier(n_estimators=6, random_state=5),
            [
                {"n_estimators": n, "max_depth": d, "learning_rate": rate}
                for n in (3, 6)
                for d in (2, 4)
                for rate in (0.1, 0.3)
            ],
        )

    def test_xgboost_subsampled_candidate_ignores_cache(self):
        # a candidate that subsamples rows must not consume the shared
        # full-matrix argsorts — its per-round row sets differ
        self.assert_workspace_matches_refit(
            XGBoostClassifier(n_estimators=4, random_state=5),
            [{"subsample": 0.8}, {"subsample": 1.0}],
        )

    def test_unseeded_forest_opts_out_of_shared_orders(self):
        fold = self.fold()
        workspace = RootSortWorkspace(fold.X_train, fold.y_train, fold.X_val)
        model = RandomForestClassifier(n_estimators=3, random_state=None)
        model.fit(fold.X_train, fold.y_train, root_sort_cache=workspace.root_orders)
        assert workspace.root_orders == {}

    def test_logistic_regression_has_no_workspace(self):
        fold = self.fold()
        assert (
            LogisticRegression().make_fold_workspace(
                fold.X_train, fold.y_train, fold.X_val
            )
            is None
        )
        # models without a workspace are fitted on the fold's slices
        model = LogisticRegression()
        model.fit(fold.X_train, fold.y_train)
        assert model.predict(fold.X_val).shape == fold.y_val.shape


class TestRootSortCache:
    """Shared root argsorts are invisible in the fitted trees."""

    def test_tree_fit_with_cache_is_bit_identical(self):
        X, y = make_xor(n=150, seed=3)
        cache: dict = {}
        cached_a = DecisionTreeClassifier(max_depth=4, random_state=0).fit(
            X, y, root_sort_cache=cache
        )
        assert cache  # the first fit filled it
        cached_b = DecisionTreeClassifier(max_depth=8, random_state=0).fit(
            X, y, root_sort_cache=cache
        )
        plain_a = DecisionTreeClassifier(max_depth=4, random_state=0).fit(X, y)
        plain_b = DecisionTreeClassifier(max_depth=8, random_state=0).fit(X, y)
        assert np.array_equal(cached_a.predict_proba(X), plain_a.predict_proba(X))
        assert np.array_equal(cached_b.predict_proba(X), plain_b.predict_proba(X))
        assert cached_b.depth() == plain_b.depth()
        assert cached_b.n_leaves() == plain_b.n_leaves()

    def test_cache_does_not_leak_through_fitted_tree(self):
        X, y = make_xor(n=80, seed=1)
        tree = DecisionTreeClassifier(max_depth=3).fit(X, y, root_sort_cache={})
        assert tree._root_sort_cache is None

    def test_cached_orders_are_read_only(self):
        X, y = make_xor(n=80, seed=2)
        cache: dict = {}
        DecisionTreeClassifier(max_depth=3).fit(X, y, root_sort_cache=cache)
        order = next(iter(cache.values()))
        with pytest.raises(ValueError):
            order[0] = 0

    def test_adaboost_shared_cache_is_bit_identical(self):
        X, y = make_xor(n=150, seed=4)
        cache: dict = {}
        cached = AdaBoostClassifier(n_estimators=10, random_state=2).fit(
            X, y, root_sort_cache=cache
        )
        plain = AdaBoostClassifier(n_estimators=10, random_state=2).fit(X, y)
        assert np.array_equal(cached.predict_proba(X), plain.predict_proba(X))


def assert_same_tree(a, b):
    """Node-for-node structural equality of two fitted trees (CART or GBT)."""
    stack = [(a._root, b._root)]
    while stack:
        left, right = stack.pop()
        assert left.feature == right.feature
        assert left.threshold == right.threshold
        assert np.array_equal(left.value, right.value)
        if left.feature is not None:
            stack.append((left.left, right.left))
            stack.append((left.right, right.right))


def pin_every_node(monkeypatch, tree_class, oracle):
    """Pin ``tree_class``'s split search to ``oracle`` at every node.

    While the patch is active, every call of the production
    ``_best_split_vectorized`` first runs the oracle on the same node
    and asserts both return the same split.  The oracle gets no root
    sort cache, so cached orders are checked against fresh argsorts, and
    the tree's feature-subsampling generator is rewound between the two
    calls, so both draw the same candidate features.  Returns the list
    of splits pinned so far.
    """
    production = tree_class._best_split_vectorized
    pinned = []

    def checked(tree, X, *stats, sort_cache=None):
        rng = getattr(tree, "_rng", None)
        state = None if rng is None else rng.bit_generator.state
        expected = oracle(tree, X, *stats)
        if rng is not None:
            rng.bit_generator.state = state
        split = production(tree, X, *stats, sort_cache=sort_cache)
        assert split == expected
        pinned.append(split)
        return split

    monkeypatch.setattr(tree_class, "_best_split_vectorized", checked)
    return pinned


def trees_of(model) -> list:
    """Every fitted tree of a CART or XGBoost model, in fit order."""
    if isinstance(model, XGBoostClassifier):
        return [tree for round_trees in model.trees_ for tree in round_trees]
    return [model]


def splits_found(pinned) -> int:
    return sum(split is not None for split in pinned)


class TestVectorizedSplitIsTheReference:
    """The broadcast split search == the per-feature oracle, at every node."""

    @pytest.fixture
    def pinned(self, monkeypatch):
        return pin_every_node(
            monkeypatch, DecisionTreeClassifier, cart_best_split_reference
        )

    @pytest.mark.parametrize("dataset_name", PARITY_DATASETS)
    def test_registry_tables_with_one_hot_ties(self, dataset_name, pinned):
        X, y = encoded_dataset(dataset_name)
        for params in (
            {"max_depth": 4},
            {"max_depth": None, "min_samples_leaf": 2},
            {"max_depth": None, "min_samples_leaf": 7},
        ):
            DecisionTreeClassifier(**params).fit(X, y)
        assert splits_found(pinned) > 10

    def test_noisy_numeric_with_sample_weights(self, pinned):
        X, y = make_xor(n=250, seed=5)
        rng = np.random.default_rng(0)
        weights = rng.random(len(y))
        weights[::7] = 0.0  # zero-weight rows exercise the safe-gini path
        DecisionTreeClassifier(max_depth=None).fit(X, y, sample_weight=weights)
        assert splits_found(pinned) > 10

    def test_feature_subsampling_draws_identically(self, pinned):
        X, y = make_blobs(n_per_class=50, n_classes=3, n_features=8, seed=6)
        DecisionTreeClassifier(max_depth=6, max_features=3, random_state=11).fit(X, y)
        assert splits_found(pinned) > 2

    def test_ensembles_pin_every_node(self, pinned):
        # AdaBoost shares one root sort cache across its rounds, the
        # forest subsamples features per node
        X, y = make_xor(n=150, seed=6)
        AdaBoostClassifier(n_estimators=8, random_state=3).fit(X, y)
        boosted = splits_found(pinned)
        assert boosted >= 8
        RandomForestClassifier(n_estimators=5, random_state=3).fit(X, y)
        assert splits_found(pinned) > boosted + 5

    @pytest.mark.parametrize(
        "make_model",
        [
            lambda: DecisionTreeClassifier(max_depth=5),
            lambda: XGBoostClassifier(n_estimators=3, max_depth=3, random_state=0),
        ],
        ids=["cart", "xgboost"],
    )
    def test_feature_chunking_is_invisible(self, monkeypatch, make_model):
        # shrink the block budget so a wide table needs many chunks
        import repro.ml.tree as tree_module

        X, y = encoded_dataset("Titanic")
        one_block = make_model().fit(X, y)
        monkeypatch.setattr(tree_module, "_SPLIT_BLOCK_ELEMENTS", 64)
        chunked = make_model().fit(X, y)
        for a, b in zip(trees_of(chunked), trees_of(one_block), strict=True):
            assert_same_tree(a, b)


class TestFoldPlanDataSharing:
    """What every candidate of a fold sees: one read-only slicing."""

    @staticmethod
    def spy_on_folds(monkeypatch, model_class):
        """Record the arrays ``model_class``'s fold workspaces are built from."""
        production = model_class.make_fold_workspace
        seen = []

        def recording(self, X_train, y_train, X_val):
            seen.append((X_train, y_train, X_val))
            return production(self, X_train, y_train, X_val)

        monkeypatch.setattr(model_class, "make_fold_workspace", recording)
        return seen

    def test_fold_slices_are_read_only(self, monkeypatch):
        # KNN scores every candidate through its workspace; LR has none,
        # so each candidate is fitted on the slices and predicts them
        X, y = make_blobs(seed=6)
        seen = self.spy_on_folds(monkeypatch, KNeighborsClassifier)
        fitted = []
        production_fit = LogisticRegression.fit

        def fit(model, X_train, y_train):
            fitted.append((X_train, y_train))
            return production_fit(model, X_train, y_train)

        monkeypatch.setattr(LogisticRegression, "fit", fit)
        validated = []

        def score(y_true, y_pred):
            validated.append(y_true)
            return float(np.mean(y_true == y_pred))

        folds = kfold_plan(len(y), 3, seed=2)
        for model in (KNeighborsClassifier(), LogisticRegression()):
            evaluate_candidates(model, [{}, {}], X, y, folds, score)
        assert (len(seen), len(fitted), len(validated)) == (3, 6, 12)
        for array in [a for group in seen + fitted for a in group] + validated:
            assert not array.flags.writeable
        with pytest.raises(ValueError):
            seen[0][0][0, 0] = 0.0

    def test_fold_slices_match_fancy_indexing(self, monkeypatch):
        X, y = make_blobs(seed=6)
        folds = kfold_plan(len(y), 4, seed=3)
        seen = self.spy_on_folds(monkeypatch, KNeighborsClassifier)
        cross_val_score(KNeighborsClassifier(), X, y, n_folds=4, seed=3)
        assert len(seen) == len(folds)
        for (X_train, y_train, X_val), (train_idx, val_idx) in zip(seen, folds):
            assert np.array_equal(X_train, X[train_idx])
            assert np.array_equal(y_train, y[train_idx])
            assert np.array_equal(X_val, X[val_idx])

    @pytest.mark.parametrize("model_name", ["knn", "naive_bayes"])
    def test_fold_workspace_freed_before_next_fold_builds(
        self, monkeypatch, model_name
    ):
        # with the cyclic collector off, only reference counting can
        # free a fold: its workspace and slices must be gone by the time
        # the next fold's workspace is built, so peak memory holds one
        # fold's precomputation, not the whole plan's
        X, y = make_blobs(n_per_class=30, seed=4)
        model_class = type(make_model(model_name))
        production = model_class.make_fold_workspace
        built = []

        def tracked(self, X_train, y_train, X_val):
            assert all(ref() is None for ref in built)
            workspace = production(self, X_train, y_train, X_val)
            built.extend(
                weakref.ref(obj) for obj in (workspace, X_train, y_train, X_val)
            )
            return workspace

        monkeypatch.setattr(model_class, "make_fold_workspace", tracked)
        search = RandomSearch(
            make_model(model_name), search_space(model_name), n_iter=3, seed=1
        )
        gc.disable()
        try:
            search.fit(X, y)
        finally:
            gc.enable()
        assert len(built) == 4 * 5


class TestDegenerateFoldPath:
    def test_single_fold_does_not_mutate_caller_model(self):
        X, y = make_blobs(n_per_class=3, seed=8)
        model = KNeighborsClassifier(n_neighbors=1)
        score = cross_val_score(model, X, y, n_folds=1, seed=0)
        assert 0.0 <= score <= 1.0
        assert not hasattr(model, "n_classes_")  # still unfitted
        with pytest.raises(AttributeError):
            model.predict(X)

    def test_single_fold_score_matches_clone_refit(self):
        X, y = make_blobs(n_per_class=10, seed=9)
        model = DecisionTreeClassifier(max_depth=3, random_state=1)
        score = cross_val_score(model, X, y, n_folds=1, seed=0)
        probe = model.clone().fit(X, y)
        assert score == float(np.mean(probe.predict(X) == y))

    @pytest.mark.parametrize("model_name", MODEL_NAMES)
    def test_single_fold_search_matches_reference(self, model_name):
        # one fold that trains and validates on every row, through the
        # same loop (and workspace) as k >= 2 folds
        X, y = make_blobs(n_per_class=15, n_classes=3, seed=12)

        def make_search():
            return RandomSearch(
                make_model(model_name, seed=3),
                search_space(model_name),
                n_iter=2,
                n_folds=1,
                seed=17,
            )

        kernel = make_search().fit(X, y)
        reference = random_search_reference(make_search(), X, y)
        assert kernel.best_params_ == reference.best_params_
        assert kernel.best_score_ == reference.best_score_


class TestKNNVote:
    def test_vote_matches_reference_on_adversarial_weights(self):
        # k >= 8 crosses numpy's pairwise-summation block size — the
        # regime where a flat np.add.at scatter provably diverges
        rng = np.random.default_rng(0)
        for _ in range(40):
            n = int(rng.integers(3, 90))
            k = int(rng.integers(1, 17))
            n_classes = int(rng.integers(2, 6))
            labels = rng.integers(0, n_classes, size=(n, k))
            weights = 1.0 / (rng.random((n, k)) + 1e-9)
            assert np.array_equal(
                _vote(weights, labels, n_classes),
                vote_reference(weights, labels, n_classes),
            )

    @pytest.mark.parametrize("weights", ["uniform", "distance"])
    @pytest.mark.parametrize("k", [1, 3, 5, 7, 11, 15])
    def test_predict_proba_matches_loop_reference(self, k, weights):
        X, y = make_blobs(n_per_class=30, n_classes=3, seed=10)
        model = KNeighborsClassifier(n_neighbors=k, weights=weights).fit(X, y)
        query = X[::3] + 0.01
        fast = model.predict_proba(query)

        distances = pairwise_sq_distances_reference(model, query)
        reference = knn_proba_reference(
            distances, model._y, model.n_classes_, min(k, len(X)), weights
        )

        assert fast.dtype == reference.dtype
        assert np.array_equal(fast, reference)

    def test_proba_from_distances_is_the_predict_path(self):
        X, y = make_blobs(n_per_class=20, seed=11)
        model = KNeighborsClassifier(n_neighbors=7, weights="distance").fit(X, y)
        distances = model._pairwise_sq_distances(X)
        assert np.array_equal(
            model.predict_proba(X),
            _proba_from_distances(
                distances,
                _select_neighbors(distances, 7),
                model._y,
                model.n_classes_,
                "distance",
            ),
        )


class TestStudyParity:
    """End to end: a searched study writes the reference path's bytes."""

    CONFIG = StudyConfig(
        n_splits=2,
        cv_folds=3,
        search_iters=2,
        models=("knn", "naive_bayes", "decision_tree"),
        seed=7,
    )

    #: sha256 of the persisted JSON, recorded while the candidate-major
    #: reference path (with the per-feature split search) still ran
    #: in-tree and wrote these bytes at every (n_jobs, granularity)
    DIGEST = "f040de13ea024d2756d9196bbba807e7d55ab11aff2d33acd1e31622c6c1845e"

    def make_study(self):
        study = CleanMLStudy(self.CONFIG)
        study.add(
            load_dataset("Sensor", seed=0, n_rows=120),
            OUTLIERS,
            methods=[OutlierCleaning("SD", "mean")],
        )
        return study

    def test_searched_study_bit_identical(self, tmp_path):
        assert_matches_golden(self.make_study, self.DIGEST, tmp_path)


class TestVectorizedGBTSplitIsTheReference:
    """XGBoost's broadcast split search == its per-feature oracle, per node.

    The same discipline as the CART builder's vectorized search: every
    regression-tree node of every boosting round and class must choose
    the oracle's (feature, threshold), so the additive scores — and
    hence predictions — are bit-identical.
    """

    @pytest.fixture
    def pinned(self, monkeypatch):
        return pin_every_node(monkeypatch, _GradientTree, gbt_best_split_reference)

    @staticmethod
    def fit(X, y, **params):
        base = {"n_estimators": 4, "max_depth": 3, "random_state": 0}
        base.update(params)
        return XGBoostClassifier(**base).fit(X, y)

    @pytest.mark.parametrize("dataset_name", PARITY_DATASETS)
    def test_registry_tables_per_node(self, dataset_name, pinned):
        X, y = encoded_dataset(dataset_name)
        self.fit(X, y)
        assert splits_found(pinned) > 10

    def test_regularizer_knobs_per_node(self, pinned):
        X, y = make_blobs(n_per_class=30, n_classes=3, seed=5)
        self.fit(X, y, gamma=0.05, min_child_weight=0.3, reg_lambda=0.5)
        assert splits_found(pinned) > 10

    def test_tied_and_constant_features_per_node(self, pinned):
        rng = np.random.default_rng(11)
        # one-hot-like ties, a constant column, and duplicated values —
        # the argmax tie-break territory
        X = np.column_stack(
            [
                rng.integers(0, 2, 80).astype(float),
                np.zeros(80),
                rng.integers(0, 3, 80).astype(float),
                np.repeat(rng.normal(size=8), 10),
            ]
        )
        y = rng.integers(0, 2, 80)
        self.fit(X, y, max_depth=4)
        assert splits_found(pinned) > 10

    def test_direct_split_parity_with_shared_root_cache(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(60, 5))
        X[:, 2] = np.round(X[:, 2])  # heavy ties
        grad = rng.normal(size=60)
        hess = rng.uniform(0.01, 1.0, size=60)
        tree = _GradientTree(
            max_depth=3, reg_lambda=1.0, gamma=0.0, min_child_weight=1e-3
        )
        for cache in (None, {}):
            sort_cache = dict(cache) if cache is not None else None
            vectorized = tree._best_split_vectorized(
                X, grad, hess, float(grad.sum()), float(hess.sum()), sort_cache
            )
            sort_cache = dict(cache) if cache is not None else None
            reference = gbt_best_split_reference(
                tree, X, grad, hess, float(grad.sum()), float(hess.sum()), sort_cache
            )
            assert vectorized == reference


WIDE_DATASETS = ("Airbnb", "BabyProduct", "Citation", "Movie", "Restaurant")


class TestOneTreeSplitKernel:
    """All four tree models through the one split kernel.

    CART (alone, bootstrapped in the forest, reweighted in AdaBoost) and
    XGBoost's regression trees share one chunked sort/threshold scan and
    differ only in their gain statistic; these pins hold it to both
    per-feature oracles on wide one-hot tables and on adversarial
    hessian lanes, and a searched study of all four models to its bytes.
    """

    CONFIG = StudyConfig(
        n_splits=2,
        cv_folds=2,
        search_iters=2,
        models=("decision_tree", "random_forest", "adaboost", "xgboost"),
        seed=3,
    )

    #: sha256 of the persisted JSON, recorded at every (n_jobs,
    #: granularity) shape on the parent of the change that merged the
    #: CART and XGBoost split searches into one kernel, while each model
    #: still ran its own copy of the search
    DIGEST = "c38a5768836632daf0daca6539eccd473031fea6ca2f22d053c500f37fbb059b"

    def make_study(self):
        study = CleanMLStudy(self.CONFIG)
        study.add(
            load_dataset("Sensor", seed=0, n_rows=120),
            OUTLIERS,
            methods=[OutlierCleaning("SD", "mean")],
        )
        return study

    def test_searched_tree_study_bit_identical(self, tmp_path):
        assert_matches_golden(self.make_study, self.DIGEST, tmp_path)

    @pytest.mark.parametrize("dataset_name", WIDE_DATASETS)
    def test_wide_one_hot_tables_per_node(self, dataset_name, monkeypatch):
        X, y = encoded_dataset(dataset_name, n_rows=400)
        cart = pin_every_node(
            monkeypatch, DecisionTreeClassifier, cart_best_split_reference
        )
        gbt = pin_every_node(monkeypatch, _GradientTree, gbt_best_split_reference)
        DecisionTreeClassifier(max_depth=None).fit(X, y)
        XGBoostClassifier(n_estimators=3, max_depth=3, random_state=0).fit(X, y)
        assert splits_found(cart) > 3
        assert splits_found(gbt) > 3

    def test_zero_hessian_rows_and_min_child_weight_boundary(self, monkeypatch):
        pinned = pin_every_node(
            monkeypatch, _GradientTree, gbt_best_split_reference
        )
        rng = np.random.default_rng(4)
        X = np.column_stack(
            [
                rng.integers(0, 2, 64).astype(float),
                rng.integers(0, 4, 64).astype(float),
                rng.normal(size=64),
            ]
        )
        grad = rng.normal(size=64)
        # dyadic hessians sum exactly, so child masses land exactly on
        # the min_child_weight boundary; every third row carries none
        hess = rng.integers(1, 4, 64) * 0.25
        hess[::3] = 0.0
        for min_child_weight in (0.25, 1.0, 2.5):
            tree = _GradientTree(
                max_depth=4,
                reg_lambda=1.0,
                gamma=0.0,
                min_child_weight=min_child_weight,
            )
            tree.fit(X, grad, hess)
        assert splits_found(pinned) > 10
