"""Behavioural tests every classifier must pass, plus model-specific ones."""

import numpy as np
import pytest

from repro.ml import (
    AdaBoostClassifier,
    DecisionTreeClassifier,
    GaussianNB,
    KNeighborsClassifier,
    LogisticRegression,
    MLPClassifier,
    RandomForestClassifier,
    XGBoostClassifier,
    accuracy,
)
from tests.conftest import make_blobs, make_xor

ALL_MODELS = [
    LogisticRegression,
    KNeighborsClassifier,
    lambda: DecisionTreeClassifier(random_state=0),
    lambda: RandomForestClassifier(n_estimators=15, random_state=0),
    lambda: AdaBoostClassifier(n_estimators=15, random_state=0),
    GaussianNB,
    lambda: XGBoostClassifier(n_estimators=15, random_state=0),
    lambda: MLPClassifier(epochs=40, random_state=0),
]

MODEL_IDS = [
    "logistic_regression",
    "knn",
    "decision_tree",
    "random_forest",
    "adaboost",
    "naive_bayes",
    "xgboost",
    "mlp",
]


@pytest.mark.parametrize("factory", ALL_MODELS, ids=MODEL_IDS)
class TestCommonBehaviour:
    def test_separable_binary_blobs(self, factory, blobs2):
        X, y = blobs2
        model = factory().fit(X, y)
        assert accuracy(y, model.predict(X)) >= 0.95

    def test_three_class_blobs(self, factory, blobs3):
        X, y = blobs3
        model = factory().fit(X, y)
        assert accuracy(y, model.predict(X)) >= 0.90
        assert model.n_classes_ == 3

    def test_proba_rows_sum_to_one(self, factory, blobs2):
        X, y = blobs2
        proba = factory().fit(X, y).predict_proba(X)
        assert proba.shape == (len(X), 2)
        assert np.allclose(proba.sum(axis=1), 1.0)
        assert np.all(proba >= 0.0)

    def test_single_class_training(self, factory):
        X = np.random.default_rng(0).normal(size=(20, 3))
        y = np.zeros(20, dtype=np.int64)
        model = factory().fit(X, y)
        assert np.all(model.predict(X) == 0)

    def test_clone_produces_unfitted_copy(self, factory, blobs2):
        X, y = blobs2
        model = factory()
        params = model.get_params()
        clone = model.clone()
        assert clone is not model
        assert clone.get_params() == params

    def test_parameter_names_are_read_once_per_class(self, factory, monkeypatch):
        import inspect

        from repro.ml import base

        base._param_names.cache_clear()
        calls = []
        signature = inspect.signature
        monkeypatch.setattr(
            inspect, "signature", lambda f: calls.append(f) or signature(f)
        )
        model = factory()
        for _ in range(3):
            model = model.clone()
        assert model.get_params() == factory().get_params()
        assert len(calls) == 1

    def test_shape_validation(self, factory):
        model = factory()
        with pytest.raises(ValueError):
            model.fit(np.zeros((3, 2)), np.zeros(4, dtype=int))
        with pytest.raises(ValueError):
            model.fit(np.zeros(3), np.zeros(3, dtype=int))


class TestLogisticRegression:
    def test_linear_boundary_recovered(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(400, 2))
        y = (X[:, 0] + 2.0 * X[:, 1] > 0).astype(np.int64)
        model = LogisticRegression(max_iter=500).fit(X, y)
        assert accuracy(y, model.predict(X)) >= 0.97
        # the fitted direction should align with (1, 2)
        direction = model.coef_[:, 1] - model.coef_[:, 0]
        cosine = direction @ np.array([1.0, 2.0]) / (
            np.linalg.norm(direction) * np.sqrt(5.0)
        )
        assert cosine > 0.98

    def test_l2_shrinks_weights(self, blobs2):
        X, y = blobs2
        loose = LogisticRegression(l2=1e-6).fit(X, y)
        tight = LogisticRegression(l2=10.0).fit(X, y)
        assert np.linalg.norm(tight.coef_) < np.linalg.norm(loose.coef_)

    def test_set_params_rejects_unknown(self):
        with pytest.raises(ValueError):
            LogisticRegression().set_params(bogus=1)


class TestKNN:
    def test_one_neighbor_memorizes(self, blobs2):
        X, y = blobs2
        model = KNeighborsClassifier(n_neighbors=1).fit(X, y)
        assert accuracy(y, model.predict(X)) == 1.0

    def test_k_capped_at_train_size(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([0, 1])
        model = KNeighborsClassifier(n_neighbors=50).fit(X, y)
        assert model.predict(np.array([[0.1]])).shape == (1,)

    def test_distance_weighting_prefers_closer(self):
        X = np.array([[0.0], [1.0], [1.1], [1.2]])
        y = np.array([0, 1, 1, 1])
        query = np.array([[0.05]])
        uniform = KNeighborsClassifier(n_neighbors=4, weights="uniform")
        distance = KNeighborsClassifier(n_neighbors=4, weights="distance")
        assert uniform.fit(X, y).predict(query)[0] == 1
        assert distance.fit(X, y).predict(query)[0] == 0

    def test_invalid_weights_rejected(self):
        with pytest.raises(ValueError):
            KNeighborsClassifier(weights="nope")


class TestDecisionTree:
    def test_fits_xor(self, xor_data):
        X, y = xor_data
        model = DecisionTreeClassifier(max_depth=4).fit(X, y)
        assert accuracy(y, model.predict(X)) >= 0.95

    def test_max_depth_respected(self, xor_data):
        X, y = xor_data
        for depth in (1, 2, 3):
            model = DecisionTreeClassifier(max_depth=depth).fit(X, y)
            assert model.depth() <= depth

    def test_depth_zero_like_behaviour_of_pure_leaf(self):
        X = np.zeros((10, 2))
        y = np.zeros(10, dtype=np.int64)
        model = DecisionTreeClassifier().fit(X, y)
        assert model.n_leaves() == 1

    def test_min_samples_leaf(self, xor_data):
        X, y = xor_data
        big_leaf = DecisionTreeClassifier(max_depth=None, min_samples_leaf=40)
        small_leaf = DecisionTreeClassifier(max_depth=None, min_samples_leaf=1)
        assert (
            big_leaf.fit(X, y).n_leaves() < small_leaf.fit(X, y).n_leaves()
        )

    def test_sample_weights_steer_the_tree(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 1])
        # weight the rightmost 0 to dominate: the tree should call x<=2 a 0
        weights = np.array([1.0, 100.0, 1.0, 1.0])
        model = DecisionTreeClassifier(max_depth=1).fit(
            X, y, sample_weight=weights
        )
        assert model.predict(np.array([[1.0]]))[0] == 0

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            DecisionTreeClassifier().fit(
                np.zeros((2, 1)), np.array([0, 1]), sample_weight=np.array([-1.0, 1.0])
            )

    def test_n_classes_override_widens_proba(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([0, 1])
        model = DecisionTreeClassifier().fit(X, y, n_classes=4)
        assert model.predict_proba(X).shape == (2, 4)

    @pytest.mark.parametrize("max_features", [0.5, "log2", "all", 0, -1, True])
    def test_invalid_max_features_rejected(self, xor_data, max_features):
        X, y = xor_data
        with pytest.raises(ValueError, match="max_features"):
            DecisionTreeClassifier(max_features=max_features).fit(X, y)
        with pytest.raises(ValueError, match="max_features"):
            RandomForestClassifier(n_estimators=2, max_features=max_features).fit(X, y)

    @pytest.mark.parametrize("max_features", [None, "sqrt", 1, 2, 5, np.int64(2)])
    def test_valid_max_features_accepted(self, xor_data, max_features):
        X, y = xor_data
        model = DecisionTreeClassifier(max_features=max_features, random_state=0)
        assert model.fit(X, y).predict(X).shape == y.shape


class TestRandomForest:
    def test_fits_xor_better_than_a_stump(self, xor_data):
        X, y = xor_data
        forest = RandomForestClassifier(n_estimators=25, random_state=0).fit(X, y)
        stump = DecisionTreeClassifier(max_depth=1).fit(X, y)
        assert accuracy(y, forest.predict(X)) > accuracy(y, stump.predict(X))

    def test_reproducible_with_seed(self, blobs2):
        X, y = blobs2
        a = RandomForestClassifier(n_estimators=10, random_state=7).fit(X, y)
        b = RandomForestClassifier(n_estimators=10, random_state=7).fit(X, y)
        assert np.array_equal(a.predict_proba(X), b.predict_proba(X))

    def test_number_of_trees(self, blobs2):
        X, y = blobs2
        model = RandomForestClassifier(n_estimators=7, random_state=0).fit(X, y)
        assert len(model.estimators_) == 7


class TestAdaBoost:
    def test_boosting_beats_single_stump(self, xor_data):
        X, y = xor_data
        boosted = AdaBoostClassifier(
            n_estimators=40, max_depth=2, random_state=0
        ).fit(X, y)
        stump = DecisionTreeClassifier(max_depth=1).fit(X, y)
        assert accuracy(y, boosted.predict(X)) > accuracy(y, stump.predict(X))

    def test_early_stop_on_perfect_learner(self):
        X = np.array([[0.0], [10.0]] * 20)
        y = np.array([0, 1] * 20)
        model = AdaBoostClassifier(n_estimators=50, random_state=0).fit(X, y)
        assert len(model.estimators_) < 50

    def test_alphas_positive(self, blobs2):
        X, y = blobs2
        model = AdaBoostClassifier(n_estimators=10, random_state=0).fit(X, y)
        assert all(alpha > 0 for alpha in model.alphas_)


class TestXGBoost:
    def test_fits_xor(self, xor_data):
        X, y = xor_data
        model = XGBoostClassifier(n_estimators=30, random_state=0).fit(X, y)
        assert accuracy(y, model.predict(X)) >= 0.95

    def test_learning_rate_zero_keeps_uniform_proba(self, blobs2):
        X, y = blobs2
        model = XGBoostClassifier(n_estimators=5, learning_rate=0.0).fit(X, y)
        proba = model.predict_proba(X)
        assert np.allclose(proba, 0.5)

    def test_subsample_still_learns(self, blobs2):
        X, y = blobs2
        model = XGBoostClassifier(
            n_estimators=20, subsample=0.7, random_state=0
        ).fit(X, y)
        assert accuracy(y, model.predict(X)) >= 0.95

    def test_heavy_regularization_shrinks_scores(self, blobs2):
        X, y = blobs2
        loose = XGBoostClassifier(n_estimators=10, reg_lambda=0.1, random_state=0)
        tight = XGBoostClassifier(n_estimators=10, reg_lambda=1e4, random_state=0)
        loose_scores = np.abs(loose.fit(X, y).decision_function(X)).mean()
        tight_scores = np.abs(tight.fit(X, y).decision_function(X)).mean()
        assert tight_scores < loose_scores

    def test_one_row_subsampled_fit(self):
        # a subsampled round keeps at least two rows, but never more
        # rows than the fit has
        X, y = np.zeros((1, 2)), np.array([0])
        model = XGBoostClassifier(n_estimators=3, subsample=0.5, random_state=0)
        assert model.fit(X, y).predict(X).tolist() == [0]

    @pytest.mark.parametrize("subsample", [0.0, -0.5, 1.5])
    def test_subsample_outside_unit_interval_rejected(self, blobs2, subsample):
        X, y = blobs2
        with pytest.raises(ValueError, match="subsample"):
            XGBoostClassifier(n_estimators=2, subsample=subsample).fit(X, y)


class TestMLP:
    def test_fits_xor(self, xor_data):
        X, y = xor_data
        model = MLPClassifier(
            hidden_size=32, epochs=150, random_state=0
        ).fit(X, y)
        assert accuracy(y, model.predict(X)) >= 0.90

    def test_sgd_optimizer_also_learns(self, blobs2):
        X, y = blobs2
        model = MLPClassifier(
            optimizer="sgd", learning_rate=0.05, epochs=60, random_state=0
        ).fit(X, y)
        assert accuracy(y, model.predict(X)) >= 0.95

    def test_bad_optimizer_rejected(self):
        with pytest.raises(ValueError):
            MLPClassifier(optimizer="rmsprop")
