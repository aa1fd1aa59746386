"""Tests for same-shape row reuse at evaluation time.

``TrainedModel.evaluate`` keeps one anchor prediction per model (the
raw test set for the dirty-trained model, the cleaned test set for a
cleaned-train model scored under CD) and predicts a later table of the
same shape by copying the anchor and recomputing only the rows whose
encoded bits differ, through ``Classifier.predict_proba_rows``.  That
is bit-identical to predicting the whole table only because a
same-shape prediction rounds each row on its own, whatever the other
rows hold: for KNN and the linear models that is a property of the
BLAS matrix product, pinned here as a premise.  KNN's
``predict_proba_rows`` must equal ``predict_proba(X)[rows]`` byte for
byte, and so must every evaluation through an anchor.
"""

import numpy as np
import pytest

from repro.cleaning import OUTLIERS
from repro.core import StudyConfig
from repro.core.runner import ErrorTypeRun, SplitWorkspace
from repro.datasets import load_dataset
from repro.ml import GaussianNB, KNeighborsClassifier, LogisticRegression
from repro.ml.base import Classifier
from tests.test_tuning_kernel import encoded_dataset

#: the datasets whose one-hot encodings are wide (one near-unique text column)
WIDE_DATASETS = ("Airbnb", "BabyProduct", "Citation", "Movie", "Restaurant")


def gaussian(n_rows: int, n_features: int, seed: int, n_classes: int = 3):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n_rows, n_features))
    return X, np.arange(n_rows) % n_classes


def assert_rows_match(model: Classifier, X: np.ndarray, rows) -> None:
    rows = np.asarray(rows, dtype=np.intp)
    want = model.predict_proba(X)[rows]
    got = model.predict_proba_rows(X, rows)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes(), rows


def reuse(model: Classifier, X_anchor: np.ndarray, X: np.ndarray) -> np.ndarray:
    """``predict_proba(X)`` the way ``TrainedModel.evaluate`` composes it."""
    changed = np.flatnonzero(
        (X.view(np.uint64) != X_anchor.view(np.uint64)).any(axis=1)
    )
    proba = model.predict_proba(X_anchor).copy()
    if len(changed):
        proba[changed] = model.predict_proba_rows(X, changed)
    return proba


def rewrite_rows(X: np.ndarray, fraction: float, seed: int) -> np.ndarray:
    """A same-shape copy of ``X`` with some rows overwritten by others."""
    rng = np.random.default_rng(seed)
    out = X.copy()
    rows = np.flatnonzero(rng.random(len(X)) < fraction)
    out[rows] = X[rng.integers(0, len(X), size=len(rows))] * 0.5
    return out


class TestSameShapeProductPremise:
    """Row r of a same-shape matrix product depends on row r alone."""

    N_ROWS = (1, 2, 3, 7, 8, 9, 16, 17, 33, 100, 257)
    N_FEATURES = (1, 3, 8, 31, 129, 600)
    N_OUT = (1, 2, 5, 16, 350)

    @pytest.mark.parametrize("n_features", N_FEATURES)
    def test_unchanged_rows_round_alike(self, n_features):
        rng = np.random.default_rng(n_features)
        failures = []
        for n_rows in self.N_ROWS:
            for n_out in self.N_OUT:
                for binary in (False, True):
                    if binary:
                        A = (rng.random((n_rows, n_features)) < 0.1) * 1.0
                        B = (rng.random((n_out, n_features)) < 0.1) * 1.0
                    else:
                        A = rng.normal(size=(n_rows, n_features))
                        B = rng.normal(size=(n_out, n_features))
                    changed = rng.random(n_rows) < 0.3
                    A2 = A.copy()
                    A2[changed] = rng.normal(size=(int(changed.sum()), n_features))
                    same = ~changed
                    if not np.array_equal(
                        (A @ B.T)[same].view(np.uint64),
                        (A2 @ B.T)[same].view(np.uint64),
                    ):
                        failures.append((n_rows, n_features, n_out, binary))
        assert not failures, (
            "a same-shape matrix product rounded an unchanged row differently "
            "after other rows changed, so recomputing only the changed rows "
            "of a prediction (TrainedModel.evaluate's row reuse) is not "
            f"bit-identical on this BLAS; (rows, features, outputs, 0/1) = {failures}"
        )


class TestKNNPredictRows:
    @pytest.mark.parametrize("weights", ("uniform", "distance"))
    def test_no_one_and_all_rows(self, weights):
        X, y = gaussian(200, 8, seed=1)
        query, _ = gaussian(60, 8, seed=2)
        model = KNeighborsClassifier(n_neighbors=7, weights=weights).fit(X, y)
        for rows in ([], [0], [59], [17], np.arange(60)):
            assert_rows_match(model, query, rows)

    def test_unsorted_and_repeated_rows(self):
        X, y = gaussian(200, 8, seed=3)
        query, _ = gaussian(90, 8, seed=4)
        model = KNeighborsClassifier(weights="distance").fit(X, y)
        assert_rows_match(model, query, np.arange(90)[::-1])
        assert_rows_match(model, query, [5, 5, 88, 0, 5])
        assert_rows_match(model, query, np.arange(0, 90, 3))

    @pytest.mark.parametrize("weights", ("uniform", "distance"))
    def test_k_at_least_the_training_rows(self, weights):
        X, y = gaussian(40, 5, seed=5)
        query, _ = gaussian(30, 5, seed=6)
        for k in (40, 41, 500):
            model = KNeighborsClassifier(n_neighbors=k, weights=weights).fit(X, y)
            assert_rows_match(model, query, [3, 9, 29])
            assert_rows_match(model, query, np.arange(30))

    def test_distance_weights_with_tied_distances(self):
        # integer grids with duplicated training rows: many equal
        # distances, so the selection's tie order decides the votes
        rng = np.random.default_rng(7)
        X = rng.integers(0, 3, size=(120, 4)).astype(np.float64)
        X[60:] = X[:60]
        y = np.arange(120) % 2
        query = rng.integers(0, 3, size=(50, 4)).astype(np.float64)
        query[25:] = X[:25]  # zero distances too
        for k in (1, 4, 8, 15):
            model = KNeighborsClassifier(n_neighbors=k, weights="distance").fit(X, y)
            assert_rows_match(model, query, np.arange(0, 50, 2))
            assert_rows_match(model, query, [30])

    def test_negative_zero_against_zero(self):
        X, y = gaussian(100, 6, seed=8)
        X[:, 2] = 0.0
        query, _ = gaussian(40, 6, seed=9)
        query[:, 2] = 0.0
        negative = query.copy()
        negative[::3, 2] = -0.0
        # equal values, different bits: a reuse would recompute these rows
        changed = (negative.view(np.uint64) != query.view(np.uint64)).any(axis=1)
        assert changed.sum() == len(range(0, 40, 3))
        for weights in ("uniform", "distance"):
            model = KNeighborsClassifier(weights=weights).fit(X, y)
            assert_rows_match(model, negative, np.flatnonzero(changed))
            assert reuse(model, query, negative).tobytes() == (
                model.predict_proba(negative).tobytes()
            )

    @pytest.mark.parametrize("dataset_name", WIDE_DATASETS)
    def test_wide_one_hot_encodings(self, dataset_name):
        X, y = encoded_dataset(dataset_name, n_rows=200)
        cut = int(0.7 * len(y))
        X_train, y_train, X_test = X[:cut], y[:cut], X[cut:]
        cleaned = rewrite_rows(X_test, 0.2, seed=10)
        for weights in ("uniform", "distance"):
            model = KNeighborsClassifier(n_neighbors=5, weights=weights).fit(
                X_train, y_train
            )
            assert_rows_match(model, cleaned, np.arange(0, len(cleaned), 4))
            assert reuse(model, X_test, cleaned).tobytes() == (
                model.predict_proba(cleaned).tobytes()
            )

    def test_default_is_the_full_prediction_indexed(self):
        X, y = gaussian(90, 6, seed=11)
        query, _ = gaussian(30, 6, seed=12)
        for model in (LogisticRegression(), GaussianNB()):
            model.fit(X, y)
            assert_rows_match(model, query, [0, 7, 29])
            assert reuse(model, query, rewrite_rows(query, 0.3, seed=13)).tobytes() == (
                model.predict_proba(rewrite_rows(query, 0.3, seed=13)).tobytes()
            )


class TestEvaluateThroughAnchors:
    """Scores through an anchor equal scores of a whole-table prediction."""

    MODELS = ("knn", "naive_bayes", "logistic_regression", "decision_tree")

    @pytest.fixture(scope="class")
    def workspace(self):
        dataset = load_dataset("Credit", seed=2, n_rows=300)
        config = StudyConfig(n_splits=1, cv_folds=3, models=self.MODELS, seed=4)
        return SplitWorkspace(ErrorTypeRun(dataset, OUTLIERS, config), 0)

    @pytest.fixture
    def predicted_rows(self, monkeypatch):
        """``(rows asked for, rows of X)`` of every KNN row prediction."""
        calls = []
        rows_path = KNeighborsClassifier.predict_proba_rows

        def spy(model, X, rows):
            calls.append((len(rows), len(X)))
            return rows_path(model, X, rows)

        monkeypatch.setattr(KNeighborsClassifier, "predict_proba_rows", spy)
        return calls

    def test_scores_equal_whole_predictions(self, workspace, predicted_rows):
        raw_test = workspace.raw_test
        for index in range(len(workspace.methods())):
            cell = workspace.cell(index, "knn")
            clean_test = workspace.clean_test(index)
            for name in self.MODELS:
                dirty = workspace.dirty_model(name)
                clean = workspace.clean_model(index, name)
                assert dirty.evaluate(clean_test, anchor=raw_test) == dirty.evaluate(
                    clean_test
                )
                assert clean.evaluate(raw_test, anchor=clean_test) == clean.evaluate(
                    raw_test
                )
            assert cell.pairs  # the cell ran through the anchors
        assert any(n < total for n, total in predicted_rows), (
            "no evaluation recomputed a subset of the rows"
        )

    def test_anchor_holds_no_encoding(self, workspace):
        # the anchor keeps its table and prediction; the encoding stays
        # the split's shared cache entry, which release never drops
        for index in range(len(workspace.methods())):
            workspace.cell(index, "knn")
        X_raw = workspace.dirty_source.encode(workspace.raw_test)[0]
        anchor, proba = workspace.dirty_model("knn")._anchor
        assert anchor is workspace.raw_test
        assert proba.shape == (workspace.raw_test.n_rows, 2)
        workspace.cell(0, "knn")
        assert workspace.dirty_source.encode(workspace.raw_test)[0] is X_raw

    def test_other_row_counts_take_the_full_path(self, workspace, predicted_rows):
        dirty = workspace.dirty_model("knn")
        shorter = workspace.raw_test.take(np.arange(workspace.raw_test.n_rows - 3))
        assert dirty.evaluate(shorter, anchor=workspace.raw_test) == dirty.evaluate(
            shorter
        )
        assert predicted_rows and all(n == total for n, total in predicted_rows)


class TestWholePredictionWithoutRowOverride:
    """A model on the default ``predict_proba_rows`` predicts each table once.

    The default recomputes every row, so an anchor prediction would
    only add a whole prediction per model and split: naive Bayes (like
    every model but KNN) predicts each evaluated table whole instead.
    """

    def test_one_naive_bayes_prediction_per_evaluated_table(self, monkeypatch):
        from repro.core.runner import TrainedModel

        dataset = load_dataset("Credit", seed=3, n_rows=300)
        config = StudyConfig(
            n_splits=1, cv_folds=3, models=("naive_bayes",), seed=3
        )
        workspace = SplitWorkspace(ErrorTypeRun(dataset, OUTLIERS, config), 0)
        evaluated = []  # rows of every table an evaluation scored
        predictions = []  # rows of each prediction, per evaluation
        evaluate = TrainedModel.evaluate
        predict_proba = GaussianNB.predict_proba

        def evaluate_spy(model, test, anchor=None):
            evaluated.append(test.n_rows)
            predictions.append([])
            try:
                return evaluate(model, test, anchor)
            finally:
                evaluated.append(None)  # closes the evaluation

        def predict_spy(model, X):
            # cross validation predicts too, outside any evaluation
            if evaluated and evaluated[-1] is not None:
                predictions[-1].append(len(X))
            return predict_proba(model, X)

        monkeypatch.setattr(TrainedModel, "evaluate", evaluate_spy)
        monkeypatch.setattr(GaussianNB, "predict_proba", predict_spy)
        for index in range(len(workspace.methods())):
            workspace.cell(index, "naive_bayes")
        rows = [n for n in evaluated if n is not None]
        assert rows
        assert predictions == [[n] for n in rows]
