"""Tests for same-shape row reuse at evaluation time.

``TrainedModel.evaluate`` keeps one anchor prediction per model (the
raw test set's dirty encoding for the dirty-trained model, the cleaned
test set's encoding for a cleaned-train model) and predicts a later
matrix of the same shape by copying the anchor and recomputing only the
rows whose encoded bits differ, through ``Classifier.predict_proba_rows``.  That
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
from repro.core.runner import ErrorTypeRun, SplitWorkspace, TrainedModel
from repro.core.schema import Scenario
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
        X_raw, y_raw = workspace.raw_dirty, workspace.raw_labels
        for index in range(len(workspace.methods())):
            cell = workspace.cell(index, "knn")
            record = workspace.record(index)
            X, y = record.X_dirty, record.y
            for name in self.MODELS:
                dirty = workspace.dirty_model(name)
                clean = workspace.clean_model(index, name)
                assert dirty.evaluate(X, y, anchor=X_raw) == dirty.evaluate(X, y)
                assert clean.evaluate(
                    record.X_raw, y_raw, anchor=record.X_clean
                ) == clean.evaluate(record.X_raw, y_raw)
            knn = workspace.dirty_model("knn")
            assert dict(cell.pairs)[Scenario.BD].before == knn.evaluate(X, y)
        assert any(n < total for n, total in predicted_rows), (
            "no evaluation recomputed a subset of the rows"
        )

    def test_dirty_anchor_is_the_raw_test_encoding(self, workspace):
        # the dirty model's anchor is the workspace's raw-test encoding,
        # which outlives every method record
        for index in range(len(workspace.methods())):
            workspace.cell(index, "knn")
        anchor, proba = workspace.dirty_model("knn")._anchor
        assert anchor is workspace.raw_dirty
        assert proba.shape == (workspace.raw_test.n_rows, 2)
        workspace.cell(0, "knn")
        assert workspace.dirty_model("knn")._anchor[0] is anchor

    def test_other_row_counts_take_the_full_path(self, workspace, predicted_rows):
        dirty = workspace.dirty_model("knn")
        X_raw = workspace.raw_dirty
        shorter, y = X_raw[:-3], workspace.raw_labels[:-3]
        assert dirty.evaluate(shorter, y, anchor=X_raw) == dirty.evaluate(
            shorter, y
        )
        assert predicted_rows and all(n == total for n, total in predicted_rows)


class TestWholePredictionWithoutRowOverride:
    """A model on the default ``predict_proba_rows`` predicts each pair once.

    Naive Bayes predicts every table whole, and still each (model,
    table) pair of a split is predicted once: a model keeps its
    prediction of its anchor, so a table it scores twice — when a method
    repairs nothing and returns the raw test table itself, the dirty
    model's raw test set across such methods and the clean model's C
    case, which is then its D case — is predicted once.
    """

    def test_one_naive_bayes_prediction_per_evaluated_table(self, monkeypatch):
        dataset = load_dataset("Credit", seed=3, n_rows=300)
        config = StudyConfig(
            n_splits=1, cv_folds=3, models=("naive_bayes",), seed=3
        )
        workspace = SplitWorkspace(ErrorTypeRun(dataset, OUTLIERS, config), 0)
        evaluating = []
        predictions = []  # rows of each prediction made while evaluating
        evaluate = TrainedModel.evaluate
        predict_proba = GaussianNB.predict_proba

        def evaluate_spy(model, *args, **kwargs):
            evaluating.append(model)
            try:
                return evaluate(model, *args, **kwargs)
            finally:
                evaluating.pop()

        def predict_spy(model, X):
            # cross validation predicts too, outside any evaluation
            if evaluating:
                predictions.append(len(X))
            return predict_proba(model, X)

        monkeypatch.setattr(TrainedModel, "evaluate", evaluate_spy)
        monkeypatch.setattr(GaussianNB, "predict_proba", predict_spy)
        pairs = set()  # (model, table) of every case B, C and D
        raw = "raw test"
        for index in range(len(workspace.methods())):
            workspace.cell(index, "naive_bayes")
            repairs_nothing = workspace.record(index).test is workspace.raw_test
            test = raw if repairs_nothing else index
            pairs |= {("dirty", test), (index, test), (index, raw)}
        assert ("dirty", raw) in pairs  # some method repairs nothing
        assert len(predictions) == len(pairs)
