"""Tests for the KNN kernel: blocked distances, blocked selection, memos.

``KNeighborsClassifier._pairwise_sq_distances`` runs its elementwise
passes in place over row blocks of the matmul's buffer,
``_select_neighbors`` runs ``argpartition`` over row blocks of the
distance matrix, and the fold workspace selects neighbors once per
capped ``k`` and votes once per ``(k, weights)``.  None may move a bit:
distances are pinned byte for byte against the allocating expression,
selections against one whole-matrix ``argpartition`` (also bounded in
what they allocate) and every prediction against the
one-selection-per-call path, all kept as the oracles in
``tests/oracles/knn.py`` — at the row-block boundaries, on wide and
registry matrices, on NaN and inf inputs and on tie-heavy matrices
(duplicated rows, mean-imputed cells), where the order ``argpartition``
returns decides the neighbor set and the vote sums.  The memo tests
cover repeated candidates, ``n_neighbors`` values that cap to the same
``k`` and callers that write into a returned array.
"""

import tracemalloc

import numpy as np
import pytest

import repro.ml.knn as knn
from repro.datasets import DATASET_NAMES
from repro.ml import FoldPlanData, KNeighborsClassifier, kfold_plan, search_space
from repro.ml.knn import _KNNFoldWorkspace
from tests.oracles import (
    knn_proba_reference,
    pairwise_sq_distances_reference,
    select_neighbors_reference,
)
from tests.test_tuning_kernel import encoded_dataset

WEIGHTS = ("uniform", "distance")

#: every (n_neighbors, weights) pair of the study's KNN search space
SEARCH_GRID = [
    {"n_neighbors": k, "weights": w}
    for k in search_space("knn")["n_neighbors"]
    for w in search_space("knn")["weights"]
]


def assert_same_distances(X_train, y_train, query) -> np.ndarray:
    """Pin the kernel's distance bytes against the oracle; return them."""
    model = KNeighborsClassifier().fit(X_train, y_train)
    query = np.asarray(query, dtype=np.float64)
    got = model._pairwise_sq_distances(query)
    want = pairwise_sq_distances_reference(model, query)
    assert got.shape == want.shape == (len(query), len(X_train))
    assert got.dtype == want.dtype
    assert got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()
    return want


def assert_same_predictions(X_train, y_train, query, candidates=SEARCH_GRID):
    """Pin ``predict_proba`` and the fold workspace against the oracle path."""
    distances = assert_same_distances(X_train, y_train, query)
    y_train = np.asarray(y_train, dtype=np.int64)
    n_classes = int(y_train.max()) + 1
    workspace = _KNNFoldWorkspace(X_train, y_train, query)
    for params in candidates:
        k = min(params["n_neighbors"], len(y_train))
        want = knn_proba_reference(
            distances, y_train, n_classes, k, params["weights"]
        )
        model = KNeighborsClassifier(**params).fit(X_train, y_train)
        got = model.predict_proba(query)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes(), params
        shared = workspace.predict_val(KNeighborsClassifier(**params))
        assert np.array_equal(shared, np.argmax(want, axis=1)), params


def gaussian(n_rows: int, n_features: int, seed: int, n_classes: int = 3):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n_rows, n_features))
    y = np.arange(n_rows) % n_classes
    return X, y


class TestBlockBoundaries:
    N_TRAIN = 200
    STEP = knn._BLOCK_ELEMENTS // N_TRAIN

    @pytest.mark.parametrize(
        "n_query",
        [0, 1, STEP - 1, STEP, STEP + 1, 2 * STEP + 1],
    )
    def test_query_rows_around_the_block(self, n_query):
        X, y = gaussian(self.N_TRAIN, 8, seed=1)
        query, _ = gaussian(n_query, 8, seed=2)
        assert_same_predictions(X, y, query)

    def test_train_rows_wider_than_one_block(self):
        # one block cannot hold a single distance row: one row per block
        X, y = gaussian(knn._BLOCK_ELEMENTS + 7, 3, seed=3)
        query, _ = gaussian(5, 3, seed=4)
        assert_same_predictions(X, y, query)

    def test_non_contiguous_query(self):
        X, y = gaussian(self.N_TRAIN, 8, seed=7)
        query, _ = gaussian(3 * self.STEP, 16, seed=8)
        assert_same_predictions(X, y, query[::-2, ::2])
        assert_same_predictions(X, y, np.asfortranarray(query[:, :8]))


def assert_same_selection(distances: np.ndarray, k: int) -> np.ndarray:
    """Pin the blocked selection's bytes against one whole-matrix call."""
    got = knn._select_neighbors(distances, k)
    want = select_neighbors_reference(distances, k)
    assert got.shape == want.shape == (len(distances), k)
    assert got.dtype == want.dtype
    assert got.flags.c_contiguous and got.base is None
    assert got.tobytes() == want.tobytes()
    return got


class TestBlockedSelection:
    N_TRAIN = 300
    STEP = knn._BLOCK_ELEMENTS // N_TRAIN

    @pytest.mark.parametrize("remainder", [0, 1, STEP - 1])
    def test_rows_spanning_several_blocks(self, remainder):
        distances = np.random.default_rng(30).random(
            (3 * self.STEP + remainder, self.N_TRAIN)
        )
        for k in (2, 5, 15):
            assert_same_selection(distances, k)

    def test_train_rows_wider_than_one_block(self):
        # one distance row exceeds the budget: every block is one row
        distances = np.random.default_rng(31).random((6, knn._BLOCK_ELEMENTS + 9))
        assert max(1, knn._BLOCK_ELEMENTS // distances.shape[1]) == 1
        for k in (1, 7):
            assert_same_selection(distances, k)

    def test_heavy_ties(self):
        # three distinct values per row: every k cuts through a tie
        rng = np.random.default_rng(32)
        distances = rng.integers(0, 3, size=(2 * self.STEP + 3, self.N_TRAIN))
        for k in (1, 5, 15, 150):
            assert_same_selection(distances.astype(np.float64), k)

    def test_duplicated_training_rows(self):
        rng = np.random.default_rng(33)
        base = rng.normal(size=(10, 4))
        X = base[rng.integers(0, 10, size=self.N_TRAIN)]
        query = base[rng.integers(0, 10, size=3 * self.STEP + 2)]
        model = KNeighborsClassifier().fit(X, np.arange(self.N_TRAIN) % 2)
        distances = model._pairwise_sq_distances(query)
        for k in (1, 5, 15):
            assert_same_selection(distances, k)

    @pytest.mark.parametrize("k", [1, N_TRAIN])
    def test_extreme_k(self, k):
        distances = np.random.default_rng(34).random(
            (2 * self.STEP + 1, self.N_TRAIN)
        )
        assert_same_selection(distances, k)

    @pytest.mark.parametrize("k", [1, 15])
    def test_never_allocates_the_full_index_matrix(self, k):
        # a test-set-sized matrix: the whole-matrix call allocates
        # n_rows * n_train indices, the blocked one the (n_rows, k)
        # output plus one block
        distances = np.random.default_rng(35).random((750, 1750))
        itemsize = np.dtype(np.intp).itemsize
        knn._select_neighbors(distances, k)  # warm numpy's own caches
        tracemalloc.start()
        try:
            knn._select_neighbors(distances, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = (750 * k + knn._BLOCK_ELEMENTS) * itemsize + 4096
        assert peak <= bound < 750 * 1750 * itemsize


class TestWideAndRegistry:
    def test_wide_d600(self):
        X, y = gaussian(300, 600, seed=9)
        query, _ = gaussian(90, 600, seed=10)
        assert_same_predictions(X, y, query)

    def test_wide_d600_binary(self):
        # one-hot-like 0/1 columns: integer-valued distances, many ties
        rng = np.random.default_rng(11)
        X = (rng.random((240, 600)) < 0.02).astype(np.float64)
        query = (rng.random((70, 600)) < 0.02).astype(np.float64)
        assert_same_predictions(X, np.arange(240) % 2, query)

    @pytest.mark.parametrize("dataset_name", DATASET_NAMES)
    def test_registry_cv_folds(self, dataset_name):
        X, y = encoded_dataset(dataset_name)
        plan = FoldPlanData(X, y, kfold_plan(len(y), 5, seed=0))
        for fold in plan.folds[:2]:
            assert_same_predictions(fold.X_train, fold.y_train, fold.X_val)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestNonFinite:
    def test_nan_in_query_and_train(self):
        X, y = gaussian(120, 6, seed=12)
        query, _ = gaussian(40, 6, seed=13)
        X[3, 2] = X[50, 0] = np.nan
        query[::7, 4] = np.nan
        assert_same_predictions(X, y, query)

    def test_inf_in_query_and_train(self):
        X, y = gaussian(120, 6, seed=14)
        query, _ = gaussian(40, 6, seed=15)
        X[5, 1] = np.inf
        X[9, 3] = -np.inf
        query[::5, 0] = np.inf
        query[2, 1] = -np.inf
        assert_same_predictions(X, y, query)

    def test_overflowing_products(self):
        X, y = gaussian(60, 4, seed=16)
        query, _ = gaussian(20, 4, seed=17)
        X[::4] *= 1e155  # squares overflow to inf, crosses stay finite
        query[1] = 1.7e308
        assert_same_predictions(X, y, query)


class TestTies:
    def test_duplicated_rows(self):
        rng = np.random.default_rng(18)
        base = rng.normal(size=(12, 5))
        X = base[rng.integers(0, 12, size=300)]
        y = rng.integers(0, 3, size=300)
        query = base[rng.integers(0, 12, size=80)]
        assert_same_predictions(X, y, query)

    def test_mean_imputed_cells(self):
        rng = np.random.default_rng(19)
        X = rng.normal(size=(260, 7))
        query = rng.normal(size=(75, 7))
        means = X.mean(axis=0)
        for matrix in (X, query):
            holes = rng.random(matrix.shape) < 0.6
            matrix[holes] = np.broadcast_to(means, matrix.shape)[holes]
        y = rng.integers(0, 2, size=260)
        assert_same_predictions(X, y, query)

    def test_integer_grid(self):
        # small integer coordinates: exact distances, ties at every k
        rng = np.random.default_rng(20)
        X = rng.integers(0, 3, size=(400, 4)).astype(np.float64)
        query = rng.integers(0, 3, size=(100, 4)).astype(np.float64)
        assert_same_predictions(X, rng.integers(0, 4, size=400), query)


class TestWorkspaceMemo:
    def fold(self, n_train=60, n_val=25, seed=21):
        X, y = gaussian(n_train, 5, seed=seed)
        query, _ = gaussian(n_val, 5, seed=seed + 1)
        return X, y, query

    def count_selections(self, monkeypatch):
        calls = []
        select = knn._select_neighbors

        def counted(distances, k):
            calls.append(k)
            return select(distances, k)

        monkeypatch.setattr(knn, "_select_neighbors", counted)
        return calls

    def test_duplicate_candidates(self, monkeypatch):
        X, y, query = self.fold()
        candidates = [
            {"n_neighbors": 5, "weights": "uniform"},
            {"n_neighbors": 5, "weights": "distance"},
            {"n_neighbors": 5, "weights": "uniform"},
            {"n_neighbors": 7, "weights": "distance"},
            {"n_neighbors": 5, "weights": "distance"},
        ]
        calls = self.count_selections(monkeypatch)
        assert_same_predictions(X, y, query, candidates)
        # predict_proba selects once per call; the workspace once per k
        assert calls.count(5) == 4 + 1
        assert calls.count(7) == 1 + 1

    def test_capped_k_shares_one_selection(self, monkeypatch):
        # n_train < 15: n_neighbors 11 and 15 both cap to k = 10
        X, y, query = self.fold(n_train=10, n_val=8)
        candidates = [
            {"n_neighbors": k, "weights": w} for k in (11, 15, 3) for w in WEIGHTS
        ]
        calls = self.count_selections(monkeypatch)
        workspace = _KNNFoldWorkspace(X, y, query)
        for params in candidates:
            workspace.predict_val(KNeighborsClassifier(**params))
        assert calls == [10, 3]
        assert_same_predictions(X, y, query, candidates)

    def test_returned_predictions_are_fresh(self):
        X, y, query = self.fold()
        workspace = _KNNFoldWorkspace(X, y, query)
        model = KNeighborsClassifier(n_neighbors=5)
        first = workspace.predict_val(model)
        expected = first.copy()
        first[:] = -1
        second = workspace.predict_val(model.clone())
        assert np.array_equal(second, expected)
        assert not np.shares_memory(first, second)
        second[:] = 7
        assert np.array_equal(workspace.predict_val(model.clone()), expected)

    def test_selection_is_a_contiguous_copy(self):
        distances = np.random.default_rng(23).random((30, 50))
        neighbors = knn._select_neighbors(distances, 4)
        assert neighbors.shape == (30, 4)
        assert neighbors.flags.c_contiguous and neighbors.base is None
        assert np.array_equal(neighbors, select_neighbors_reference(distances, 4))
