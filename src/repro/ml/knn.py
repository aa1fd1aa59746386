"""k-nearest-neighbors classifier.

Fully vectorized: pairwise squared euclidean distances via the expansion
``|a-b|^2 = |a|^2 + |b|^2 - 2ab``, then a partial sort for the k smallest.
KNN is the model the paper singles out as most sensitive to outliers
(Table 12, Q3), so distance behaviour matters here.

The distance matrix is a pure function of ``(train, query)`` — not of
``(n_neighbors, weights)`` — so the fold-major tuning kernel computes it
once per CV fold (:class:`_KNNFoldWorkspace`).  The neighbor selection
depends on ``k`` alone, so the workspace runs one ``argpartition`` per
distinct capped ``k`` and one vote per distinct ``(k, weights)``.

Everything is bit-identical to the plain expressions kept as test
oracles (``tests/oracles/knn.py``).  The distance arithmetic runs in
place over cache-sized row blocks of the matmul's own buffer, with the
same operands in the same order, and elementwise ufuncs round each
element on its own.  ``predict_proba_rows`` runs the matmul on the
whole query matrix and everything after it on the requested rows only,
which is how an evaluation recomputes just the test rows cleaning
changed (``TrainedModel.evaluate`` in ``repro.core.runner``);
``predict_proba`` is that call on every row.  The neighbor indices
come from numpy's ``argpartition``, whose order among tied distances
depends on the SIMD target numpy dispatches to on the running CPU; a
selection memo reuses that call's output, it never reorders it.  The
selection runs over the same row blocks, because the full ``(n_rows,
n_train)`` index matrices of whole-matrix calls made up most of a
study's page faults.
"""

from __future__ import annotations

import numpy as np

from .base import Classifier, check_fit_inputs
from .cv_kernel import FoldWorkspace

#: elements per row block of the in-place distance pass and of the
#: neighbor selection (128 KiB of float64 or intp).  Measured on a
#: 350 x 1400 x 8 fold: 8K to 64K elements run alike, and about 2.5x
#: faster than one in-place pass over the whole matrix.
_BLOCK_ELEMENTS = 16384


def _vote(
    vote_weights: np.ndarray, neighbor_labels: np.ndarray, n_classes: int
) -> np.ndarray:
    """Per-class vote totals in one vectorized pass.

    Bit-identical to the per-class Python loop kept as the test oracle
    (``tests/oracles/knn.py``).  The obvious scatter-add —
    ``np.add.at(proba, (row, label), weight)`` — accumulates strictly
    left-to-right, while the reference's ``np.sum`` reduces its
    contiguous axis pairwise in blocks of 8; for ``k >= 8`` with
    inverse-distance weights the two orders disagree in the last ulp,
    so the scatter is *not* bit-identical (measured, not hypothetical).  The class-major masked product below reduces a
    contiguous ``(n_classes, n_rows, k)`` block over its last axis —
    the same values in the same pairwise order as the reference's
    per-class ``(n_rows, k)`` reduction — with the Python class loop
    replaced by one broadcast.
    """
    mask = np.arange(n_classes)[:, None, None] == neighbor_labels[None, :, :]
    votes = (vote_weights[None, :, :] * mask).sum(axis=2)
    return np.ascontiguousarray(votes.T)


def _select_neighbors(distances: np.ndarray, k: int) -> np.ndarray:
    """Indices of each row's ``k`` nearest training rows, ``(n_rows, k)``.

    ``argpartition`` runs over row blocks of ``_BLOCK_ELEMENTS`` into one
    ``(n_rows, k)`` array.  A whole-matrix call builds an ``(n_rows,
    n_train)`` index temporary (10.5 MiB on a 750 x 1750 test set), and
    a study's stream of those was faulted in again and again: about ten
    times the blocked selection's minor faults.  ``argpartition``
    partitions each row on its own, so the blocks return the same
    indices, tie order included (pinned in ``tests/test_knn_kernel.py``).
    """
    n_rows, n_train = distances.shape
    step = max(1, _BLOCK_ELEMENTS // n_train)
    out = np.empty((n_rows, k), dtype=np.intp)
    for start in range(0, n_rows, step):
        block = distances[start : start + step]
        out[start : start + step] = np.argpartition(block, k - 1, axis=1)[:, :k]
    return out


def _proba_from_distances(
    distances: np.ndarray,
    neighbor_idx: np.ndarray,
    train_labels: np.ndarray,
    n_classes: int,
    weights: str,
) -> np.ndarray:
    """Class probabilities given the distances and the selected neighbors.

    The single post-selection code path: ``predict_proba`` calls it
    after :func:`_select_neighbors` on the matrix it just computed, the
    fold workspace with the matrix it computed once per fold and the
    selection it made once per ``k`` — which is what makes the shared
    path bit-identical to a per-candidate refit by construction.
    """
    neighbor_labels = train_labels[neighbor_idx]

    if weights == "uniform":
        vote_weights = np.ones_like(neighbor_labels, dtype=np.float64)
    else:
        rows = np.arange(len(distances))[:, None]
        neighbor_dist = np.sqrt(np.maximum(distances[rows, neighbor_idx], 0.0))
        vote_weights = 1.0 / (neighbor_dist + 1e-9)

    proba = _vote(vote_weights, neighbor_labels, n_classes)
    totals = proba.sum(axis=1, keepdims=True)
    return proba / np.where(totals == 0.0, 1.0, totals)


class KNeighborsClassifier(Classifier):
    """KNN with uniform or inverse-distance voting.

    Parameters
    ----------
    n_neighbors:
        Number of neighbors, silently capped at the training-set size.
    weights:
        ``"uniform"`` for majority voting, ``"distance"`` for
        inverse-distance weighted voting.
    """

    def __init__(self, n_neighbors: int = 5, weights: str = "uniform") -> None:
        if weights not in ("uniform", "distance"):
            raise ValueError("weights must be 'uniform' or 'distance'")
        self.n_neighbors = n_neighbors
        self.weights = weights

    def fit(self, X: np.ndarray, y: np.ndarray) -> "KNeighborsClassifier":
        X, y, n_classes = check_fit_inputs(X, y)
        self.n_classes_ = n_classes
        self._X = X
        self._y = y
        self._sq_norms = np.sum(X**2, axis=1)
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        return self.predict_proba_rows(X, np.arange(len(X)))

    def predict_proba_rows(self, X: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """``predict_proba(X)[rows]``, selecting and voting for ``rows`` only.

        The matmul runs on the whole of ``X``: a same-shape product
        rounds each output row the same way whatever the other rows
        hold, while a product of ``X[rows]`` alone need not (the premise
        is pinned in ``tests/test_prediction_reuse.py``).  The distance passes, the
        neighbor selection and the vote — the per-row work that
        dominates a prediction — then run on ``rows`` only.
        """
        X = np.asarray(X, dtype=np.float64)
        k = min(self.n_neighbors, len(self._X))
        distances = self._pairwise_sq_distances(X, rows)
        return _proba_from_distances(
            distances,
            _select_neighbors(distances, k),
            self._y,
            self.n_classes_,
            self.weights,
        )

    def _pairwise_sq_distances(
        self, X: np.ndarray, rows: np.ndarray | None = None
    ) -> np.ndarray:
        """``max(|q|^2 + |t|^2 - 2 q.t, 0)`` for every (query, train) pair.

        One matmul over all of ``X``, then the elementwise passes row
        block by row block inside the matmul's own buffer — or, when
        ``rows`` names a proper subset of ``X``'s rows, inside a gather
        of those rows of it: ``2 * cross`` in place, the norm sum into
        one scratch block, their difference back into the buffer, and
        the clip at zero in place.  Each element sees the operations of
        the plain expression in the same order.
        """
        query_norms = np.sum(X**2, axis=1)[:, None]
        out = X @ self._X.T
        if rows is not None and not np.array_equal(rows, np.arange(len(X))):
            out = out[rows]
            query_norms = query_norms[rows]
        n_rows, n_train = out.shape
        step = max(1, _BLOCK_ELEMENTS // n_train)
        scratch = np.empty((min(step, n_rows), n_train))
        for start in range(0, n_rows, step):
            block = out[start : start + step]
            sums = scratch[: len(block)]
            np.multiply(block, 2.0, out=block)
            np.add(query_norms[start : start + step], self._sq_norms, out=sums)
            np.subtract(sums, block, out=block)
            np.maximum(block, 0.0, out=block)
        return out

    def make_fold_workspace(self, X_train, y_train, X_val):
        return _KNNFoldWorkspace(X_train, y_train, X_val)


class _KNNFoldWorkspace(FoldWorkspace):
    """One train<->validation distance matrix shared by every candidate.

    Fitting KNN is trivial (store the matrix, square the norms); the
    cost is the pairwise distance computation at prediction time, which
    does not depend on ``(n_neighbors, weights)`` at all, and the
    neighbor selection, which depends on the capped ``k`` alone.  The
    workspace fits one reference model per fold, computes the
    validation distance matrix once through the model's own
    ``_pairwise_sq_distances``, selects neighbors once per distinct
    capped ``k`` and votes once per distinct ``(k, weights)`` —
    exactly the operations a per-candidate refit performs, minus the
    repeats.  Every call returns a fresh copy of the memoized
    predictions, so a caller that writes into one cannot reach the next
    candidate's.
    """

    def __init__(self, X_train, y_train, X_val) -> None:
        reference = KNeighborsClassifier().fit(X_train, y_train)
        self._n_train = len(reference._X)
        self._labels = reference._y
        self._n_classes = reference.n_classes_
        self._distances = reference._pairwise_sq_distances(
            np.asarray(X_val, dtype=np.float64)
        )
        self._neighbors: dict[int, np.ndarray] = {}
        self._predictions: dict[tuple[int, str], np.ndarray] = {}

    def predict_val(self, model) -> np.ndarray:
        k = min(model.n_neighbors, self._n_train)
        key = (k, model.weights)
        if key not in self._predictions:
            if k not in self._neighbors:
                self._neighbors[k] = _select_neighbors(self._distances, k)
            proba = _proba_from_distances(
                self._distances,
                self._neighbors[k],
                self._labels,
                self._n_classes,
                model.weights,
            )
            self._predictions[key] = np.argmax(proba, axis=1)
        return self._predictions[key].copy()
