"""Classifier interface shared by every model in the ML substrate.

The environment ships no scikit-learn, so CleanML's seven classifiers are
implemented from scratch on numpy.  They all speak the small protocol
defined here: ``fit(X, y)`` on a dense ``float64`` matrix and integer class
ids, ``predict`` / ``predict_proba``, and parameter introspection for the
random hyper-parameter search.
"""

from __future__ import annotations

import inspect
from abc import ABC, abstractmethod
from functools import cache

import numpy as np


class Classifier(ABC):
    """Abstract base class for all classifiers.

    Subclasses declare hyper-parameters as constructor keyword arguments
    and store them under the same attribute names; :meth:`get_params` and
    :meth:`clone` rely on that convention (the same one scikit-learn uses).
    """

    #: set by fit(): number of classes seen during training
    n_classes_: int

    @abstractmethod
    def fit(self, X: np.ndarray, y: np.ndarray) -> "Classifier":
        """Train on ``X`` (n_samples, n_features) and class ids ``y``."""

    @abstractmethod
    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Class-probability matrix of shape (n_samples, n_classes)."""

    def predict_proba_rows(self, X: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Class probabilities of ``X[rows]``, bit for bit ``predict_proba(X)[rows]``.

        The rows are predicted as rows of the full matrix ``X``: a
        GEMM-based model's output row depends on the matrix's shape as
        well as on the row itself, so predicting ``X[rows]`` on its own
        may round differently.  This default computes every row; a model
        whose per-row work dominates (KNN's neighbor selection) overrides
        it to do that work on ``rows`` only.
        """
        return self.predict_proba(X)[rows]

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Most probable class id per sample."""
        return np.argmax(self.predict_proba(X), axis=1)

    # -- parameter protocol ---------------------------------------------------

    def get_params(self) -> dict:
        """Constructor keyword arguments and their current values."""
        return {name: getattr(self, name) for name in _param_names(type(self))}

    def set_params(self, **params) -> "Classifier":
        """Update hyper-parameters in place; unknown names raise."""
        valid = self.get_params()
        for name, value in params.items():
            if name not in valid:
                raise ValueError(
                    f"{type(self).__name__} has no parameter {name!r}"
                )
            setattr(self, name, value)
        return self

    def clone(self, **overrides) -> "Classifier":
        """Fresh, unfitted instance with the same (overridden) parameters."""
        params = self.get_params()
        params.update(overrides)
        return type(self)(**params)

    # -- fold-major tuning protocol -------------------------------------------

    def make_fold_workspace(self, X_train, y_train, X_val):
        """Candidate-invariant per-fold precomputation for the tuning kernel.

        The fold-major cross-validation kernel
        (:mod:`repro.ml.cv_kernel`) calls this once per fold on the
        search's prototype model; returning a
        :class:`~repro.ml.cv_kernel.FoldWorkspace` lets every candidate
        of the search reuse work that depends only on the fold — KNN's
        distance matrix, naive Bayes' class statistics, CART's root
        argsorts.  The default ``None`` opts out: candidates are fitted
        naively on the (still shared) fold slices.  Implementations are
        bound to the workspace's bit-identity contract.
        """
        return None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        args = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({args})"


@cache
def _param_names(cls: type) -> tuple[str, ...]:
    """A classifier class's constructor keyword names, read once per class."""
    signature = inspect.signature(cls.__init__)
    return tuple(
        name
        for name, parameter in signature.parameters.items()
        if name != "self" and parameter.kind is not inspect.Parameter.VAR_KEYWORD
    )


def check_fit_inputs(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Validate and normalize (X, y); returns (X, y, n_classes).

    ``y`` must contain contiguous integer class ids ``0..K-1`` (the
    :class:`~repro.table.LabelEncoder` guarantees that); ``X`` must be a 2-D
    float matrix with one row per label.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {X.shape}")
    if y.ndim != 1:
        raise ValueError(f"y must be 1-D, got shape {y.shape}")
    if X.shape[0] != y.shape[0]:
        raise ValueError(f"X has {X.shape[0]} rows but y has {y.shape[0]}")
    if X.shape[0] == 0:
        raise ValueError("cannot fit on an empty dataset")
    if y.min() < 0:
        raise ValueError("class ids must be non-negative")
    n_classes = int(y.max()) + 1
    return X, y, n_classes


def softmax(
    logits: np.ndarray, out: np.ndarray | None = None, row: np.ndarray | None = None
) -> np.ndarray:
    """Row-wise numerically-stable softmax.

    The one row-softmax kernel: every ``predict_proba`` calls it as
    ``softmax(logits)``; :class:`~repro.ml.linear.LogisticRegression`
    runs it in place on preallocated buffers (``out`` may be ``logits``
    itself, ``row`` is an ``(n, 1)`` float scratch buffer).  Either way
    the bits equal ``exp / exp.sum(axis=1, keepdims=True)`` of
    ``exp = np.exp(logits - logits.max(axis=1, keepdims=True))``:

    * the row max is a column-wise ``np.maximum`` fold, exact for any k;
    * the row sum is the sequential column fold ``((e0 + e1) + e2)...``
      for k < 8 — numpy's own ``axis=1`` order for so few columns — and
      ``sum(axis=1)`` itself for k >= 8, where numpy switches to unrolled
      pairwise summation and the fold would no longer match.

    The column folds replace numpy's per-row inner loops, which dominate
    the cost of a narrow ``(n, k)`` reduction.
    """
    n_classes = logits.shape[1]
    if out is None:
        # same memory order as the input, so a k >= 8 ``sum(axis=1)`` of
        # an F-ordered ``logits`` runs in the order numpy's own would
        out = np.empty_like(logits, dtype=np.float64)
    if row is None:
        row = np.empty((logits.shape[0], 1))
    fold = row[:, 0]
    np.copyto(fold, logits[:, 0])
    for j in range(1, n_classes):
        np.maximum(fold, logits[:, j], out=fold)
    np.subtract(logits, row, out=out)
    np.exp(out, out=out)
    if n_classes < 8:
        np.copyto(fold, out[:, 0])
        for j in range(1, n_classes):
            np.add(fold, out[:, j], out=fold)
    else:
        out.sum(axis=1, out=fold)
    np.divide(out, row, out=out)
    return out


def one_hot(y: np.ndarray, n_classes: int) -> np.ndarray:
    """(n_samples, n_classes) one-hot encoding of integer class ids."""
    out = np.zeros((len(y), n_classes), dtype=np.float64)
    out[np.arange(len(y)), y] = 1.0
    return out
