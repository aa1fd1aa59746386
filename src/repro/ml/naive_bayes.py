"""Gaussian naive Bayes.

The paper's "Gaussian Naive Bayes" operates on the encoded feature matrix
(standardized numerics + one-hot categoricals); a variance floor keeps
one-hot columns from producing degenerate likelihoods.

Fitting decomposes into per-class sufficient statistics (counts, means,
raw variances, priors, the global variance) that depend only on
``(X, y)``, plus a smoothing step that is the only part touched by the
``var_smoothing`` hyper-parameter.  The fold-major tuning kernel caches
the statistics, and the validation rows' squared deviations from each
class mean, once per CV fold (:class:`_NBFoldWorkspace`), so search
candidates re-derive nothing but the smoothed variance and the terms
that depend on it.
"""

from __future__ import annotations

import numpy as np

from .base import Classifier, check_fit_inputs
from .cv_kernel import FoldWorkspace


class _ClassStatistics:
    """Sufficient statistics of one ``(X, y)`` fit, hyper-parameter-free.

    Holds exactly the arrays :meth:`GaussianNB.fit` derives before
    smoothing — per-class counts, means (``theta``), *raw* variances
    (no smoothing term), log priors, and the global variance the
    smoothing epsilon scales — each computed by the same numpy
    expressions the monolithic fit used, so applying them reproduces
    that fit bit for bit.  The arrays are frozen because one instance
    is shared by every candidate of a search.
    """

    __slots__ = ("n_classes", "counts", "theta", "raw_var", "log_prior", "global_var")

    def __init__(self, X: np.ndarray, y: np.ndarray, n_classes: int) -> None:
        n_features = X.shape[1]
        self.n_classes = n_classes
        self.counts = np.zeros(n_classes, dtype=np.int64)
        self.theta = np.zeros((n_classes, n_features))
        self.raw_var = np.ones((n_classes, n_features))
        self.log_prior = np.full(n_classes, -np.inf)
        self.global_var = float(X.var(axis=0).max()) if X.size else 1.0
        for cls in range(n_classes):
            members = X[y == cls]
            self.counts[cls] = len(members)
            if len(members) == 0:
                continue
            self.theta[cls] = members.mean(axis=0)
            self.raw_var[cls] = members.var(axis=0)
            self.log_prior[cls] = np.log(len(members) / len(X))
        for array in (self.counts, self.theta, self.raw_var, self.log_prior):
            array.setflags(write=False)


class GaussianNB(Classifier):
    """Gaussian class-conditional likelihoods with a variance smoother.

    Parameters
    ----------
    var_smoothing:
        Fraction of the largest feature variance added to every
        per-class variance, exactly scikit-learn's stabilizer.
    """

    def __init__(self, var_smoothing: float = 1e-9) -> None:
        self.var_smoothing = var_smoothing

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GaussianNB":
        X, y, n_classes = check_fit_inputs(X, y)
        return self._apply_statistics(_ClassStatistics(X, y, n_classes))

    def _apply_statistics(self, stats: _ClassStatistics) -> "GaussianNB":
        """Finish a fit from cached statistics: only smoothing remains.

        Mirrors the monolithic fit exactly: non-empty classes get
        ``raw_var + epsilon`` (the same scalar broadcast add), empty
        classes keep the neutral variance 1.0, and the 1e-12 floor is
        applied to every row.  ``theta_`` and ``class_log_prior_``
        alias the (frozen) cached arrays — they are never mutated after
        fitting.
        """
        self.n_classes_ = stats.n_classes
        epsilon = self.var_smoothing * max(stats.global_var, 1e-12)
        self.theta_ = stats.theta
        var = np.ones_like(stats.raw_var)
        fitted = stats.counts > 0
        var[fitted] = stats.raw_var[fitted] + epsilon
        self.var_ = np.maximum(var, 1e-12)
        self.class_log_prior_ = stats.log_prior
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return self._proba(np.asarray(X, dtype=np.float64))

    def _proba(self, X: np.ndarray, squares: list | None = None) -> np.ndarray:
        """Class probabilities of ``X``.

        ``squares[cls]``, when given, is ``(X - theta_[cls]) ** 2``
        computed before — the one likelihood term that does not depend
        on ``var_`` — and is used in place of computing it here; the
        rest of the expression is evaluated in the same order either way.
        """
        joint = np.zeros((len(X), self.n_classes_))
        for cls in range(self.n_classes_):
            if np.isneginf(self.class_log_prior_[cls]):
                joint[:, cls] = -np.inf
                continue
            if squares is None:
                diff = X - self.theta_[cls]
            log_likelihood = -0.5 * np.sum(
                np.log(2.0 * np.pi * self.var_[cls])
                + (diff**2 if squares is None else squares[cls]) / self.var_[cls],
                axis=1,
            )
            joint[:, cls] = self.class_log_prior_[cls] + log_likelihood
        shifted = joint - joint.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        return exp / exp.sum(axis=1, keepdims=True)

    def make_fold_workspace(self, X_train, y_train, X_val):
        return _NBFoldWorkspace(X_train, y_train, X_val)


class _NBFoldWorkspace(FoldWorkspace):
    """Per-fold class statistics shared across ``var_smoothing`` candidates.

    Every candidate "fit" collapses to :meth:`GaussianNB._apply_statistics`
    — one scalar epsilon, one broadcast add, one floor — instead of a
    full pass over the fold's rows, and every candidate's prediction
    reuses the validation rows' squared deviations from each class
    mean, which depend on the fold alone: only the ``var_`` terms are
    recomputed, in the order ``predict_proba`` computes them.
    """

    def __init__(self, X_train, y_train, X_val) -> None:
        X, y, n_classes = check_fit_inputs(X_train, y_train)
        self._stats = _ClassStatistics(X, y, n_classes)
        self._X_val = np.asarray(X_val, dtype=np.float64)
        self._squares: list[np.ndarray | None] | None = None

    def prepare(self, models) -> None:
        # a plain cross-validation scores one candidate, which computes
        # each class's squares once either way; holding all of them at
        # once would only raise its peak memory
        if len(models) > 1 and self._squares is None:
            self._squares = [
                (self._X_val - theta) ** 2 if count else None
                for theta, count in zip(self._stats.theta, self._stats.counts)
            ]

    def predict_val(self, model) -> np.ndarray:
        proba = model._apply_statistics(self._stats)._proba(self._X_val, self._squares)
        return np.argmax(proba, axis=1)
