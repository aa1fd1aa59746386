"""Cross-validation and random hyper-parameter search.

The CleanML protocol (§IV-A step 3) performs "hyper-parameter tunings
using standard random search and 5-fold cross validation".  The search
budget is configurable so laptop-scale study runs stay tractable.

Tuning runs **fold-major** by default: the shared fold plan is
materialized once (:class:`~repro.ml.cv_kernel.FoldPlanData`), and per-model
:class:`~repro.ml.cv_kernel.FoldWorkspace`s hoist candidate-invariant
work — KNN's distance matrix, naive Bayes' class statistics, CART root
argsorts — out of the candidate loop, bit-identical to the
candidate-major reference path that
:func:`~repro.ml.cv_kernel.tuning_kernel_disabled` (or the runner's
``kernel_disabled``) switches back in.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..table.split import kfold_indices
from .base import Classifier
from .cv_kernel import FoldPlanData, evaluate_candidates, tuning_kernel_enabled
from .metrics import accuracy, f1_score


def kfold_plan(
    n_rows: int, n_folds: int, seed: int | None
) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Memoized k-fold (train, validation) index pairs.

    Fold indices are a pure function of ``(n_rows, n_folds, seed)`` —
    exactly what :func:`kfold_indices` derives from a fresh
    ``default_rng(seed)`` — so repeated requests for the same inputs
    return one shared plan.  :class:`RandomSearch` passes its plan to
    every candidate explicitly via ``folds=``; the cache here only
    needs to serve *recent* same-input calls, and runner CV seeds are
    distinct by construction, so it is kept deliberately tiny rather
    than letting dead fold arrays accumulate for the process lifetime.
    Cached index arrays are marked read-only (an in-place mutation
    would silently corrupt every later consumer of the shared plan);
    ``seed=None`` keeps the uncached entropy-seeded behavior.
    """
    if seed is None:
        return tuple(kfold_indices(n_rows, n_folds, np.random.default_rng()))
    return _kfold_plan_cached(int(n_rows), int(n_folds), int(seed))


@lru_cache(maxsize=8)
def _kfold_plan_cached(n_rows: int, n_folds: int, seed: int):
    pairs = tuple(kfold_indices(n_rows, n_folds, np.random.default_rng(seed)))
    for train_idx, val_idx in pairs:
        train_idx.setflags(write=False)
        val_idx.setflags(write=False)
    return pairs


def score_predictions(
    y_true: np.ndarray, y_pred: np.ndarray, metric: str, positive: int | None = None
) -> float:
    """Dispatch to the metric the study uses ('accuracy' or 'f1')."""
    if metric == "accuracy":
        return accuracy(y_true, y_pred)
    if metric == "f1":
        return f1_score(y_true, y_pred, positive=positive)
    raise ValueError(f"unknown metric {metric!r}")


def cross_val_score(
    model: Classifier,
    X: np.ndarray,
    y: np.ndarray,
    n_folds: int = 5,
    metric: str = "accuracy",
    positive: int | None = None,
    seed: int | None = None,
    folds: tuple | list | None = None,
    fold_major: bool | None = None,
) -> float:
    """Mean validation score over k folds (model refitted per fold).

    Folds that end up with a single class in training are still fitted —
    the models tolerate one-class training and predict that class.

    ``folds`` — precomputed ``(train_idx, val_idx)`` pairs, e.g. from
    :func:`kfold_plan` — skips fold derivation entirely; when omitted,
    folds are derived from ``seed`` through the memoized plan, which is
    identical to drawing them from a fresh ``default_rng(seed)``.

    ``fold_major`` routes scoring through the fold-major kernel (shared
    fold slices and, with multiple candidates in :class:`RandomSearch`,
    shared workspaces); ``None`` defers to the process-wide switch.
    Both paths produce bit-identical scores.  The model passed in is
    never fitted — every fold (and the degenerate ``n_folds < 2``
    train-equals-validation fallback) scores a fresh clone.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if folds is None:
        n_folds = min(n_folds, len(y))
        if n_folds < 2:
            probe = model.clone()
            probe.fit(X, y)
            return score_predictions(y, probe.predict(X), metric, positive)
        folds = kfold_plan(len(y), n_folds, seed)
    if fold_major is None:
        fold_major = tuning_kernel_enabled()
    if fold_major:
        plan = FoldPlanData(X, y, folds)
        return evaluate_candidates(
            model,
            [{}],
            plan,
            lambda y_true, y_pred: score_predictions(
                y_true, y_pred, metric, positive
            ),
        )[0]
    scores = []
    for train_idx, val_idx in folds:
        fold_model = model.clone()
        fold_model.fit(X[train_idx], y[train_idx])
        predictions = fold_model.predict(X[val_idx])
        scores.append(score_predictions(y[val_idx], predictions, metric, positive))
    return float(np.mean(scores))


def sample_params(space: dict, rng: np.random.Generator) -> dict:
    """Draw one configuration from a parameter space.

    Space values may be lists (uniform choice), ``("loguniform", lo, hi)``
    tuples, or ``("uniform", lo, hi)`` tuples.
    """
    params = {}
    for name, spec in space.items():
        if isinstance(spec, list):
            params[name] = spec[int(rng.integers(0, len(spec)))]
        elif isinstance(spec, tuple) and spec[0] == "loguniform":
            _, lo, hi = spec
            params[name] = float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
        elif isinstance(spec, tuple) and spec[0] == "uniform":
            _, lo, hi = spec
            params[name] = float(rng.uniform(lo, hi))
        else:
            raise ValueError(f"bad search-space spec for {name!r}: {spec!r}")
    return params


class RandomSearch:
    """Random hyper-parameter search with k-fold validation.

    ``n_iter=0`` means "use the model's default parameters" — the cheap
    mode benchmarks use.  The default configuration is always evaluated,
    so the search can only improve on it.

    ``fold_major`` — ``True`` forces the fold-major tuning kernel,
    ``False`` the candidate-major reference path, ``None`` (default)
    defers to the process-wide switch.  The runner threads its kernel
    switch through here so ``kernel_disabled()`` studies stay on the
    reference path end to end.
    """

    def __init__(
        self,
        model: Classifier,
        space: dict | None,
        n_iter: int = 5,
        n_folds: int = 5,
        metric: str = "accuracy",
        positive: int | None = None,
        seed: int | None = None,
        fold_major: bool | None = None,
    ) -> None:
        self.model = model
        self.space = space or {}
        self.n_iter = n_iter
        self.n_folds = n_folds
        self.metric = metric
        self.positive = positive
        self.seed = seed
        self.fold_major = fold_major

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomSearch":
        """Search, then refit the best configuration on all of (X, y).

        Every candidate is validated on the **same** fold plan, drawn
        once per search: scores stay comparable across candidates (no
        candidate wins by lucking into easier folds) and the fold
        indices are derived once instead of once per candidate.  This
        deliberately replaced the older per-candidate fold draws —
        searched scores differ from pre-kernel releases by design, and
        the change applies on every execution path (it is an
        algorithmic improvement, not a cache, so ``kernel_disabled``
        does not revert it).

        Candidate scoring itself iterates **fold-major** through the
        shared :class:`~repro.ml.cv_kernel.FoldPlanData` so per-model
        workspaces amortize candidate-invariant work; the resulting
        scores — and hence ``best_params_`` / ``best_score_``, picked
        by the same first-strictly-better scan in candidate order —
        are bit-identical to the candidate-major reference path.
        """
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        # one generator yields the default-parameters candidate plus
        # ``n_iter`` samples, and its next 31-bit draw seeds the shared
        # fold plan (drawn even on the degenerate ``n_folds < 2`` path;
        # the generator is local, so the extra draw is unobservable)
        rng = np.random.default_rng(self.seed)
        candidates = [dict()]
        if self.space and self.n_iter > 0:
            candidates += [
                sample_params(self.space, rng) for _ in range(self.n_iter)
            ]
        fold_seed = int(rng.integers(0, 2**31 - 1))

        n_folds = min(self.n_folds, len(y))
        folds = None
        if n_folds >= 2:
            folds = kfold_plan(len(y), n_folds, fold_seed)

        fold_major = self.fold_major
        if fold_major is None:
            fold_major = tuning_kernel_enabled()

        if folds is not None and fold_major:
            scores = evaluate_candidates(
                self.model,
                candidates,
                FoldPlanData(X, y, folds),
                lambda y_true, y_pred: score_predictions(
                    y_true, y_pred, self.metric, self.positive
                ),
            )
        else:
            scores = [
                cross_val_score(
                    self.model.clone(**params),
                    X,
                    y,
                    n_folds=self.n_folds,
                    metric=self.metric,
                    positive=self.positive,
                    folds=folds,
                    fold_major=fold_major,
                )
                for params in candidates
            ]

        # first strictly better score wins: ties keep the earliest candidate
        best_score = -np.inf
        best_params: dict = {}
        for params, candidate_score in zip(candidates, scores):
            if candidate_score > best_score:
                best_score = candidate_score
                best_params = params
        self.best_params_, self.best_score_ = best_params, float(best_score)

        self.best_model_ = self.model.clone(**self.best_params_)
        self.best_model_.fit(X, y)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.best_model_.predict(X)
