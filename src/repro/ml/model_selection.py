"""Cross-validation and random hyper-parameter search.

The CleanML protocol (§IV-A step 3) performs "hyper-parameter tunings
using standard random search and 5-fold cross validation".  The search
budget is configurable so laptop-scale study runs stay tractable.

Tuning runs **fold-major** through
:func:`~repro.ml.cv_kernel.evaluate_candidates`: each fold of the plan
(:func:`kfold_plan`) is sliced once, and per-model
:class:`~repro.ml.cv_kernel.FoldWorkspace`s hoist candidate-invariant
work — KNN's distance matrix, naive Bayes' class statistics, CART root
argsorts — out of the candidate loop, bit-identical to the
candidate-major loop kept as a test oracle (``tests/oracles/tuning.py``).
"""

from __future__ import annotations

import numpy as np

from ..table.split import kfold_indices
from .base import Classifier
from .cv_kernel import evaluate_candidates
from .metrics import accuracy, f1_score


def kfold_plan(
    n_rows: int, n_folds: int, seed: int | None
) -> list[tuple[np.ndarray, np.ndarray]]:
    """The (train, validation) index pairs of one cross-validation.

    ``n_folds`` is capped at ``n_rows``; k >= 2 folds are exactly what
    :func:`kfold_indices` draws from a fresh ``default_rng(seed)``.
    Fewer than two folds degenerate to one fold that trains and
    validates on every row.
    """
    n_folds = min(n_folds, n_rows)
    if n_folds < 2:
        rows = np.arange(n_rows)
        return [(rows, rows)]
    return kfold_indices(n_rows, n_folds, np.random.default_rng(seed))


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
) -> float:
    """Mean validation score over k folds (model refitted per fold).

    Folds that end up with a single class in training are still fitted —
    the models tolerate one-class training and predict that class.

    Folds come from :func:`kfold_plan`, and scoring runs through the
    fold-major kernel (shared fold slices and the model's fold
    workspace).  The model passed in is never fitted — every fold (and
    the degenerate ``n_folds < 2`` train-equals-validation fold) scores
    a fresh clone.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    return evaluate_candidates(
        model,
        [{}],
        X,
        y,
        kfold_plan(len(y), n_folds, seed),
        lambda y_true, y_pred: score_predictions(y_true, y_pred, metric, positive),
    )[0]


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
    ) -> None:
        self.model = model
        self.space = space or {}
        self.n_iter = n_iter
        self.n_folds = n_folds
        self.metric = metric
        self.positive = positive
        self.seed = seed

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomSearch":
        """Search, then refit the best configuration on all of (X, y).

        Every candidate is validated on the **same** fold plan, drawn
        once per search: scores stay comparable across candidates (no
        candidate wins by lucking into easier folds) and the fold
        indices are derived once instead of once per candidate.  This
        deliberately replaced the older per-candidate fold draws, so
        searched scores differ from pre-kernel releases by design.

        Candidate scoring itself iterates **fold-major**
        (:func:`~repro.ml.cv_kernel.evaluate_candidates`) so per-model
        workspaces amortize candidate-invariant work; the resulting
        scores — and hence ``best_params_`` / ``best_score_``, picked
        by the same first-strictly-better scan in candidate order —
        are bit-identical to the candidate-major loop.
        """
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        # one generator yields the default-parameters candidate plus
        # ``n_iter`` samples, and its next 31-bit draw seeds the shared
        # fold plan (drawn even when fewer than two folds leave it
        # unused; the generator is local, so the extra draw is
        # unobservable)
        rng = np.random.default_rng(self.seed)
        candidates = [dict()]
        if self.space and self.n_iter > 0:
            candidates += [
                sample_params(self.space, rng) for _ in range(self.n_iter)
            ]
        fold_seed = int(rng.integers(0, 2**31 - 1))

        scores = evaluate_candidates(
            self.model,
            candidates,
            X,
            y,
            kfold_plan(len(y), self.n_folds, fold_seed),
            lambda y_true, y_pred: score_predictions(
                y_true, y_pred, self.metric, self.positive
            ),
        )

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
