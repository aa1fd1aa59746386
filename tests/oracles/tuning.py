"""Candidate-major cross-validation — the spec of the fold-major tuning kernel.

Every (candidate, fold) pair clones the model, fits it on the fold's
fancy-indexed training rows and scores its validation predictions, with
no shared fold slices and no fold workspaces.  ``cross_val_score`` and
``RandomSearch.fit`` must produce the same scores, best parameters and
refitted model.
"""

from types import SimpleNamespace

import numpy as np

from repro.ml import RandomSearch, kfold_plan, sample_params, score_predictions


def cross_val_score_reference(
    model,
    X,
    y,
    n_folds: int = 5,
    metric: str = "accuracy",
    positive: int | None = None,
    seed: int | None = None,
    folds=None,
) -> float:
    """Mean validation score over k folds, one fresh clone per fold."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if folds is None:
        n_folds = min(n_folds, len(y))
        if n_folds < 2:
            probe = model.clone()
            probe.fit(X, y)
            return score_predictions(y, probe.predict(X), metric, positive)
        folds = kfold_plan(len(y), n_folds, seed)
    scores = []
    for train_idx, val_idx in folds:
        fold_model = model.clone()
        fold_model.fit(X[train_idx], y[train_idx])
        predictions = fold_model.predict(X[val_idx])
        scores.append(score_predictions(y[val_idx], predictions, metric, positive))
    return float(np.mean(scores))


def random_search_reference(search: RandomSearch, X, y) -> SimpleNamespace:
    """``search.fit(X, y)`` scored candidate-major.

    Returns ``best_params_``, ``best_score_`` and the refitted
    ``best_model_``; ``search`` itself is left unfitted.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    rng = np.random.default_rng(search.seed)
    candidates = [dict()]
    if search.space and search.n_iter > 0:
        candidates += [
            sample_params(search.space, rng) for _ in range(search.n_iter)
        ]
    fold_seed = int(rng.integers(0, 2**31 - 1))
    n_folds = min(search.n_folds, len(y))
    folds = kfold_plan(len(y), n_folds, fold_seed) if n_folds >= 2 else None
    scores = [
        cross_val_score_reference(
            search.model.clone(**params),
            X,
            y,
            n_folds=search.n_folds,
            metric=search.metric,
            positive=search.positive,
            folds=folds,
        )
        for params in candidates
    ]

    best_score = -np.inf
    best_params: dict = {}
    for params, candidate_score in zip(candidates, scores):
        if candidate_score > best_score:
            best_score = candidate_score
            best_params = params
    best_model = search.model.clone(**best_params)
    best_model.fit(X, y)
    return SimpleNamespace(
        best_params_=best_params,
        best_score_=float(best_score),
        best_model_=best_model,
    )
