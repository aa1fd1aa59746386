"""Fold-major cross-validation kernel with candidate-invariant workspaces.

The §IV-A tuning protocol scores every random-search candidate with the
same k-fold plan, so a search over ``c`` candidates performs ``c x k``
fits — and most of the per-fold work does not depend on the candidate at
all: the fold's ``(X_train, y_train, X_val, y_val)`` slices, KNN's
train<->validation distance matrix, naive Bayes' per-class sufficient
statistics, and the CART root split's per-feature argsorts are all pure
functions of the fold, not of the hyper-parameters under test.  The
candidate-major loop recomputed every one of them ``c`` times.

This module turns the loop inside out.  :func:`evaluate_candidates` is
one plain loop over the folds: each fold's slices are gathered once,
the model's :class:`FoldWorkspace` is built once from them, every
candidate is scored against that shared data, and the fold's slices and
workspace are freed before the next fold is sliced.  Models opt in
through :meth:`~repro.ml.base.Classifier.make_fold_workspace`; models
without a workspace still share the fold's slices.

Correctness contract (the same discipline as the split-execution and
cleaning kernels): the kernel is a **pure optimization**.  Every
workspace must return exactly the predictions
``model.clone().fit(X_train, y_train).predict(X_val)`` would produce —
same floating-point operations on the same bits, never a numerical
shortcut — so scores, ``best_params_`` and everything downstream are
bit-identical to the candidate-major loop, which lives on as a test
oracle in ``tests/oracles/tuning.py``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

#: metrics hook, push-installed by :func:`repro.core.observability.install`
_metrics = None


class FoldWorkspace(ABC):
    """Per-(model family, fold) store of candidate-invariant work.

    Built once per fold from ``(X_train, y_train, X_val)`` and asked to
    score every candidate of the search against that fold.  The
    contract is strict bit-identity: :meth:`predict_val` must return
    exactly the array ``model.fit(X_train, y_train).predict(X_val)``
    would, where ``model`` is the (fresh, unfitted) candidate clone —
    workspaces may *share* computations across candidates, but every
    shared value must be the very sequence of floating-point operations
    the naive path performs, applied to the same inputs.
    """

    @abstractmethod
    def predict_val(self, model) -> np.ndarray:
        """Validation-set predictions of one unfitted candidate clone."""

    def prepare(self, models) -> None:
        """Optional hook: the fold's full candidate list, before scoring.

        :func:`evaluate_candidates` announces every candidate clone it
        is about to score, letting a workspace plan shared structures
        that depend on the *set* of candidates — e.g. the CART
        workspace fits each non-depth parameter group once, at the
        deepest ``max_depth`` the group will request, instead of
        re-fitting on every depth increase.  Purely advisory: a
        workspace must stay correct (and bit-identical) when
        ``predict_val`` is called without it.
        """


def evaluate_candidates(model, candidates, X, y, folds, score) -> list[float]:
    """Mean validation score of every candidate, iterated fold-major.

    ``model`` is the search's prototype; ``candidates`` is a sequence of
    parameter-override dicts; ``X`` and ``y`` are the float64 / int64
    arrays the folds index; ``folds`` is a sequence of ``(train_idx,
    val_idx)`` pairs, e.g. from :func:`repro.ml.model_selection.kfold_plan`;
    ``score`` maps ``(y_true, y_pred)`` to a float.  Bit-identity with
    the candidate-major loop holds because the loop order is the only
    thing that moves: each (candidate, fold) pair still gets a fresh
    ``model.clone(**params)`` (clone-of-prototype and clone-of-clone
    build identical instances), the fold slices hold the same bits the
    per-candidate fancy indexing produced, workspaces are bound to
    bit-identity by their contract, and the per-candidate mean
    accumulates fold scores in the same ascending-fold order.
    """
    per_fold = [
        _score_fold(model, candidates, X, y, train_idx, val_idx, score)
        for train_idx, val_idx in folds
    ]
    return [
        float(np.mean([scores[i] for scores in per_fold]))
        for i in range(len(candidates))
    ]


def _score_fold(model, candidates, X, y, train_idx, val_idx, score) -> list[float]:
    """Every candidate's score on one fold.

    The fold's slices are gathered once and marked read-only: every
    candidate shares them (and fitted models pin them, e.g. KNN's
    training matrix), so an in-place write would corrupt every later
    candidate's score.  The slices and the model's workspace (a KNN
    distance matrix, CART root argsorts, ...) are locals, freed when
    this returns, so peak memory holds one fold's worth, not the plan's.
    """
    X_train, y_train = X[train_idx], y[train_idx]
    X_val, y_val = X[val_idx], y[val_idx]
    for array in (X_train, y_train, X_val, y_val):
        array.setflags(write=False)
    clones = [model.clone(**params) for params in candidates]
    if _metrics is not None:
        _metrics.count("tuning.fold_workspace.builds")
    workspace = model.make_fold_workspace(X_train, y_train, X_val)
    if workspace is not None:
        workspace.prepare(clones)
        if _metrics is not None:
            # every candidate scored through the workspace is one reuse
            # of the fold's candidate-invariant precomputation
            _metrics.count("tuning.fold_workspace.candidate_predicts", len(clones))
    scores = []
    for candidate in clones:
        if workspace is not None:
            predictions = workspace.predict_val(candidate)
        else:
            candidate.fit(X_train, y_train)
            predictions = candidate.predict(X_val)
        scores.append(score(y_val, predictions))
    return scores
