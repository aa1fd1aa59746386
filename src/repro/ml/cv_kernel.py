"""Fold-major cross-validation kernel with candidate-invariant workspaces.

The §IV-A tuning protocol scores every random-search candidate with the
same k-fold plan, so a search over ``c`` candidates performs ``c x k``
fits — and most of the per-fold work does not depend on the candidate at
all: the fold's ``(X_train, y_train, X_val, y_val)`` slices, KNN's
train<->validation distance matrix, naive Bayes' per-class sufficient
statistics, and the CART root split's per-feature argsorts are all pure
functions of the fold, not of the hyper-parameters under test.  The
candidate-major loop recomputed every one of them ``c`` times.

This module turns the loop inside out.  A :class:`FoldPlanData` materializes
each fold's slices exactly once per search; :func:`evaluate_candidates`
then iterates **fold-major** — for each fold, every candidate is scored
against that fold's shared data — so a per-model :class:`FoldWorkspace`
can hoist the candidate-invariant precomputation out of the candidate
loop.  Models opt in through
:meth:`~repro.ml.base.Classifier.make_fold_workspace`; models without a
workspace still share the materialized fold slices.

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


class FoldData:
    """One fold's slices plus its per-model workspaces.

    The fold keeps a reference to the full ``(X, y)`` pair plus the
    fold's index arrays — the view-table analogue for encoded matrices —
    and gathers each slice on first access.  The slice arrays are marked
    read-only: they are shared by every candidate (and pinned inside
    fitted models, e.g. KNN's training matrix), so an accidental
    in-place mutation would silently corrupt every later candidate's
    scores.  A gather is a pure function of ``(X, y, indices)``, so a
    released-and-rematerialized slice holds exactly the same bits, which
    is what lets :meth:`release_data` return a scored fold's memory.
    """

    __slots__ = (
        "_X",
        "_y",
        "_train_idx",
        "_val_idx",
        "_X_train",
        "_y_train",
        "_X_val",
        "_y_val",
        "_workspaces",
    )

    def __init__(
        self,
        X: np.ndarray,
        y: np.ndarray,
        train_idx: np.ndarray,
        val_idx: np.ndarray,
    ) -> None:
        self._X = X
        self._y = y
        self._train_idx = train_idx
        self._val_idx = val_idx
        self._X_train = self._y_train = self._X_val = self._y_val = None
        self._workspaces: dict[type, FoldWorkspace | None] = {}

    def _slice(self, attr: str, source: np.ndarray, idx: np.ndarray) -> np.ndarray:
        out = getattr(self, attr)
        if out is None:
            out = source[idx]
            out.setflags(write=False)
            setattr(self, attr, out)
        return out

    @property
    def X_train(self) -> np.ndarray:
        return self._slice("_X_train", self._X, self._train_idx)

    @property
    def y_train(self) -> np.ndarray:
        return self._slice("_y_train", self._y, self._train_idx)

    @property
    def X_val(self) -> np.ndarray:
        return self._slice("_X_val", self._X, self._val_idx)

    @property
    def y_val(self) -> np.ndarray:
        return self._slice("_y_val", self._y, self._val_idx)

    def release_data(self) -> None:
        """Drop materialized slices.

        After a fold is scored its slices are dead weight; a later
        access simply re-gathers the identical bits from ``(X, y)``.
        """
        self._X_train = self._y_train = None
        self._X_val = self._y_val = None

    def workspace_for(self, model) -> FoldWorkspace | None:
        """This fold's workspace for ``model``'s family (None = opt-out).

        Built lazily from the search's prototype model and cached per
        classifier type, so one workspace serves every candidate clone.
        """
        key = type(model)
        if key not in self._workspaces:
            if _metrics is not None:
                _metrics.count("tuning.fold_workspace.builds")
            self._workspaces[key] = model.make_fold_workspace(
                self.X_train, self.y_train, self.X_val
            )
        elif _metrics is not None:
            _metrics.count("tuning.fold_workspace.reuses")
        return self._workspaces[key]

    def release_workspaces(self) -> None:
        """Drop cached workspaces (distance matrices, argsorts, ...)."""
        self._workspaces.clear()


class FoldPlanData:
    """Each fold's ``(X_train, y_train, X_val, y_val)`` sliced at most once.

    The candidate-major loop re-applied the fancy-index slicing for
    every (candidate, fold) pair; the values are a pure function of
    ``(X, y, fold indices)``, so one materialization per fold serves
    all candidates.  The folds are *lazy* (:class:`FoldData`): the plan
    holds one shared ``(X, y)`` pair and each fold's index arrays, and a
    fold's slices exist only between first access and
    :meth:`FoldData.release_data` — peak memory is one fold's slices,
    not k folds' worth.  ``folds`` is a sequence of ``(train_idx,
    val_idx)`` pairs, e.g. from
    :func:`repro.ml.model_selection.kfold_plan`.
    """

    def __init__(self, X: np.ndarray, y: np.ndarray, folds) -> None:
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        self.folds = tuple(
            FoldData(X, y, train_idx, val_idx) for train_idx, val_idx in folds
        )


def evaluate_candidates(model, candidates, plan: FoldPlanData, score) -> list[float]:
    """Mean validation score of every candidate, iterated fold-major.

    ``model`` is the search's prototype; ``candidates`` is a sequence of
    parameter-override dicts; ``score`` maps ``(y_true, y_pred)`` to a
    float.  Bit-identity with the candidate-major loop holds because the
    loop order is the only thing that moves: each (candidate, fold) pair
    still gets a fresh ``model.clone(**params)`` (clone-of-prototype and
    clone-of-clone build identical instances), the fold slices hold the
    same bits the per-candidate fancy indexing produced, workspaces are
    bound to bit-identity by their contract, and the per-candidate mean
    accumulates fold scores in the same ascending-fold order.

    Workspaces are released as soon as their fold's candidates are
    scored, so peak memory holds one fold's precomputation (e.g. one
    KNN distance matrix), not the whole plan's.
    """
    per_fold: list[list[float]] = []
    for fold in plan.folds:
        clones = [model.clone(**params) for params in candidates]
        workspace = fold.workspace_for(model)
        if workspace is not None:
            workspace.prepare(clones)
            if _metrics is not None:
                # every candidate scored through the workspace is one
                # reuse of the fold's candidate-invariant precomputation
                _metrics.count(
                    "tuning.fold_workspace.candidate_predicts", len(clones)
                )
        scores: list[float] = []
        for candidate in clones:
            if workspace is not None:
                predictions = workspace.predict_val(candidate)
            else:
                candidate.fit(fold.X_train, fold.y_train)
                predictions = candidate.predict(fold.X_val)
            scores.append(score(fold.y_val, predictions))
        fold.release_workspaces()
        fold.release_data()
        per_fold.append(scores)
    return [
        float(np.mean([scores[i] for scores in per_fold]))
        for i in range(len(candidates))
    ]
