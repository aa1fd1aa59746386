"""Prioritized human cleaning — the paper's §VIII research direction.

The paper closes by calling for cleaning solutions that "minimize /
prioritize human cleaning efforts (e.g., ActiveClean via active
learning, CPClean based on certain predictions), where humans are asked
to clean the most beneficial examples first."  This module implements
that study: given a cleaning budget of k rows, which k dirty rows should
the human fix first?

Three prioritization policies:

* ``random`` — the baseline: clean uniformly sampled dirty rows;
* ``loss`` — ActiveClean-style: clean the dirty rows where a model
  trained on the (imputed) dirty data suffers the largest loss
  (gradient-magnitude proxy for convex models);
* ``uncertainty`` — CPClean-style: clean the dirty rows whose
  predictions are least certain (highest entropy), i.e. the rows whose
  cleaned value is most likely to change a prediction.

The effort curve — test metric as a function of budget — is the
figure this line of work optimizes; ``bench_effort_curve.py``
regenerates it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cleaning.base import CleaningMethod
from ..cleaning.human import OracleCleaning
from ..datasets.base import Dataset
from ..table import Table, train_test_split
from .runner import StudyConfig, derive_seed
from .selection import EvaluationContext

POLICIES = ("random", "loss", "uncertainty")


@dataclass(frozen=True)
class EffortCurve:
    """Test metric per cleaning budget for one policy."""

    policy: str
    budgets: tuple[float, ...]  # fraction of dirty rows cleaned
    scores: tuple[float, ...]  # mean test metric at each budget


def _dirty_row_mask(table: Table, method: CleaningMethod) -> np.ndarray:
    """Rows the error's detector would touch (the human's worklist)."""
    return method.affected_rows(table)


def _priority_order(
    policy: str,
    context: EvaluationContext,
    train: Table,
    dirty_rows: np.ndarray,
    fallback: CleaningMethod,
    split: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Dirty-row indices, most-beneficial-to-clean first."""
    candidates = np.nonzero(dirty_rows)[0]
    if policy == "random":
        return candidates[rng.permutation(len(candidates))]

    # train a probe model on the auto-cleaned data to score rows
    probe_train = fallback.transform(train)
    probe = context.train(probe_train, "logistic_regression", f"probe:{policy}", split)
    X, y = probe.encode(probe_train)
    proba = probe.model.predict_proba(X)

    if policy == "loss":
        picked = np.clip(proba[np.arange(len(y)), y], 1e-12, 1.0)
        score = -np.log(picked)  # per-row loss
    elif policy == "uncertainty":
        safe = np.clip(proba, 1e-12, 1.0)
        score = -(safe * np.log(safe)).sum(axis=1)  # prediction entropy
    else:
        raise ValueError(f"unknown policy {policy!r}; choose from {POLICIES}")
    return candidates[np.argsort(-score[candidates], kind="stable")]


def run_effort_study(
    dataset: Dataset,
    error_type: str,
    fallback: CleaningMethod,
    config: StudyConfig,
    detector: CleaningMethod | None = None,
    policies: tuple[str, ...] = POLICIES,
    budgets: tuple[float, ...] = (0.0, 0.1, 0.25, 0.5, 1.0),
    model: str = "logistic_regression",
) -> list[EffortCurve]:
    """Effort curves for one dataset and error type.

    At budget ``b``, the top ``b`` fraction of the worklist (training
    rows flagged by ``detector``; defaults to ``fallback``'s detections)
    is oracle-cleaned; the remaining rows are handled by the automatic
    ``fallback`` method.  Passing
    :class:`~repro.cleaning.IdentityCleaning` as the fallback gives
    ActiveClean's original setting — the model trains on dirty data
    except where the human intervened.

    Following the ActiveClean/CPClean evaluation protocol, the test set
    is *gold* (fully oracle-cleaned) and identical across budgets and
    policies, so curves measure only how far each unit of human
    training-data effort moves the model.
    """
    context = EvaluationContext(dataset, config)
    oracle = OracleCleaning(dataset.clean, error_type)
    worklist_source = detector if detector is not None else fallback
    curves: dict[str, list[list[float]]] = {
        policy: [[] for _ in budgets] for policy in policies
    }

    for split in range(config.n_splits):
        seed = derive_seed(config.seed, dataset.name, "effort", split)
        rng = np.random.default_rng(seed)
        raw_train, raw_test = train_test_split(
            dataset.dirty, test_ratio=config.test_ratio, seed=seed
        )
        fallback.fit(raw_train)
        if worklist_source is not fallback:
            worklist_source.fit(raw_train)
        oracle.fit(raw_train)
        clean_test = oracle.transform(raw_test)  # gold evaluation set
        oracle_train = oracle.transform(raw_train)
        dirty_rows = _dirty_row_mask(raw_train, worklist_source)

        for policy in policies:
            order = _priority_order(
                policy, context, raw_train, dirty_rows, fallback, split, rng
            )
            for b, budget in enumerate(budgets):
                n_human = int(round(budget * len(order)))
                human_rows = set(order[:n_human].tolist())
                train = _apply_partial_oracle(
                    raw_train, oracle_train, human_rows
                )
                train = fallback.transform(train)  # auto-clean the rest
                trained = context.train(
                    train, model, f"effort:{policy}:{budget}", split
                )
                score = trained.evaluate(*trained.encode(clean_test))
                curves[policy][b].append(score)

    return [
        EffortCurve(
            policy=policy,
            budgets=tuple(budgets),
            scores=tuple(float(np.mean(scores)) for scores in curves[policy]),
        )
        for policy in policies
    ]


def _apply_partial_oracle(
    dirty: Table, oracle_clean: Table, human_rows: set[int]
) -> Table:
    """Dirty table with the chosen rows replaced by their oracle version.

    Oracle cleaning preserves row alignment for cell/label errors (the
    study targets those; row-dropping error types are not supported).
    """
    if oracle_clean.n_rows != dirty.n_rows:
        raise ValueError(
            "partial oracle cleaning requires row-aligned ground truth "
            "(cell or label errors, not duplicates)"
        )
    if not human_rows:
        return dirty
    out = dirty
    for name in dirty.schema.names:
        dirty_column = dirty.column(name)
        clean_values = oracle_clean.column(name).values
        values = dirty_column.values.copy()
        for row in human_rows:
            values[row] = clean_values[row]
        out = out.with_column(
            name, type(dirty_column)(values, dirty_column.ctype)
        )
    return out


def render_effort_curves(curves: list[EffortCurve], title: str) -> str:
    """Fixed-width table: one row per policy, one column per budget."""
    lines = [title]
    budgets = curves[0].budgets
    header = f"{'policy':<14}" + "".join(f"{f'{b:.0%}':>9}" for b in budgets)
    lines.append(header)
    lines.append("-" * len(header))
    for curve in curves:
        lines.append(
            f"{curve.policy:<14}"
            + "".join(f"{score:>9.3f}" for score in curve.scores)
        )
    return "\n".join(lines)
