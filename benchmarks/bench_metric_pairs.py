"""E1 — paper Tables 7-10: the metric-pair examples (s1, s2, s3).

Reproduces §IV-A's worked example on EEG + outliers: the s1 metric pair
(IQR/Mean + logistic regression, scenario BD), the s2 pair (with model
selection) and the s3 pair (with model and cleaning-method selection),
plus the Table-10 row of per-split case-B/case-D accuracies.
"""

from __future__ import annotations

from repro.cleaning import OutlierCleaning, methods_for
from repro.core import EvaluationContext, Scenario, StudyConfig, derive_seed
from repro.datasets import load_dataset
from repro.table import train_test_split

from .common import BENCH_ROWS, LIGHT_MODELS, once, publish

CONFIG = StudyConfig(
    n_splits=5, cv_folds=2, seed=0, model_overrides=LIGHT_MODELS
)


def run_examples() -> str:
    dataset = load_dataset("EEG", seed=0, n_rows=BENCH_ROWS)
    context = EvaluationContext(dataset, CONFIG)
    method = OutlierCleaning("IQR", "mean")
    lines = []

    # Tables 7 + 10: s1 = (EEG, outliers, IQR, Mean, LR, BD) over splits
    b_row, d_row = [], []
    for split in range(CONFIG.n_splits):
        seed = derive_seed(CONFIG.seed, "examples", split)
        raw_train, raw_test = train_test_split(
            dataset.dirty, test_ratio=0.3, seed=seed
        )
        method.fit(raw_train)
        clean_train = method.transform(raw_train)
        clean_test = method.transform(raw_test)
        dirty_lr = context.train(raw_train, "logistic_regression", "s1d", split)
        clean_lr = context.train(clean_train, "logistic_regression", "s1c", split)
        b_row.append(dirty_lr.evaluate(*dirty_lr.encode(clean_test)))
        d_row.append(clean_lr.evaluate(*clean_lr.encode(clean_test)))
    lines.append("Table 7/10 (s1: EEG, outliers, IQR/Mean, LR, BD)")
    lines.append("split  " + "  ".join(f"{i + 1:>6}" for i in range(len(b_row))))
    lines.append("B      " + "  ".join(f"{v:6.3f}" for v in b_row))
    lines.append("D      " + "  ".join(f"{v:6.3f}" for v in d_row))

    # Table 8: s2 = model selection on both sides (one split shown)
    seed = derive_seed(CONFIG.seed, "examples", 0)
    raw_train, raw_test = train_test_split(dataset.dirty, test_ratio=0.3, seed=seed)
    method.fit(raw_train)
    clean_train = method.transform(raw_train)
    clean_test = method.transform(raw_test)
    best_dirty = context.best_model(raw_train, "s2d", 0)
    best_clean = context.best_model(clean_train, "s2c", 0)
    lines.append("")
    lines.append("Table 8 (s2: model selection, split 1)")
    lines.append(
        f"best on dirty train: {best_dirty.model_name} "
        f"(val {best_dirty.val_score:.3f}) -> B = "
        f"{best_dirty.evaluate(*best_dirty.encode(clean_test)):.3f}"
    )
    lines.append(
        f"best on clean train: {best_clean.model_name} "
        f"(val {best_clean.val_score:.3f}) -> D = "
        f"{best_clean.evaluate(*best_clean.encode(clean_test)):.3f}"
    )

    # Table 9: s3 = cleaning-method selection on top (one split shown)
    methods = methods_for(
        "outliers", include_advanced=False, random_state=CONFIG.seed
    )
    best = context.best_cleaned(raw_train, raw_test, methods, 0, tag="s3")
    lines.append("")
    lines.append("Table 9 (s3: cleaning-method selection, split 1)")
    lines.append(
        f"selected {best.method.name} + {best.model.model_name} "
        f"(val {best.model.val_score:.3f}) -> D = {best.test_metric:.3f}"
    )
    return "\n".join(lines)


def test_metric_pair_examples(benchmark):
    text = once(benchmark, run_examples)
    publish("tables_07_10_metric_pairs", text)
    assert "Table 9" in text
