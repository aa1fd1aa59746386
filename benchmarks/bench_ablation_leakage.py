"""Ablation — train-only vs train+test cleaning statistics (paper §IV-A).

The paper insists every cleaning statistic (imputation means, outlier
thresholds) comes from the training split alone.  This ablation
quantifies what the discipline is worth: it compares the leakage-free
protocol against a deliberately leaky variant whose statistics are
computed on the full table before splitting, reporting the mean absolute
difference in case-D test metrics.

Expected shape: the two agree closely on these error types (the paper's
point is methodological hygiene, not a large bias) but they are *not*
identical — leakage does move measured numbers.
"""

from __future__ import annotations

import numpy as np

from repro.cleaning import ImputationCleaning, OutlierCleaning
from repro.core import EvaluationContext, StudyConfig, derive_seed
from repro.datasets import load_dataset
from repro.table import train_test_split

from .common import BENCH_ROWS, LIGHT_MODELS, once, publish

CONFIG = StudyConfig(
    n_splits=10, cv_folds=2, seed=0,
    models=("logistic_regression",), model_overrides=LIGHT_MODELS,
)

CASES = (
    ("USCensus", ImputationCleaning, ("mean", "mode")),
    ("Sensor", OutlierCleaning, ("IQR", "mean")),
)


def run_study():
    outcomes = {}
    for name, method_type, args in CASES:
        dataset = load_dataset(name, seed=0, n_rows=BENCH_ROWS)
        context = EvaluationContext(dataset, CONFIG)
        strict_scores, leaky_scores = [], []
        for split in range(CONFIG.n_splits):
            seed = derive_seed(0, "leak", name, split)
            raw_train, raw_test = train_test_split(dataset.dirty, seed=seed)

            strict = method_type(*args)
            strict.fit(raw_train)
            strict_train = strict.transform(raw_train)
            strict_test = strict.transform(raw_test)
            model = context.train(strict_train, "logistic_regression", "s", split)
            strict_scores.append(model.evaluate(*model.encode(strict_test)))

            leaky = method_type(*args)
            leaky.fit(dataset.dirty)  # statistics see the test split too
            leaky_train = leaky.transform(raw_train)
            leaky_test = leaky.transform(raw_test)
            model = context.train(leaky_train, "logistic_regression", "l", split)
            leaky_scores.append(model.evaluate(*model.encode(leaky_test)))
        outcomes[name] = (
            float(np.mean(strict_scores)),
            float(np.mean(leaky_scores)),
            float(np.mean(np.abs(np.array(strict_scores) - np.array(leaky_scores)))),
        )
    return outcomes


def test_ablation_leakage(benchmark):
    outcomes = once(benchmark, run_study)

    lines = ["Leakage ablation: train-only vs train+test cleaning statistics"]
    header = f"{'dataset':<12} {'strict D':>10} {'leaky D':>10} {'mean |delta|':>14}"
    lines.append(header)
    lines.append("-" * len(header))
    for name, (strict, leaky, delta) in outcomes.items():
        lines.append(f"{name:<12} {strict:>10.3f} {leaky:>10.3f} {delta:>14.4f}")
    publish("ablation_leakage", "\n".join(lines))

    for name, (strict, leaky, delta) in outcomes.items():
        assert delta < 0.1  # hygiene, not a catastrophe
