"""Shared model/cleaning selection helpers for the §VII side studies.

The mixed-error (§VII-A), robust-ML (§VII-B) and human-cleaning (§VII-C)
comparisons all need the same primitive the R3 relation uses: given a
training/test split and a space of cleaning methods, pick the cleaning
method and model with the best validation score and report the cleaned
test metric.  :class:`EvaluationContext` adds that selection to the
runner's per-dataset :class:`~repro.core.runner.TrainingContext` (label
encoding, metric, positive class, seeded training).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cleaning.base import CleaningMethod
from ..datasets.base import Dataset
from ..table import Table
from .runner import TrainedModel, TrainingContext


@dataclass
class BestCleaned:
    """Outcome of cleaning-method + model selection on one split."""

    method: CleaningMethod
    model: TrainedModel
    clean_train: Table
    clean_test: Table
    test_metric: float


class EvaluationContext(TrainingContext):
    """Per-dataset evaluation state shared across splits and studies."""

    def best_model(
        self,
        table: Table,
        tag: str,
        split: int,
        models: tuple[str, ...] | None = None,
    ) -> TrainedModel:
        """Model selection: best validation score among ``models``."""
        names = models or self.config.models
        trained = [self.train(table, name, tag, split) for name in names]
        return max(trained, key=lambda m: m.val_score)

    def best_cleaned(
        self,
        raw_train: Table,
        raw_test: Table,
        methods: list[CleaningMethod],
        split: int,
        models: tuple[str, ...] | None = None,
        tag: str = "select",
    ) -> BestCleaned:
        """R3-style joint cleaning-method + model selection on one split."""
        if not methods:
            raise ValueError("need at least one cleaning method")
        best: BestCleaned | None = None
        for method in methods:
            method.fit(raw_train)
            clean_train = method.transform(raw_train)
            clean_test = method.transform(raw_test)
            model = self.best_model(
                clean_train, f"{tag}:{method.name}", split, models=models
            )
            if best is None or model.val_score > best.model.val_score:
                best = BestCleaned(
                    method=method,
                    model=model,
                    clean_train=clean_train,
                    clean_test=clean_test,
                    test_metric=model.evaluate(*model.encode(clean_test)),
                )
        assert best is not None
        return best
