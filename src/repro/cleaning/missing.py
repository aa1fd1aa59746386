"""Missing-value detection and repair (paper §III-B-1).

Detection is trivial — empty / NaN entries, packaged as
:class:`MissingValueDetector` so repairs compose with it like any other
Table 2 stage.  Repairs:

* **Deletion** — drop rows with missing feature values (the paper's
  "dirty" baseline for missing values, c.f. Table 5);
* **six simple imputations** — {mean, median, mode} for numeric columns
  crossed with {mode, dummy} for categorical columns
  (:class:`ImputationRepair`);
* **HoloClean** — probabilistic inference (in
  :mod:`repro.cleaning.holoclean`, registered via the registry).

All imputation statistics come from the training split.
"""

from __future__ import annotations

import numpy as np

from ..table import Column, Table
from .base import (
    MISSING_VALUES,
    ComposedCleaning,
    DetectionResult,
    Detector,
    Repair,
    check_fitted,
)

NUMERIC_STRATEGIES = ("mean", "median", "mode")
CATEGORICAL_STRATEGIES = ("mode", "dummy")

#: the placeholder category used by dummy imputation
DUMMY_VALUE = "missing"


def detect_missing_rows(table: Table) -> np.ndarray:
    """Boolean mask of rows with at least one missing feature cell."""
    mask = np.zeros(table.n_rows, dtype=bool)
    mask[table.rows_with_missing()] = True
    return mask


class MissingValueDetector(Detector):
    """Flag empty / NaN feature cells.

    Stateless — detection is a pure function of the target table — but
    fitted like every detector to keep the train-only discipline
    uniform.  Produces both per-column cell masks (for imputation and
    HoloClean repairs) and the row mask (for deletion).
    """

    name = "EmptyEntries"

    def fit(self, train: Table) -> "MissingValueDetector":
        self._fitted = True
        return self

    def detect(self, table: Table) -> DetectionResult:
        check_fitted(self, "_fitted")
        cell_masks = {
            name: table.column(name).missing_mask()
            for name in table.schema.feature_names
        }
        if cell_masks:
            row_mask = np.logical_or.reduce(list(cell_masks.values()))
        else:
            row_mask = np.zeros(table.n_rows, dtype=bool)
        return DetectionResult(
            table.n_rows, cell_masks=cell_masks, row_mask=row_mask
        )

    def fingerprint(self) -> tuple:
        return ("EmptyEntries",)


class RowDeletionRepair(Repair):
    """Drop every flagged row — the universal deletion repair.

    Works with any detection shape, so composing it with a new detector
    is a one-line registry entry: for cell/row detections it drops the
    flagged rows, and for duplicate match pairs
    :meth:`DetectionResult.rows` already excludes each cluster's anchor,
    so this one repair is also Table 2's duplicate deletion.
    """

    name = "Deletion"

    def fit(self, train: Table, detection: DetectionResult | None) -> "RowDeletionRepair":
        return self

    def apply(self, table: Table, detection: DetectionResult) -> Table:
        return table.mask(~detection.rows())


class ImputationRepair(Repair):
    """Simple imputation: numeric strategy x categorical strategy.

    Fill values are training-split statistics over *present* cells (no
    detection needed at fit time); ``apply`` fills the target table's
    flagged cells by boolean indexing.
    """

    def __init__(self, numeric: str, categorical: str) -> None:
        if numeric not in NUMERIC_STRATEGIES:
            raise ValueError(f"numeric strategy must be one of {NUMERIC_STRATEGIES}")
        if categorical not in CATEGORICAL_STRATEGIES:
            raise ValueError(
                f"categorical strategy must be one of {CATEGORICAL_STRATEGIES}"
            )
        self.numeric = numeric
        self.categorical = categorical

    @property
    def name(self) -> str:  # type: ignore[override]
        """Paper-style name, e.g. "MeanDummy"."""
        return f"{self.numeric.capitalize()}{self.categorical.capitalize()}"

    def fit(self, train: Table, detection: DetectionResult | None) -> "ImputationRepair":
        self._numeric_fill: dict[str, float] = {}
        self._categorical_fill: dict[str, str | None] = {}
        for name in train.schema.numeric_features:
            column = train.column(name)
            if self.numeric == "mean":
                value = column.mean()
            elif self.numeric == "median":
                value = column.median()
            else:
                value = column.mode()
            self._numeric_fill[name] = 0.0 if _is_nan(value) else float(value)
        for name in train.schema.categorical_features:
            if self.categorical == "dummy":
                self._categorical_fill[name] = DUMMY_VALUE
            else:
                mode = train.column(name).mode()
                self._categorical_fill[name] = DUMMY_VALUE if mode is None else mode
        return self

    def apply(self, table: Table, detection: DetectionResult) -> Table:
        check_fitted(self, "_numeric_fill")
        out = table
        for name, fill in self._numeric_fill.items():
            mask = detection.cell_masks[name]
            if not mask.any():
                continue
            column = out.column(name)
            values = column.gather()
            values[mask] = fill
            out = out.with_column(name, Column(values, column.ctype))
        for name, fill in self._categorical_fill.items():
            mask = detection.cell_masks[name]
            if not mask.any():
                continue
            column = out.column(name)
            values = column.gather()
            values[mask] = fill
            out = out.with_column(name, Column(values, column.ctype))
        return out


class DeletionCleaning(ComposedCleaning):
    """Drop every row that has a missing feature value.

    The paper treats this as the *dirty* variant: a model cannot train
    on literal NaNs, so deletion is the do-nothing option.
    """

    def __init__(self) -> None:
        super().__init__(
            MISSING_VALUES, MissingValueDetector(), RowDeletionRepair()
        )


class ImputationCleaning(ComposedCleaning):
    """Simple imputation: numeric strategy x categorical strategy.

    Parameters
    ----------
    numeric:
        ``"mean"``, ``"median"`` or ``"mode"`` — the training-split
        statistic that fills numeric holes.
    categorical:
        ``"mode"`` (most frequent training value) or ``"dummy"`` (a
        literal ``"missing"`` category).
    """

    def __init__(self, numeric: str = "mean", categorical: str = "mode") -> None:
        super().__init__(
            MISSING_VALUES,
            MissingValueDetector(),
            ImputationRepair(numeric, categorical),
        )
        self.numeric = numeric
        self.categorical = categorical


def simple_imputation_methods() -> list[ImputationCleaning]:
    """The six imputation variants of Table 2, in paper order."""
    return [
        ImputationCleaning(numeric=numeric, categorical=categorical)
        for numeric in NUMERIC_STRATEGIES
        for categorical in CATEGORICAL_STRATEGIES
    ]


def _is_nan(value) -> bool:
    return isinstance(value, float) and np.isnan(value)
