"""Outlier detection and repair (paper §III-B-2).

Three detectors on numeric feature columns:

* **SD** — more than ``n_std`` (paper: 3) standard deviations from the
  training mean;
* **IQR** — outside ``[Q1 - k*IQR, Q3 + k*IQR]`` with ``k = 1.5``;
* **IF**  — isolation forest with contamination 0.01; row-level flags
  are expanded to every numeric feature cell of the flagged rows.

:class:`OutlierDetector` holds the per-column threshold / forest logic;
:class:`OutlierMaskDetector` adapts it to the composable
:class:`~repro.cleaning.base.Detector` interface, so all three share one
fit per split regardless of how many repairs consume them.  Repairs
impute detected cells with the mean / median / mode of the training
split's *non-outlying* values (:class:`OutlierImputationRepair`) or
delegate to HoloClean.  Only numeric columns participate, matching the
paper ("we consider only numerical outliers").
"""

from __future__ import annotations

import warnings

import numpy as np

from ..table import Column, Table
from .base import (
    OUTLIERS,
    ComposedCleaning,
    DetectionResult,
    Detector,
    Repair,
    check_fitted,
)
from .isolation_forest import IsolationForest

DETECTORS = ("SD", "IQR", "IF")
REPAIRS = ("mean", "median", "mode")


class OutlierDetector:
    """Fit-on-train detector producing per-cell outlier masks.

    ``fit`` learns column thresholds (or the isolation forest) from the
    training table; ``detect`` returns ``{column: boolean mask}`` for the
    numeric feature columns of any table.
    """

    def __init__(
        self,
        method: str = "IQR",
        n_std: float = 3.0,
        iqr_k: float = 1.5,
        contamination: float = 0.01,
        random_state: int | None = None,
    ) -> None:
        if method not in DETECTORS:
            raise ValueError(f"method must be one of {DETECTORS}")
        self.method = method
        self.n_std = n_std
        self.iqr_k = iqr_k
        self.contamination = contamination
        self.random_state = random_state

    def fit(self, train: Table) -> "OutlierDetector":
        self.fit_detect(train)
        return self

    def fit_detect(self, train: Table) -> dict[str, np.ndarray] | None:
        """Fit; IF also returns ``detect(train)`` from its threshold's scores."""
        self._columns = train.schema.numeric_features
        self._bounds: dict[str, tuple[float, float]] = {}
        if self.method == "SD":
            for name in self._columns:
                column = train.column(name)
                mean, std = column.mean(), column.std()
                self._bounds[name] = (
                    mean - self.n_std * std,
                    mean + self.n_std * std,
                )
        elif self.method == "IQR":
            for name in self._columns:
                column = train.column(name)
                q1, q3 = column.quantile(0.25), column.quantile(0.75)
                spread = self.iqr_k * (q3 - q1)
                self._bounds[name] = (q1 - spread, q3 + spread)
        else:
            matrix, means = _numeric_matrix(train, self._columns)
            self._if_means = means
            self._forest = IsolationForest(
                n_estimators=50,
                contamination=self.contamination,
                random_state=self.random_state,
            )
            scores = self._forest.fit_scores(matrix)
            return self._row_masks(train, scores > self._forest.threshold_)
        return None

    def detect(self, table: Table) -> dict[str, np.ndarray]:
        """Per-column boolean masks of outlying cells (missing cells are
        never flagged — they belong to the missing-values error type)."""
        if not hasattr(self, "_columns"):
            raise RuntimeError("detector must be fitted first")
        if self.method == "IF":
            matrix = _numeric_matrix(table, self._columns, self._if_means)[0]
            return self._row_masks(table, self._forest.predict_outliers(matrix))
        masks: dict[str, np.ndarray] = {}
        for name in self._columns:
            values = table.column(name).values
            low, high = self._bounds[name]
            with np.errstate(invalid="ignore"):
                mask = (values < low) | (values > high)
            mask[np.isnan(values)] = False
            masks[name] = mask
        return masks

    def _row_masks(self, table: Table, rows: np.ndarray) -> dict[str, np.ndarray]:
        """Row flags expanded to every present numeric feature cell."""
        masks: dict[str, np.ndarray] = {}
        for name in self._columns:
            mask = rows.copy()
            mask[np.isnan(table.column(name).values)] = False
            masks[name] = mask
        return masks

    def outlier_rows(self, table: Table) -> np.ndarray:
        """Rows containing at least one detected outlier cell."""
        masks = self.detect(table)
        if not masks:
            return np.zeros(table.n_rows, dtype=bool)
        return np.logical_or.reduce(list(masks.values()))


class OutlierMaskDetector(Detector):
    """:class:`OutlierDetector` adapted to the composable interface.

    The fingerprint covers every parameter that shapes the detection, so
    SD/IQR thresholds and *seeded* isolation forests are shareable; an
    unseeded forest (``random_state=None``) fits nondeterministically
    and opts out of the cache.
    """

    def __init__(
        self,
        method: str = "IQR",
        n_std: float = 3.0,
        iqr_k: float = 1.5,
        contamination: float = 0.01,
        random_state: int | None = None,
    ) -> None:
        self._detector = OutlierDetector(
            method=method,
            n_std=n_std,
            iqr_k=iqr_k,
            contamination=contamination,
            random_state=random_state,
        )

    @property
    def name(self) -> str:  # type: ignore[override]
        return self._detector.method

    @property
    def inner(self) -> OutlierDetector:
        """The underlying threshold/forest detector."""
        return self._detector

    def fit(self, train: Table) -> "OutlierMaskDetector":
        self._detector.fit(train)
        return self

    def fit_detect(self, train: Table) -> DetectionResult | None:
        """Fit; for IF, hand the cache the training detection the fit scored."""
        masks = self._detector.fit_detect(train)
        if masks is None:
            return None
        return DetectionResult(train.n_rows, cell_masks=masks)

    def detect(self, table: Table) -> DetectionResult:
        return DetectionResult(
            table.n_rows, cell_masks=self._detector.detect(table)
        )

    def fingerprint(self) -> tuple | None:
        inner = self._detector
        if inner.method == "IF" and inner.random_state is None:
            return None
        return (
            "outliers",
            inner.method,
            inner.n_std,
            inner.iqr_k,
            inner.contamination,
            inner.random_state,
        )


class OutlierImputationRepair(Repair):
    """Replace flagged cells with a clean-training-split statistic.

    Fitting needs the training detection (the statistic is computed over
    *non-outlying* present values only), so :attr:`needs_detection` is
    set.
    """

    needs_detection = True

    def __init__(self, strategy: str) -> None:
        if strategy not in REPAIRS:
            raise ValueError(f"strategy must be one of {REPAIRS}")
        self.strategy = strategy

    @property
    def name(self) -> str:  # type: ignore[override]
        return self.strategy.capitalize()

    def fit(
        self, train: Table, detection: DetectionResult | None
    ) -> "OutlierImputationRepair":
        self._fill: dict[str, float] = {}
        for name, mask in detection.cell_masks.items():
            values = train.column(name).values
            keep = ~mask & ~np.isnan(values)
            clean_column = Column(values[keep], train.column(name).ctype)
            if self.strategy == "mean":
                fill = clean_column.mean()
            elif self.strategy == "median":
                fill = clean_column.median()
            else:
                fill = clean_column.mode()
            if isinstance(fill, float) and np.isnan(fill):
                fill = 0.0
            self._fill[name] = float(fill)
        return self

    def apply(self, table: Table, detection: DetectionResult) -> Table:
        check_fitted(self, "_fill")
        out = table
        for name, mask in detection.cell_masks.items():
            if not mask.any():
                continue
            values = out.column(name).values.copy()
            values[mask] = self._fill[name]
            out = out.with_column(name, Column(values, out.column(name).ctype))
        return out


class OutlierCleaning(ComposedCleaning):
    """Detector x imputation repair for numeric outliers.

    Parameters
    ----------
    detector:
        ``"SD"``, ``"IQR"`` or ``"IF"``.
    strategy:
        ``"mean"``, ``"median"`` or ``"mode"`` — the statistic of the
        training split's non-outlying values used as replacement.
    """

    def __init__(
        self,
        detector: str = "IQR",
        strategy: str = "mean",
        random_state: int | None = None,
    ) -> None:
        super().__init__(
            OUTLIERS,
            OutlierMaskDetector(method=detector, random_state=random_state),
            OutlierImputationRepair(strategy),
        )
        self.strategy = strategy


def _numeric_matrix(
    table: Table, columns: list[str], means: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Dense numeric matrix with NaNs mean-filled (for the forest)."""
    matrix = np.column_stack(
        [table.column(name).values for name in columns]
    ) if columns else np.zeros((table.n_rows, 0))
    if means is None:
        with warnings.catch_warnings():
            # an all-NaN column's mean is NaN (filled with 0 below);
            # nanmean reports it through warnings.warn, which
            # np.errstate does not reach
            warnings.simplefilter("ignore", RuntimeWarning)
            means = np.nanmean(matrix, axis=0) if matrix.size else np.zeros(0)
        means = np.nan_to_num(means)
    holes = np.isnan(matrix)
    if holes.any():
        matrix = np.where(holes, means[None, :], matrix)
    return matrix, means
