"""Cleaning-method abstraction: detectors, repairs, and their composition.

Every entry of the paper's Table 2 is a (detection, repair) pair.  Since
the detector/repair decomposition (ISSUE 3) the two stages are first
class:

* a :class:`Detector` is fitted **on the training split only** (paper
  §IV-A step 2) and maps any table to an immutable
  :class:`DetectionResult` — per-column cell masks, a per-row mask, or
  duplicate match pairs;
* a :class:`Repair` learns its statistics from ``(train, train's
  detection)`` and is then a pure function of ``(table, detection)``.

:class:`ComposedCleaning` packages one detector and one repair as a
:class:`CleaningMethod`, the compatibility shell the rest of the system
(runner, relations, persistence, registries) consumes — its
``name = "detection/repair"`` identifiers, fitted semantics, and outputs
are byte-for-byte those of the pre-decomposition monoliths.

Because detectors are pure functions of the training table, a
:class:`DetectionCache` can share one fitted detector (and its
detections) across every repair variant that consumes it — the
split-execution kernel binds one per split so, e.g., the isolation
forest fits once for mean/median/mode/HoloClean repairs instead of four
times.  See :mod:`repro.core.runner` for the cache's lifecycle and
correctness argument.

Error-type identifiers are centralised here so relations, queries and
registries all spell them the same way.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from ..table import Table

#: canonical error-type identifiers (paper §III-B order)
MISSING_VALUES = "missing_values"
OUTLIERS = "outliers"
DUPLICATES = "duplicates"
INCONSISTENCIES = "inconsistencies"
MISLABELS = "mislabels"

ERROR_TYPES = (
    MISSING_VALUES,
    OUTLIERS,
    DUPLICATES,
    INCONSISTENCIES,
    MISLABELS,
)

#: metrics hook, push-installed by :func:`repro.core.observability.install`
_metrics = None


class DetectionResult:
    """Immutable output of one detector on one table.

    Exactly one "shape" is primary per error type — cell masks (missing
    values, outliers, inconsistencies), a row mask (mislabels), or match
    pairs (duplicates) — but a result may carry several views (missing
    values populate both cell and row masks).  ``payload`` holds
    repair hints computed during detection (e.g. the canonical spelling
    of each inconsistent cell, or the suggested label of each flagged
    example), which is what keeps repairs pure functions of
    ``(detection, fitted stats, table)``.

    Results are treated as immutable: they may be cached and shared
    across repair variants, so repairs must never write into the masks
    or payload arrays.
    """

    __slots__ = ("n_rows", "cell_masks", "row_mask", "pairs", "payload")

    def __init__(
        self,
        n_rows: int,
        cell_masks: dict[str, np.ndarray] | None = None,
        row_mask: np.ndarray | None = None,
        pairs: list[tuple[int, int]] | None = None,
        payload: dict | None = None,
    ) -> None:
        self.n_rows = int(n_rows)
        self.cell_masks = cell_masks
        self.row_mask = row_mask
        self.pairs = None if pairs is None else tuple(pairs)
        self.payload = payload

    def rows(self) -> np.ndarray:
        """Boolean mask of rows this detection touches.

        For match pairs this is the rows a deduplication would *delete*
        (all cluster members but the first), matching what
        ``affected_rows`` always reported for duplicate methods.
        """
        if self.row_mask is not None:
            return self.row_mask
        if self.cell_masks is not None:
            if not self.cell_masks:
                return np.zeros(self.n_rows, dtype=bool)
            return np.logical_or.reduce(list(self.cell_masks.values()))
        if self.pairs is not None:
            from .duplicates import duplicate_row_mask

            return duplicate_row_mask(self.n_rows, list(self.pairs))
        return np.zeros(self.n_rows, dtype=bool)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        shapes = [
            name
            for name, value in (
                ("cells", self.cell_masks),
                ("rows", self.row_mask),
                ("pairs", self.pairs),
            )
            if value is not None
        ]
        return f"DetectionResult(n_rows={self.n_rows}, {'+'.join(shapes) or 'empty'})"


class Detector(ABC):
    """Error detection fitted on train, applicable to any table.

    Subclasses set :attr:`name` (the Table 2 "detection" label) and
    implement :meth:`fit` / :meth:`detect`.  ``detect`` must be a pure
    function of ``(fitted state, table)`` — that purity is what licenses
    the :class:`DetectionCache`.
    """

    #: Table 2 detection label, e.g. ``"IQR"`` or ``"EmptyEntries"``
    name: str

    @abstractmethod
    def fit(self, train: Table) -> "Detector":
        """Learn detection state from the training split only."""

    @abstractmethod
    def detect(self, table: Table) -> DetectionResult:
        """Detect errors in ``table`` using train-fitted state."""

    def fit_detect(self, train: Table) -> DetectionResult | None:
        """Fit, returning train's detection when it falls out as a byproduct.

        Detectors whose ``fit`` already computes everything a
        ``detect(train)`` would (ZeroER scores the training pairs to fit
        its mixture) override this to hand the result to the cache for
        free.  The default fits and returns ``None``.
        """
        self.fit(train)
        return None

    def fingerprint(self) -> tuple | None:
        """Stable identity of this detector's *function*, or ``None``.

        Two detector instances with equal fingerprints fitted on the
        same table must produce bit-identical detections — the cache
        key contract.  Return ``None`` when that cannot be guaranteed
        (e.g. an unseeded isolation forest), which opts the detector
        out of caching entirely.
        """
        return None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}({self.name})"


class Repair(ABC):
    """Error repair: fitted from ``(train, detection)``, applied anywhere.

    Subclasses set :attr:`name` (the Table 2 "repair" label) and
    implement :meth:`fit` / :meth:`apply`.  ``apply`` must be a pure
    function of ``(fitted stats, table, detection)`` and must treat the
    detection as read-only (it may be cached and shared).
    """

    #: Table 2 repair label, e.g. ``"Mean"`` or ``"Deletion"``
    name: str

    #: whether :meth:`fit` consumes the training detection; repairs that
    #: only need raw training statistics leave this False so the naive
    #: (cache-off) path never detects more than the monoliths did
    needs_detection: bool = False

    @abstractmethod
    def fit(self, train: Table, detection: DetectionResult | None) -> "Repair":
        """Learn repair statistics from the training split (and, when
        :attr:`needs_detection`, its detection)."""

    @abstractmethod
    def apply(self, table: Table, detection: DetectionResult) -> Table:
        """Repair ``table``'s detected errors; returns a new table."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}({self.name})"


class DetectionCache:
    """Per-split memo of fitted detectors and their detections.

    Fits are shared by ``(detector fingerprint, training-table
    identity)`` — instances with equal fingerprints fitted on the same
    table are interchangeable, so the first fit serves them all.
    Detections are memoized by ``(fitted detector identity, table
    identity)``: a detection is a pure function of the *fitted*
    detector and the table, and keying on the fitted object (rather
    than the fingerprint alone) keeps same-fingerprint detectors that
    were fitted on different tables — composite stages fitted on
    per-composite intermediate tables, say — from ever sharing a
    detection.  Every entry holds strong references to its key objects
    so ``id()`` keys cannot be recycled by the allocator while cached.
    The runner creates one cache per split and clears it when the
    split's method iteration ends, so peak memory is bounded by one
    split's detections.  "No cache" is expressed by binding none:
    an unbound method fits and applies its private detector.
    """

    def __init__(self) -> None:
        self._detectors: dict[tuple, tuple[Table, Detector]] = {}
        self._detections: dict[tuple, tuple[Detector, Table, DetectionResult]] = {}
        #: (cache hits, cache misses) over fit + detect — benchmark telemetry
        self.hits = 0
        self.misses = 0

    def fit(self, detector: Detector, train: Table) -> Detector:
        """A detector equivalent to ``detector.fit(train)``, shared when possible."""
        fingerprint = detector.fingerprint()
        if fingerprint is None:
            detector.fit(train)
            return detector
        key = (fingerprint, id(train))
        entry = self._detectors.get(key)
        if entry is None or entry[0] is not train:
            self.misses += 1
            if _metrics is not None:
                _metrics.count("cleaning.detection_cache.misses")
            byproduct = detector.fit_detect(train)
            entry = (train, detector)
            self._detectors[key] = entry
            if byproduct is not None:
                self._detections[(id(detector), id(train))] = (
                    detector,
                    train,
                    byproduct,
                )
        else:
            self.hits += 1
            if _metrics is not None:
                _metrics.count("cleaning.detection_cache.hits")
        return entry[1]

    def detect(self, detector: Detector, table: Table) -> DetectionResult:
        """``detector.detect(table)``, computed once per (fitted detector, table)."""
        if detector.fingerprint() is None:
            return detector.detect(table)
        key = (id(detector), id(table))
        entry = self._detections.get(key)
        if entry is None or entry[0] is not detector or entry[1] is not table:
            self.misses += 1
            if _metrics is not None:
                _metrics.count("cleaning.detection_cache.misses")
            entry = (detector, table, detector.detect(table))
            self._detections[key] = entry
        else:
            self.hits += 1
            if _metrics is not None:
                _metrics.count("cleaning.detection_cache.hits")
        return entry[2]

    def clear(self) -> None:
        """Release all entries (and the tables/detectors they pin alive)."""
        if _metrics is not None:
            _metrics.gauge_max(
                "cleaning.detection_cache.peak_entries",
                len(self._detectors) + len(self._detections),
            )
        self._detectors.clear()
        self._detections.clear()


class CleaningMethod(ABC):
    """One (detection, repair) pair from Table 2.

    Subclasses set :attr:`error_type`, :attr:`detection` and
    :attr:`repair` class attributes and implement :meth:`fit` /
    :meth:`transform`.  ``transform`` must return a *new* table; row
    counts may change (deletion repairs, duplicate removal) and labels
    may change (mislabel repair), but schemas never do.

    Most methods are :class:`ComposedCleaning` instances built from a
    detector and a repair; this base class survives as the uniform
    interface (and as the escape hatch for methods that resist the
    decomposition, like the ground-truth oracle).
    """

    error_type: str
    detection: str
    repair: str

    @property
    def name(self) -> str:
        """Human-readable "detection/repair" identifier."""
        return f"{self.detection}/{self.repair}"

    @abstractmethod
    def fit(self, train: Table) -> "CleaningMethod":
        """Learn detection thresholds / repair statistics from ``train``."""

    @abstractmethod
    def transform(self, table: Table) -> Table:
        """Apply the fitted cleaning to ``table`` (train or test)."""

    def fit_transform(self, train: Table) -> Table:
        """Convenience: ``fit(train)`` then ``transform(train)``."""
        return self.fit(train).transform(train)

    def affected_rows(self, table: Table) -> np.ndarray:
        """Boolean mask of rows the fitted method would touch.

        Default implementation compares ``transform`` output with the
        input column-by-column (missing-aware, the same semantics as
        :meth:`Column.__eq__`); subclasses that know their detections
        override it.  Only meaningful for row-preserving methods.
        """
        cleaned = self.transform(table)
        if cleaned.n_rows != table.n_rows:
            raise ValueError(
                "affected_rows() is undefined for row-dropping methods"
            )
        changed = np.zeros(table.n_rows, dtype=bool)
        for name in table.schema.names:
            before = table.column(name)
            after = cleaned.column(name)
            if before.aliases(after):
                # transform passed the column through untouched (same
                # shared buffer, same view state) — provably equal, skip
                # the O(n) element comparison
                continue
            before_missing = before.missing_mask()
            after_missing = after.missing_mask()
            # a row changed where missingness flipped, or where both
            # values are present and differ
            changed |= before_missing != after_missing
            present = ~before_missing & ~after_missing
            differs = np.zeros(table.n_rows, dtype=bool)
            differs[present] = before.values[present] != after.values[present]
            changed |= differs
        return changed

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}({self.error_type}: {self.name})"


class ComposedCleaning(CleaningMethod):
    """A :class:`Detector` and a :class:`Repair` packaged as a method.

    ``fit(train)`` fits the detector, computes the training detection
    when the repair's statistics need it, and fits the repair;
    ``transform(table)`` detects on ``table`` and applies the repair.
    When a :class:`DetectionCache` is bound (:meth:`bind_cache`, done
    per split by the runner), both steps route through it, so repair
    variants sharing a detector share its fits and detections.

    The bound cache is deliberately transient: it is dropped on pickle
    and deepcopy (fresh per-split method copies start unbound), because
    cache entries pin split-local tables alive.
    """

    def __init__(self, error_type: str, detector: Detector, repair: Repair) -> None:
        self.error_type = error_type
        self.detector = detector
        self.repair_step = repair
        self._cache: DetectionCache | None = None

    @property
    def detection(self) -> str:  # type: ignore[override]
        return self.detector.name

    @property
    def repair(self) -> str:  # type: ignore[override]
        return self.repair_step.name

    def bind_cache(self, cache: DetectionCache | None) -> "ComposedCleaning":
        """Route detector fits/detections through a shared per-split cache."""
        self._cache = cache
        return self

    def fit(self, train: Table) -> "ComposedCleaning":
        if self._cache is not None:
            self.detector = self._cache.fit(self.detector, train)
        else:
            self.detector.fit(train)
        detection = self._detect(train) if self.repair_step.needs_detection else None
        self.repair_step.fit(train, detection)
        self._fitted = True
        return self

    def transform(self, table: Table) -> Table:
        check_fitted(self, "_fitted")
        return self.repair_step.apply(table, self._detect(table))

    def affected_rows(self, table: Table) -> np.ndarray:
        check_fitted(self, "_fitted")
        return self._detect(table).rows()

    def _detect(self, table: Table) -> DetectionResult:
        if self._cache is not None:
            return self._cache.detect(self.detector, table)
        return self.detector.detect(table)

    def __getstate__(self) -> dict:
        # pickle (worker shipping) and deepcopy (per-split fresh methods)
        # must never drag a split-local cache along
        state = dict(self.__dict__)
        state["_cache"] = None
        return state


class NotFittedError(RuntimeError):
    """Raised when ``transform`` is called before ``fit``."""


def check_fitted(method, attribute: str) -> None:
    """Raise :class:`NotFittedError` unless ``attribute`` exists."""
    if not hasattr(method, attribute):
        raise NotFittedError(
            f"{type(method).__name__} must be fitted before transform()"
        )


class IdentityCleaning(CleaningMethod):
    """No-op cleaning — the "dirty" arm of a comparison.

    Useful wherever the runner needs a uniform interface for the
    uncleaned variant.
    """

    error_type = "none"
    detection = "None"
    repair = "None"

    def fit(self, train: Table) -> "IdentityCleaning":
        return self

    def transform(self, table: Table) -> Table:
        return table
