"""Experiment runner — the paper's §IV-A procedure.

For one dataset and error type, a single pass over ``n_splits`` random
70/30 train/test splits produces the metric pairs of **all three
relations** at once:

1. split the dirty dataset;
2. fit every cleaning method on the training split only and clean both
   splits (no leakage);
3. train models — on the dirty training set and on every cleaned
   training set — with validation scores from k-fold cross validation
   (plus optional random hyper-parameter search);
4. evaluate to form metric pairs: case B vs D for the model-development
   scenario (BD), case C vs D for model deployment (CD).

R2 adds per-split model selection by validation score; R3 additionally
selects the cleaning method by the best validated model it admits.  The
runner shares work aggressively: dirty-side models are trained once per
split and reused across every cleaning method, exactly as the semantics
allow.

Splits are independent — every random draw is seeded by
:func:`derive_seed` on inputs that include the split index but never
any cross-split state.  Within a split the pass is a grid of (method,
model) cells: a :class:`SplitWorkspace` computes each
:class:`CellResult`, the parallel executor (:mod:`repro.core.executor`)
runs them as units of one or many cells, :func:`merge_cell_results`
reduces a split's cells, and :func:`merge_split_results` reassembles
per-split results into the same output regardless of completion
order.

The same purity carries the fault-tolerance contract
(:mod:`repro.core.supervisor`): because a task body reads nothing but
its structural key and the broadcast study definition, the supervisor
may run it **any number of times** — retry after an exception, re-run
after a pool kill or worker crash, re-run a split's missing cells after
a cell degrades — and the surviving execution is indistinguishable from
a first-try success.  Task bodies must stay free of hidden mutable
state (module globals written during a run, cross-unit caches keyed by
anything but structural identity) or retries would stop being safe.

Split-execution kernel
----------------------
Within one split the protocol's grid repeats a lot of identical work,
and this module eliminates it without changing a single bit of output:

* each training table is encoded **once** into an :class:`EncodedTable`
  shared by every model fitted on it (the encoder is a pure function of
  the training table, so per-model re-fits were redundant);
* a :class:`SplitWorkspace` holds one :class:`MethodRecord` at a time —
  the cleaning method its cells run, with that method's encoded cleaned
  training table, its cleaned test table encoded once under the dirty
  and once under the clean encoder, the raw test set's clean encoding
  (CD only) and the clean models trained so far — and a cell computes
  its three scores straight from it: case B (dirty model, cleaned test
  set), case D (clean model, cleaned test set; the after-score of both
  the BD and the CD pair) and case C (clean model, raw test set; CD
  only).  R2/R3 are composed from the R1 pairs without evaluating again
  (:func:`merge_cell_results`);
* an evaluation predicts only the test rows cleaning changed — each
  model keeps its prediction of one *anchor* matrix of the split (the
  raw test set's dirty encoding for a dirty model, its cleaned test
  set's encoding for a clean one), so a table it scores twice is
  predicted once, and a model that can predict a subset of rows (KNN
  overrides :meth:`~repro.ml.base.Classifier.predict_proba_rows`)
  copies the anchor's prediction for a table of the same row count and
  recomputes the rows whose encoded bits differ
  (:meth:`TrainedModel.evaluate`); a same-shape prediction rounds
  every row on its own, so the result is the whole prediction's;
* hyper-parameter tuning iterates **fold-major** — each CV fold's
  ``(X_train, y_train, X_val, y_val)`` slices are gathered once per
  search (:func:`~repro.ml.cv_kernel.evaluate_candidates`) and per-model
  :class:`~repro.ml.cv_kernel.FoldWorkspace`s serve every random-search
  candidate from candidate-invariant precomputation (KNN's fold
  distance matrix, naive Bayes' class statistics, CART root argsorts)
  instead of refitting from scratch, bit-identical by contract;
* every *detector* is fitted and applied **once per split** — a
  :class:`~repro.cleaning.base.DetectionCache` bound to each method
  shares fits by ``(detector fingerprint, training-table identity)``
  and memoizes detections per ``(fitted detector, table identity)``,
  so the SD / IQR / isolation-forest thresholds, ZeroER mixture and
  missing-cell masks are shared by every repair variant that consumes
  them (e.g. outliers: 3 detector fits instead of 12).  Detectors are
  pure functions of the training table (equal fingerprints ⇒
  interchangeable fits), detections are pure functions of ``(fitted
  detector, table)``, every cache entry pins its key objects alive so
  ``id()`` keys cannot be recycled, and the cache is evicted when the
  split's method iteration ends.  Detectors that cannot guarantee
  determinism (an unseeded isolation forest) return a ``None``
  fingerprint and opt out.

The kernel is the only execution path.  Its pre-kernel reference
implementations — the per-row encoder transform, the per-feature tree
split searches, the candidate-major tuning loop — live in
``tests/oracles/`` and are pinned bit-for-bit against the production
path there, and the persisted bytes of whole studies are pinned by
sha256 digests recorded when the reference path still ran in-tree.

:class:`~repro.ml.model_selection.RandomSearch` validates every
candidate on a single shared fold plan (an algorithmic improvement to
the search, not a cache), so ``search_iters > 0`` studies score
candidates differently than releases that predate the kernel.
"""

from __future__ import annotations

import copy
import json
import zlib
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..cleaning.base import MISSING_VALUES, CleaningMethod, DetectionCache
from ..cleaning.registry import dirty_baseline, methods_for
from ..datasets.base import Dataset
from ..ml.base import Classifier
from ..ml.model_selection import RandomSearch, cross_val_score, score_predictions
from ..ml.registry import MODEL_NAMES, make_model, search_space
from ..table import FeatureEncoder, LabelEncoder, Table, train_test_split
from ..table.ops import minority_class
from .schema import MetricPair, Scenario


def _freeze_overrides(overrides):
    """Canonical immutable form of the per-model override mapping.

    Each model's parameter dict is canonicalized to sorted-key JSON, so
    the result is hashable, key-order-insensitive, and round-trips the
    original values exactly (lists stay lists, nested dicts stay dicts)
    via :meth:`StudyConfig.overrides_for`.  A tuple input is assumed
    already frozen, which makes re-freezing (``dataclasses.replace``) a
    no-op.
    """
    if isinstance(overrides, tuple):
        if all(
            isinstance(entry, tuple)
            and len(entry) == 2
            and isinstance(entry[0], str)
            and isinstance(entry[1], str)
            for entry in overrides
        ):
            return overrides
        # a tuple of (name, params) pairs that is not yet frozen — e.g.
        # dict(...).items() passed directly — freezes like a mapping
        overrides = dict(overrides)
    if not isinstance(overrides, Mapping):
        raise TypeError(
            "model_overrides must be a mapping of model name to parameter "
            f"dict, got {type(overrides).__name__}"
        )
    return tuple(
        sorted(
            (str(name), json.dumps(params, sort_keys=True))
            for name, params in overrides.items()
        )
    )


@dataclass(frozen=True)
class StudyConfig:
    """Knobs of the study protocol.

    Defaults follow the paper (20 splits, 70/30, alpha 0.05, BY, 5-fold
    CV); benchmarks shrink ``n_splits`` / ``cv_folds`` / the model pool
    to stay laptop-scale.

    Configs are fully immutable and hashable: ``model_overrides`` may be
    passed as a plain dict but is frozen into sorted ``(model, params)``
    tuples on construction, so configs participate in equality and can
    key executor task tables.  How a study is scheduled (worker count,
    granularity) is not part of its protocol: those are arguments of
    :meth:`~repro.core.study.CleanMLStudy.run`, since they never change
    a bit of the results.
    """

    n_splits: int = 20
    test_ratio: float = 0.3
    alpha: float = 0.05
    fdr_procedure: str = "by"
    cv_folds: int = 5
    search_iters: int = 0
    models: tuple[str, ...] = MODEL_NAMES
    include_advanced_cleaning: bool = True
    seed: int = 0
    #: per-model constructor overrides, e.g. {"random_forest":
    #: {"n_estimators": 10}} — the lever benchmarks use to stay fast;
    #: frozen to sorted ``(model, params_json)`` tuples in
    #: ``__post_init__`` (values must be JSON-representable)
    model_overrides: Mapping | tuple = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "models", tuple(self.models))
        object.__setattr__(
            self, "model_overrides", _freeze_overrides(self.model_overrides)
        )

    def fingerprint(self) -> str:
        """Stable identifier of every field that shapes per-split results.

        Checkpoint ledgers stamp this into their header so a resume
        with a different protocol is rejected instead of silently
        reusing stale tasks.  ``n_splits`` is excluded on purpose — a
        split's result depends only on its index, so extending a study
        from 8 to 20 splits legitimately reuses the first 8 — as are
        the statistics-pass knobs (``alpha``,
        ``fdr_procedure``), which never touch the raw experiments.
        """
        return "|".join(
            str(part)
            for part in (
                self.test_ratio,
                self.cv_folds,
                self.search_iters,
                ",".join(self.models),
                self.include_advanced_cleaning,
                self.seed,
                self.model_overrides,
            )
        )

    def overrides_for(self, name: str) -> dict:
        """Constructor overrides for one model, as a dict (possibly empty)."""
        for model, params_json in self.model_overrides:
            if model == name:
                return json.loads(params_json)
        return {}

    def make_model(self, name: str, seed: int):
        """Registry model with this config's per-model overrides applied."""
        model = make_model(name, seed=seed)
        overrides = self.overrides_for(name)
        if overrides:
            model.set_params(**overrides)
        return model


@dataclass(frozen=True)
class RawExperiment:
    """Metric pairs for one experiment specification, pre-statistics."""

    level: str  # "R1" | "R2" | "R3"
    dataset: str
    error_type: str
    scenario: Scenario
    detection: str | None
    repair: str | None
    ml_model: str | None
    pairs: tuple[MetricPair, ...]


@dataclass(frozen=True, eq=True)
class SplitResult:
    """All metric pairs one split of one (dataset, error-type) block yields.

    What :func:`merge_cell_results` reduces a split's cells to and a
    checkpoint ledger records per split: splits are independent by
    construction (every seed derives from the split index), so a study
    decomposes into one :class:`SplitResult` per split per block.  Each
    relation maps its spec key — the same tuples
    :func:`merge_split_results` accumulates — to the list of
    :class:`MetricPair`s this split contributes (one per method that
    produces the key: usually a single pair, several when distinct
    methods share a (detection, repair) label):

    * ``r1`` keyed ``(detection, repair, model, scenario)``;
    * ``r2`` keyed ``(detection, repair, scenario)``;
    * ``r3`` keyed ``(scenario,)``.

    Instances are plain data so checkpoints can serialize them.
    """

    split: int
    r1: dict
    r2: dict
    r3: dict


@dataclass(frozen=True, eq=True)
class CellResult:
    """Everything one (split, method, model) cell contributes to a study.

    The unit every split is computed from: a cell trains the dirty-side
    and cleaned-side models of one ``(cleaning method, model)`` pair
    within one split and records their validation scores plus the
    per-scenario R1 metric pair.  That is *sufficient* to reassemble the
    whole split: the R2 pair of a method is composed of R1 ingredients
    (the best dirty model's before-score and the best clean model's
    after-score are exactly the floats the corresponding R1 cells
    computed), and R3 selects among the R2 pairs by the
    ``clean_val_score`` recorded here.  :func:`merge_cell_results`
    performs that reassembly deterministically.

    ``method_index`` is the method's position in the split's method
    iteration order — the sort key that keeps reassembled pair lists in
    method order even when two methods share a (detection, repair)
    label.  Instances are plain data (picklable and
    JSON-serializable) so they can cross the process-pool boundary and
    live in checkpoint ledgers.
    """

    split: int
    method_index: int
    method_name: str
    detection: str | None
    repair: str | None
    model: str
    dirty_val_score: float
    clean_val_score: float
    #: ((scenario, MetricPair), ...) in ``scenarios_for`` order
    pairs: tuple


#: metrics hook, push-installed by :func:`repro.core.observability.install`
#: (``None`` keeps the instrumented path at one global load + test)
_metrics = None


class EncodedTable:
    """A training table encoded once and shared by every model on it.

    The feature encoder is a deterministic function of the training
    table, so fitting it per model (as the pre-kernel runner did) only
    repeated identical work: one ``EncodedTable`` per training table
    gives every model the same ``(X, y)`` bits the per-model fits
    produced.  :meth:`encode` applies the fitted encoder to an
    evaluation table; it keeps nothing, so whoever scores a table more
    than once holds its encoding (see :class:`MethodRecord`).
    """

    def __init__(self, train: Table, labeler: LabelEncoder) -> None:
        self.labeler = labeler
        features = train.features_table()
        self.encoder = FeatureEncoder().fit(features)
        self.X = self.encoder.transform(features)
        self.y = labeler.transform(train.labels)

    def encode(self, table: Table) -> tuple[np.ndarray, np.ndarray]:
        """``(X, y)`` of an evaluation table under the train-fitted encoder."""
        return (
            self.encoder.transform(table.features_table()),
            self.labeler.transform(table.labels),
        )


class TrainedModel:
    """A model fitted on one training table, with its validation score.

    Encoding is leakage-free by construction: the feature encoder is
    fitted on the training table and :meth:`encode` reuses it for every
    evaluation table.  ``train`` may be a plain :class:`Table` (a
    private encoding is built) or an :class:`EncodedTable` shared with
    the other models of the same training table.
    """

    def __init__(
        self,
        train: Table | EncodedTable,
        model_name: str,
        config: StudyConfig,
        labeler: LabelEncoder,
        metric: str,
        positive: int | None,
        seed: int,
    ) -> None:
        self.model_name = model_name
        self.metric = metric
        self.positive = positive
        if isinstance(train, EncodedTable):
            if train.labeler is not labeler:
                raise ValueError(
                    "shared EncodedTable was built with a different "
                    "label encoder than this model's"
                )
            self._encoded = train
        else:
            self._encoded = EncodedTable(train, labeler)
        X, y = self._encoded.X, self._encoded.y
        #: (anchor matrix, its prediction), see :meth:`evaluate`
        self._anchor: tuple[np.ndarray, np.ndarray] | None = None

        if config.search_iters > 0:
            search = RandomSearch(
                config.make_model(model_name, seed),
                search_space(model_name),
                n_iter=config.search_iters,
                n_folds=config.cv_folds,
                metric=metric,
                positive=positive,
                seed=seed,
            ).fit(X, y)
            self.model = search.best_model_
            self.val_score = float(search.best_score_)
        else:
            self.model = config.make_model(model_name, seed)
            self.val_score = float(
                cross_val_score(
                    self.model,
                    X,
                    y,
                    n_folds=config.cv_folds,
                    metric=metric,
                    positive=positive,
                    seed=seed,
                )
            )
            self.model.fit(X, y)

    @property
    def reuses_rows(self) -> bool:
        """Whether the model overrides ``predict_proba_rows`` (KNN does)."""
        return (
            type(self.model).predict_proba_rows
            is not Classifier.predict_proba_rows
        )

    def encode(self, table: Table) -> tuple[np.ndarray, np.ndarray]:
        """``(X, y)`` of an evaluation table under this model's encoder."""
        return self._encoded.encode(table)

    def evaluate(
        self, X: np.ndarray, y: np.ndarray, anchor: np.ndarray | None = None
    ) -> float:
        """Metric of the model on an encoded test set (see :meth:`encode`).

        ``anchor`` is the encoding of a table of the split that this
        model scores or reads more than once: the raw test set for the
        dirty-trained model, the cleaned test set for a cleaned-train
        model.  Its prediction is made once and kept.  An ``X`` that
        *is* the anchor returns that prediction.  An ``X`` of the
        anchor's row count, on a model that :attr:`reuses_rows`, copies
        it and recomputes only the rows whose encoded bits differ, which
        equals predicting all of ``X`` bit for bit because a same-shape
        prediction rounds each row on its own.  Any other ``X`` is
        predicted whole: the default ``predict_proba_rows`` recomputes
        every row, so an anchor would only add a prediction.
        """
        proba = self._predict_proba(X, anchor)
        predictions = np.argmax(proba, axis=1)
        return score_predictions(y, predictions, self.metric, self.positive)

    def _predict_proba(
        self, X: np.ndarray, anchor: np.ndarray | None
    ) -> np.ndarray:
        if anchor is None or (
            anchor is not X
            and (len(anchor) != len(X) or not self.reuses_rows)
        ):
            return self.model.predict_proba(X)
        if self._anchor is None or self._anchor[0] is not anchor:
            self._anchor = (anchor, self.model.predict_proba(anchor))
        anchor_proba = self._anchor[1]
        if anchor is X:
            return anchor_proba
        changed = np.flatnonzero(
            (X.view(np.uint64) != anchor.view(np.uint64)).any(axis=1)
        )
        proba = anchor_proba.copy()
        if len(changed):
            proba[changed] = self.model.predict_proba_rows(X, changed)
        return proba


def _bind_detection_cache(method: CleaningMethod, cache: DetectionCache) -> None:
    """Attach the split's detection cache to a method that supports it.

    Composed methods (and composites of them) expose ``bind_cache``;
    legacy monolithic methods simply run unbound, which is always
    correct — the cache is a pure optimization.
    """
    bind = getattr(method, "bind_cache", None)
    if bind is not None:
        bind(cache)


def derive_seed(*parts) -> int:
    """Deterministic 31-bit seed from arbitrary string-able parts."""
    text = "|".join(str(part) for part in parts)
    return zlib.crc32(text.encode()) & 0x7FFFFFFF


def scenarios_for(error_type: str) -> tuple[Scenario, ...]:
    """BD only for missing values (paper §III-E), BD + CD otherwise."""
    if error_type == MISSING_VALUES:
        return (Scenario.BD,)
    return (Scenario.BD, Scenario.CD)


class TrainingContext:
    """What every model trained on one dataset shares.

    The label encoding is fitted on the dirty and the clean labels, so
    any cleaned table encodes; the f1 metric's positive class is the
    dirty table's minority class.  :meth:`train` seeds each model from
    the study seed, the dataset, a tag naming its training table, the
    model and the split — never from execution order.
    """

    def __init__(self, dataset: Dataset, config: StudyConfig) -> None:
        self.dataset = dataset
        self.config = config
        self.metric = dataset.metric
        label = dataset.dirty.schema.label
        self.labeler = LabelEncoder().fit(
            dataset.dirty.column(label).unique()
            + dataset.clean.column(label).unique()
        )
        if self.metric == "f1":
            self.positive = int(
                self.labeler.transform([minority_class(dataset.dirty)])[0]
            )
        else:
            self.positive = None

    def train(
        self, table: Table | EncodedTable, model_name: str, tag: str, split: int
    ) -> TrainedModel:
        """Train one model with a deterministic derived seed."""
        seed = derive_seed(
            self.config.seed, self.dataset.name, tag, model_name, split
        )
        return TrainedModel(
            table,
            model_name,
            self.config,
            self.labeler,
            self.metric,
            self.positive,
            seed,
        )


class ErrorTypeRun(TrainingContext):
    """One dataset x one error type: what every split of the block shares.

    Adds the block's cleaning methods to the shared training context;
    the splits themselves run as cells of a :class:`SplitWorkspace`.
    """

    def __init__(
        self,
        dataset: Dataset,
        error_type: str,
        config: StudyConfig,
        methods: list[CleaningMethod] | None = None,
    ) -> None:
        if not dataset.has(error_type):
            raise ValueError(
                f"{dataset.name} does not carry error type {error_type!r}"
            )
        super().__init__(dataset, config)
        self.error_type = error_type
        self._methods = methods

    def _fresh_methods(self) -> list[CleaningMethod]:
        # explicit method lists are deep-copied per split so every split
        # fits pristine objects — the same guarantee registry methods get
        # from being rebuilt, and what makes in-process and worker-process
        # execution indistinguishable even for methods whose ``fit`` does
        # not fully reset state
        if self._methods is not None:
            return [copy.deepcopy(method) for method in self._methods]
        return methods_for(
            self.error_type,
            include_advanced=self.config.include_advanced_cleaning,
            random_state=self.config.seed,
        )


# -- per-split cells (every granularity) ---------------------------------

@dataclass
class MethodRecord:
    """The one cleaning method a :class:`SplitWorkspace` holds.

    Everything the method's cells share: the fitted method, its cleaned
    training table encoded once, its cleaned test table, and the clean
    models trained so far.  The test-side fields — the cleaned test
    set's labels, its encodings under the dirty and the clean encoder,
    and the raw test set's clean encoding (CD only) — stay ``None``
    until the method's first cell has trained its models, so no test
    encoding is held while training runs.
    """

    index: int
    method: CleaningMethod
    train: EncodedTable
    test: Table
    models: dict[str, TrainedModel] = field(default_factory=dict)
    y: np.ndarray | None = None
    X_dirty: np.ndarray | None = None
    X_clean: np.ndarray | None = None
    X_raw: np.ndarray | None = None


class SplitWorkspace:
    """Per-(block, split) state shared by the cells of one split.

    Every granularity runs a split as (method, model) cells through a
    workspace: a split unit walks all the cells its split lacks through
    one workspace, and cell units run them one by one on per-worker
    workspaces (:mod:`repro.core.executor`).  A cell needs the split's 70/30
    partition, the baseline transform, detector fits, shared encodings,
    and the dirty-side model of its model name; all of those are pure
    functions of ``(dataset, error type, config, split)``, so this
    workspace builds each lazily on first touch and shares it with every
    later cell it serves.  Cells of the same split that land on
    *different* workers simply rebuild the same state bit-for-bit —
    sharing is purely an optimization, which is what makes any scatter
    of cells across workers produce byte-identical results (pinned by
    ``tests/test_intra_split.py``).

    The split-level :class:`~repro.cleaning.base.DetectionCache` lives
    here with per-workspace scope: within one worker's batch it
    deduplicates exactly as a whole-split run does, and across workers
    it is rebuilt identically because detections are pure.  The
    workspace holds one method at a time, as one :class:`MethodRecord`
    (see :meth:`record`), so split units and cell units alike peak at
    one method's footprint; a cell of a replaced method rebuilds the
    identical record.

    Rebuilds are cheap on the columnar core: ``train_test_split``
    produces zero-copy view tables over the dataset's buffers, and the
    shared encodings slice straight from those buffers — a worker that
    re-derives a split pays index arithmetic, not a second copy of the
    dataset.
    """

    def __init__(self, run: ErrorTypeRun, split: int) -> None:
        self.run = run
        self.split = split
        config = run.config
        split_seed = derive_seed(
            config.seed, run.dataset.name, run.error_type, split
        )
        self.raw_train, self.raw_test = train_test_split(
            run.dataset.dirty, test_ratio=config.test_ratio, seed=split_seed
        )
        self.dcache = DetectionCache()
        baseline = dirty_baseline(run.error_type)
        _bind_detection_cache(baseline, self.dcache)
        baseline.fit(self.raw_train)
        self.dirty_source = EncodedTable(
            baseline.transform(self.raw_train), run.labeler
        )
        self.with_cd = Scenario.CD in scenarios_for(run.error_type)
        self._methods: list[CleaningMethod] | None = None
        self._dirty_models: dict[str, TrainedModel] = {}
        self._record: MethodRecord | None = None

    @cached_property
    def raw_labels(self) -> np.ndarray:
        """The raw test set's encoded labels."""
        return self.run.labeler.transform(self.raw_test.labels)

    @cached_property
    def raw_dirty(self) -> np.ndarray:
        """The raw test set's dirty encoding, every dirty model's anchor.

        Made on first use: only a cleaned test set of the raw test set's
        row count reads it, so a split whose repairs all delete rows
        never makes it.
        """
        return self.dirty_source.encoder.transform(self.raw_test.features_table())

    def methods(self) -> list[CleaningMethod]:
        """The split's fresh method objects, in iteration order."""
        if self._methods is None:
            self._methods = self.run._fresh_methods()
        return self._methods

    def record(self, index: int) -> MethodRecord:
        """The record of method ``index``, replacing any other method's."""
        if self._record is None or self._record.index != index:
            # no reference to the old record may outlive this line: it
            # goes before the new method fits and encodes
            self._record = None
            method = self.methods()[index]
            _bind_detection_cache(method, self.dcache)
            method.fit(self.raw_train)
            self._record = MethodRecord(
                index,
                method,
                EncodedTable(method.transform(self.raw_train), self.run.labeler),
                method.transform(self.raw_test),
            )
        return self._record

    def dirty_model(self, name: str) -> TrainedModel:
        model = self._dirty_models.get(name)
        if model is None:
            model = self.run.train(self.dirty_source, name, "dirty", self.split)
            self._dirty_models[name] = model
        return model

    def clean_model(self, index: int, name: str) -> TrainedModel:
        record = self.record(index)
        model = record.models.get(name)
        if model is None:
            model = self.run.train(
                record.train, name, f"clean:{record.method.name}", self.split
            )
            record.models[name] = model
        return model

    def _encode_test(self, record: MethodRecord) -> None:
        """Fill the record's test-side fields once its first models are trained."""
        raw, clean = self.raw_test, record.train.encoder
        if record.test is raw:
            # a method that repairs nothing returns the raw test table
            # itself: one clean encoding serves both the D and C cases
            record.y, record.X_dirty = self.raw_labels, self.raw_dirty
            record.X_clean = record.X_raw = clean.transform(raw.features_table())
            return
        record.X_clean, record.y = record.train.encode(record.test)
        record.X_dirty = self.dirty_source.encoder.transform(
            record.test.features_table()
        )
        if self.with_cd:
            record.X_raw = clean.transform(raw.features_table())

    def cell(self, index: int, name: str) -> CellResult:
        """Run one (method, model) cell and return its contribution.

        Three evaluations score it: case B (the dirty model on the
        cleaned test set), case D (the clean model on it, the after
        score of both pairs) and, under CD, case C (the clean model on
        the raw test set).  Each model evaluates against its anchor
        (:meth:`TrainedModel.evaluate`): the dirty model the raw test
        set, whose rows a cleaned test set of its row count shares up to
        the repaired ones, and the clean model its cleaned test set.
        """
        record = self.record(index)
        dirty = self.dirty_model(name)
        clean = self.clean_model(index, name)
        if record.y is None:
            self._encode_test(record)
        dirty_anchor = None
        if record.test.n_rows == self.raw_test.n_rows and (
            dirty.reuses_rows or record.test is self.raw_test
        ):
            dirty_anchor = self.raw_dirty
        before = dirty.evaluate(record.X_dirty, record.y, dirty_anchor)
        after = clean.evaluate(record.X_clean, record.y, record.X_clean)
        pairs = [(Scenario.BD, MetricPair(before=before, after=after))]
        if self.with_cd:
            if record.X_raw is record.X_clean:  # the raw test set, cleaned as is
                before = after
            else:
                before = clean.evaluate(
                    record.X_raw, self.raw_labels, record.X_clean
                )
            pairs.append((Scenario.CD, MetricPair(before=before, after=after)))
        if _metrics is not None:
            _metrics.count("runner.cells")
        method = record.method
        return CellResult(
            split=self.split,
            method_index=index,
            method_name=method.name,
            detection=method.detection,
            repair=method.repair,
            model=name,
            dirty_val_score=dirty.val_score,
            clean_val_score=clean.val_score,
            pairs=tuple(pairs),
        )


def merge_cell_results(
    error_type: str,
    models: tuple[str, ...],
    split: int,
    n_methods: int,
    cells: list[CellResult],
) -> SplitResult:
    """Deterministic reassembly of split ``split`` from its cell results.

    Cells may arrive in any order (workers complete nondeterministically);
    sorting by (method index, model order) before accumulating makes the
    merge a pure function of the cell *set* and fixes the accumulator
    insertion order — method-major, then scenario, then model — so every
    granularity reduces a split to the same :class:`SplitResult`.  A
    split with no cleaning methods has no cells and reduces to an empty
    result:

    * **R1** pairs are the cells' own pairs;
    * **R2** composes each method's pair from R1 ingredients — the best
      dirty model's before-score and the best clean model's after-score
      are exactly the floats those models' R1 cells recorded;
    * **R3** selects among R2 pairs by the recorded ``clean_val_score``,
      first-strictly-better in method order.

    Best-model selection replicates ``max()``'s tie rule (the earliest
    model in ``config.models`` order wins ties).  The method-independent
    dirty validation scores are recomputed by every method's cells, so
    their agreement is asserted as a free determinism check.
    """
    order = {name: position for position, name in enumerate(models)}
    cells = sorted(cells, key=lambda c: (c.method_index, order[c.model]))
    strays = {cell.split for cell in cells} - {split}
    if strays:
        raise ValueError(
            f"cell results span multiple splits: merging split {split}, "
            f"got cells of {sorted(strays)}"
        )

    by_method: dict[int, dict[str, CellResult]] = {}
    for cell in cells:
        row = by_method.setdefault(cell.method_index, {})
        if cell.model in row:
            raise ValueError(
                f"duplicate cell for split {split}, method "
                f"{cell.method_index}, model {cell.model!r}"
            )
        row[cell.model] = cell
    if sorted(by_method) != list(range(n_methods)) or any(
        set(row) != set(models) for row in by_method.values()
    ):
        raise ValueError(
            f"split {split} is missing cells: expected {n_methods} methods "
            f"x models {models}, got "
            f"{ {index: sorted(row) for index, row in by_method.items()} }"
        )
    if not by_method:
        return SplitResult(split=split, r1={}, r2={}, r3={})

    first_row = by_method[0]
    for row in by_method.values():
        for name in models:
            if row[name].dirty_val_score != first_row[name].dirty_val_score:
                raise ValueError(
                    f"dirty validation scores diverged across methods for "
                    f"split {split}, model {name!r} — sub-unit execution "
                    "is nondeterministic"
                )

    def best_model(scores: dict[str, float]) -> str:
        best = models[0]
        for name in models[1:]:
            if scores[name] > scores[best]:
                best = name
        return best

    def pair_for(cell: CellResult, scenario) -> MetricPair:
        for recorded, pair in cell.pairs:
            if recorded is scenario or recorded == scenario:
                return pair
        raise ValueError(
            f"cell {cell.method_index}/{cell.model!r} carries no "
            f"{scenario} pair"
        )

    best_dirty = best_model(
        {name: first_row[name].dirty_val_score for name in models}
    )
    r1: dict[tuple, list[MetricPair]] = {}
    r2: dict[tuple, list[MetricPair]] = {}
    r3: dict[tuple, list[MetricPair]] = {}
    best_method_score: dict[Scenario, float] = {}
    best_method_pair: dict[Scenario, MetricPair] = {}
    for index in range(n_methods):
        row = by_method[index]
        sample = row[models[0]]
        detection, repair = sample.detection, sample.repair
        best_clean = best_model(
            {name: row[name].clean_val_score for name in models}
        )
        for scenario in scenarios_for(error_type):
            for name in models:
                key = (detection, repair, name, scenario)
                r1.setdefault(key, []).append(pair_for(row[name], scenario))
            if scenario is Scenario.BD:
                pair = MetricPair(
                    before=pair_for(row[best_dirty], scenario).before,
                    after=pair_for(row[best_clean], scenario).after,
                )
            else:
                source = pair_for(row[best_clean], scenario)
                pair = MetricPair(before=source.before, after=source.after)
            r2.setdefault((detection, repair, scenario), []).append(pair)

            score = row[best_clean].clean_val_score
            if (
                scenario not in best_method_score
                or score > best_method_score[scenario]
            ):
                best_method_score[scenario] = score
                best_method_pair[scenario] = pair

    for scenario, pair in best_method_pair.items():
        r3.setdefault((scenario,), []).append(pair)
    return SplitResult(split=split, r1=r1, r2=r2, r3=r3)


def collect_experiments(
    dataset: str,
    error_type: str,
    r1: dict[tuple, list[MetricPair]],
    r2: dict[tuple, list[MetricPair]],
    r3: dict[tuple, list[MetricPair]],
) -> list[RawExperiment]:
    """Raw experiments from filled R1/R2/R3 accumulators.

    Experiment order follows accumulator insertion order, which — when
    splits are accumulated in ascending order — is the method/model
    iteration order of split 0.
    """
    out: list[RawExperiment] = []
    for (detection, repair, model, scenario), pairs in r1.items():
        out.append(
            RawExperiment(
                level="R1",
                dataset=dataset,
                error_type=error_type,
                scenario=scenario,
                detection=detection,
                repair=repair,
                ml_model=model,
                pairs=tuple(pairs),
            )
        )
    for (detection, repair, scenario), pairs in r2.items():
        out.append(
            RawExperiment(
                level="R2",
                dataset=dataset,
                error_type=error_type,
                scenario=scenario,
                detection=detection,
                repair=repair,
                ml_model=None,
                pairs=tuple(pairs),
            )
        )
    for (scenario,), pairs in r3.items():
        out.append(
            RawExperiment(
                level="R3",
                dataset=dataset,
                error_type=error_type,
                scenario=scenario,
                detection=None,
                repair=None,
                ml_model=None,
                pairs=tuple(pairs),
            )
        )
    return out


def merge_split_results(
    dataset: str, error_type: str, results: list[SplitResult]
) -> list[RawExperiment]:
    """Deterministic, order-independent merge of one block's split results.

    Results may arrive in any order (parallel workers complete
    nondeterministically); sorting by split index before accumulation
    makes the merge a pure function of the result *set*, so the output
    is bit-identical whatever the schedule.
    """
    ordered = sorted(results, key=lambda result: result.split)
    seen = [result.split for result in ordered]
    if seen != list(range(len(ordered))):
        raise ValueError(
            f"split results for {dataset} x {error_type} are not a "
            f"contiguous 0-based range: {seen}"
        )
    r1: dict[tuple, list[MetricPair]] = {}
    r2: dict[tuple, list[MetricPair]] = {}
    r3: dict[tuple, list[MetricPair]] = {}
    for result in ordered:
        for target, source in (
            (r1, result.r1), (r2, result.r2), (r3, result.r3)
        ):
            for key, pairs in source.items():
                target.setdefault(key, []).extend(pairs)
    return collect_experiments(dataset, error_type, r1, r2, r3)
