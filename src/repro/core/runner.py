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
any cross-split state — so :meth:`ErrorTypeRun.run_split` doubles as
the task body of the parallel executor (:mod:`repro.core.executor`),
and :func:`merge_split_results` reassembles per-split results into the
exact sequential output regardless of completion order.  Within a split
the pass is a grid of (method, model) cells: a :class:`SplitWorkspace`
computes each :class:`CellResult` and :func:`merge_cell_results`
reduces them, whether the split runs as one unit or its cells are
scheduled one by one.

The same purity carries the fault-tolerance contract
(:mod:`repro.core.supervisor`): because a task body reads nothing but
its structural key and the broadcast study definition, the supervisor
may run it **any number of times** — retry after an exception, re-run
after a pool kill or worker crash, re-execute a whole split after a
cell degrades — and the surviving execution is indistinguishable from
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
* every evaluation table is encoded **once per training encoder** (the
  :class:`EncodedTable` memoizes test encodings by table identity);
* every ``(model, table)`` evaluation is scored **once** — an
  :class:`_EvalMemo` caches the metric, so CD's repeated
  ``clean_model.evaluate(clean_test)`` reuses the prediction BD already
  computed (``evaluate`` is a pure function of the fitted model and the
  table), and R2/R3 are composed from the R1 pairs without evaluating
  again (:func:`merge_cell_results`);
* hyper-parameter tuning iterates **fold-major** — each CV fold's
  ``(X_train, y_train, X_val, y_val)`` slices are materialized once per
  search (:class:`~repro.ml.cv_kernel.FoldPlanData`) and per-model
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
  them (e.g. outliers: 3 detector fits instead of 12).  The
  correctness argument mirrors the evaluation memo's: detectors are
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

import numpy as np

from ..cleaning.base import MISSING_VALUES, CleaningMethod, DetectionCache
from ..cleaning.registry import dirty_baseline, methods_for
from ..datasets.base import Dataset
from ..ml.model_selection import RandomSearch, cross_val_score, score_predictions
from ..ml.registry import MODEL_NAMES, make_model, search_space
from ..table import FeatureEncoder, LabelEncoder, Table, train_test_split
from ..table.ops import minority_class
from .schema import MetricPair, Scenario


#: scheduling granularities of the two-level executor
GRANULARITIES = ("split", "cell")


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
    to stay laptop-scale, which EXPERIMENTS.md documents.

    Configs are fully immutable and hashable: ``model_overrides`` may be
    passed as a plain dict but is frozen into sorted ``(model, params)``
    tuples on construction, so configs participate in equality and can
    key executor task tables.  ``n_jobs`` controls how many worker
    processes :meth:`~repro.core.study.CleanMLStudy.run` uses; it never
    affects results (the executor guarantees bit-identical output for
    any job count), so it is excluded from equality.
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
    #: worker processes for study execution (1 = in-process sequential)
    n_jobs: int = field(default=1, compare=False)
    #: scheduling granularity of the two-level executor — "split" (one
    #: task per split) or "cell" (one sub-unit per (method, model) cell
    #: of each split).  Like ``n_jobs`` it never affects results (every
    #: (n_jobs, granularity) pair is bit-identical), so it is excluded
    #: from equality and the checkpoint fingerprint.
    granularity: str = field(default="split", compare=False)
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
        if self.granularity not in GRANULARITIES:
            raise ValueError(
                f"granularity must be one of {GRANULARITIES}, "
                f"got {self.granularity!r}"
            )

    def fingerprint(self) -> str:
        """Stable identifier of every field that shapes per-split results.

        Checkpoint ledgers stamp this into their header so a resume
        with a different protocol is rejected instead of silently
        reusing stale tasks.  ``n_splits`` is excluded on purpose — a
        split's result depends only on its index, so extending a study
        from 8 to 20 splits legitimately reuses the first 8 — as are
        ``n_jobs`` and the statistics-pass knobs (``alpha``,
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

    The unit of work of the parallel executor: splits are independent by
    construction (every seed derives from the split index), so a study
    decomposes into one :class:`SplitResult` per split per block.  Each
    relation maps its spec key — the same tuples
    :meth:`ErrorTypeRun.accumulate` uses — to the list of
    :class:`MetricPair`s this split contributes (one per method that
    produces the key: usually a single pair, several when distinct
    methods share a (detection, repair) label):

    * ``r1`` keyed ``(detection, repair, model, scenario)``;
    * ``r2`` keyed ``(detection, repair, scenario)``;
    * ``r3`` keyed ``(scenario,)``.

    Instances are plain data (picklable) so worker processes can return
    them across the :class:`~concurrent.futures.ProcessPoolExecutor`
    boundary and checkpoints can serialize them.
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
#: (``None`` keeps the instrumented cache paths at one global load + test)
_metrics = None


class EncodedTable:
    """A training table encoded once and shared by every model on it.

    The feature encoder is a deterministic function of the training
    table, so fitting it per model (as the pre-kernel runner did) only
    repeated identical work: one ``EncodedTable`` per training table
    gives every model the same ``(X, y)`` bits the per-model fits
    produced.  Evaluation tables are likewise deterministic under a
    fitted encoder, so :meth:`encode` memoizes them by table identity —
    the entries hold strong references, which both keeps the cache
    alive for the split and guarantees ``id()`` keys cannot be reused
    by the allocator while cached.
    """

    def __init__(
        self,
        train: Table,
        labeler: LabelEncoder,
        label_cache: dict | None = None,
    ) -> None:
        self.table = train
        self.labeler = labeler
        features = train.features_table()
        self.encoder = FeatureEncoder().fit(features)
        self.X = self.encoder.transform(features)
        self.y = labeler.transform(train.labels)
        self._eval_cache: dict[int, tuple[Table, np.ndarray]] = {}
        # label encodings don't depend on the feature encoder, so
        # encoders of the same split can share one table -> y cache
        self._label_cache: dict[int, tuple[Table, np.ndarray]] = (
            label_cache if label_cache is not None else {}
        )

    def _encode_labels(self, table: Table) -> np.ndarray:
        entry = self._label_cache.get(id(table))
        if entry is None or entry[0] is not table:
            entry = (table, self.labeler.transform(table.labels))
            self._label_cache[id(table)] = entry
            if _metrics is not None:
                _metrics.count("runner.label_cache.misses")
        elif _metrics is not None:
            _metrics.count("runner.label_cache.hits")
        return entry[1]

    def encode(self, table: Table) -> tuple[np.ndarray, np.ndarray]:
        """``(X, y)`` of an evaluation table under the train-fitted encoder."""
        entry = self._eval_cache.get(id(table))
        if entry is None or entry[0] is not table:
            entry = (table, self.encoder.transform(table.features_table()))
            self._eval_cache[id(table)] = entry
            if _metrics is not None:
                _metrics.count("runner.eval_cache.misses")
        elif _metrics is not None:
            _metrics.count("runner.eval_cache.hits")
        return entry[1], self._encode_labels(table)

    def discard(self, table: Table) -> None:
        """Drop a table's cached encodings (it will not be seen again)."""
        self._eval_cache.pop(id(table), None)
        self._label_cache.pop(id(table), None)


class _EvalMemo:
    """Per-split memo of :meth:`TrainedModel.evaluate` results.

    Keyed on ``(model, table)`` identity: ``evaluate`` is a pure
    function of the fitted model and the evaluation table, so the first
    score computed for a pair is the score every later request would
    recompute — this is what lets the CD scenario's repeated
    ``clean_model.evaluate(clean_test)`` reuse the BD scenario's
    predictions.  Entries keep strong references to both objects so the
    ``id()`` keys stay valid for the memo's lifetime.
    """

    def __init__(self) -> None:
        self._entries: dict[tuple[int, int], tuple] = {}

    def evaluate(self, model: "TrainedModel", table: Table) -> float:
        key = (id(model), id(table))
        entry = self._entries.get(key)
        if entry is None or entry[0] is not model or entry[1] is not table:
            entry = (model, table, model.evaluate(table))
            self._entries[key] = entry
            if _metrics is not None:
                _metrics.count("runner.eval_memo.misses")
        elif _metrics is not None:
            _metrics.count("runner.eval_memo.hits")
        return entry[2]

    def clear(self) -> None:
        """Release all entries (and the models/tables they pin alive)."""
        if _metrics is not None:
            _metrics.gauge_max("runner.eval_memo.peak_entries", len(self._entries))
        self._entries.clear()


class TrainedModel:
    """A model fitted on one training table, with its validation score.

    Encoding is leakage-free by construction: the feature encoder is
    fitted on the training table and reused for every evaluation table.
    ``train`` may be a plain :class:`Table` (a private encoding is
    built) or an :class:`EncodedTable` shared with the other models of
    the same training table.
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
    def encoder(self) -> FeatureEncoder:
        """The feature encoder fitted on this model's training table."""
        return self._encoded.encoder

    def evaluate(self, test: Table) -> float:
        """Metric of the model on ``test`` (encoded with train statistics)."""
        X, y = self._encoded.encode(test)
        predictions = self.model.predict(X)
        return score_predictions(y, predictions, self.metric, self.positive)


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


class ErrorTypeRun:
    """One dataset x one error type: fills R1/R2/R3 accumulators."""

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
        self.dataset = dataset
        self.error_type = error_type
        self.config = config
        self._methods = methods
        self.metric = dataset.metric
        label_column = dataset.dirty.column(dataset.dirty.schema.label)
        self.labeler = LabelEncoder().fit(
            label_column.unique()
            + dataset.clean.column(dataset.clean.schema.label).unique()
        )
        if self.metric == "f1":
            self.positive = int(
                self.labeler.transform([minority_class(dataset.dirty)])[0]
            )
        else:
            self.positive = None
        # accumulators: spec key -> list of MetricPair
        self._r1: dict[tuple, list[MetricPair]] = {}
        self._r2: dict[tuple, list[MetricPair]] = {}
        self._r3: dict[tuple, list[MetricPair]] = {}

    # -- public API ----------------------------------------------------------

    def run(self) -> list[RawExperiment]:
        """Execute all splits sequentially and return the raw experiments."""
        for split in range(self.config.n_splits):
            self.accumulate(self.run_split(split))
        return self.collect()

    def run_split(self, split: int) -> SplitResult:
        """Execute one split and return its metric pairs (no mutation).

        This is the parallel executor's task body: every random draw is
        seeded by :func:`derive_seed` on ``(config.seed, dataset, ...,
        split)``, so the result is a pure function of the split index and
        identical whether splits run in-process, out of order, or in
        separate worker processes.

        The split runs every (method, model) cell through one
        :class:`SplitWorkspace` — the same cells the cell-granularity
        executor schedules one by one — and reduces them with
        :func:`merge_cell_results`, so both granularities share a single
        per-split code path.  The workspace holds one method's state at a
        time (a cell of the next method releases the previous one's), so
        peak memory is one method's footprint, not the whole split's.
        """
        workspace = SplitWorkspace(self, split)
        n_methods = len(workspace.methods())
        cells = [
            workspace.cell(index, name)
            for index in range(n_methods)
            for name in self.config.models
        ]
        # no later cell can hit the detection cache (it keys on this
        # split's tables): record its peak and release its entries
        workspace.dcache.clear()
        return merge_cell_results(
            self.error_type, self.config.models, split, n_methods, cells
        )

    def accumulate(self, result: SplitResult) -> None:
        """Merge one split's pairs into the R1/R2/R3 accumulators.

        Results must be accumulated in ascending split order so the
        pair tuples (and hence t-tests and persisted JSON) match the
        sequential run exactly; :func:`merge_split_results` sorts for
        callers that receive results out of order.
        """
        _accumulate_split(self._r1, self._r2, self._r3, result)

    def collect(self) -> list[RawExperiment]:
        """Raw experiments from everything accumulated so far."""
        return collect_experiments(
            self.dataset.name, self.error_type, self._r1, self._r2, self._r3
        )

    # -- internals ------------------------------------------------------------

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

    def _train(
        self,
        train: EncodedTable,
        model_name: str,
        role: str,
        split: int,
    ) -> TrainedModel:
        seed = derive_seed(self.config.seed, self.dataset.name, role, model_name, split)
        return TrainedModel(
            train,
            model_name,
            self.config,
            self.labeler,
            self.metric,
            self.positive,
            seed,
        )

    def _metric_pair(
        self,
        scenario: Scenario,
        dirty_model: TrainedModel,
        clean_model: TrainedModel,
        raw_test: Table,
        clean_test: Table,
        memo: _EvalMemo,
    ) -> MetricPair:
        if scenario is Scenario.BD:
            # case B vs case D: both models on the cleaned test set
            return MetricPair(
                before=memo.evaluate(dirty_model, clean_test),
                after=memo.evaluate(clean_model, clean_test),
            )
        # CD: the cleaned-train model on dirty vs cleaned test (C vs D)
        return MetricPair(
            before=memo.evaluate(clean_model, raw_test),
            after=memo.evaluate(clean_model, clean_test),
        )


# -- per-split cells (every granularity) ---------------------------------

class SplitWorkspace:
    """Per-(block, split) state shared by the cells of one split.

    Every granularity runs a split as (method, model) cells through a
    workspace: :meth:`ErrorTypeRun.run_split` walks all of a split's
    cells through one workspace, and the cell-granularity executor
    schedules them as independent tasks.  A cell needs the split's 70/30
    partition, the baseline transform, detector fits, shared encodings,
    and the dirty-side model of its model name; all of those are pure
    functions of ``(dataset, error type, config, split)``, so this
    workspace builds each lazily on first touch and shares it with every
    later cell it serves.  Cells of the same split that land on
    *different* workers simply rebuild the same state bit-for-bit —
    sharing is purely an optimization, which is what makes any scatter
    of cells across workers produce byte-identical results (pinned by
    ``tests/test_intra_split.py``).

    The split-level :class:`~repro.cleaning.base.DetectionCache` and
    evaluation memo live here with per-workspace scope: within one
    worker's batch they deduplicate exactly as a whole-split run does,
    and across workers they are rebuilt identically because detections
    and evaluations are pure.  The workspace holds one method's state at
    a time: :meth:`cell` first releases every other method it holds, so
    split units and cell units alike peak at one method's footprint.
    A cell of a released method rebuilds the identical state.

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
        dirty_train = baseline.transform(self.raw_train)
        self.memo = _EvalMemo()
        self.label_cache: dict = {}
        self.dirty_source = EncodedTable(
            dirty_train, run.labeler, label_cache=self.label_cache
        )
        self._methods: list[CleaningMethod] | None = None
        #: method index -> (fitted method, clean training source)
        self._method_data: dict[int, tuple] = {}
        #: method index -> cleaned test table
        self._clean_tests: dict[int, Table] = {}
        self._dirty_models: dict[str, TrainedModel] = {}
        self._clean_models: dict[tuple[int, str], TrainedModel] = {}

    def methods(self) -> list[CleaningMethod]:
        """The split's fresh method objects, in iteration order."""
        if self._methods is None:
            self._methods = self.run._fresh_methods()
        return self._methods

    def method_data(self, index: int) -> tuple:
        """(fitted method, clean training source) of one method."""
        data = self._method_data.get(index)
        if data is None:
            method = self.methods()[index]
            _bind_detection_cache(method, self.dcache)
            method.fit(self.raw_train)
            clean_train = method.transform(self.raw_train)
            clean_source = EncodedTable(
                clean_train, self.run.labeler, label_cache=self.label_cache
            )
            data = (method, clean_source)
            self._method_data[index] = data
        return data

    def clean_test(self, index: int) -> Table:
        """One method's cleaned test table (transform is pure; lazy)."""
        table = self._clean_tests.get(index)
        if table is None:
            method, _ = self.method_data(index)
            table = method.transform(self.raw_test)
            self._clean_tests[index] = table
        return table

    def dirty_model(self, name: str) -> TrainedModel:
        model = self._dirty_models.get(name)
        if model is None:
            model = self.run._train(self.dirty_source, name, "dirty", self.split)
            self._dirty_models[name] = model
        return model

    def clean_model(self, index: int, name: str) -> TrainedModel:
        key = (index, name)
        model = self._clean_models.get(key)
        if model is None:
            method, clean_source = self.method_data(index)
            model = self.run._train(
                clean_source, name, f"clean:{method.name}", self.split
            )
            self._clean_models[key] = model
        return model

    def cell(self, index: int, name: str) -> CellResult:
        """Run one (method, model) cell and return its contribution.

        Any other method's state is released first (see :meth:`release`).
        """
        for held in [held for held in self._method_data if held != index]:
            self.release(held)
        method, _ = self.method_data(index)
        clean_test = self.clean_test(index)
        dirty = self.dirty_model(name)
        clean = self.clean_model(index, name)
        pairs = tuple(
            (
                scenario,
                self.run._metric_pair(
                    scenario,
                    dirty_model=dirty,
                    clean_model=clean,
                    raw_test=self.raw_test,
                    clean_test=clean_test,
                    memo=self.memo,
                ),
            )
            for scenario in scenarios_for(self.run.error_type)
        )
        return CellResult(
            split=self.split,
            method_index=index,
            method_name=method.name,
            detection=method.detection,
            repair=method.repair,
            model=name,
            dirty_val_score=dirty.val_score,
            clean_val_score=clean.val_score,
            pairs=pairs,
        )

    def release(self, index: int) -> None:
        """Evict one method's state; :meth:`cell` calls it on a method switch.

        Every memo/cache key that involves the method's cleaned tables or
        clean models is per-method, so nothing evicted here can hit for
        another method; the dirty-side models, encodings, and detector
        fits that every method shares stay.  A later cell of the method
        simply rebuilds the identical state.
        """
        self._method_data.pop(index, None)
        clean_test = self._clean_tests.pop(index, None)
        for key in [key for key in self._clean_models if key[0] == index]:
            del self._clean_models[key]
        self.memo.clear()
        if clean_test is not None and isinstance(self.dirty_source, EncodedTable):
            self.dirty_source.discard(clean_test)


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
      are exactly the floats those models' R1 cells recorded (this is the
      identity the sequential runner's evaluation memo exploits);
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


def _accumulate_split(
    r1: dict[tuple, list[MetricPair]],
    r2: dict[tuple, list[MetricPair]],
    r3: dict[tuple, list[MetricPair]],
    result: SplitResult,
) -> None:
    """Extend the accumulators with one split's pairs.

    The single accumulation routine both the sequential runner and the
    parallel merge use — sharing it is what keeps their pair ordering
    (and hence the bit-identity guarantee) from silently diverging.
    """
    for target, source in ((r1, result.r1), (r2, result.r2), (r3, result.r3)):
        for key, pairs in source.items():
            target.setdefault(key, []).extend(pairs)


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
    iteration order of split 0, i.e. exactly the sequential runner's
    output order.
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
    is bit-identical to the sequential runner's.
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
        _accumulate_split(r1, r2, r3, result)
    return collect_experiments(dataset, error_type, r1, r2, r3)
