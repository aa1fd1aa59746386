"""Parallel study execution — the split-level task graph.

The paper's full grid (§IV-A) is thousands of model trainings, but its
structure is embarrassingly parallel: every random draw in a study
derives from ``derive_seed(config.seed, dataset, ..., split)``, so one
split of one (dataset, error-type) block is a pure function of its task
key.  This module decomposes a study into those tasks, executes them
across a :class:`~concurrent.futures.ProcessPoolExecutor`, and merges
the per-task :class:`~repro.core.runner.SplitResult`s deterministically.

Determinism guarantee
---------------------
``n_jobs=k`` produces **bit-identical** :class:`RawExperiment`s (and
hence identical flags, database rows, and persisted JSON) for every
``k``:

* each task re-derives the same seeds the sequential runner would use —
  the split index, not the execution order, enters ``derive_seed``;
* the dirty-side models of a split are trained once *within* its task
  and shared across cleaning methods, exactly as the sequential runner
  shares them;
* the merge sorts results by split index and is keyed by spec tuple, so
  worker completion order never reaches the output.

Datasets travel once: the pool initializer broadcasts each pending
block's ``Dataset`` (plus methods and config) to every worker when the
pool starts, and per-task submissions carry only the small
``(dataset, error type, split)`` key — ``n_splits``-fold re-pickling of
the same tables is gone.

Two-level scheduling
--------------------
A split is a grid of (cleaning method, model) cells, computed through a
:class:`~repro.core.runner.SplitWorkspace` and reduced by
:func:`~repro.core.runner.merge_cell_results`.  At
``granularity="split"`` one task runs a whole split's cells in order
(:meth:`~repro.core.runner.ErrorTypeRun.run_split`); when a study has
fewer splits than the machine has cores, ``granularity="cell"``
schedules every cell as its own sub-unit on the same pool.  Dispatch is
split-affine (:func:`~repro.core.supervisor.next_unit_index`): a worker
that finishes a cell takes the next cell of the same split, else the
first split no worker holds, and only when none is left steals from the
back of the split with the most queued cells.  Each worker shares
per-split state — detector fits, encodings, dirty-side models — through
its workspace, and a stolen cell rebuilds the state it is missing
bit-identically, because every piece is a pure function of the task
key.  The reducer sorts cells by (method, model) before accumulating,
so the contract above extends to every ``(n_jobs, granularity)`` pair:
byte-identical experiments, flags, and persisted JSON.

Checkpointing
-------------
Pass ``checkpoint=<path>`` to record every completed task to a JSONL
file (:mod:`repro.core.persistence`).  A rerun with the same path skips
completed task keys and resumes with the remaining splits; resumed
studies are bit-identical to uninterrupted ones because checkpointed
floats round-trip exactly through JSON.  Sub-split runs additionally
record every completed cell, so a crash mid-split resumes from the
cells already banked rather than re-running the whole split.

Fault tolerance
---------------
Every drain loop runs through the :class:`~repro.core.supervisor.
Supervisor`: per-unit wall-clock deadlines, deterministic
capped-exponential-backoff retries, ``BrokenProcessPool`` resurrection
(rebuild the pool, re-run the block broadcast, resubmit only in-flight
keys), and a granularity fallback chain — a repeatedly failing cell
degrades to its whole split, and a split that still fails is either
raised (:class:`~repro.core.supervisor.StudyExecutionError`, the
default) or — with ``SupervisorConfig(quarantine=True)`` — recorded as
a format-4 ``failed`` ledger entry and reported through the run's
:class:`~repro.core.supervisor.FailureManifest` while the rest of the
study completes.  Retries and recovery never perturb results: backoff
jitter derives from structural keys via ``derive_seed``, and a chaos
run (:mod:`repro.core.faults`) that retried its way to completion is
byte-identical to a fault-free run.
"""

from __future__ import annotations

import traceback
from contextlib import contextmanager
from dataclasses import dataclass, replace as dataclass_replace

from ..cleaning.base import CleaningMethod
from ..cleaning.registry import methods_for
from ..datasets.base import Dataset
from ..table.store import (
    StoreCorruptionError,
    load_columnar,
    recover_store,
    table_store_path,
)
from .runner import (
    GRANULARITIES,
    CellResult,
    ErrorTypeRun,
    RawExperiment,
    SplitResult,
    SplitWorkspace,
    StudyConfig,
    merge_cell_results,
    merge_split_results,
)
from . import faults, observability
from .supervisor import (
    FailureManifest,
    StudyExecutionError,
    Supervisor,
    SupervisorConfig,
    UnitExecutionError,
    UnitFailure,
)

#: (dataset name, error type, split index) — the executor's unit of work
TaskKey = tuple[str, str, int]

#: (dataset name, error type, split, method index, model) — one cell
#: sub-unit of a split task at cell granularity
CellKey = tuple[str, str, int, int, str]


@dataclass(frozen=True)
class StudyBlock:
    """One queued (dataset, error type) block of a study."""

    dataset: Dataset
    error_type: str
    methods: tuple[CleaningMethod, ...] | None = None


@dataclass(frozen=True)
class SplitTask:
    """One executable node of the task graph: one split of one block.

    Carries everything needed to execute in isolation, so
    :func:`execute_task` never depends on parent-process state.  The
    pool path no longer pickles these to workers whole: each block's
    dataset is broadcast once per worker through the pool initializer
    (:func:`_register_blocks`) and only the small :data:`TaskKey`
    crosses the process boundary per task.
    """

    dataset: Dataset
    error_type: str
    config: StudyConfig
    methods: tuple[CleaningMethod, ...] | None
    split: int

    @property
    def key(self) -> TaskKey:
        return (self.dataset.name, self.error_type, self.split)


def build_task_graph(
    blocks: list[StudyBlock], config: StudyConfig
) -> list[SplitTask]:
    """Decompose queued blocks into one task per split per block."""
    keys = [(block.dataset.name, block.error_type) for block in blocks]
    if len(set(keys)) != len(keys):
        raise ValueError(
            "duplicate (dataset, error type) blocks cannot share a task "
            f"graph: {keys}"
        )
    return [
        SplitTask(
            dataset=block.dataset,
            error_type=block.error_type,
            config=config,
            methods=block.methods,
            split=split,
        )
        for block in blocks
        for split in range(config.n_splits)
    ]


def _scalar_attrs(obj, depth: int = 2, prefix: str = "") -> list[str]:
    """Scalar instance attributes of ``obj``, recursing two levels.

    Two levels of recursion reach the stage objects composed cleaning
    methods delegate to — ``method.detector`` / ``method.repair_step``
    and the threshold detector an outlier stage wraps (whose
    ``random_state`` shapes results); deeper nesting and non-scalar
    values are skipped because their reprs are not stable across
    processes.

    The detector/repair decomposition (PR 3) changed the attribute
    layout of every composed method, so explicit-method ledgers written
    before it no longer fingerprint-match and are refused on resume —
    the conservative failure mode by design (registry-based blocks use
    the ``<registry>`` marker and resume fine).
    """
    parts: list[str] = []
    for name, value in sorted(vars(obj).items()):
        if value is None or isinstance(value, (bool, int, float, str, tuple)):
            parts.append(f"{prefix}{name}={value!r}")
        elif depth > 0 and hasattr(value, "__dict__"):
            parts.extend(_scalar_attrs(value, depth - 1, f"{prefix}{name}."))
    return parts


def _method_signature(method: CleaningMethod) -> str:
    """Identifier of one cleaning method, including scalar parameters.

    Captures the constructor-level knobs that change results (detector
    thresholds, random states, strategies) so a checkpoint resume with
    reconfigured methods is refused, not silently merged.
    """
    return f"{type(method).__name__}:{method.name}({','.join(_scalar_attrs(method))})"


def _block_signature(block: StudyBlock) -> str:
    """Identifier of a block's dataset shape and cleaning-method list.

    The dirty table's row/column counts catch the most common dataset
    drift between resumed runs — re-generating with a different
    ``n_rows`` — which dataset *names* alone cannot see.
    """
    dirty = block.dataset.dirty
    shape = f"{dirty.n_rows}x{len(dirty.schema.names)}"
    if block.methods is None:
        methods = "<registry>"
    else:
        methods = ",".join(_method_signature(method) for method in block.methods)
    return f"{block.dataset.name}[{shape}]:{block.error_type}={methods}"


def study_fingerprint(blocks: list[StudyBlock], config: StudyConfig) -> str:
    """Stable identifier of everything that shapes a study's task results.

    Combines :meth:`StudyConfig.fingerprint` with each block's dataset
    shape and explicit cleaning-method list (or a registry marker), so
    a checkpoint ledger refuses resumes whose protocol, datasets, or
    methods drifted.  One ledger therefore serves one study definition;
    shard different studies into different ledgers and combine them
    with :func:`~repro.core.persistence.merge_checkpoints`.
    """
    parts = [config.fingerprint()]
    for block in sorted(blocks, key=lambda b: (b.dataset.name, b.error_type)):
        parts.append(_block_signature(block))
    return "||".join(parts)


def execute_task(task: SplitTask) -> tuple[TaskKey, SplitResult]:
    """Run one self-contained task (no worker registry required).

    The runner deep-copies explicit method lists per split, so a task
    always fits pristine method objects — in-process and worker-process
    execution are indistinguishable.
    """
    run = ErrorTypeRun(
        task.dataset,
        task.error_type,
        task.config,
        methods=list(task.methods) if task.methods is not None else None,
    )
    return task.key, run.run_split(task.split)


# -- worker-side block registry -------------------------------------------
#
# Shipping a block's Dataset inside every per-split task re-pickled the
# same tables n_splits times.  Instead the pool initializer broadcasts
# each pending block (dataset, methods, config) to every worker exactly
# once; per-task submissions then carry only the TaskKey.  ErrorTypeRuns
# are built lazily per block per worker, so per-block setup (label
# encoding, minority-class scan) is paid once per worker, mirroring the
# sequential path's one-run-per-block structure.

#: block key -> (dataset, methods) broadcast by :func:`_register_blocks`
_WORKER_BLOCKS: dict[tuple[str, str], tuple[Dataset, tuple | None]] = {}
#: lazily built ErrorTypeRun per registered block
_WORKER_RUNS: dict[tuple[str, str], ErrorTypeRun] = {}
#: lazily built SplitWorkspace per (block, split) a worker has touched,
#: least recently used first; bounded to the most recent few so sub-unit
#: batches of one split share state while a long study cannot pin every
#: split's tables at once
_WORKER_WORKSPACES: dict[tuple[str, str, int], SplitWorkspace] = {}
_WORKER_WORKSPACE_CAP = 2
_WORKER_CONFIG: StudyConfig | None = None


def _register_blocks(
    payload: list[tuple[Dataset, str, tuple | None]], config: StudyConfig
) -> None:
    """Pool initializer: receive each block's dataset once per worker."""
    global _WORKER_CONFIG
    _WORKER_BLOCKS.clear()
    _WORKER_RUNS.clear()
    _WORKER_WORKSPACES.clear()
    _WORKER_CONFIG = config
    for dataset, error_type, methods in payload:
        _WORKER_BLOCKS[(dataset.name, error_type)] = (dataset, methods)


def _worker_run(block_key: tuple[str, str]) -> ErrorTypeRun:
    """One lazily built ErrorTypeRun per registered block per worker."""
    run = _WORKER_RUNS.get(block_key)
    if run is None:
        dataset, methods = _WORKER_BLOCKS[block_key]
        run = ErrorTypeRun(
            dataset,
            block_key[1],
            _WORKER_CONFIG,
            methods=list(methods) if methods is not None else None,
        )
        _WORKER_RUNS[block_key] = run
    return run


@contextmanager
def _unit_errors(kind: str, key: tuple):
    """Attach the unit's structural key to any task-body failure.

    A bare exception surfacing through the pool names neither the
    dataset nor the split that raised it; this wrapper re-raises as
    :class:`~repro.core.supervisor.UnitExecutionError` carrying the
    (dataset, error type, split[, method index, model]) identity plus the
    original traceback text (tracebacks themselves do not pickle).
    Injected chaos faults pass through untouched — they already carry
    their key — as do interrupts.
    """
    try:
        yield
    except (KeyboardInterrupt, SystemExit):
        raise
    except (UnitExecutionError, faults.InjectedFault, StoreCorruptionError):
        # StoreCorruptionError crosses the pool boundary unwrapped so
        # the supervisor-side recovery ladder can read its .store path
        raise
    except Exception as error:
        raise UnitExecutionError(
            kind,
            tuple(key),
            f"{type(error).__name__}: {error}",
            traceback.format_exc(),
        ) from None


def _execute_registered(key: TaskKey) -> tuple[TaskKey, SplitResult]:
    """Worker entry point: run one split of a broadcast block."""
    with _unit_errors("split", key):
        return key, _worker_run((key[0], key[1])).run_split(key[2])


def _worker_workspace(key: TaskKey) -> SplitWorkspace:
    """The worker's shared workspace for one split (built on first touch).

    Sub-units of the same split that land on this worker share detector
    fits, encodings, and trained models through it; units that land
    elsewhere rebuild the identical state (everything in a workspace is
    a pure function of the task key), so the cache affects time, never
    bits.  The registry is least-recently-used: every touch moves the
    split to the back, and a full registry evicts from the front.
    """
    workspace = _WORKER_WORKSPACES.pop(key, None)
    if workspace is None:
        while len(_WORKER_WORKSPACES) >= _WORKER_WORKSPACE_CAP:
            _WORKER_WORKSPACES.pop(next(iter(_WORKER_WORKSPACES)))
        workspace = SplitWorkspace(_worker_run((key[0], key[1])), key[2])
        collector = observability.metrics()
        if collector is not None:
            collector.count("executor.workspace_builds")
    _WORKER_WORKSPACES[key] = workspace
    return workspace


def _execute_cell(
    key: TaskKey, method_index: int, model: str
) -> tuple[TaskKey, CellResult]:
    """Worker entry point: run one (method, model) cell of a split."""
    with _unit_errors("cell", key + (method_index, model)):
        return key, _worker_workspace(key).cell(method_index, model)


def block_method_names(block: StudyBlock, config: StudyConfig) -> list[str]:
    """The block's cleaning-method names, in split iteration order.

    The parent process needs them to enumerate cell sub-units; method
    construction is cheap (no fitting) and deterministic, so this
    matches the fresh method lists every split builds.
    """
    if block.methods is not None:
        return [method.name for method in block.methods]
    return [
        method.name
        for method in methods_for(
            block.error_type,
            include_advanced=config.include_advanced_cleaning,
            random_state=config.seed,
        )
    ]


def execute_study(
    blocks: list[StudyBlock],
    config: StudyConfig,
    n_jobs: int | None = None,
    checkpoint=None,
    progress=None,
    granularity: str | None = None,
    supervisor: SupervisorConfig | None = None,
    manifest: FailureManifest | None = None,
) -> list[RawExperiment]:
    """Execute a study's task graph and return merged raw experiments.

    Parameters
    ----------
    blocks:
        The study's queued (dataset, error type) blocks.
    config:
        Study protocol knobs; ``config.n_jobs`` is the default degree of
        parallelism and ``config.granularity`` the default scheduling
        granularity.
    n_jobs:
        Worker processes; overrides ``config.n_jobs`` when given.  Any
        value yields bit-identical results (see module docstring).
    checkpoint:
        Optional path of a JSONL task checkpoint.  Completed task keys
        found there are skipped; every newly completed task is appended.
        At sub-split granularity every completed *cell* is appended too,
        so a crash mid-split loses at most the sub-units in flight.
    progress:
        Optional ``(dataset_name, error_type)`` callback invoked once
        per block as its tasks start; blocks fully satisfied by the
        checkpoint are skipped.
    granularity:
        ``"split"`` (one task per split — the default) or ``"cell"``
        (one sub-unit per (method, model) cell of each split).
        Overrides ``config.granularity`` when given.  Cell granularity
        keeps the whole pool busy when ``n_splits`` is smaller than the
        worker count; every ``(n_jobs, granularity)`` pair produces
        byte-identical results because cell seeds derive from
        structural keys and the cell reducer sorts by (split, method,
        model) before accumulating.
    supervisor:
        Fault-tolerance knobs (:class:`SupervisorConfig`); the default
        retries each failing unit twice with deterministic backoff and
        raises :class:`StudyExecutionError` when retries are exhausted.
        With ``quarantine=True`` exhausted units are recorded as
        format-4 ``failed`` ledger entries instead and their blocks
        dropped from the merged experiments.
    manifest:
        Optional :class:`FailureManifest` to fill with quarantined
        units, dropped blocks, and recovery counters; a fresh one is
        used (and discarded) when omitted.
    """
    from .persistence import (
        append_cell_checkpoint,
        append_checkpoint,
        append_failed_checkpoint,
        load_checkpoint_state,
    )

    jobs = config.n_jobs if n_jobs is None else n_jobs
    if jobs < 1:
        raise ValueError(f"n_jobs must be >= 1, got {jobs}")
    level = config.granularity if granularity is None else granularity
    if level not in GRANULARITIES:
        raise ValueError(
            f"granularity must be one of {GRANULARITIES}, got {level!r}"
        )

    tasks = build_task_graph(blocks, config)
    fingerprint = study_fingerprint(blocks, config)
    done: dict[TaskKey, SplitResult] = {}
    cells_done: dict[CellKey, CellResult] = {}
    if checkpoint is not None:
        done, cells_done, _ = load_checkpoint_state(
            checkpoint, fingerprint=fingerprint
        )

    pending = [task for task in tasks if task.key not in done]
    by_block: dict[tuple[str, str], list[SplitTask]] = {}
    for task in pending:
        by_block.setdefault((task.dataset.name, task.error_type), []).append(task)

    def announce(block: StudyBlock) -> bool:
        """Fire progress for a block with work; skip fully resumed ones."""
        block_tasks = by_block.get((block.dataset.name, block.error_type))
        if not block_tasks:
            return False
        if progress is not None:
            progress(block.dataset.name, block.error_type)
        return True

    def record(key: TaskKey, result: SplitResult) -> None:
        done[key] = result
        if checkpoint is not None:
            append_checkpoint(checkpoint, key, result, fingerprint=fingerprint)

    def record_cell(key: TaskKey, cell: CellResult) -> None:
        cells_done[key + (cell.method_index, cell.model)] = cell
        if checkpoint is not None:
            append_cell_checkpoint(checkpoint, key, cell, fingerprint=fingerprint)

    sup_config = supervisor if supervisor is not None else SupervisorConfig()
    if manifest is None:
        manifest = FailureManifest()
    quarantined: set[TaskKey] = set()

    def quarantine_split(task_key: TaskKey, failure: UnitFailure) -> None:
        """Terminal failure of one split: quarantine it or abort."""
        if not sup_config.quarantine:
            raise StudyExecutionError(failure)
        manifest.failures.append(failure)
        manifest.count("quarantined")
        quarantined.add(task_key)
        if checkpoint is not None:
            append_failed_checkpoint(checkpoint, failure, fingerprint=fingerprint)

    # The chaos plan (if any) must also be active in the parent: torn
    # ledger appends happen here, and so do in-process units at jobs=1.
    if sup_config.fault_plan is not None:
        faults.install_plan(sup_config.fault_plan)
    try:
        if level == "split":
            effective_jobs = 1 if (jobs == 1 or len(pending) <= 1) else jobs
            _run_splits_supervised(
                blocks, config, by_block, announce, record,
                effective_jobs, sup_config, manifest, quarantine_split,
            )
        else:
            _run_sub_split(
                blocks, config, by_block, announce, record, record_cell,
                cells_done, jobs, sup_config, manifest, quarantine_split,
            )
    except KeyboardInterrupt:
        # The supervisor's context manager has already cancelled pending
        # futures and torn the pool down; ledger appends are
        # write-through (each append opens, writes, and closes the
        # file), so everything recorded is durable.  Tell the user how
        # to pick the run back up.
        if checkpoint is not None:
            observability.diagnostic(
                f"\ninterrupted — completed units are banked in {checkpoint}; "
                f"re-run the same command with --checkpoint {checkpoint} "
                "to resume"
            )
        raise
    finally:
        if sup_config.fault_plan is not None:
            faults.clear_plan()

    experiments: list[RawExperiment] = []
    for block in blocks:
        block_key = (block.dataset.name, block.error_type)
        keys = [block_key + (split,) for split in range(config.n_splits)]
        if any(key in quarantined for key in keys):
            manifest.dropped_blocks.append(block_key)
            continue
        results = [done[key] for key in keys]
        experiments.extend(
            merge_split_results(block.dataset.name, block.error_type, results)
        )
    return experiments


def _broadcast_payload(blocks, by_block) -> list[tuple]:
    """What the pool initializer ships: every block with pending work."""
    return [
        (block.dataset, block.error_type, block.methods)
        for block in blocks
        if by_block.get((block.dataset.name, block.error_type))
    ]


def _clear_worker_state() -> None:
    """Reset the worker registry (used after in-process supervision)."""
    global _WORKER_CONFIG
    _WORKER_BLOCKS.clear()
    _WORKER_RUNS.clear()
    _WORKER_WORKSPACES.clear()
    _WORKER_CONFIG = None


def _refresh_dataset(dataset: Dataset) -> Dataset:
    """Re-open ``dataset``'s file-backed tables after a store rebuild.

    Every file-backed table is reloaded so the new generation's maps
    (fresh manifest mtime) replace any stale cells.  A table whose own
    store is *also* corrupt is left as-is — its units will fail and
    route through their own recovery.
    """

    def refresh(table):
        store_dir = table_store_path(table)
        if store_dir is None:
            return table
        try:
            return load_columnar(store_dir)
        except (OSError, StoreCorruptionError):
            return table

    dirty = refresh(dataset.dirty)
    clean = refresh(dataset.clean)
    if dirty is dataset.dirty and clean is dataset.clean:
        return dataset
    return dataclass_replace(dataset, dirty=dirty, clean=clean)


def _make_store_recovery(sup, jobs, blocks, by_block, config, manifest):
    """The supervisor recovery hook for :class:`StoreCorruptionError`.

    Runs in the parent between drain events.  Diagnoses the corrupt
    store and rebuilds it under a new generation, then re-broadcasts a
    payload built from refreshed datasets so retried units map the
    healed generation instead of the corrupt bytes.  A store that
    cannot be rebuilt yet (no source, or the rebuild failed) leaves the
    unit to the ordinary retry path, which runs this hook again; a unit
    that exhausts its retries is quarantined.
    """
    current: dict[tuple[str, str], Dataset] = {}

    def recover(unit, error) -> None:
        store_dir = getattr(error, "store", None)
        if not store_dir:
            return
        action = recover_store(store_dir)
        if action == "clean":
            # a sibling unit's recovery already healed this generation;
            # the plain retry will re-open the fresh maps
            return
        if action == "unrecoverable":
            manifest.count("store_unrecoverable")
            return
        manifest.count("store_rebuilds")
        payload = []
        for block in blocks:
            block_key = (block.dataset.name, block.error_type)
            if not by_block.get(block_key):
                continue
            base = current.get(block_key, block.dataset)
            refreshed = _refresh_dataset(base)
            current[block_key] = refreshed
            payload.append((refreshed, block.error_type, block.methods))
        if jobs == 1:
            _register_blocks(payload, config)
        else:
            sup.rebroadcast(payload)

    return recover


@contextmanager
def _supervised(jobs, blocks, by_block, config, sup_config, manifest):
    """A :class:`Supervisor` over the pending blocks' broadcast payload.

    At ``jobs == 1`` the supervisor runs units inline in the parent, so
    the block registry is installed here (and cleared afterwards) the
    way the pool initializer installs it in workers — one lazily built
    ``ErrorTypeRun`` per block, exactly the sequential path's
    one-run-per-block structure.  Either way the storage-integrity
    recovery hook is armed: corrupt-store failures heal the store and
    refresh the broadcast before the unit retries.
    """
    payload = _broadcast_payload(blocks, by_block)
    if jobs == 1:
        _register_blocks(payload, config)
    try:
        with Supervisor(jobs, payload, config, sup_config, manifest) as sup:
            sup.set_recovery(
                _make_store_recovery(sup, jobs, blocks, by_block, config, manifest)
            )
            yield sup
    finally:
        if jobs == 1:
            _clear_worker_state()


def _run_splits_supervised(
    blocks, config, by_block, announce, record, jobs, sup_config, manifest,
    quarantine_split,
) -> None:
    """Split-level path: one supervised unit per pending split.

    With ``jobs > 1`` blocks are broadcast once through the pool
    initializer and only task keys cross the process boundary; with
    ``jobs == 1`` the same units run inline.  Either way the supervisor
    owns retries/timeouts/resurrection, and a split that exhausts its
    retries is quarantined or aborts the study via
    ``quarantine_split``.  Results are checkpointed in completion order
    so an interrupt loses at most the units in flight.
    """
    with _supervised(jobs, blocks, by_block, config, sup_config, manifest) as sup:
        for block in blocks:
            if not announce(block):
                continue
            block_tasks = by_block[(block.dataset.name, block.error_type)]
            for task in sorted(block_tasks, key=lambda t: t.split):
                sup.submit("split", task.key, _execute_registered, (task.key,))
        for status, unit, outcome in sup.drain():
            if status == "ok":
                record(*outcome)
            else:
                quarantine_split(unit.key, outcome)


def _run_sub_split(
    blocks,
    config,
    by_block,
    announce,
    record,
    record_cell,
    cells_done,
    jobs,
    sup_config,
    manifest,
    quarantine_split,
) -> None:
    """Two-level path: decompose splits into (method, model) cell units.

    Cells are dispatched across the supervised pool with split affinity
    (see the module docstring), then each split is reassembled by
    :func:`~repro.core.runner.merge_cell_results`, which sorts by
    (method, model) so completion order never reaches the output; the
    split-level merge then sorts by split exactly as before.
    At ``jobs == 1`` the same units run inline through the supervisor.

    Failure degradation runs up the hierarchy: a cell that exhausts its
    retries degrades its whole split to one split-level unit (its queued
    sibling cells are discarded; completed siblings stay banked in the
    ledger).  Only a split-level unit that still fails reaches
    ``quarantine_split``.
    """
    n_methods: dict[tuple[str, str], int] = {
        (block.dataset.name, block.error_type): len(
            block_method_names(block, config)
        )
        for block in blocks
    }

    # enumerate pending cells per split; splits whose cells are already
    # all in the ledger (or that have no cells at all) reduce immediately
    pending_cells: dict[TaskKey, list[tuple[int, str]]] = {}
    collected: dict[TaskKey, dict[tuple[int, str], CellResult]] = {}

    def finish_split(key: TaskKey) -> None:
        record(
            key,
            merge_cell_results(
                key[1],
                config.models,
                key[2],
                n_methods[key[:2]],
                list(collected[key].values()),
            ),
        )

    for block in blocks:
        for task in by_block.get(
            (block.dataset.name, block.error_type), []
        ):
            specs = [
                (index, model)
                for index in range(n_methods[task.key[:2]])
                for model in config.models
            ]
            have = {
                spec: cells_done[task.key + spec]
                for spec in specs
                if task.key + spec in cells_done
            }
            collected[task.key] = have
            remaining = [spec for spec in specs if spec not in have]
            if remaining:
                pending_cells[task.key] = remaining

    for block in blocks:
        announce(block)

    for key in list(collected):
        if key not in pending_cells:
            finish_split(key)

    with _supervised(jobs, blocks, by_block, config, sup_config, manifest) as sup:
        cell_total: dict[TaskKey, int] = {}
        for key, specs in pending_cells.items():
            cell_total[key] = len(collected[key]) + len(specs)
            for index, model in specs:
                sup.submit(
                    "cell", key + (index, model), _execute_cell, (key, index, model)
                )

        # record in completion order; reduce each split the moment its
        # last cell lands
        degraded: set[TaskKey] = set()
        for status, unit, outcome in sup.drain():
            if status == "ok":
                if unit.kind == "cell":
                    key, cell = outcome
                    record_cell(key, cell)
                    collected[key][(cell.method_index, cell.model)] = cell
                    if (
                        key not in degraded
                        and len(collected[key]) == cell_total[key]
                    ):
                        finish_split(key)
                else:
                    record(*outcome)
            elif unit.kind == "cell":
                task_key = unit.key[:3]
                if task_key in degraded:
                    continue  # sibling of an already-degraded split
                if sup_config.degrade:
                    degraded.add(task_key)
                    manifest.count("degraded_cells")
                    sup.discard(
                        lambda u, tk=task_key: u.kind == "cell"
                        and u.key[:3] == tk
                    )
                    sup.submit(
                        "split", task_key, _execute_registered, (task_key,)
                    )
                else:
                    quarantine_split(task_key, outcome)
            else:
                quarantine_split(unit.key[:3], outcome)
