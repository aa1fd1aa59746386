"""Parallel study execution — every split as a grid of cell units.

The paper's full grid (§IV-A) is thousands of model trainings, but its
structure is embarrassingly parallel: every random draw in a study
derives from ``derive_seed(config.seed, dataset, ..., split)``, so one
split of one (dataset, error-type) block — and each of its (cleaning
method, model) cells — is a pure function of its key.  This module
schedules those cells across a
:class:`~concurrent.futures.ProcessPoolExecutor` and merges them
deterministically.

Determinism guarantee
---------------------
``n_jobs=k`` produces **bit-identical** :class:`RawExperiment`s (and
hence identical flags, database rows, and persisted JSON) for every
``k`` and either granularity:

* each cell re-derives the same seeds whichever unit runs it — the
  split index, not the execution order, enters ``derive_seed``;
* the state cells share (detector fits, encodings, dirty-side models)
  is a pure function of the split's key, so a cell computed on a
  rebuilt workspace equals one computed on a shared workspace;
* :func:`~repro.core.runner.merge_cell_results` sorts a split's cells
  by (method, model) and :func:`~repro.core.runner.merge_split_results`
  sorts splits by index, so worker completion order never reaches the
  output.

Datasets travel once: the pool initializer broadcasts each pending
block's ``Dataset`` (plus methods and config) to every worker when the
pool starts, and per-unit submissions carry only the small
``(dataset, error type, split)`` key and the cells to run.

Units
-----
Every unit is one split plus a tuple of its missing (method index,
model) cells, run by one worker entry (:func:`_execute_unit`) that
returns the cells.  At ``granularity="split"`` a ``"split"`` unit
carries every cell its split lacks and runs them in method order on a
workspace of its own; when a study has fewer splits than the machine
has cores, ``granularity="cell"`` makes every cell a ``"cell"`` unit of
its own.  Dispatch is split-affine
(:func:`~repro.core.supervisor.next_unit_index`): a worker that
finishes a cell takes the next cell of the same split, else the first
split no worker holds, and only when none is left steals from the back
of the split with the most queued cells.  One drain loop collects the
cells per split and reduces a split with ``merge_cell_results`` once
its last cell lands.

Checkpointing
-------------
Pass ``checkpoint=<path>`` to record every completed split to a JSONL
file (:mod:`repro.core.persistence`); the cells of ``"cell"`` units are
banked there too as they land.  A rerun with the same path skips the
recorded splits and, at either granularity, runs only the cells the
ledger lacks; resumed studies are bit-identical to uninterrupted ones
because checkpointed floats round-trip exactly through JSON.

Fault tolerance
---------------
Every unit runs through the :class:`~repro.core.supervisor.Supervisor`:
per-unit wall-clock deadlines, deterministic capped-exponential-backoff
retries, and ``BrokenProcessPool`` resurrection (rebuild the pool,
re-run the block broadcast, resubmit only in-flight keys).  A cell that
exhausts its retries degrades: its split's queued cells are discarded
and one ``"split"`` unit runs the cells the split still lacks.  A
``"split"`` unit that exhausts its retries is either raised
(:class:`~repro.core.supervisor.StudyExecutionError`, the default) or —
with ``SupervisorConfig(quarantine=True)`` — recorded as a format-4
``failed`` ledger entry and reported through the run's
:class:`~repro.core.supervisor.FailureManifest` while the rest of the
study completes.  Retries and recovery never perturb results: backoff
jitter derives from structural keys via ``derive_seed``, and a chaos
run (:mod:`repro.core.faults`) that retried its way to completion is
byte-identical to a fault-free run.
"""

from __future__ import annotations

import traceback
from contextlib import contextmanager
from dataclasses import dataclass

from ..cleaning.base import CleaningMethod
from ..cleaning.registry import methods_for
from ..datasets.base import Dataset
from .runner import (
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

#: scheduling granularities: one unit per split, or one per cell
GRANULARITIES = ("split", "cell")

#: (dataset name, error type, split index) — one split, the key of a
#: ``"split"`` unit and of a split's ledger entry
TaskKey = tuple[str, str, int]

#: (dataset name, error type, split, method index, model) — one cell,
#: the key of a ``"cell"`` unit and of a banked cell
CellKey = tuple[str, str, int, int, str]


@dataclass(frozen=True)
class StudyBlock:
    """One queued (dataset, error type) block of a study."""

    dataset: Dataset
    error_type: str
    methods: tuple[CleaningMethod, ...] | None = None


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


# -- worker-side block registry -------------------------------------------
#
# Shipping a block's Dataset inside every unit would re-pickle the same
# tables once per unit.  Instead the pool initializer broadcasts each
# pending block (dataset, methods, config) to every worker exactly once;
# unit submissions then carry only the TaskKey and cells.  ErrorTypeRuns
# are built lazily per block per worker, so per-block setup (label
# encoding, minority-class scan) is paid once per worker.

#: block key -> (dataset, methods) broadcast by :func:`_register_blocks`
_WORKER_BLOCKS: dict[tuple[str, str], tuple[Dataset, tuple | None]] = {}
#: lazily built ErrorTypeRun per registered block
_WORKER_RUNS: dict[tuple[str, str], ErrorTypeRun] = {}
#: lazily built SplitWorkspace per (block, split) a worker's cell units
#: have touched, least recently used first; bounded to the most recent
#: few so the cells of one split share state while a long study cannot
#: pin every split's tables at once
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
    except (UnitExecutionError, faults.InjectedFault):
        raise
    except Exception as error:
        raise UnitExecutionError(
            kind,
            tuple(key),
            f"{type(error).__name__}: {error}",
            traceback.format_exc(),
        ) from None


def _worker_workspace(key: TaskKey) -> SplitWorkspace:
    """The worker's shared workspace for one split (built on first touch).

    Cell units of the same split that land on this worker share
    detector fits, encodings, and dirty-side models through it; units
    that land elsewhere rebuild the identical state (everything in a
    workspace is a pure function of the task key), so the cache affects
    time, never bits.  The registry is least-recently-used: every touch
    moves the split to the back, and a full registry evicts from the
    front.  Each workspace holds one cleaning method's record at a time
    (a cell of another method replaces it), so a worker holds at most
    ``_WORKER_WORKSPACE_CAP`` splits' shared state plus one method each.
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


def _execute_unit(
    kind: str, key: TaskKey, cells: tuple[tuple[int, str], ...]
) -> tuple[TaskKey, list[CellResult]]:
    """Worker entry point: run the listed (method index, model) cells of a split.

    A ``"cell"`` unit lists one cell and runs it on the worker's
    registry workspace (:func:`_worker_workspace`), which the split's
    other cells on this worker share.  A ``"split"`` unit lists every
    cell its split lacks and runs them in method order on a workspace of
    its own — the registry's, taken out, if this worker holds the split
    — which goes when the unit ends, so a worker running split units
    holds one split's state at a time.
    """
    with _unit_errors(kind, key + cells[0] if kind == "cell" else key):
        if kind == "cell":
            workspace = _worker_workspace(key)
        else:
            workspace = _WORKER_WORKSPACES.pop(key, None) or SplitWorkspace(
                _worker_run((key[0], key[1])), key[2]
            )
        results = [workspace.cell(index, model) for index, model in cells]
        if kind == "split":
            # no later unit can hit the detection cache (it keys on this
            # split's tables): record its peak and release its entries
            workspace.dcache.clear()
        return key, results


def block_method_names(block: StudyBlock, config: StudyConfig) -> list[str]:
    """The block's cleaning-method names, in split iteration order.

    The parent process needs them to enumerate a split's cells; method
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
    n_jobs: int = 1,
    checkpoint=None,
    progress=None,
    granularity: str = "split",
    supervisor: SupervisorConfig | None = None,
    manifest: FailureManifest | None = None,
) -> list[RawExperiment]:
    """Execute a study's units and return merged raw experiments.

    Parameters
    ----------
    blocks:
        The study's queued (dataset, error type) blocks.
    config:
        Study protocol knobs.
    n_jobs:
        Worker processes (1 runs every unit in this process).  Any value
        yields bit-identical results (see module docstring).
    checkpoint:
        Optional path of a JSONL checkpoint.  Splits recorded there are
        skipped and banked cells are not run again; every newly
        completed split is appended, and so is every cell a ``"cell"``
        unit completes, so a crash mid-split loses at most the units in
        flight.
    progress:
        Optional ``(dataset_name, error_type)`` callback invoked once
        per block with pending splits; blocks fully satisfied by the
        checkpoint are skipped.
    granularity:
        ``"split"`` (one unit per split — the default) or ``"cell"``
        (one unit per (method, model) cell of each split).  Cell
        granularity keeps the whole pool busy when ``n_splits`` is
        smaller than the worker count; every ``(n_jobs, granularity)``
        pair produces byte-identical results because cell seeds derive
        from structural keys and the cell reducer sorts by (method,
        model) before accumulating.
    supervisor:
        Fault-tolerance knobs (:class:`SupervisorConfig`); the default
        retries each failing unit twice with deterministic backoff and
        raises :class:`StudyExecutionError` when a split unit exhausts
        its retries.  With ``quarantine=True`` such splits are recorded
        as format-4 ``failed`` ledger entries instead and their blocks
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

    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
    if granularity not in GRANULARITIES:
        raise ValueError(
            f"granularity must be one of {GRANULARITIES}, got {granularity!r}"
        )
    block_keys = [(block.dataset.name, block.error_type) for block in blocks]
    if len(set(block_keys)) != len(block_keys):
        raise ValueError(
            "duplicate (dataset, error type) blocks cannot share a study: "
            f"{block_keys}"
        )

    fingerprint = study_fingerprint(blocks, config)
    done: dict[TaskKey, SplitResult] = {}
    banked: dict[CellKey, CellResult] = {}
    if checkpoint is not None:
        done, banked, _ = load_checkpoint_state(
            checkpoint, fingerprint=fingerprint
        )

    # every block's grid of (method index, model) cells, and the cells
    # each pending split has collected so far (banked ones included)
    n_methods = {
        block_key: len(block_method_names(block, config))
        for block, block_key in zip(blocks, block_keys)
    }
    grids = {
        block_key: [
            (index, model)
            for index in range(count)
            for model in config.models
        ]
        for block_key, count in n_methods.items()
    }
    collected: dict[TaskKey, dict[tuple[int, str], CellResult]] = {}
    for block_key in block_keys:
        for split in range(config.n_splits):
            key = block_key + (split,)
            if key not in done:
                collected[key] = {
                    spec: banked[key + spec]
                    for spec in grids[block_key]
                    if key + spec in banked
                }

    def lacking(key: TaskKey) -> list[tuple[int, str]]:
        return [spec for spec in grids[key[:2]] if spec not in collected[key]]

    def finish(key: TaskKey) -> None:
        """Reduce a split whose cells are all collected and record it."""
        cells = list(collected.pop(key).values())
        result = merge_cell_results(
            key[1], config.models, key[2], n_methods[key[:2]], cells
        )
        done[key] = result
        if checkpoint is not None:
            append_checkpoint(checkpoint, key, result, fingerprint=fingerprint)

    sup_config = supervisor if supervisor is not None else SupervisorConfig()
    if manifest is None:
        manifest = FailureManifest()
    quarantined: set[TaskKey] = set()

    def quarantine(key: TaskKey, failure: UnitFailure) -> None:
        """Terminal failure of one split: quarantine it or abort."""
        if not sup_config.quarantine:
            raise StudyExecutionError(failure)
        manifest.failures.append(failure)
        manifest.count("quarantined")
        quarantined.add(key)
        collected.pop(key, None)
        if checkpoint is not None:
            append_failed_checkpoint(checkpoint, failure, fingerprint=fingerprint)

    pending_blocks = {key[:2] for key in collected}
    # The chaos plan (if any) must also be active in the parent: torn
    # ledger appends happen here, and so do in-process units at jobs=1.
    if sup_config.fault_plan is not None:
        faults.install_plan(sup_config.fault_plan)
    try:
        if progress is not None:
            for block_key in block_keys:
                if block_key in pending_blocks:
                    progress(*block_key)
        units: list[tuple[str, TaskKey, tuple[tuple[int, str], ...]]] = []
        for key in list(collected):
            missing = lacking(key)
            if not missing:
                finish(key)  # every cell banked, or a split without methods
            elif granularity == "split":
                units.append(("split", key, tuple(missing)))
            else:
                units.extend(("cell", key, (spec,)) for spec in missing)
        # a pool pays for itself only when there is more than one unit
        jobs = n_jobs if len(units) > 1 else 1
        with _supervised(
            jobs, blocks, pending_blocks, config, sup_config, manifest
        ) as sup:
            for kind, key, cells in units:
                unit_key = key + cells[0] if kind == "cell" else key
                sup.submit(kind, unit_key, _execute_unit, (kind, key, cells))
            # record in completion order; reduce each split the moment
            # its last cell lands
            degraded: set[TaskKey] = set()
            for status, unit, outcome in sup.drain():
                key = unit.key[:3]
                if status == "ok":
                    for cell in outcome[1]:
                        if unit.kind == "cell" and checkpoint is not None:
                            append_cell_checkpoint(
                                checkpoint, key, cell, fingerprint=fingerprint
                            )
                        if key in collected:
                            collected[key][(cell.method_index, cell.model)] = cell
                    if key in collected and not lacking(key):
                        finish(key)
                elif unit.kind == "split":
                    quarantine(key, outcome)
                elif key not in degraded:
                    # the cell exhausted its retries: drop its split's
                    # queued cells and run what the split still lacks
                    # (in-flight cells included) as one split unit
                    degraded.add(key)
                    manifest.count("degraded_cells")
                    sup.discard(
                        lambda u, key=key: u.kind == "cell" and u.key[:3] == key
                    )
                    missing = tuple(lacking(key))
                    sup.submit("split", key, _execute_unit, ("split", key, missing))
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
    for block_key in block_keys:
        keys = [block_key + (split,) for split in range(config.n_splits)]
        if any(key in quarantined for key in keys):
            manifest.dropped_blocks.append(block_key)
            continue
        results = [done[key] for key in keys]
        experiments.extend(merge_split_results(*block_key, results))
    return experiments


def _clear_worker_state() -> None:
    """Reset the worker registry (used after in-process supervision)."""
    global _WORKER_CONFIG
    _WORKER_BLOCKS.clear()
    _WORKER_RUNS.clear()
    _WORKER_WORKSPACES.clear()
    _WORKER_CONFIG = None


@contextmanager
def _supervised(jobs, blocks, pending_blocks, config, sup_config, manifest):
    """A :class:`Supervisor` over the pending blocks' broadcast payload.

    The payload is every block with pending splits.  At ``jobs == 1``
    the supervisor runs units inline in the parent, so the block
    registry is installed here (and cleared afterwards) the way the pool
    initializer installs it in workers — one lazily built
    ``ErrorTypeRun`` per block.
    """
    payload = [
        (block.dataset, block.error_type, block.methods)
        for block in blocks
        if (block.dataset.name, block.error_type) in pending_blocks
    ]
    if jobs == 1:
        _register_blocks(payload, config)
    try:
        with Supervisor(jobs, payload, config, sup_config, manifest) as sup:
            yield sup
    finally:
        if jobs == 1:
            _clear_worker_state()
