"""Persistence for study results and executor checkpoints.

The paper's full grid is thousands of model trainings; a study you
cannot checkpoint is a study you will re-run.  Two formats live here:

* **Results** — raw experiments (metric pairs, pre-statistics) as a
  single JSON document, so the statistics pass (t-tests + FDR) can be
  replayed under different procedures without re-training anything, and
  results from separate runs can be merged into one database.
* **Checkpoints** — the executor's task ledger as append-only JSONL:
  a header line followed by one line per completed
  (dataset, error type, split) task, interleaved (at sub-split
  granularity) with one line per completed (method, model) cell
  sub-unit, and — since format 4 — one ``failed`` line per unit the
  supervisor quarantined after exhausting its retries.  Appends are
  crash-safe by construction (a torn final line is dropped on load),
  rewrites never happen, and ledgers written by separate processes
  merge by key.  Floats round-trip exactly through JSON, so a resumed
  study is bit-identical to an uninterrupted one.

``FORMAT_VERSION`` is 4 since quarantine ``failed`` entries landed (the
fault-tolerant supervisor); results files and ledgers of any other
version are refused.  ``failed`` entries are a *manifest*, not a
skip-list: a resume re-attempts quarantined units (the fault may have
been environmental), and :func:`merge_checkpoints` lets any recorded
success win over a recorded failure for the same key.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

from .runner import CellResult, RawExperiment, SplitResult
from .schema import MetricPair, Scenario
from .study import CleanMLStudy
from .supervisor import UnitFailure
from . import faults

FORMAT_VERSION = 4

#: the "kind" tag distinguishing checkpoint ledgers from results files
CHECKPOINT_KIND = "cleanml-checkpoint"


class CheckpointError(ValueError):
    """A checkpoint file is corrupt or structurally invalid."""


def experiment_to_dict(experiment: RawExperiment) -> dict:
    """JSON-ready dictionary for one raw experiment."""
    return {
        "level": experiment.level,
        "dataset": experiment.dataset,
        "error_type": experiment.error_type,
        "scenario": experiment.scenario.value,
        "detection": experiment.detection,
        "repair": experiment.repair,
        "ml_model": experiment.ml_model,
        "pairs": [[pair.before, pair.after] for pair in experiment.pairs],
    }


def experiment_from_dict(data: dict) -> RawExperiment:
    """Inverse of :func:`experiment_to_dict`."""
    return RawExperiment(
        level=data["level"],
        dataset=data["dataset"],
        error_type=data["error_type"],
        scenario=Scenario(data["scenario"]),
        detection=data["detection"],
        repair=data["repair"],
        ml_model=data["ml_model"],
        pairs=tuple(
            MetricPair(before=float(b), after=float(a))
            for b, a in data["pairs"]
        ),
    )


def save_experiments(
    experiments: list[RawExperiment], path: str | Path
) -> None:
    """Write raw experiments to a JSON file (creates parent dirs).

    The write is atomic and durable: the payload lands in a temp file
    in the same directory, is fsynced, replaces the destination via
    ``os.replace``, and the parent directory is fsynced so the rename
    itself survives power loss — a crash mid-dump can no longer leave a
    truncated document where the previous study's results used to be.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "format_version": FORMAT_VERSION,
        "experiments": [experiment_to_dict(e) for e in experiments],
    }
    fd, tmp_name = tempfile.mkstemp(
        prefix=path.name + ".", suffix=".tmp", dir=path.parent
    )
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(payload, handle, indent=1)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
        _fsync_directory(path.parent)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _fsync_directory(path: Path) -> None:
    """fsync a directory so a just-renamed entry survives power loss.

    Mirrors the file-level fsync above: ``os.replace`` makes the rename
    atomic, but only a directory fsync makes it durable.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir-open support
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fsync on dirs unsupported here
        pass
    finally:
        os.close(fd)


def load_experiments(path: str | Path) -> list[RawExperiment]:
    """Read raw experiments written by :func:`save_experiments`."""
    with open(path) as handle:
        payload = json.load(handle)
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported results format {version!r} "
            f"(expected {FORMAT_VERSION})"
        )
    return [experiment_from_dict(d) for d in payload["experiments"]]


def save_study(study: CleanMLStudy, path: str | Path) -> None:
    """Persist a study's accumulated raw experiments."""
    save_experiments(study.raw_experiments, path)


def load_study(path: str | Path, config=None) -> CleanMLStudy:
    """Rebuild a study (for the statistics pass) from saved results.

    The returned study has no queued work; call
    :meth:`~repro.core.study.CleanMLStudy.build_database` on it, with
    any alpha / FDR procedure.
    """
    study = CleanMLStudy(config)
    study.raw_experiments = load_experiments(path)
    return study


# -- executor checkpoints -----------------------------------------------------


def _key_to_list(key: tuple) -> list:
    """JSON-ready spec key: enum members become their values."""
    return [part.value if isinstance(part, Scenario) else part for part in key]


def _key_from_list(parts: list, scenario_at: int) -> tuple:
    """Inverse of :func:`_key_to_list` (the scenario slot is positional)."""
    return tuple(
        Scenario(part) if index == scenario_at else part
        for index, part in enumerate(parts)
    )


def split_result_to_dict(result: SplitResult) -> dict:
    """JSON-ready dictionary for one task's split result."""

    def relation(pairs_by_key: dict) -> list:
        return [
            [_key_to_list(key), [[pair.before, pair.after] for pair in pairs]]
            for key, pairs in pairs_by_key.items()
        ]

    return {
        "split": result.split,
        "r1": relation(result.r1),
        "r2": relation(result.r2),
        "r3": relation(result.r3),
    }


def split_result_from_dict(data: dict) -> SplitResult:
    """Inverse of :func:`split_result_to_dict`."""

    def relation(name: str) -> dict:
        scenario_at = {"r1": 3, "r2": 2, "r3": 0}[name]
        return {
            _key_from_list(key, scenario_at): [
                MetricPair(float(b), float(a)) for b, a in pairs
            ]
            for key, pairs in data[name]
        }

    return SplitResult(
        split=int(data["split"]),
        r1=relation("r1"),
        r2=relation("r2"),
        r3=relation("r3"),
    )


def cell_result_to_dict(cell: CellResult) -> dict:
    """JSON-ready dictionary for one cell sub-unit result."""
    return {
        "split": cell.split,
        "method_index": cell.method_index,
        "method_name": cell.method_name,
        "detection": cell.detection,
        "repair": cell.repair,
        "model": cell.model,
        "dirty_val_score": cell.dirty_val_score,
        "clean_val_score": cell.clean_val_score,
        "pairs": [
            [scenario.value, pair.before, pair.after]
            for scenario, pair in cell.pairs
        ],
    }


def cell_result_from_dict(data: dict) -> CellResult:
    """Inverse of :func:`cell_result_to_dict`."""
    return CellResult(
        split=int(data["split"]),
        method_index=int(data["method_index"]),
        method_name=data["method_name"],
        detection=data["detection"],
        repair=data["repair"],
        model=data["model"],
        dirty_val_score=float(data["dirty_val_score"]),
        clean_val_score=float(data["clean_val_score"]),
        pairs=tuple(
            (Scenario(value), MetricPair(float(before), float(after)))
            for value, before, after in data["pairs"]
        ),
    )


def _checkpoint_header(fingerprint: str | None = None) -> str:
    header = {"format_version": FORMAT_VERSION, "kind": CHECKPOINT_KIND}
    if fingerprint is not None:
        header["fingerprint"] = fingerprint
    return json.dumps(header)


def _heal_torn_tail(path: Path) -> None:
    """Drop a torn final line (crash mid-append) before appending more.

    Keeps the append-only invariant that every complete line is valid:
    without this, appending after a crash would glue new entries onto
    the torn fragment and corrupt the ledger permanently.
    """
    if not path.exists() or path.stat().st_size == 0:
        return
    with open(path, "rb") as handle:
        handle.seek(-1, os.SEEK_END)
        if handle.read(1) == b"\n":  # happy path: one byte inspected
            return
    data = path.read_bytes()  # torn tail only — rare, worth the full read
    with open(path, "r+b") as handle:
        handle.truncate(data.rfind(b"\n") + 1)


def append_checkpoint(
    path: str | Path, key: tuple, result: SplitResult, fingerprint: str | None = None
) -> None:
    """Record one completed task, creating the ledger if needed.

    When ``fingerprint`` is given (the executor passes
    :func:`~repro.core.executor.study_fingerprint`) and the ledger is
    new, it is stamped into the header so later resumes can detect
    protocol or method-list drift.
    """
    _append_entry(
        path,
        {"task": list(key), "result": split_result_to_dict(result)},
        fingerprint,
    )


def _entry_unit_key(entry: dict) -> tuple:
    """The structural key an entry records (for chaos torn-write scheduling)."""
    if "task" in entry:
        return tuple(entry["task"])
    if "cell" in entry:
        return tuple(entry["cell"])
    if "failed" in entry:
        return ("failed", *entry["failed"]["key"])
    return ()


def _append_entry(
    path: str | Path, entry: dict, fingerprint: str | None
) -> None:
    """The shared append protocol: heal a torn tail, header-on-create,
    one JSON line — identical for split, cell, and failed entries by
    construction."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fragment = faults.torn_write_fragment(_entry_unit_key(entry))
    if fragment is not None:
        # chaos harness: simulate a crash mid-append by a previous
        # process — the unterminated fragment must be dropped by the
        # heal below for this append to land cleanly
        with open(path, "a") as handle:
            handle.write(fragment)
    _heal_torn_tail(path)
    line = json.dumps(entry)
    with open(path, "a") as handle:
        if handle.tell() == 0:
            handle.write(_checkpoint_header(fingerprint) + "\n")
        handle.write(line + "\n")


def append_cell_checkpoint(
    path: str | Path,
    key: tuple,
    cell: CellResult,
    fingerprint: str | None = None,
) -> None:
    """Record one completed cell sub-unit, creating the ledger if needed.

    ``key`` is the owning split's (dataset, error type, split) task key;
    the cell's (method index, model) completes the sub-unit identity.
    Cell entries interleave freely with split entries in one ledger —
    the two-level executor appends each cell as it lands and the
    reassembled split when its last cell does.
    """
    _append_entry(
        path,
        {
            "cell": [key[0], key[1], key[2], cell.method_index, cell.model],
            "result": cell_result_to_dict(cell),
        },
        fingerprint,
    )


def failure_to_dict(failure: UnitFailure) -> dict:
    """JSON-ready dictionary for one quarantined unit (format 4)."""
    return {
        "kind": failure.kind,
        "key": list(failure.key),
        "attempts": failure.attempts,
        "error": failure.error,
    }


def failure_from_dict(data: dict) -> UnitFailure:
    """Inverse of :func:`failure_to_dict`."""
    return UnitFailure(
        kind=str(data["kind"]),
        key=tuple(data["key"]),
        attempts=int(data["attempts"]),
        error=str(data["error"]),
    )


def append_failed_checkpoint(
    path: str | Path, failure: UnitFailure, fingerprint: str | None = None
) -> None:
    """Record one quarantined unit, creating the ledger if needed.

    ``failed`` entries (format 4) are the ledger half of the failure
    manifest: they document that the study *completed without* this
    unit, they are not a skip-list — a resume re-attempts the unit, and
    a later recorded success supersedes the failure in
    :func:`merge_checkpoints`.
    """
    _append_entry(path, {"failed": failure_to_dict(failure)}, fingerprint)


def load_checkpoint(
    path: str | Path, fingerprint: str | None = None
) -> dict[tuple, SplitResult]:
    """Completed split tasks from a checkpoint ledger, keyed by task key.

    The split-level view of :func:`load_checkpoint_state` — cell
    sub-unit and failed entries are validated but not returned.
    """
    return load_checkpoint_state(path, fingerprint=fingerprint)[0]


def load_checkpoint_state(
    path: str | Path, fingerprint: str | None = None
) -> tuple[
    dict[tuple, SplitResult],
    dict[tuple, CellResult],
    dict[tuple, UnitFailure],
]:
    """Completed ``(splits, cells, failures)`` from a checkpoint ledger.

    Splits are keyed ``(dataset, error type, split)``, cell sub-units
    ``(dataset, error type, split, method index, model)``, and failures
    by the failed unit's own structural key (whatever its granularity).
    A unit that was quarantined in one run and completed in a later
    resume appears in both mappings — the success is authoritative.

    A missing file is an empty checkpoint.  A torn *final* line — the
    signature of a crash mid-append, including a crash during the very
    first header write — is dropped silently; anything else malformed
    raises :class:`CheckpointError`.

    When ``fingerprint`` is given and the ledger header carries one, a
    mismatch raises :class:`CheckpointError`: the tasks were produced
    under a different study definition (other models, CV folds, seed,
    cleaning-method lists, ...) and silently reusing them would corrupt
    the study.  Note the fingerprint cannot see dataset construction
    arguments (e.g. ``n_rows``) — keep those constant across resumed
    runs.
    """
    path = Path(path)
    if not path.exists():
        return {}, {}, {}
    text = path.read_text()
    # a final line without its newline is a torn append, not corruption
    torn_tail = bool(text) and not text.endswith("\n")
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        return {}, {}, {}
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as error:
        if len(lines) == 1 and torn_tail:  # crash mid-header: empty checkpoint
            return {}, {}, {}
        raise CheckpointError(f"{path}: corrupt checkpoint header") from error
    if header.get("kind") != CHECKPOINT_KIND:
        raise CheckpointError(f"{path}: not a checkpoint ledger: {header}")
    if header.get("format_version") != FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported checkpoint format "
            f"{header.get('format_version')!r}"
        )
    recorded = header.get("fingerprint")
    if fingerprint is not None and recorded is not None:
        if recorded != fingerprint:
            raise CheckpointError(
                f"{path}: checkpoint was written under a different study "
                f"definition (recorded {recorded!r}, current "
                f"{fingerprint!r}); refusing to reuse its tasks"
            )
    done: dict[tuple, SplitResult] = {}
    cells: dict[tuple, CellResult] = {}
    failed: dict[tuple, UnitFailure] = {}
    for number, line in enumerate(lines[1:], start=2):
        try:
            entry = json.loads(line)
            if "cell" in entry:
                name, error_type, split, method_index, model = entry["cell"]
                cell = cell_result_from_dict(entry["result"])
                cells[
                    (name, error_type, int(split), int(method_index), model)
                ] = cell
                continue
            if "failed" in entry:
                failure = failure_from_dict(entry["failed"])
                failed[failure.key] = failure  # later retries supersede
                continue
            name, error_type, split = entry["task"]
            result = split_result_from_dict(entry["result"])
        except (json.JSONDecodeError, KeyError, ValueError, TypeError) as error:
            if number == len(lines) and torn_tail:  # torn final append
                break
            raise CheckpointError(
                f"{path}: corrupt checkpoint entry at line {number}"
            ) from error
        done[(name, error_type, int(split))] = result
    return done, cells, failed


def checkpoint_fingerprint(path: str | Path) -> str | None:
    """The study fingerprint recorded in a ledger's header, if any.

    ``None`` for missing files, torn headers, and unstamped ledgers.
    """
    path = Path(path)
    if not path.exists():
        return None
    with open(path) as handle:
        first_line = handle.readline()
    if not first_line.endswith("\n"):  # torn header: an empty checkpoint
        return None
    try:
        header = json.loads(first_line)
    except json.JSONDecodeError:
        return None
    return header.get("fingerprint") if isinstance(header, dict) else None


def merge_checkpoints(
    paths: list[str | Path],
) -> dict[tuple, SplitResult | CellResult | UnitFailure]:
    """Union of several ledgers (e.g. one per process of a sharded run).

    Ledgers stamped with different study fingerprints refuse to merge —
    their tasks come from different protocols, and disjoint task keys
    would otherwise let the mix slip through silently.  Duplicate task
    keys are fine when the recorded results agree — the tasks are
    deterministic, so they should — and raise :class:`CheckpointError`
    when they conflict.

    Cell sub-unit entries round-trip too: they appear in the merged
    mapping under their 5-tuple ``(dataset, error type, split, method
    index, model)`` keys (a split task key is always a 3-tuple, so the
    two kinds cannot collide), with the same agree-or-raise rule.

    Format-4 ``failed`` entries round-trip as advisory records: a key
    whose only recorded state is a quarantine maps to its
    :class:`~repro.core.supervisor.UnitFailure`; any recorded *success*
    for the same key wins silently (one shard's quarantined unit may
    have completed on another shard — that is reconciliation working,
    not a conflict), and between failures the highest attempt count is
    kept.
    """
    fingerprints = {
        path: fingerprint
        for path in paths
        if (fingerprint := checkpoint_fingerprint(path)) is not None
    }
    if len(set(fingerprints.values())) > 1:
        raise CheckpointError(
            "refusing to merge checkpoints from different study "
            f"definitions: {fingerprints}"
        )
    merged: dict[tuple, SplitResult | CellResult] = {}
    failures: dict[tuple, UnitFailure] = {}
    for path in paths:
        done, cells, failed = load_checkpoint_state(path)
        for entries, label in ((done, "task"), (cells, "cell")):
            for key, result in entries.items():
                if key in merged and merged[key] != result:
                    raise CheckpointError(
                        f"conflicting checkpoint entries for {label} {key}"
                    )
                merged[key] = result
        for key, failure in failed.items():
            kept = failures.get(key)
            if kept is None or failure.attempts > kept.attempts:
                failures[key] = failure
    for key, failure in failures.items():
        if key not in merged:  # any success supersedes a failure record
            merged[key] = failure
    return merged


def merge_studies(studies: list[CleanMLStudy], config=None) -> CleanMLStudy:
    """Combine raw experiments from several studies into one.

    Raises on duplicate experiment keys — merging the same block twice
    is almost certainly a mistake, and the relational insert would fail
    later anyway with a less helpful message.
    """
    merged = CleanMLStudy(config)
    seen: set[tuple] = set()
    for study in studies:
        for experiment in study.raw_experiments:
            key = (
                experiment.level,
                experiment.dataset,
                experiment.error_type,
                experiment.scenario.value,
                experiment.detection,
                experiment.repair,
                experiment.ml_model,
            )
            if key in seen:
                raise ValueError(f"duplicate experiment in merge: {key}")
            seen.add(key)
            merged.raw_experiments.append(experiment)
    return merged
