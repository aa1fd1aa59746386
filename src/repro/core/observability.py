"""Run-report observability: metrics, trace spans, diagnostics (ISSUE 10).

Nine PRs built a fast, fault-tolerant execution stack that was a black
box at runtime: cache hit rates, supervisor recovery events and
per-phase timings were visible only through ad-hoc benchmark scripts.
This module makes them first-class — a zero-dependency metrics +
tracing subsystem threaded through every layer, reported as one JSON
:class:`RunReport` per study.

Design constraints, in priority order:

1. **Side-effect-free.**  Collection must never perturb the study:
   persisted study JSON stays byte-identical with observability on or
   off, across the full ``(n_jobs) × (granularity)`` matrix
   (``tests/test_observability.py`` pins it;
   ``benchmarks/bench_observability.py`` gates overhead at ≤2%).
   Instrumentation therefore only *reads* — counters, max-gauges and
   wall-clock spans — and never branches the code under measurement.
2. **Deterministic merge.**  Worker processes collect into a local
   :class:`MetricsCollector`; the supervisor ships each unit's delta
   back with its result and the parent absorbs it.  With a pool the
   absorption *order* is racy, so every merge operation is
   commutative and associative over its domain: counters sum, gauges
   take the max, spans fold ``(count, total, min, max)``.  The merge
   never depends on arrival order, but what a worker *counts* can: with
   ``n_jobs > 1`` many counters depend on which units each worker
   happened to receive.  :data:`METRIC_CLASSES` declares, for every
   counter and gauge, whether it is schedule-invariant (the same in
   every run of a study) or schedule-dependent; wall-clock figures
   always vary.
3. **Zero overhead when off.**  The instrumented modules in the table /
   cleaning / ml layers hold a module-global ``_metrics`` hook that is
   ``None`` until :func:`install` pushes a collector into them (push
   rather than pull, because those layers initialize before
   ``repro.core`` in the package import cascade and must not import it
   back).  Disabled cost is one global load and a ``None`` test.

Trace levels
------------
``off``
    counters and gauges only (the default when enabled).
``phase``
    adds wall-clock spans around the study phases (execution, stats
    database build).
``unit``
    additionally times every supervised unit, aggregated by unit kind
    (``unit/split``, ``unit/cell``) so cardinality stays
    bounded no matter how many units run.

The :func:`diagnostic` helper is the one sanctioned channel for human
progress/diagnostic chatter: it writes to ``stderr`` so machine-readable
study output on ``stdout`` is never polluted (ISSUE 10 satellite — the
executor's interrupt notice and the CLI's progress lines route through
it).
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import tempfile
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path

#: trace verbosity ladder; each level includes everything below it
TRACE_LEVELS = ("off", "phase", "unit")
_TRACE_ORDER = {level: index for index, level in enumerate(TRACE_LEVELS)}

#: schema tag stamped into every persisted report
REPORT_SCHEMA = "repro-run-report/1"

#: modules outside ``repro.core`` that carry a push-installed
#: ``_metrics`` hook (see the module docstring for why push, not pull)
_HOOKED_MODULES = (
    "repro.cleaning.base",
    "repro.core.runner",
    "repro.ml.cv_kernel",
    "repro.table.encode",
)


#: class of a counter that every run of a study at one granularity
#: reports identically, whatever the job count or dispatch order
SCHEDULE_INVARIANT = "schedule-invariant"
#: class of a counter whose value depends on which worker ran which unit
SCHEDULE_DEPENDENT = "schedule-dependent"

#: Every counter and gauge name a run report can carry, with its class.
#: Classes were assigned by measurement: repeated ``n_jobs=2`` runs at
#: split and cell granularity of plain and searched studies and of the
#: supervisor chaos plans, on a 2-core machine.  A name is invariant
#: only if every measured run at one granularity gave one value and the
#: count is fixed by the study's units, not by which process or
#: workspace did the work.  At ``n_jobs=1`` every counter repeats
#: exactly.
METRIC_CLASSES = {
    # per-workspace caches: a cell stolen by another worker rebuilds
    # the split's workspace, which refits detectors, re-encodes tables
    # and retrains dirty-side models
    "cleaning.detection_cache.hits": SCHEDULE_DEPENDENT,
    "cleaning.detection_cache.misses": SCHEDULE_DEPENDENT,
    "cleaning.detection_cache.peak_entries": SCHEDULE_DEPENDENT,
    "encode.code_cache.hits": SCHEDULE_DEPENDENT,
    "encode.code_cache.misses": SCHEDULE_DEPENDENT,
    "encode.matrix_cells": SCHEDULE_DEPENDENT,
    "encode.matrix_fills": SCHEDULE_DEPENDENT,
    # one per SplitWorkspace a cell unit's worker builds: the number of
    # workers each split's cells reached, plus LRU re-builds
    "executor.workspace_builds": SCHEDULE_DEPENDENT,
    "tuning.fold_workspace.builds": SCHEDULE_DEPENDENT,
    "tuning.fold_workspace.candidate_predicts": SCHEDULE_DEPENDENT,
    # one per SplitWorkspace.cell: the study's cells, whichever worker
    # ran them
    "runner.cells": SCHEDULE_INVARIANT,
    # supervisor ledger, counted in the parent: one event per poisoned
    # unit or hung attempt; retries and resurrections depend on the
    # schedule because one pool kill takes down every crashing unit in
    # flight
    "supervisor.degraded_cells": SCHEDULE_INVARIANT,
    "supervisor.quarantined": SCHEDULE_INVARIANT,
    "supervisor.resurrections": SCHEDULE_DEPENDENT,
    "supervisor.retries": SCHEDULE_DEPENDENT,
    "supervisor.timeouts": SCHEDULE_INVARIANT,
}


@dataclass(frozen=True)
class ObservabilityConfig:
    """What to collect.  Frozen and picklable — workers receive it
    through the supervisor's pool initializer."""

    enabled: bool = False
    trace: str = "off"

    def __post_init__(self) -> None:
        if self.trace not in TRACE_LEVELS:
            raise ValueError(
                f"trace must be one of {TRACE_LEVELS}, got {self.trace!r}"
            )


#: the do-nothing default; module state resets to this on uninstall
DISABLED = ObservabilityConfig()


class MetricsCollector:
    """Counters, max-gauges and span aggregates for one process.

    Every mutation is commutative over the merge in :meth:`absorb`, so
    per-worker collectors can be drained and folded into the parent in
    any completion order with a deterministic result (for everything
    except wall-clock totals, which are genuinely nondeterministic).
    """

    __slots__ = ("counters", "gauges", "spans", "_stack")

    def __init__(self) -> None:
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        #: name -> [count, total seconds, min seconds, max seconds]
        self.spans: dict[str, list] = {}
        self._stack: list[str] = []

    # -- recording ---------------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to the counter ``name`` (sum-merged)."""
        self.counters[name] = self.counters.get(name, 0) + n

    def gauge_max(self, name: str, value: float) -> None:
        """Record a high-water mark (max-merged)."""
        current = self.gauges.get(name)
        if current is None or value > current:
            self.gauges[name] = value

    def observe(self, name: str, seconds: float) -> None:
        """Fold one duration into the span aggregate ``name``."""
        entry = self.spans.get(name)
        if entry is None:
            self.spans[name] = [1, seconds, seconds, seconds]
        else:
            entry[0] += 1
            entry[1] += seconds
            if seconds < entry[2]:
                entry[2] = seconds
            if seconds > entry[3]:
                entry[3] = seconds

    @contextmanager
    def span(self, name: str):
        """Time a block as a nested span (``parent/child`` key paths)."""
        self._stack.append(name)
        path = "/".join(self._stack)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            self.observe(path, elapsed)

    # -- snapshot / merge --------------------------------------------------

    def snapshot(self) -> dict:
        """A plain-dict copy suitable for pickling across processes."""
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "spans": {name: list(entry) for name, entry in self.spans.items()},
        }

    def drain(self) -> dict:
        """Snapshot and reset — the per-unit shipping primitive."""
        shipped = self.snapshot()
        self.clear()
        return shipped

    def absorb(self, shipped: dict | None) -> None:
        """Merge a :meth:`snapshot`/:meth:`drain` payload into this one."""
        if not shipped:
            return
        for name, value in shipped.get("counters", {}).items():
            self.counters[name] = self.counters.get(name, 0) + value
        for name, value in shipped.get("gauges", {}).items():
            self.gauge_max(name, value)
        for name, entry in shipped.get("spans", {}).items():
            mine = self.spans.get(name)
            if mine is None:
                self.spans[name] = list(entry)
            else:
                mine[0] += entry[0]
                mine[1] += entry[1]
                if entry[2] < mine[2]:
                    mine[2] = entry[2]
                if entry[3] > mine[3]:
                    mine[3] = entry[3]

    def clear(self) -> None:
        self.counters = {}
        self.gauges = {}
        self.spans = {}


# ---------------------------------------------------------------------------
# process-global state

_CONFIG: ObservabilityConfig = DISABLED
_COLLECTOR: MetricsCollector | None = None

#: reusable stateless no-op context for disabled spans
_NULL_SPAN = nullcontext()


def install(config: ObservabilityConfig) -> MetricsCollector | None:
    """Activate observability in this process.

    Pushes the collector into every hooked module's ``_metrics`` global
    and returns it (``None`` when ``config`` is disabled — installing a
    disabled config is how workers mirror a parent that runs dark).
    Safe to call repeatedly; the last call wins.
    """
    global _CONFIG, _COLLECTOR
    _CONFIG = config
    _COLLECTOR = MetricsCollector() if config.enabled else None
    for name in _HOOKED_MODULES:
        setattr(importlib.import_module(name), "_metrics", _COLLECTOR)
    return _COLLECTOR


def uninstall() -> None:
    """Deactivate observability and detach every module hook."""
    install(DISABLED)
    global _CONFIG
    _CONFIG = DISABLED


@contextmanager
def observing(config: ObservabilityConfig | None = None):
    """Scoped :func:`install` for tests and benchmarks; yields the collector."""
    collector = install(
        config if config is not None else ObservabilityConfig(enabled=True)
    )
    try:
        yield collector
    finally:
        uninstall()


def current_config() -> ObservabilityConfig:
    """The active configuration (what workers must be initialized with)."""
    return _CONFIG


def metrics() -> MetricsCollector | None:
    """The active collector, or ``None`` when observability is off."""
    return _COLLECTOR


def span(name: str, level: str = "phase"):
    """A timing context for ``name`` if the trace level admits it.

    ``level`` is the verbosity this span belongs to (``"phase"`` or
    ``"unit"``); when tracing is below it — or observability is off —
    the returned context is a shared no-op.
    """
    collector = _COLLECTOR
    if collector is None or _TRACE_ORDER[_CONFIG.trace] < _TRACE_ORDER[level]:
        return _NULL_SPAN
    return collector.span(name)


# ---------------------------------------------------------------------------
# worker shipping

class ShippedUnit:
    """A unit result wrapped with the worker's metrics delta.

    The supervisor's worker entry point returns one of these instead of
    the bare result whenever observability is on; the parent unwraps at
    every harvest site via :func:`unwrap_unit`, absorbing the delta into
    its own collector.
    """

    def __init__(self, result, shipped: dict) -> None:
        self.result = result
        self.shipped = shipped


def unwrap_unit(result):
    """Unwrap a :class:`ShippedUnit`, absorbing its metrics delta.

    Bare results pass through untouched, so harvest sites can call this
    unconditionally.  A shipped delta arriving while the parent runs
    dark (config raced off) is dropped rather than crashed on.
    """
    if not isinstance(result, ShippedUnit):
        return result
    if _COLLECTOR is not None:
        _COLLECTOR.absorb(result.shipped)
    return result.result


# ---------------------------------------------------------------------------
# run report

class RunReport:
    """The merged, persistable record of one observed study run."""

    def __init__(self, *, meta: dict | None = None, counters: dict | None = None,
                 gauges: dict | None = None, spans: dict | None = None) -> None:
        self.meta = dict(meta or {})
        self.counters = dict(counters or {})
        self.gauges = dict(gauges or {})
        self.spans = dict(spans or {})

    @classmethod
    def from_collector(
        cls, collector: MetricsCollector, meta: dict | None = None
    ) -> "RunReport":
        snap = collector.snapshot()
        return cls(
            meta=meta,
            counters=snap["counters"],
            gauges=snap["gauges"],
            spans=snap["spans"],
        )

    def to_dict(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "meta": {k: self.meta[k] for k in sorted(self.meta)},
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "gauges": {k: self.gauges[k] for k in sorted(self.gauges)},
            "spans": {
                name: {
                    "count": entry[0],
                    "total_s": round(entry[1], 6),
                    "min_s": round(entry[2], 6),
                    "max_s": round(entry[3], 6),
                }
                for name, entry in sorted(self.spans.items())
            },
        }

    def save(self, path: str | Path) -> Path:
        """Persist atomically (write-temp + fsync + rename), like the
        study results themselves — a crash never leaves a torn report."""
        path = Path(path)
        fd, tmp_name = tempfile.mkstemp(
            prefix=path.name + ".", suffix=".tmp", dir=path.parent
        )
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(self.to_dict(), handle, indent=1, sort_keys=True)
                handle.write("\n")
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return path

    @classmethod
    def load(cls, path: str | Path) -> "RunReport":
        data = json.loads(Path(path).read_text())
        if data.get("schema") != REPORT_SCHEMA:
            raise ValueError(
                f"{path}: not a run report (schema {data.get('schema')!r}, "
                f"expected {REPORT_SCHEMA!r})"
            )
        spans = {
            name: [e["count"], e["total_s"], e["min_s"], e["max_s"]]
            for name, e in data.get("spans", {}).items()
        }
        return cls(
            meta=data.get("meta"),
            counters=data.get("counters"),
            gauges=data.get("gauges"),
            spans=spans,
        )

    def describe(self) -> str:
        """Human-readable rendering for ``python -m repro report``."""
        lines = [f"run report ({REPORT_SCHEMA})"]
        if self.meta:
            lines.append("meta:")
            for key in sorted(self.meta):
                lines.append(f"  {key:<24} {self.meta[key]}")
        if self.counters:
            lines.append("counters:")
            width = max(len(name) for name in self.counters)
            for name in sorted(self.counters):
                lines.append(f"  {name:<{width}}  {self.counters[name]}")
        if self.gauges:
            lines.append("gauges (high-water):")
            width = max(len(name) for name in self.gauges)
            for name in sorted(self.gauges):
                lines.append(f"  {name:<{width}}  {self.gauges[name]}")
        if self.spans:
            lines.append("spans:")
            width = max(len(name) for name in self.spans)
            for name in sorted(self.spans):
                count, total, low, high = self.spans[name]
                lines.append(
                    f"  {name:<{width}}  {count:>5}x  total {total:.3f}s"
                    f"  min {low:.4f}s  max {high:.4f}s"
                )
        if len(lines) == 1:
            lines.append("(empty)")
        return "\n".join(lines)


def build_report(meta: dict | None = None) -> RunReport:
    """The active collector's state as a :class:`RunReport` (empty if off)."""
    if _COLLECTOR is None:
        return RunReport(meta=meta)
    return RunReport.from_collector(_COLLECTOR, meta=meta)


# ---------------------------------------------------------------------------
# diagnostics + path validation

def diagnostic(message: str) -> None:
    """Human-facing progress/diagnostic line — always ``stderr``.

    Machine-readable study output owns ``stdout``; every progress
    message, failure manifest and interrupt notice goes through here so
    piped output stays parseable.
    """
    print(message, file=sys.stderr)


def validate_metrics_path(path: str | Path) -> Path:
    """Fail fast if ``path`` cannot receive the run report.

    Called before the study starts (mirroring checkpoint-path
    handling): a run that computes for an hour and then silently fails
    to write its report is strictly worse than one that refuses up
    front.  Probes writability with a real temp file in the target
    directory.  Raises ``ValueError`` with an actionable message.
    """
    path = Path(path)
    if path.is_dir():
        raise ValueError(
            f"metrics path {path} is a directory; pass a file path"
        )
    parent = path.parent
    if not parent.is_dir():
        raise ValueError(
            f"metrics path directory {parent} does not exist"
        )
    try:
        fd, probe = tempfile.mkstemp(prefix=".metrics-probe-", dir=parent)
    except OSError as error:
        raise ValueError(
            f"metrics path directory {parent} is not writable: {error}"
        ) from None
    os.close(fd)
    os.unlink(probe)
    return path
