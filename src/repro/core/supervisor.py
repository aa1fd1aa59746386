"""Fault-tolerant execution supervisor for a study's units.

Every unit of study work — a split's missing (method, model) cells,
as one ``"split"`` unit or one ``"cell"`` unit per cell — flows through
one :class:`Supervisor` that owns submission and draining for the
process pool.  Where the executor's drain loops used to call ``future.result()`` bare (one worker
exception, hang, or dead process killed the whole study), the
supervisor provides:

* **bounded in-flight submission** — at most ``jobs`` units are on the
  pool at once, so a unit's wall-clock deadline starts when it is
  actually handed to a worker, not when it joins a thousand-deep queue;
* **per-unit timeouts** — ``ProcessPoolExecutor`` cannot cancel a
  running future, so an expired deadline kills the pool (terminating
  the hung worker), requeues the innocent in-flight units at their
  current attempt, and charges only the hung units an attempt;
* **deterministic capped-exponential-backoff retries** — the backoff
  jitter derives from ``derive_seed`` over the unit's structural key
  and attempt number, so retrying affects *when* a unit re-runs, never
  *what it computes*: a run that retried its way to completion is
  byte-identical to a fault-free run (pinned by the chaos-matrix tests
  and ``benchmarks/bench_fault_tolerance.py``);
* **``BrokenProcessPool`` resurrection** — a dead worker breaks every
  in-flight future without naming the culprit; the supervisor harvests
  any results that landed before the break, rebuilds the pool (the
  initializer re-broadcasts the dataset blocks), and resubmits exactly
  the in-flight keys.  Under a chaos plan the scheduled crasher is
  identified deterministically and alone charged an attempt; without a
  plan every in-flight unit is charged (conservative — innocents
  succeed on resubmission, a real poison unit still exhausts retries);
* **failure events, not exceptions** — a unit that exhausts
  ``max_retries`` surfaces as a ``("failed", unit, UnitFailure)`` drain
  event.  The executor decides what that means: degrade a cell to a
  split unit of the cells its split lacks, quarantine the split into
  the ledger's failure manifest, or abort the study.

The same supervisor runs single-process studies (``jobs == 1``): units
execute inline in the parent with the same retry/backoff/failure
accounting, no pool involved.
"""

from __future__ import annotations

import random
import time
from collections import deque
from collections.abc import Callable, Iterator
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace

from . import faults, observability
from .faults import FaultPlan
from .runner import derive_seed


class UnitExecutionError(RuntimeError):
    """A task body failed; carries the unit's structural key.

    Raised by the worker-side wrapper around every task body so a
    failure names its (dataset, error type, split[, method index, model])
    instead of surfacing as an anonymous traceback from the pool.
    ``__reduce__`` keeps the rich constructor picklable across the
    process boundary.
    """

    def __init__(self, kind: str, key: tuple, summary: str, traceback_text: str = ""):
        self.kind = kind
        self.key = tuple(key)
        self.summary = summary
        self.traceback_text = traceback_text
        message = f"{kind} unit {self.key!r} failed: {summary}"
        if traceback_text:
            message = f"{message}\n{traceback_text.rstrip()}"
        super().__init__(message)

    def __reduce__(self):
        return (
            type(self),
            (self.kind, self.key, self.summary, self.traceback_text),
        )


@dataclass(frozen=True)
class SupervisorConfig:
    """Fault-tolerance knobs for one study execution.

    ``timeout`` is the per-unit wall-clock deadline in seconds (``None``
    disables deadlines).  A unit failure is retried up to
    ``max_retries`` times with delay ``min(cap, base * 2**attempt)``
    scaled by a jitter factor in ``[0.5, 1.0]`` derived from the unit's
    structural key — deterministic, and irrelevant to results.  A cell
    that exhausts its retries always degrades to one split unit of the
    cells its split lacks; ``quarantine`` lets a split unit that still
    fails be recorded in the ledger's failure manifest instead of
    aborting the study.  ``fault_plan`` installs a chaos schedule in
    every worker (and the parent, for torn ledger appends).
    """

    timeout: float | None = None
    max_retries: int = 2
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    quarantine: bool = False
    fault_plan: FaultPlan | None = None


@dataclass(frozen=True)
class UnitFailure:
    """Terminal failure record for one unit (all retries exhausted)."""

    kind: str
    key: tuple
    attempts: int
    error: str


@dataclass
class FailureManifest:
    """What fault tolerance cost one study execution.

    ``failures`` holds the quarantined units (mirrored into the ledger
    as format-4 ``failed`` entries), ``dropped_blocks`` the (dataset,
    error type) blocks excluded from the merged experiments because a
    split was quarantined, and ``stats`` the recovery counters
    (retries, resurrections, timeouts, degradations, quarantines).
    A study that completes cleanly has an empty manifest.
    """

    failures: list[UnitFailure] = field(default_factory=list)
    dropped_blocks: list[tuple[str, str]] = field(default_factory=list)
    stats: dict[str, int] = field(default_factory=dict)

    def count(self, stat: str, n: int = 1) -> None:
        self.stats[stat] = self.stats.get(stat, 0) + n
        # mirror the recovery ledger into the run report: the manifest
        # counts in the parent process, so these counters are exact even
        # when the worker that caused the event died with its collector
        collector = observability.metrics()
        if collector is not None:
            collector.count(f"supervisor.{stat}", n)

    def describe(self) -> str:
        """Human-readable multi-line summary (empty string if clean)."""
        lines = []
        for failure in self.failures:
            lines.append(
                f"quarantined {failure.kind} unit {failure.key!r} after "
                f"{failure.attempts} attempts: {failure.error}"
            )
        for name, error_type in self.dropped_blocks:
            lines.append(f"dropped block ({name}, {error_type}) from merged results")
        if self.stats:
            counters = ", ".join(f"{k}={v}" for k, v in sorted(self.stats.items()))
            lines.append(f"recovery counters: {counters}")
        return "\n".join(lines)


class StudyExecutionError(RuntimeError):
    """A unit exhausted its retries and quarantine is disabled."""

    def __init__(self, failure: UnitFailure):
        self.failure = failure
        super().__init__(
            f"{failure.kind} unit {failure.key!r} failed after "
            f"{failure.attempts} attempts: {failure.error}"
        )


@dataclass
class Unit:
    """One schedulable piece of work: a task body plus its identity."""

    kind: str
    key: tuple
    func: Callable
    args: tuple
    attempt: int = 0


def _init_worker(payload, config, plan, obs_config=None) -> None:
    """Pool initializer: arm observability, broadcast blocks, arm chaos.

    Observability installs first so block registration itself is
    already metered.
    """
    from .executor import _register_blocks

    if obs_config is not None:
        observability.install(obs_config)
    _register_blocks(payload, config)
    faults.install_plan(plan)


def _run_unit(func, args, kind, key, attempt):
    """Worker-side unit entry: inject scheduled faults, then run.

    With observability on, the unit's result ships back wrapped with the
    worker collector's delta (drained per unit, so merges in the parent
    are commutative sums regardless of completion order).
    """
    faults.maybe_inject(kind, key, attempt, in_process=False)
    collector = observability.metrics()
    if collector is None:
        return func(*args)
    with observability.span(f"unit/{kind}", level="unit"):
        result = func(*args)
    return observability.ShippedUnit(result, collector.drain())


def next_unit_index(
    queued: list[tuple], in_flight: list[tuple], hint: tuple | None
) -> int:
    """Index in ``queued`` of the unit a freed pool slot takes next.

    Keys are structural: a split unit's key is ``(dataset, error type,
    split)`` and a cell's appends ``(method index, model)``, so
    ``key[:3]`` names the split and ``key[:4]`` the (split, method).
    ``hint`` is the key of the unit whose completion freed the slot;
    the worker that ran it still holds that split's workspace.  In
    order of preference the slot takes:

    1. a cell of the hint's (split, method);
    2. a cell of the hint's split, nearest the hint's method (so a
       worker that stole from a split's back keeps walking backwards);
    3. the first queued unit whose split no in-flight unit holds;
    4. the back of the split with the most queued units, so a thief
       and the split's owner start at opposite ends.

    Split keys are all distinct, so split units keep FIFO order.  The
    choice affects which worker rebuilds what, never the results.
    """
    if hint is not None:
        split, method = hint[:3], hint[3:4]
        best, best_distance = None, None
        for index, key in enumerate(queued):
            if key[:3] != split:
                continue
            if method and key[3:4] == method:
                return index
            distance = abs(key[3] - method[0]) if method and key[3:] else 0
            if best is None or distance < best_distance:
                best, best_distance = index, distance
        if best is not None:
            return best
    held = {key[:3] for key in in_flight}
    counts: dict[tuple, int] = {}
    back: dict[tuple, int] = {}
    for index, key in enumerate(queued):
        split = key[:3]
        if split not in held:
            return index
        counts[split] = counts.get(split, 0) + 1
        back[split] = index
    return back[max(counts, key=counts.get)]


def _describe_error(error: BaseException) -> str:
    text = str(error).strip()
    name = type(error).__name__
    return f"{name}: {text}" if text else name


class Supervisor:
    """Owns pool lifecycle, submission, and fault-tolerant draining.

    Usage: ``with Supervisor(...) as sup: sup.submit(...); for event in
    sup.drain(): ...``.  Drain events are ``("ok", unit, result)`` or
    ``("failed", unit, UnitFailure)``; the supervisor never raises for
    unit failures, only for programming errors and interrupts.  The
    pool survives across successive ``drain()`` calls (workers keep
    their broadcast state) and is cancelled hard —
    ``cancel_futures=True`` plus process termination — when the
    ``with`` block exits on an exception such as ``KeyboardInterrupt``.
    """

    def __init__(
        self,
        jobs: int,
        payload,
        study_config,
        config: SupervisorConfig | None = None,
        manifest: FailureManifest | None = None,
    ):
        self.jobs = jobs
        self.config = config if config is not None else SupervisorConfig()
        self.manifest = manifest if manifest is not None else FailureManifest()
        self._initargs = (
            payload,
            study_config,
            self.config.fault_plan,
            observability.current_config(),
        )
        self._pool: ProcessPoolExecutor | None = None
        self._queue: deque[Unit] = deque()
        self._delayed: list[tuple[float, Unit]] = []
        self._in_flight: dict[Future, tuple[Unit, float | None]] = {}
        #: keys of units completed since the last pump, one per freed slot
        self._freed: list[tuple] = []

    # -- lifecycle -----------------------------------------------------

    def __enter__(self) -> "Supervisor":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is None and self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        else:
            self._kill_pool()
        return False

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs,
                initializer=_init_worker,
                initargs=self._initargs,
            )
        return self._pool

    def _kill_pool(self) -> None:
        """Tear the pool down without waiting on hung or dead workers."""
        pool, self._pool = self._pool, None
        if pool is None:
            return
        processes = list((getattr(pool, "_processes", None) or {}).values())
        pool.shutdown(wait=False, cancel_futures=True)
        for process in processes:
            try:
                process.terminate()
            except Exception:
                pass
        for process in processes:
            try:
                process.join(timeout=2.0)
                if process.is_alive():
                    process.kill()
                    process.join(timeout=2.0)
            except Exception:
                pass

    # -- submission ----------------------------------------------------

    def submit(self, kind: str, key: tuple, func: Callable, args: tuple) -> None:
        """Enqueue one unit.

        At ``jobs == 1`` units run in submission order.  On the pool at
        most ``jobs`` units are in flight, and a freed slot takes the
        queued unit :func:`next_unit_index` picks: the next cell of the
        split it just finished, else a split no worker holds, else a
        steal.
        """
        self._queue.append(Unit(kind, tuple(key), func, args))

    def discard(self, predicate: Callable[[Unit], bool]) -> int:
        """Drop queued/delayed units matching ``predicate`` (not in-flight).

        Used when a cell's parent split degrades to a single split unit:
        the sibling cells still queued would be wasted work.
        """
        before = len(self._queue) + len(self._delayed)
        self._queue = deque(u for u in self._queue if not predicate(u))
        self._delayed = [(t, u) for t, u in self._delayed if not predicate(u)]
        return before - len(self._queue) - len(self._delayed)

    # -- draining ------------------------------------------------------

    def drain(self) -> Iterator[tuple]:
        """Yield one event per submitted unit until the queue is empty."""
        if self.jobs == 1:
            yield from self._drain_in_process()
        else:
            yield from self._drain_pool()

    def _drain_in_process(self) -> Iterator[tuple]:
        while self._queue:
            unit = self._queue.popleft()
            try:
                faults.maybe_inject(unit.kind, unit.key, unit.attempt, in_process=True)
                with observability.span(f"unit/{unit.kind}", level="unit"):
                    result = unit.func(*unit.args)
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception as error:
                event = self._after_failure(unit, error, in_process=True)
                if event is not None:
                    yield event
            else:
                yield ("ok", unit, result)

    def _drain_pool(self) -> Iterator[tuple]:
        while self._queue or self._delayed or self._in_flight:
            now = time.monotonic()
            self._release_delayed(now)
            self._pump()
            if not self._in_flight:
                if self._delayed:
                    ready = min(t for t, _ in self._delayed)
                    time.sleep(max(0.0, ready - time.monotonic()))
                continue
            done, _ = wait(
                list(self._in_flight),
                timeout=self._wait_timeout(),
                return_when=FIRST_COMPLETED,
            )
            events: list[tuple] = []
            for future in done:
                entry = self._in_flight.pop(future, None)
                if entry is None:
                    continue  # already swept by a resurrection below
                unit, _ = entry
                self._freed.append(unit.key)
                try:
                    result = observability.unwrap_unit(future.result())
                except BrokenProcessPool as error:
                    events.extend(self._resurrect(unit, error))
                except (KeyboardInterrupt, SystemExit):
                    raise
                except Exception as error:
                    event = self._after_failure(unit, error, in_process=False)
                    if event is not None:
                        events.append(event)
                else:
                    events.append(("ok", unit, result))
            events.extend(self._expire_deadlines())
            yield from events

    # -- scheduling internals ------------------------------------------

    def _release_delayed(self, now: float) -> None:
        if not self._delayed:
            return
        due = [u for t, u in self._delayed if t <= now]
        if due:
            self._delayed = [(t, u) for t, u in self._delayed if t > now]
            self._queue.extend(due)

    def _pump(self) -> None:
        while self._queue and len(self._in_flight) < self.jobs:
            # a unit submitted right after a completion goes to the
            # worker that just went idle: route it by that worker's split
            hint = self._freed.pop() if self._freed else None
            index = next_unit_index(
                [unit.key for unit in self._queue],
                [unit.key for unit, _ in self._in_flight.values()],
                hint,
            )
            unit = self._queue[index]
            del self._queue[index]
            try:
                future = self._ensure_pool().submit(
                    _run_unit, unit.func, unit.args, unit.kind, unit.key, unit.attempt
                )
            except BrokenProcessPool:
                # The pool broke between drains; rebuild and resubmit.
                self._kill_pool()
                future = self._ensure_pool().submit(
                    _run_unit, unit.func, unit.args, unit.kind, unit.key, unit.attempt
                )
            deadline = None
            if self.config.timeout is not None:
                deadline = time.monotonic() + self.config.timeout
            self._in_flight[future] = (unit, deadline)
        self._freed.clear()

    def _wait_timeout(self) -> float | None:
        now = time.monotonic()
        candidates = []
        if self._delayed:
            candidates.append(min(t for t, _ in self._delayed) - now)
        deadlines = [d for _, d in self._in_flight.values() if d is not None]
        if deadlines:
            candidates.append(min(deadlines) - now)
        if not candidates:
            return None
        return max(0.05, min(candidates))

    def _after_failure(self, unit: Unit, error: BaseException, in_process: bool):
        """Retry with backoff, or emit the terminal failure event."""
        if unit.attempt < self.config.max_retries:
            self.manifest.count("retries")
            retried = replace(unit, attempt=unit.attempt + 1)
            delay = self._backoff_delay(retried)
            if in_process:
                if delay > 0.0:
                    time.sleep(delay)
                self._queue.append(retried)
            else:
                self._delayed.append((time.monotonic() + delay, retried))
            return None
        failure = UnitFailure(
            unit.kind, unit.key, unit.attempt + 1, _describe_error(error)
        )
        return ("failed", unit, failure)

    def _backoff_delay(self, unit: Unit) -> float:
        base = self.config.backoff_base
        if base <= 0.0:
            return 0.0
        delay = min(self.config.backoff_cap, base * (2 ** (unit.attempt - 1)))
        jitter = random.Random(
            derive_seed("retry-jitter", unit.kind, *unit.key, unit.attempt)
        ).uniform(0.5, 1.0)
        return delay * jitter

    def _scheduled_to_crash(self, unit: Unit) -> bool:
        """Was ``unit`` the scheduled culprit of a pool break?

        With a chaos plan the answer is deterministic; without one every
        in-flight unit is (conservatively) treated as a culprit.
        """
        plan = self.config.fault_plan
        if plan is None:
            return True
        return plan.decide(unit.kind, unit.key, unit.attempt) == faults.CRASH

    def _resurrect(self, unit: Unit, error: BrokenProcessPool) -> list[tuple]:
        """Rebuild after a pool break; requeue exactly the in-flight keys."""
        events: list[tuple] = []
        broken = [unit]
        for future in list(self._in_flight):
            other, _ = self._in_flight.pop(future)
            if future.done():
                # A result that landed before the break is still good.
                try:
                    result = observability.unwrap_unit(future.result())
                except Exception:
                    broken.append(other)
                else:
                    events.append(("ok", other, result))
            else:
                broken.append(other)
        self._kill_pool()
        self.manifest.count("resurrections")
        for victim in broken:
            if self._scheduled_to_crash(victim):
                event = self._after_failure(victim, error, in_process=False)
                if event is not None:
                    events.append(event)
            else:
                # Innocent bystander of someone else's crash: resubmit
                # at the same attempt, uncharged.
                self._queue.append(victim)
        return events

    def _expire_deadlines(self) -> list[tuple]:
        """Kill the pool if any in-flight unit overran its deadline.

        A running future cannot be cancelled, so the only way to stop a
        hung worker is to tear the whole pool down.  Finished futures
        are harvested first; expired units are charged an attempt;
        still-running innocents requeue at their current attempt.
        """
        if self.config.timeout is None or not self._in_flight:
            return []
        now = time.monotonic()
        hung = [
            future
            for future, (_, deadline) in self._in_flight.items()
            if deadline is not None and now >= deadline and not future.done()
        ]
        if not hung:
            return []
        events: list[tuple] = []
        for future in list(self._in_flight):
            if future.done():
                other, _ = self._in_flight.pop(future)
                try:
                    result = observability.unwrap_unit(future.result())
                except (KeyboardInterrupt, SystemExit):
                    raise
                except Exception as error:
                    event = self._after_failure(other, error, in_process=False)
                    if event is not None:
                        events.append(event)
                else:
                    events.append(("ok", other, result))
        hung_units = [
            self._in_flight.pop(future)[0]
            for future in hung
            if future in self._in_flight
        ]
        survivors = [u for u, _ in self._in_flight.values()]
        self._in_flight.clear()
        self._kill_pool()
        self.manifest.count("timeouts", len(hung_units))
        for victim in hung_units:
            error = TimeoutError(
                f"unit exceeded its {self.config.timeout:g}s deadline"
            )
            event = self._after_failure(victim, error, in_process=False)
            if event is not None:
                events.append(event)
        self._queue.extend(survivors)
        return events
