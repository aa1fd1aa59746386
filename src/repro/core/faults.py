"""Deterministic chaos injection for the execution supervisor.

The supervisor (:mod:`repro.core.supervisor`) is only trustworthy if its
recovery paths are exercised on purpose, repeatably.  This module is the
fault side of that bargain: a :class:`FaultPlan` decides — purely from a
unit's structural key, its attempt number, and the plan's seed — whether
a given execution should crash the worker process, hang, raise, or tear
the checkpoint append that records its result.  Because the decision is
a function of ``derive_seed`` over structural identity (never wall
clock, never execution order), a chaos run is exactly reproducible: the
same plan injects the same faults into the same units on every machine,
which is what lets the crash-matrix tests and
``benchmarks/bench_fault_tolerance.py`` pin a chaos run's persisted
output byte-identical to a fault-free run.

Fault kinds
-----------

* ``crash`` — the worker process dies mid-unit (``os._exit``), breaking
  the pool; exercises :class:`BrokenProcessPool` resurrection.  With no
  pool to kill (``n_jobs=1``), the crash is simulated as a raised
  :class:`InjectedCrash` — the in-process analogue of "this attempt
  produced nothing".
* ``hang`` — the unit sleeps ``hang_seconds``; exercises per-unit
  deadlines (the supervisor kills and rebuilds the pool, since a
  ``ProcessPoolExecutor`` future cannot be cancelled once running).
  In-process it raises :class:`InjectedHang` immediately — the main
  process cannot be preempted, so a simulated hang is an abandoned
  attempt.
* ``exception`` — the unit raises :class:`InjectedFault`; exercises the
  retry/backoff path.
* ``torn write`` — the checkpoint append for a completed unit is
  preceded by a partial, unterminated JSON fragment, simulating a
  crash mid-append by a previous process; exercises the ledger's
  torn-tail healing.

Faults only fire while ``attempt < faulty_attempts`` (default 1), so
any supervisor with ``max_retries >= faulty_attempts`` is *guaranteed*
to retry its way to completion — the property the bit-identity gates
rely on.  ``poison`` keys are the exception: they fail every attempt,
driving the degradation/quarantine paths.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass

from .runner import derive_seed

#: fault kind identifiers (also the ``decide`` return values)
CRASH = "crash"
HANG = "hang"
EXCEPTION = "exception"


class InjectedFault(RuntimeError):
    """A deliberate failure raised by the chaos harness."""


class InjectedCrash(InjectedFault):
    """In-process surrogate for a worker process dying mid-unit."""


class InjectedHang(InjectedFault):
    """In-process surrogate for a hung, deadline-abandoned unit."""


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of faults keyed by structural identity.

    Rates are independent per (kind, key, attempt): one uniform draw
    seeded by ``derive_seed(seed, "chaos", kind, *key, attempt)`` is
    compared against the cumulative crash/hang/exception thresholds, so
    a unit suffers at most one fault kind per attempt and the schedule
    is identical across hosts, pool rebuilds, and resumed runs.

    ``poison`` entries are exact ``(kind, *key)`` tuples that raise on
    *every* attempt regardless of rates — the tool for forcing a unit
    through retries into degradation or quarantine.
    """

    seed: int = 0
    crash_rate: float = 0.0
    hang_rate: float = 0.0
    exception_rate: float = 0.0
    torn_write_rate: float = 0.0
    hang_seconds: float = 30.0
    faulty_attempts: int = 1
    poison: tuple[tuple, ...] = ()

    def decide(self, kind: str, key: tuple, attempt: int) -> str | None:
        """Which fault (if any) fires for this unit execution."""
        if self.poison and (kind, *key) in {tuple(p) for p in self.poison}:
            return EXCEPTION
        if attempt >= self.faulty_attempts:
            return None
        draw = random.Random(
            derive_seed(self.seed, "chaos", kind, *key, attempt)
        ).random()
        if draw < self.crash_rate:
            return CRASH
        if draw < self.crash_rate + self.hang_rate:
            return HANG
        if draw < self.crash_rate + self.hang_rate + self.exception_rate:
            return EXCEPTION
        return None

    def decide_torn_write(self, key: tuple) -> bool:
        """Whether the ledger append recording ``key`` is torn first."""
        if self.torn_write_rate <= 0.0:
            return False
        draw = random.Random(derive_seed(self.seed, "torn", *key)).random()
        return draw < self.torn_write_rate


# The active plan is process-global: workers receive it through the pool
# initializer, the parent installs it for the duration of a supervised
# study (in-process units and ledger appends both run in the parent).
_ACTIVE_PLAN: FaultPlan | None = None


def install_plan(plan: FaultPlan | None) -> None:
    """Install ``plan`` as this process's active fault plan."""
    global _ACTIVE_PLAN
    _ACTIVE_PLAN = plan


def clear_plan() -> None:
    """Deactivate chaos injection in this process."""
    install_plan(None)


def maybe_inject(kind: str, key: tuple, attempt: int, in_process: bool) -> None:
    """Fire the scheduled fault (if any) for one unit execution.

    Called at the top of every supervised unit, before the task body.
    ``in_process`` selects the surrogate behaviour for crash/hang when
    there is no worker process to kill or abandon.
    """
    plan = _ACTIVE_PLAN
    if plan is None:
        return
    fault = plan.decide(kind, key, attempt)
    if fault is None:
        return
    context = f"{kind} unit {tuple(key)!r} (attempt {attempt})"
    if fault == CRASH:
        if not in_process:
            os._exit(86)
        raise InjectedCrash(f"injected crash in {context}")
    if fault == HANG:
        if not in_process:
            # Sleep, then run normally: if the supervisor has a deadline
            # it will have killed this worker long before the sleep
            # ends; without one the unit is merely late, never wrong.
            time.sleep(plan.hang_seconds)
            return
        raise InjectedHang(f"injected hang in {context}")
    raise InjectedFault(f"injected exception in {context}")


def torn_write_fragment(key: tuple) -> str | None:
    """A partial ledger line to prepend before the append for ``key``.

    Returns ``None`` when no torn write is scheduled.  The fragment has
    no trailing newline — exactly what a crash mid-``write`` leaves
    behind — so the ledger's torn-tail healing must drop it for the
    subsequent append to land cleanly.
    """
    plan = _ACTIVE_PLAN
    if plan is None or not plan.decide_torn_write(key):
        return None
    return '{"task": ["torn-write-fragment", "lost'
