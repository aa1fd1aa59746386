"""Tests for the fault-tolerant execution supervisor (ISSUE 7).

The crash matrix drives every recovery path — injected exceptions,
worker crashes with pool resurrection, hangs with deadline kills, torn
ledger appends, granularity degradation, and quarantine — through a
tiny but real study, and pins the contract that matters: a run that
retried, resurrected, or degraded its way to completion is
**byte-identical** to a fault-free run.  Faults come from the
deterministic chaos harness in :mod:`repro.core.faults`, so every
arm of the matrix is reproducible.
"""

import json
from concurrent.futures import Future

import pytest

from repro.cleaning import OUTLIERS, OutlierCleaning
from repro.core import (
    CleanMLStudy,
    FaultPlan,
    StudyConfig,
    StudyExecutionError,
    SupervisorConfig,
    load_checkpoint_state,
    merge_checkpoints,
    save_experiments,
)
from repro.core.runner import SplitResult, SplitWorkspace
from repro.core.supervisor import Supervisor, next_unit_index
from repro.datasets import load_dataset

FAST = StudyConfig(
    n_splits=2,
    cv_folds=2,
    models=("logistic_regression", "naive_bayes"),
    seed=7,
)

#: halved grid (one cleaning method) for the expensive arms
#: (timeouts, resurrection): 2 splits x 1 method x 2 models = 4 cells
SLIM_METHODS = (("SD", "mean"),)

#: chaos plan used by the crash matrix: crashes, exceptions, and torn
#: ledger appends all active at once; attempt >= 1 runs clean, so
#: max_retries >= 1 guarantees completion
CHAOS = FaultPlan(
    seed=11, crash_rate=0.2, exception_rate=0.3, torn_write_rate=0.5
)


def make_study(methods=(("SD", "mean"), ("IQR", "mean"))):
    study = CleanMLStudy(FAST)
    study.add(
        load_dataset("Sensor", seed=0, n_rows=100),
        OUTLIERS,
        methods=[OutlierCleaning(d, r) for d, r in methods],
    )
    return study


def run_study(out_path, methods=(("SD", "mean"), ("IQR", "mean")), **kwargs):
    """Run the tiny study and return (persisted bytes, failure manifest)."""
    study = make_study(methods)
    study.run(**kwargs)
    save_experiments(study.raw_experiments, out_path)
    return out_path.read_bytes(), study.failure_manifest


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """Fault-free persisted bytes for both study grids."""
    root = tmp_path_factory.mktemp("reference")
    fast, _ = run_study(root / "fast.json")
    slim, _ = run_study(root / "slim.json", methods=SLIM_METHODS)
    return {"fast": fast, "slim": slim}


class TestChaosMatrix:
    """Every granularity x job count completes bit-identically under chaos."""

    @pytest.mark.parametrize("granularity", ["split", "cell"])
    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_chaos_run_is_byte_identical(
        self, tmp_path, reference, granularity, n_jobs
    ):
        ledger = tmp_path / "ledger.jsonl"
        produced, manifest = run_study(
            tmp_path / "out.json",
            n_jobs=n_jobs,
            granularity=granularity,
            checkpoint=ledger,
            supervisor=SupervisorConfig(
                max_retries=5, backoff_base=0.001, fault_plan=CHAOS
            ),
        )
        assert produced == reference["fast"]
        # nothing was quarantined: the study recovered from every fault
        assert not manifest.failures and not manifest.dropped_blocks
        # the ledger survived the torn appends and holds no failures
        done, _, failed = load_checkpoint_state(ledger)
        assert len(done) == FAST.n_splits and not failed

    def test_chaos_schedule_is_deterministic(self, tmp_path):
        """Two identical chaos runs retry the same units the same way."""
        supervisor = SupervisorConfig(
            max_retries=5, backoff_base=0.001, fault_plan=CHAOS
        )
        first, manifest_a = run_study(
            tmp_path / "a.json", granularity="cell", supervisor=supervisor
        )
        second, manifest_b = run_study(
            tmp_path / "b.json", granularity="cell", supervisor=supervisor
        )
        assert first == second
        assert manifest_a.stats == manifest_b.stats
        assert manifest_a.stats.get("retries", 0) > 0


class TestRetries:
    def test_every_unit_fails_n_times_then_succeeds(self, tmp_path, reference):
        """exception_rate=1.0 with faulty_attempts=2: the retry counter is
        exactly (units x 2) and results are untouched."""
        plan = FaultPlan(seed=1, exception_rate=1.0, faulty_attempts=2)
        produced, manifest = run_study(
            tmp_path / "out.json",
            granularity="cell",
            supervisor=SupervisorConfig(
                max_retries=3, backoff_base=0.0, fault_plan=plan
            ),
        )
        assert produced == reference["fast"]
        # 2 splits x 2 methods x 2 models = 8 cells, 2 failures each
        assert manifest.stats["retries"] == 16

    def test_retries_exhausted_aborts_by_default(self, tmp_path):
        poison = (("split", "Sensor", "outliers", 0),)
        study = make_study()
        with pytest.raises(StudyExecutionError) as excinfo:
            study.run(
                supervisor=SupervisorConfig(
                    max_retries=1,
                    backoff_base=0.0,
                    fault_plan=FaultPlan(poison=poison),
                )
            )
        failure = excinfo.value.failure
        assert failure.kind == "split"
        assert failure.key == ("Sensor", "outliers", 0)
        assert failure.attempts == 2  # initial attempt + 1 retry


class TestPoolRecovery:
    """Worker crashes (BrokenProcessPool) and hangs (deadline kills)."""

    def test_crashed_workers_resurrect_the_pool(self, tmp_path, reference):
        plan = FaultPlan(seed=3, crash_rate=1.0)  # every unit dies once
        produced, manifest = run_study(
            tmp_path / "out.json",
            methods=SLIM_METHODS,
            n_jobs=2,
            granularity="cell",
            supervisor=SupervisorConfig(
                max_retries=2, backoff_base=0.001, fault_plan=plan
            ),
        )
        assert produced == reference["slim"]
        assert manifest.stats["resurrections"] >= 1
        assert manifest.stats["retries"] >= 4  # each of the 4 cells crashed

    def test_hung_units_hit_the_deadline_and_retry(self, tmp_path, reference):
        plan = FaultPlan(seed=5, hang_rate=1.0, hang_seconds=60.0)
        produced, manifest = run_study(
            tmp_path / "out.json",
            methods=SLIM_METHODS,
            n_jobs=2,
            granularity="cell",
            supervisor=SupervisorConfig(
                timeout=2.0, max_retries=2, backoff_base=0.001, fault_plan=plan
            ),
        )
        assert produced == reference["slim"]
        assert manifest.stats["timeouts"] >= 4  # every cell hung once


class TestDegradation:
    """The granularity fallback: a failing cell degrades to its split."""

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_poisoned_cell_degrades_to_split(self, tmp_path, reference, n_jobs):
        poison = (("cell", "Sensor", "outliers", 0, 0, "logistic_regression"),)
        produced, manifest = run_study(
            tmp_path / "out.json",
            n_jobs=n_jobs,
            granularity="cell",
            supervisor=SupervisorConfig(
                max_retries=1, backoff_base=0.0,
                fault_plan=FaultPlan(poison=poison),
            ),
        )
        assert produced == reference["fast"]
        assert manifest.stats["degraded_cells"] == 1
        assert not manifest.failures  # the split-level re-run succeeded

    def test_degraded_split_runs_only_the_cells_it_lacks(
        self, tmp_path, reference, monkeypatch
    ):
        """The poisoned cell is the only one its split unit computes.

        In process the other seven cells complete before the poisoned
        cell's retry fails, so the degraded split lacks just that cell:
        the grid's eight cells are each computed once.
        """
        poison = (("cell", "Sensor", "outliers", 0, 0, "logistic_regression"),)
        computed = []
        cell = SplitWorkspace.cell

        def spy(workspace, index, model):
            computed.append((workspace.split, index, model))
            return cell(workspace, index, model)

        monkeypatch.setattr(SplitWorkspace, "cell", spy)
        ledger = tmp_path / "ledger.jsonl"
        produced, manifest = run_study(
            tmp_path / "out.json",
            n_jobs=1,
            granularity="cell",
            checkpoint=ledger,
            supervisor=SupervisorConfig(
                max_retries=1, backoff_base=0.0,
                fault_plan=FaultPlan(poison=poison),
            ),
        )
        assert produced == reference["fast"]
        assert manifest.stats["degraded_cells"] == 1
        assert len(computed) == len(set(computed)) == 8
        # the ledger banks the seven cell units' cells, not the split
        # unit's, and both splits
        done, cells, _ = load_checkpoint_state(ledger)
        assert len(done) == 2 and len(cells) == 7


class TestQuarantine:
    POISON = (("split", "Sensor", "outliers", 1),)

    def quarantine_config(self):
        return SupervisorConfig(
            max_retries=1, backoff_base=0.0, quarantine=True,
            fault_plan=FaultPlan(poison=self.POISON),
        )

    def test_study_completes_with_failure_manifest(self, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        study = make_study()
        study.run(checkpoint=ledger, supervisor=self.quarantine_config())
        manifest = study.failure_manifest
        # the poisoned split was quarantined and its block dropped
        assert [f.key for f in manifest.failures] == [("Sensor", "outliers", 1)]
        assert manifest.dropped_blocks == [("Sensor", "outliers")]
        assert study.raw_experiments == []
        assert "quarantined" in manifest.describe()
        # the ledger carries the failure record alongside the good split
        done, _, failed = load_checkpoint_state(ledger)
        assert set(done) == {("Sensor", "outliers", 0)}
        assert failed[("Sensor", "outliers", 1)].attempts == 2

    def test_resume_without_fault_recovers_byte_identically(
        self, tmp_path, reference
    ):
        ledger = tmp_path / "ledger.jsonl"
        study = make_study()
        study.run(checkpoint=ledger, supervisor=self.quarantine_config())
        # the fault was environmental: resume with a clean supervisor
        produced, manifest = run_study(
            tmp_path / "out.json", checkpoint=ledger
        )
        assert produced == reference["fast"]
        assert not manifest.failures
        # merging the healed ledger resolves the key to its success
        merged = merge_checkpoints([ledger])
        assert isinstance(merged[("Sensor", "outliers", 1)], SplitResult)

    def test_failure_carries_structural_key_and_cause(self, tmp_path):
        study = make_study()
        study.run(checkpoint=tmp_path / "l.jsonl",
                  supervisor=self.quarantine_config())
        failure = study.failure_manifest.failures[0]
        assert failure.kind == "split"
        assert "InjectedFault" in failure.error


class TestKeyboardInterrupt:
    def test_interrupt_prints_resume_hint(self, tmp_path, capsys):
        ledger = tmp_path / "ledger.jsonl"
        study = make_study()

        def interrupt(dataset, error_type):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            study.run(progress=interrupt, checkpoint=ledger)
        captured = capsys.readouterr()
        assert "interrupted" in captured.err
        assert str(ledger) in captured.err


class TestCLI:
    def test_supervisor_flags_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["run", "Sensor", "outliers", "--task-timeout", "30",
             "--max-retries", "4", "--quarantine"]
        )
        assert args.task_timeout == 30.0
        assert args.max_retries == 4
        assert args.quarantine is True

    def test_supervisor_flags_default_off(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["run", "Sensor", "outliers"])
        assert args.task_timeout is None
        assert args.max_retries == 2
        assert args.quarantine is False


def cell(split, method, model="knn", dataset="Credit"):
    """A synthetic cell key: (dataset, error type, split, method, model)."""
    return (dataset, "outliers", split, method, model)


def simulate(queue, jobs):
    """Dispatch order of ``queue`` on ``jobs`` slots.

    The oldest in-flight unit completes first and its key is the hint
    for the slot it frees, as in :meth:`Supervisor._pump`.
    """
    queue, in_flight, order, hint = list(queue), [], [], None
    while queue:
        while queue and len(in_flight) < jobs:
            unit = queue.pop(next_unit_index(queue, in_flight, hint))
            hint = None
            in_flight.append(unit)
            order.append(unit)
        hint = in_flight.pop(0)
    return order


class FakePool:
    """Records submissions; futures complete only when a test says so."""

    def __init__(self):
        self.submitted = []

    def submit(self, fn, func, args, kind, key, attempt):
        self.submitted.append((key, attempt))
        return Future()


def fake_supervisor(keys, jobs=2):
    sup = Supervisor(jobs, None, None)
    pool = FakePool()
    sup._ensure_pool = lambda: pool
    for key in keys:
        sup.submit("cell" if len(key) == 5 else "split", key, None, ())
    return sup, pool


def complete(sup, key):
    """Finish the in-flight unit ``key`` and free its slot."""
    future = next(f for f, (u, _) in sup._in_flight.items() if u.key == key)
    unit, _ = sup._in_flight.pop(future)
    sup._freed.append(unit.key)
    return unit


class TestAffinityDispatch:
    """The freed-slot choice of :func:`next_unit_index`.

    Affinity decides only which worker rebuilds which split workspace;
    the chaos and intra-split matrices pin that outputs never move.
    """

    def test_split_units_stay_fifo(self):
        queue = [("Credit", "outliers", split) for split in range(5)]
        queue += [("Restaurant", "duplicates", split) for split in range(3)]
        for jobs in (1, 2, 4):
            assert simulate(queue, jobs) == queue

    def test_same_method_beats_same_split_beats_unheld_split(self):
        queue = [cell(1, 0), cell(0, 2, "nb"), cell(0, 1), cell(0, 0, "nb")]
        in_flight = [cell(2, 0)]
        hint = cell(0, 0)
        assert next_unit_index(queue, in_flight, hint) == 3
        queue.pop(3)
        # nearest method of the same split: a worker walking forward
        # takes method 1, one walking backward from 3 would take 2
        assert next_unit_index(queue, in_flight, hint) == 2
        assert next_unit_index(queue, in_flight, cell(0, 3)) == 1
        queue.pop(2)
        queue.pop(1)
        assert next_unit_index(queue, in_flight, hint) == 0

    def test_steal_takes_the_back_of_the_most_loaded_split(self):
        queue = [cell(0, m) for m in range(3)] + [cell(1, m) for m in range(5)]
        in_flight = [cell(0, 9), cell(1, 9)]
        for hint in (None, cell(2, 0), ("Credit", "outliers", 2)):
            assert queue[next_unit_index(queue, in_flight, hint)] == cell(1, 4)

    def test_hint_without_queued_cells_falls_through(self):
        queue = [cell(0, 1), cell(1, 0), cell(1, 1)]
        in_flight = [cell(0, 0)]
        # the hint's split 2 has nothing queued: the first split no
        # in-flight unit holds comes next, not the held split 0
        assert next_unit_index(queue, in_flight, cell(2, 5)) == 1

    def test_two_workers_on_one_split_start_at_opposite_ends(self):
        queue = [cell(0, m, model) for m in range(4) for model in ("knn", "nb")]
        assert simulate(queue, 2)[:2] == [cell(0, 0), cell(0, 3, "nb")]

    def test_a_freed_slot_takes_the_next_cell_of_its_split(self):
        keys = [cell(s, m, model) for s in (0, 1) for m in range(3)
                for model in ("knn", "nb")]
        sup, pool = fake_supervisor(keys)
        sup._pump()
        assert [key for key, _ in pool.submitted] == [cell(0, 0), cell(1, 0)]
        complete(sup, cell(1, 0))
        sup._pump()
        assert pool.submitted[-1][0] == cell(1, 0, "nb")
        complete(sup, cell(0, 0))
        sup._pump()
        assert pool.submitted[-1][0] == cell(0, 0, "nb")

    def test_discarded_cells_of_a_degraded_split_are_never_picked(self):
        keys = [cell(s, m) for s in (0, 1) for m in range(4)]
        sup, pool = fake_supervisor(keys)
        sup._pump()
        degraded = ("Credit", "outliers", 0)
        sup.discard(lambda u: u.kind == "cell" and u.key[:3] == degraded)
        sup.submit("split", degraded, None, ())
        # the degraded split's in-flight cell finishes; its hint must
        # not resurrect a discarded sibling
        complete(sup, cell(0, 0))
        sup._pump()
        rest = [u.key for u in sup._queue]
        dispatched = [key for key, _ in pool.submitted] + simulate(rest, 2)
        assert [k for k in dispatched if k[:3] == degraded] == [cell(0, 0), degraded]
        assert sorted(dispatched) == sorted([cell(0, 0), degraded] + keys[4:])

    def test_requeued_delayed_retries_still_dispatch(self):
        sup, pool = fake_supervisor([cell(0, 0), cell(0, 1), cell(1, 0)])
        sup._pump()
        failed = complete(sup, cell(0, 0))
        assert sup._after_failure(failed, RuntimeError("boom"), False) is None
        assert [u.key for u in sup._queue] == [cell(0, 1)]
        sup._release_delayed(float("inf"))
        sup._pump()
        # the retry sits at the back of the queue and is still taken
        assert pool.submitted[-1] == (cell(0, 0), 1)
        complete(sup, cell(1, 0))
        sup._pump()
        assert pool.submitted[-1] == (cell(0, 1), 0)
        assert not sup._queue
