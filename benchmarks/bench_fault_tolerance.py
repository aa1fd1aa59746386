"""Benchmark — fault-tolerant supervisor under chaos injection (ISSUE 7).

Runs one study four ways — fault-free, with injected exceptions
(in-process), with worker crashes + torn ledger appends (pool
resurrection), and with hangs against a per-unit deadline — and gates
on the supervisor's core promise: every recovered run is **bit
identical** to the clean one.  A fifth arm poisons a split into
quarantine, checks the failure manifest and the format-4 ledger record,
resumes from the surviving ledger without the fault, and gates on the
resumed results matching the reference.

Recovery cost is reported as ``recovery_overhead`` — chaos wall time
over clean wall time for the pooled crash arm — which is meaningful
even on one core (it measures retries and pool rebuilds, not
parallelism), so there is no refuse-and-annotate split here; the
identity gates are the CI contract either way.

Run directly (``python benchmarks/bench_fault_tolerance.py``) or under
pytest; ``--tiny`` shrinks rows/grid for the CI chaos smoke, which
fails the step if any ``*_identical`` gate is false.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

from repro.cleaning import OUTLIERS, OutlierCleaning
from repro.core import (
    FaultPlan,
    FailureManifest,
    StudyBlock,
    StudyConfig,
    SupervisorConfig,
    execute_study,
    load_checkpoint_state,
)
from repro.datasets import load_dataset

try:
    from .common import cpu_count
except ImportError:  # running as a script: python benchmarks/bench_fault_tolerance.py
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from benchmarks.common import cpu_count

FULL_CONFIG = StudyConfig(
    n_splits=3,
    cv_folds=2,
    seed=7,
    models=("logistic_regression", "knn", "naive_bayes"),
)

TINY_CONFIG = StudyConfig(
    n_splits=2,
    cv_folds=2,
    seed=7,
    models=("logistic_regression", "naive_bayes"),
)

N_ROWS = 300
TINY_ROWS = 140

FULL_METHODS = (("SD", "mean"), ("IQR", "mean"), ("SD", "median"), ("IQR", "median"))
TINY_METHODS = (("SD", "mean"), ("IQR", "median"))

OUTPUT_PATH = Path(__file__).parent.parent / "BENCH_fault_tolerance.json"


def build_blocks(tiny: bool) -> list[StudyBlock]:
    methods = TINY_METHODS if tiny else FULL_METHODS
    return [
        StudyBlock(
            dataset=load_dataset(
                "Sensor", seed=0, n_rows=TINY_ROWS if tiny else N_ROWS
            ),
            error_type=OUTLIERS,
            methods=tuple(OutlierCleaning(d, r) for d, r in methods),
        )
    ]


def time_arm(
    config: StudyConfig,
    tiny: bool,
    n_jobs: int,
    granularity: str,
    supervisor: SupervisorConfig | None = None,
    checkpoint=None,
):
    """(wall seconds, experiments, manifest) of one chaos arm."""
    blocks = build_blocks(tiny)
    manifest = FailureManifest()
    start = time.perf_counter()
    experiments = execute_study(
        blocks,
        config,
        n_jobs=n_jobs,
        granularity=granularity,
        supervisor=supervisor,
        checkpoint=checkpoint,
        manifest=manifest,
    )
    return time.perf_counter() - start, experiments, manifest


def run_fault_tolerance_bench(tiny: bool = False) -> dict:
    config = TINY_CONFIG if tiny else FULL_CONFIG
    wall: dict[str, float] = {}
    stats: dict[str, dict] = {}

    wall["clean"], reference, _ = time_arm(config, tiny, 2, "cell")

    # injected exceptions, no pool: the in-process retry path
    seconds, experiments, manifest = time_arm(
        config, tiny, 1, "cell",
        supervisor=SupervisorConfig(
            max_retries=5, backoff_base=0.001,
            fault_plan=FaultPlan(seed=11, exception_rate=0.5),
        ),
    )
    wall["exception_chaos"] = seconds
    stats["exception_chaos"] = dict(manifest.stats)
    exception_identical = experiments == reference

    # worker crashes + torn ledger appends: pool resurrection and the
    # append-heal protocol under fire
    with tempfile.TemporaryDirectory() as scratch:
        seconds, experiments, manifest = time_arm(
            config, tiny, 2, "cell",
            supervisor=SupervisorConfig(
                max_retries=5, backoff_base=0.001,
                fault_plan=FaultPlan(
                    seed=11, crash_rate=0.2, exception_rate=0.3,
                    torn_write_rate=0.5,
                ),
            ),
            checkpoint=Path(scratch) / "ledger.jsonl",
        )
    wall["crash_chaos"] = seconds
    stats["crash_chaos"] = dict(manifest.stats)
    crash_identical = experiments == reference

    # hangs against a per-unit deadline: the pool-kill timeout path
    seconds, experiments, manifest = time_arm(
        config, tiny, 2, "cell",
        supervisor=SupervisorConfig(
            timeout=2.0, max_retries=2, backoff_base=0.001,
            fault_plan=FaultPlan(seed=5, hang_rate=0.3, hang_seconds=60.0),
        ),
    )
    wall["timeout_chaos"] = seconds
    stats["timeout_chaos"] = dict(manifest.stats)
    timeout_identical = experiments == reference

    # quarantine: a poisoned split completes the study with a failure
    # manifest + format-4 ledger record; a clean resume then recovers
    block = build_blocks(tiny)[0]
    poison = (("split", block.dataset.name, block.error_type, 0),)
    with tempfile.TemporaryDirectory() as scratch:
        ledger = Path(scratch) / "ledger.jsonl"
        seconds, experiments, manifest = time_arm(
            config, tiny, 1, "split",
            supervisor=SupervisorConfig(
                max_retries=1, backoff_base=0.0, quarantine=True,
                fault_plan=FaultPlan(poison=poison),
            ),
            checkpoint=ledger,
        )
        wall["quarantine"] = seconds
        stats["quarantine"] = dict(manifest.stats)
        _, _, failed = load_checkpoint_state(ledger)
        quarantine_recorded = (
            len(manifest.failures) == 1
            and manifest.dropped_blocks == [(block.dataset.name, block.error_type)]
            and experiments == []
            and set(failed) == {(block.dataset.name, block.error_type, 0)}
        )
        _, experiments, manifest = time_arm(
            config, tiny, 1, "split", checkpoint=ledger
        )
        resume_identical = experiments == reference and not manifest.failures

    recovered = sum(
        arm.get("retries", 0) + arm.get("timeouts", 0)
        for arm in stats.values()
    )
    report = {
        "benchmark": "fault_tolerance",
        "study": (
            f"{block.dataset.name} x outliers, "
            f"{block.dataset.dirty.n_rows} rows, {config.n_splits} splits, "
            f"{len(TINY_METHODS if tiny else FULL_METHODS)} methods x "
            f"{len(config.models)} models"
        ),
        "cpu_count": cpu_count(),
        "wall_time_seconds": {k: round(v, 3) for k, v in wall.items()},
        "recovery_stats": stats,
        "faults_recovered": recovered,
        "recovery_overhead": round(wall["crash_chaos"] / wall["clean"], 2),
        "exception_chaos_identical": bool(exception_identical),
        "crash_chaos_identical": bool(crash_identical),
        "timeout_chaos_identical": bool(timeout_identical),
        "quarantine_manifest_recorded": bool(quarantine_recorded),
        "resume_after_quarantine_identical": bool(resume_identical),
    }
    return report


def publish_report(report: dict) -> None:
    OUTPUT_PATH.parent.mkdir(exist_ok=True)
    OUTPUT_PATH.write_text(json.dumps(report, indent=1) + "\n")
    lines = [
        "Fault-tolerant supervisor on " + report["study"],
        f"  cores: {report['cpu_count']}",
    ]
    for arm, seconds in report["wall_time_seconds"].items():
        stats = report["recovery_stats"].get(arm, {})
        recovered = ", ".join(f"{k} {v}" for k, v in sorted(stats.items()))
        lines.append(f"  {arm:<16} {seconds:>7.3f}s  {recovered}")
    lines.append(
        f"  recovery overhead (crash chaos / clean): "
        f"{report['recovery_overhead']:.2f}x"
    )
    for gate in (
        "exception_chaos_identical",
        "crash_chaos_identical",
        "timeout_chaos_identical",
        "quarantine_manifest_recorded",
        "resume_after_quarantine_identical",
    ):
        lines.append(f"  {gate}: {report[gate]}")
    lines.append(f"[written to {OUTPUT_PATH}]")
    print("\n".join(lines))


def check_report(report: dict) -> None:
    """The invariants CI enforces: recovery never changes a bit."""
    for gate in (
        "exception_chaos_identical",
        "crash_chaos_identical",
        "timeout_chaos_identical",
        "resume_after_quarantine_identical",
    ):
        assert report[gate], f"supervisor recovery diverged: {gate} is false"
    assert report["quarantine_manifest_recorded"], (
        "quarantine did not record the failure manifest + ledger entry"
    )
    # chaos must actually have exercised the machinery, or the identity
    # gates above are vacuous
    assert report["faults_recovered"] > 0, "no faults were injected"


def test_fault_tolerance(benchmark):
    from .common import once

    report = once(benchmark, run_fault_tolerance_bench)
    publish_report(report)
    check_report(report)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="small configuration for the CI chaos smoke",
    )
    args = parser.parse_args(argv)
    report = run_fault_tolerance_bench(tiny=args.tiny)
    publish_report(report)
    check_report(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
