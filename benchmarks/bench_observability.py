"""Benchmark — run-report observability layer (ISSUE 10).

Two claims are on trial.  **Collection is nearly free**: with full
``unit``-level tracing and every layer counter live, the study wall
time should sit within 2% of the dark run — the instrumentation is one
global load and a ``None`` test when off, and plain dict arithmetic
when on.  **Collection is invisible in the results**: every observed
arm — including a 2-worker pool run whose metric deltas ship back with
each unit result, and a chaos arm that retries every cell twice — must
persist study JSON byte-identical to the unobserved reference.

Reported:

* ``observability_overhead`` — observed study wall time over the dark
  study wall time, minus one (asserted ≤ 0.02 at full scale; both arms
  run twice interleaved and take their min, so cache warmup and OS
  noise cannot be billed to the collector);
* ``observability_bytes_identical`` — the dark reference, both observed
  timing arms, the pooled arm and the chaos arm all persist the exact
  same bytes, recorded with the reference sha256;
* chaos recovery ledger — the chaos arm's :class:`RunReport` counts
  ``supervisor.retries`` exactly equal to the failure manifest (and to
  the analytically expected ``cells x faulty_attempts``); pass
  ``--report-out PATH`` to keep that report as a CI artifact.

Run directly (``python benchmarks/bench_observability.py``) or under
pytest; ``--tiny`` shrinks rows for the CI smoke (identity and ledger
gates only, no overhead gate).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import sys
import time
from pathlib import Path
from tempfile import TemporaryDirectory

from repro.cleaning import OUTLIERS, OutlierCleaning
from repro.core import CleanMLStudy, StudyConfig, SupervisorConfig, save_experiments
from repro.core.faults import FaultPlan
from repro.core.observability import ObservabilityConfig, build_report, observing

try:
    from .common import cpu_count, cpu_dispatch
except ImportError:  # running as a script: python benchmarks/bench_observability.py
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from benchmarks.common import cpu_count, cpu_dispatch

OUTPUT_PATH = Path(__file__).parent.parent / "BENCH_observability.json"

N_ROWS = 4000
TINY_ROWS = 120

STUDY_CONFIG = StudyConfig(
    n_splits=4,
    cv_folds=2,
    models=("logistic_regression", "naive_bayes"),
    seed=11,
)

OVERHEAD_GATE = 0.02

#: the most invasive configuration — unit spans plus all counters —
#: so the overhead and identity gates measure the worst case
OBSERVE_ALL = ObservabilityConfig(enabled=True, trace="unit")

#: every cell fails exactly twice, then succeeds: 4 splits x 1 method
#: x 2 models = 8 cells -> exactly 16 retries in manifest and report
CHAOS = FaultPlan(seed=1, exception_rate=1.0, faulty_attempts=2)
EXPECTED_RETRIES = STUDY_CONFIG.n_splits * len(STUDY_CONFIG.models) * 2


def run_arm(work: Path, label: str, n_rows: int, *, obs=None, n_jobs=1,
            granularity="split", supervisor=None):
    """One study arm: (sha256, seconds, run report or None, manifest stats)."""
    gc.collect()
    study = CleanMLStudy(STUDY_CONFIG)
    study.add(
        load_sensor(n_rows), OUTLIERS, methods=[OutlierCleaning("SD", "mean")]
    )
    report = None
    start = time.perf_counter()
    if obs is None:
        study.run(n_jobs=n_jobs, granularity=granularity, supervisor=supervisor)
    else:
        with observing(obs):
            study.run(
                n_jobs=n_jobs, granularity=granularity, supervisor=supervisor
            )
            report = build_report(meta={"arm": label, "benchmark": "observability"})
    seconds = time.perf_counter() - start
    if study.failure_manifest.failures:
        raise AssertionError(
            f"{label} arm quarantined units instead of recovering: "
            f"{study.failure_manifest.describe()}"
        )
    out = work / f"study-{label}.json"
    save_experiments(study.raw_experiments, out)
    sha = hashlib.sha256(out.read_bytes()).hexdigest()
    return sha, seconds, report, dict(study.failure_manifest.stats)


def load_sensor(n_rows: int):
    from repro.datasets import load_dataset

    return load_dataset("Sensor", seed=0, n_rows=n_rows)


def run_observability_bench(tiny: bool = False, report_out=None) -> dict:
    n_rows = TINY_ROWS if tiny else N_ROWS
    with TemporaryDirectory(prefix="bench_observability_") as tmp:
        work = Path(tmp)

        # timing arms, interleaved: min-of-two per arm so neither pays
        # for warming the other's caches
        ref_sha, dark_first, _, _ = run_arm(work, "dark-1", n_rows)
        on1_sha, on_first, on_report, _ = run_arm(
            work, "observed-1", n_rows, obs=OBSERVE_ALL
        )
        _, dark_second, _, _ = run_arm(work, "dark-2", n_rows)
        on2_sha, on_second, _, _ = run_arm(
            work, "observed-2", n_rows, obs=OBSERVE_ALL
        )
        dark_seconds = min(dark_first, dark_second)
        observed_seconds = min(on_first, on_second)
        overhead = round(observed_seconds / dark_seconds - 1.0, 4)

        # pooled arm: worker deltas must ship home and bytes must hold
        pool_sha, _, pool_report, _ = run_arm(
            work, "pool", n_rows, obs=OBSERVE_ALL, n_jobs=2, granularity="cell"
        )

        # chaos arm: the recovery ledger must be exact
        chaos_sha, _, chaos_report, chaos_stats = run_arm(
            work, "chaos", n_rows, obs=OBSERVE_ALL, granularity="cell",
            supervisor=SupervisorConfig(
                max_retries=3, backoff_base=0.0, fault_plan=CHAOS
            ),
        )
        if report_out is not None:
            chaos_report.save(report_out)

    chaos_retries = chaos_report.counters.get("supervisor.retries", 0)
    return {
        "benchmark": "observability",
        "cpu_count": cpu_count(),
        "cpu_dispatch": cpu_dispatch(),
        "study": (
            f"Sensor {n_rows} rows, {STUDY_CONFIG.n_splits} splits x SD/mean "
            f"x {len(STUDY_CONFIG.models)} models: dark vs unit-traced runs "
            "(interleaved, min-of-two), a 2-worker pooled arm shipping "
            "metric deltas, and an exception-chaos arm whose retry ledger "
            "must be exact"
        ),
        "n_rows": n_rows,
        "dark_seconds": round(dark_seconds, 3),
        "observed_seconds": round(observed_seconds, 3),
        "observability_overhead": overhead,
        "overhead_gate": OVERHEAD_GATE,
        "observability_bytes_identical": (
            {on1_sha, on2_sha, pool_sha, chaos_sha} == {ref_sha}
        ),
        "observed_counters": len(on_report.counters),
        "observed_spans": len(on_report.spans),
        "pool_shipped_counters": len(pool_report.counters),
        "chaos_retries": chaos_retries,
        "chaos_retries_expected": EXPECTED_RETRIES,
        "chaos_ledger_exact": (
            chaos_retries == EXPECTED_RETRIES
            and chaos_retries == chaos_stats.get("retries", -1)
        ),
        "study_sha256": ref_sha,
        "tiny": bool(tiny),
    }


def publish_report(report: dict) -> None:
    OUTPUT_PATH.parent.mkdir(exist_ok=True)
    OUTPUT_PATH.write_text(json.dumps(report, indent=1) + "\n")
    print(
        "\n".join(
            [
                "Observability on " + report["study"],
                f"  study, dark            {report['dark_seconds']:>7.3f}s",
                f"  study, unit-traced     {report['observed_seconds']:>7.3f}s",
                f"  observability overhead: {report['observability_overhead'] * 100:+.2f}% "
                f"(gate {report['overhead_gate'] * 100:.0f}% at full scale)",
                f"  bytes identical (all observed arms): "
                f"{report['observability_bytes_identical']}",
                f"  counters/spans collected: {report['observed_counters']}"
                f"/{report['observed_spans']} "
                f"(pooled arm shipped {report['pool_shipped_counters']} counters)",
                f"  chaos retry ledger exact: {report['chaos_ledger_exact']} "
                f"({report['chaos_retries']}/{report['chaos_retries_expected']} retries)",
                f"  reference sha256 {report['study_sha256'][:16]}...",
                f"[written to {OUTPUT_PATH}]",
            ]
        )
    )


def check_report(report: dict) -> None:
    """The invariants CI enforces — identity always, overhead at scale."""
    assert report["observability_bytes_identical"], (
        "an observed study arm diverged from the unobserved reference bytes"
    )
    assert report["observed_counters"] > 0 and report["observed_spans"] > 0, (
        "the observed arm collected nothing — instrumentation is dead"
    )
    assert report["pool_shipped_counters"] > 0, (
        "the pooled arm shipped no worker metric deltas"
    )
    assert report["chaos_ledger_exact"], (
        f"chaos retry ledger inexact: report counted "
        f"{report['chaos_retries']}, expected {report['chaos_retries_expected']}"
    )
    if report["n_rows"] >= N_ROWS:
        assert report["observability_overhead"] <= OVERHEAD_GATE, (
            f"unit-traced collection cost {report['observability_overhead']:.2%} "
            f"over the dark study; the gate is {OVERHEAD_GATE:.0%}"
        )


def test_observability(benchmark):
    from .common import once

    report = once(benchmark, lambda: run_observability_bench(tiny=True))
    publish_report(report)
    check_report(report)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="small configuration for the CI smoke (identity checks only)",
    )
    parser.add_argument(
        "--report-out",
        default=None,
        metavar="PATH",
        help="persist the chaos arm's RunReport JSON to PATH (CI artifact)",
    )
    args = parser.parse_args(argv)
    report = run_observability_bench(tiny=args.tiny, report_out=args.report_out)
    publish_report(report)
    check_report(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
