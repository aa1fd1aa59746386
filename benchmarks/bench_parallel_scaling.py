"""Benchmark — parallel execution scaling (ISSUE 1 acceptance evidence).

Times the same study at ``n_jobs`` = 1, 2, 4 and records wall times,
speedups, and the machine's core count into ``BENCH_parallel.json`` at
the repository root.  The executor guarantees bit-identical
results at every job count, so this benchmark also re-verifies that
equality on the timed runs — a speedup that changed the numbers would
be no speedup at all.

Interpretation: meaningful speedup (the issue's >=1.5x at 4 jobs)
requires >=4 physical cores; on fewer cores the parallel runs mostly
measure process-pool overhead.  On a single-core machine the benchmark
**refuses to report speedups** — earlier runs recorded 0.95x/0.90x with
nothing signalling that no parallelism was possible — and instead
annotates the JSON with the reason, keeping only the sequential
baseline (now the split-execution kernel path) and the bit-identity
re-verification, which is meaningful at any core count.

Run directly (``python benchmarks/bench_parallel_scaling.py``) or under
pytest; ``--jobs 1 2`` restricts the job counts (the CI smoke uses
that to stay fast).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.cleaning import OUTLIERS, OutlierCleaning
from repro.core import CleanMLStudy, StudyConfig
from repro.datasets import load_dataset

try:
    from .common import cpu_count, cpu_dispatch
except ImportError:  # running as a script: python benchmarks/bench_parallel_scaling.py
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from benchmarks.common import cpu_count, cpu_dispatch

JOB_COUNTS = (1, 2, 4)

SCALING_CONFIG = StudyConfig(
    n_splits=8,
    cv_folds=2,
    seed=0,
    models=("logistic_regression", "knn", "naive_bayes", "decision_tree"),
    model_overrides={"decision_tree": {"max_depth": 6}},
)

OUTPUT_PATH = Path(__file__).parent.parent / "BENCH_parallel.json"


def build_study(config=SCALING_CONFIG) -> CleanMLStudy:
    study = CleanMLStudy(config)
    study.add(
        load_dataset("Sensor", seed=0, n_rows=200),
        OUTLIERS,
        methods=[
            OutlierCleaning("SD", "mean"),
            OutlierCleaning("IQR", "mean"),
            OutlierCleaning("IQR", "median"),
        ],
    )
    return study


def run_scaling(job_counts=JOB_COUNTS) -> dict:
    cores = cpu_count()
    single_core = cores < 2
    timings = {}
    reference = None
    for jobs in job_counts:
        study = build_study()
        start = time.perf_counter()
        study.run(n_jobs=jobs)
        elapsed = time.perf_counter() - start
        timings[jobs] = elapsed
        if reference is None:
            reference = study.raw_experiments
        elif study.raw_experiments != reference:
            raise AssertionError(
                f"n_jobs={jobs} produced different results than n_jobs=1"
            )
    sequential = timings[job_counts[0]]
    report = {
        "benchmark": "parallel_scaling",
        "study": "Sensor x outliers, 8 splits, 4 models, 3 methods",
        "cpu_count": cores,
        "cpu_dispatch": cpu_dispatch(),
        "kernel": "split-execution kernel (shared encoding + one method record per split)",
        "sequential_baseline_seconds": round(sequential, 3),
        "wall_time_seconds": {str(jobs): round(t, 3) for jobs, t in timings.items()},
        "results_bit_identical": True,
    }
    if single_core:
        # refuse-and-annotate: a 1-core "speedup" would only measure
        # process-pool overhead and read as a regression
        report["speedup_vs_sequential"] = None
        report["note"] = (
            "cpu_count == 1: no parallelism is possible, so speedups are "
            "suppressed; parallel wall times above measure process-pool "
            "overhead only and bit-identity was still re-verified"
        )
    else:
        report["speedup_vs_sequential"] = {
            str(jobs): round(sequential / t, 3) for jobs, t in timings.items()
        }
    return report


def publish_report(report: dict) -> None:
    OUTPUT_PATH.parent.mkdir(exist_ok=True)
    OUTPUT_PATH.write_text(json.dumps(report, indent=1) + "\n")
    lines = [
        "Parallel scaling on " + report["study"],
        f"cores: {report['cpu_count']}",
    ]
    speedups = report["speedup_vs_sequential"]
    for jobs, seconds in report["wall_time_seconds"].items():
        if speedups is None:
            lines.append(f"  n_jobs={jobs}: {seconds:>7.3f}s")
        else:
            lines.append(
                f"  n_jobs={jobs}: {seconds:>7.3f}s  ({speedups[jobs]:.2f}x)"
            )
    if report.get("note"):
        lines.append(f"note: {report['note']}")
    lines.append(f"[written to {OUTPUT_PATH}]")
    print("\n".join(lines))


def test_parallel_scaling(benchmark):
    from .common import once

    report = once(benchmark, run_scaling)
    publish_report(report)
    # the hard guarantee is determinism; speedup depends on core count
    assert report["results_bit_identical"]
    if (report["cpu_count"] or 1) >= 4 and "4" in report["wall_time_seconds"]:
        assert report["speedup_vs_sequential"]["4"] >= 1.5


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--jobs", type=int, nargs="+", default=list(JOB_COUNTS),
        help="job counts to time (first one is the sequential reference)",
    )
    args = parser.parse_args(argv)
    publish_report(run_scaling(tuple(args.jobs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
