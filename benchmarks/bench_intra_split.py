"""Benchmark — two-level scheduler, intra-split parallelism.

The worst case for split-level scheduling is a study whose split count
is smaller than the machine's core count: a **1-split, full-grid** study
(Airbnb x the complete Table 2 outlier grid — 12 methods x 3 searched
models = 36 (method, model) cells) leaves every worker but one idle.
This benchmark times that study at ``granularity="split"`` (the
sequential baseline — one task, nothing to parallelize), then at
``granularity="cell"`` across worker counts, and asserts every arm
produces **bit identical** raw experiments.

A second study gives the same grid two splits and runs it on two
workers at split and at cell granularity.  There split-affine dispatch
matters: each worker should keep to its own split and only steal at the
end.  The cell arm must match the split arm bit for bit (the
``affinity_bit_identical`` gate); its ``executor.workspace_builds``
count and both wall times are recorded for information only.

On a single-core machine it follows ``bench_parallel_scaling``'s
refuse-and-annotate precedent: no speedups are reported (they would only
measure pool overhead), the JSON says why, and the bit-identity gates —
the invariants CI enforces — still run at every granularity.

Run directly (``python benchmarks/bench_intra_split.py``) or under
pytest; ``--tiny`` shrinks rows/grid/search for the CI smoke, which
fails the step if ``results_bit_identical`` is ever false.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

from repro.cleaning import OUTLIERS, OutlierCleaning
from repro.core import StudyBlock, StudyConfig, execute_study, observing
from repro.core.executor import block_method_names
from repro.datasets import load_dataset

try:
    from .common import cpu_count, cpu_dispatch
except ImportError:  # running as a script: python benchmarks/bench_intra_split.py
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from benchmarks.common import cpu_count, cpu_dispatch

SEARCH_MODELS = ("knn", "naive_bayes", "decision_tree")

#: the paper-grid configuration: one split, full Table 2 outlier grid
FULL_CONFIG = StudyConfig(
    n_splits=1,
    cv_folds=3,
    search_iters=2,
    seed=7,
    models=SEARCH_MODELS,
)

TINY_CONFIG = StudyConfig(
    n_splits=1,
    cv_folds=2,
    search_iters=1,
    seed=7,
    models=("knn", "naive_bayes"),
)

N_ROWS = 300
TINY_ROWS = 140

TINY_METHODS = (("SD", "mean"), ("IQR", "median"))

OUTPUT_PATH = Path(__file__).parent.parent / "BENCH_intra_split.json"


def build_blocks(config: StudyConfig, tiny: bool) -> list[StudyBlock]:
    if tiny:
        return [
            StudyBlock(
                dataset=load_dataset("Sensor", seed=0, n_rows=TINY_ROWS),
                error_type=OUTLIERS,
                methods=tuple(
                    OutlierCleaning(d, r) for d, r in TINY_METHODS
                ),
            )
        ]
    # methods=None: the full registry grid for the error type
    return [
        StudyBlock(
            dataset=load_dataset("Airbnb", seed=0, n_rows=N_ROWS),
            error_type=OUTLIERS,
        )
    ]


def time_arm(config: StudyConfig, tiny: bool, n_jobs: int, granularity: str):
    """(wall seconds, raw experiments) of one scheduling arm."""
    blocks = build_blocks(config, tiny)
    start = time.perf_counter()
    experiments = execute_study(
        blocks, config, n_jobs=n_jobs, granularity=granularity
    )
    return time.perf_counter() - start, experiments


def run_affinity_arms(config: StudyConfig, tiny: bool) -> dict:
    """Two splits on two workers: split units vs split-affine cells."""
    two_splits = replace(config, n_splits=2)
    split_s, reference = time_arm(two_splits, tiny, 2, "split")
    with observing() as collector:
        cell_s, experiments = time_arm(two_splits, tiny, 2, "cell")
    return {
        "n_splits": 2,
        "wall_time_seconds": {
            "split@2": round(split_s, 3),
            "cell@2": round(cell_s, 3),
        },
        "workspace_builds": collector.counters.get("executor.workspace_builds", 0),
        "affinity_bit_identical": bool(experiments == reference),
    }


def run_intra_split_bench(tiny: bool = False) -> dict:
    config = TINY_CONFIG if tiny else FULL_CONFIG
    cores = cpu_count()
    single_core = cores < 2

    blocks = build_blocks(config, tiny)
    n_methods = len(block_method_names(blocks[0], config))
    n_cells = n_methods * len(config.models)

    # a split-level run at n_jobs=2 is the idle-machine baseline: one
    # pending task, so the executor cannot use the second worker at all
    arms = [("split", 1), ("split", 2), ("cell", 2)]
    if cores >= 4:
        arms.append(("cell", 4))

    wall: dict[str, float] = {}
    reference = None
    identical = True
    for granularity, n_jobs in arms:
        seconds, experiments = time_arm(config, tiny, n_jobs, granularity)
        wall[f"{granularity}@{n_jobs}"] = round(seconds, 3)
        if reference is None:
            reference = experiments
        else:
            identical = identical and experiments == reference

    report = {
        "benchmark": "intra_split",
        "study": (
            f"{blocks[0].dataset.name} x outliers, "
            f"{blocks[0].dataset.dirty.n_rows} rows, 1 split, "
            f"{n_methods} methods x {len(config.models)} models = "
            f"{n_cells} cells, search_iters {config.search_iters}, "
            f"cv_folds {config.cv_folds}"
        ),
        "n_cells": n_cells,
        "cpu_count": cores,
        "cpu_dispatch": cpu_dispatch(),
        "wall_time_seconds": wall,
        "naive_seconds": wall["split@1"],
        "results_bit_identical": bool(identical),
        "affinity": run_affinity_arms(config, tiny),
    }
    if single_core:
        # refuse-and-annotate: a 1-core "speedup" would only measure
        # pool overhead (the bench_parallel_scaling precedent)
        report["speedup"] = None
        report["speedup_note"] = (
            "cpu_count == 1: no parallelism is possible, so sub-split "
            "speedups are not reported; the bit-identity gates above "
            "are the meaningful result on this machine"
        )
    else:
        report["speedup"] = round(wall["split@1"] / wall["cell@2"], 2)
        report["speedup_by_arm"] = {
            arm: round(wall["split@1"] / seconds, 2)
            for arm, seconds in wall.items()
            if arm != "split@1"
        }
    return report


def publish_report(report: dict) -> None:
    OUTPUT_PATH.parent.mkdir(exist_ok=True)
    OUTPUT_PATH.write_text(json.dumps(report, indent=1) + "\n")
    lines = [
        "Two-level scheduler on " + report["study"],
        f"  cores: {report['cpu_count']}",
    ]
    for arm, seconds in report["wall_time_seconds"].items():
        speedups = report.get("speedup_by_arm") or {}
        headline = f"({speedups[arm]:.2f}x)" if arm in speedups else ""
        lines.append(f"  {arm:<8} {seconds:>7.3f}s  {headline}")
    if report["speedup"] is None:
        lines.append(f"  {report['speedup_note']}")
    else:
        lines.append(f"  cell@2 speedup: {report['speedup']:.2f}x")
    lines.append(
        f"  bit-identical across all arms: {report['results_bit_identical']}"
    )
    affinity = report["affinity"]
    walls = "  ".join(
        f"{arm} {seconds:.3f}s"
        for arm, seconds in affinity["wall_time_seconds"].items()
    )
    lines.append(
        f"  2 splits: {walls}, {affinity['workspace_builds']} workspace "
        f"builds, bit-identical: {affinity['affinity_bit_identical']}"
    )
    lines.append(f"[written to {OUTPUT_PATH}]")
    print("\n".join(lines))


def check_report(report: dict) -> None:
    """The invariants CI enforces — identity always, speed only at scale."""
    assert report["results_bit_identical"], (
        "sub-split scheduling diverged from the split-level baseline"
    )
    assert report["affinity"]["affinity_bit_identical"], (
        "split-affine cell dispatch diverged from the 2-split split arm"
    )
    # speed is asserted only where it is meaningful: the full-size study
    # on a machine with enough cores for the cell wave to fan out
    if report["speedup"] is not None and report["cpu_count"] >= 4:
        if report["n_cells"] >= 36:
            assert report["speedup"] >= 1.2, (
                f"cell-level scheduling won only {report['speedup']}x "
                "on a multi-core machine"
            )


def test_intra_split(benchmark):
    from .common import once

    report = once(benchmark, run_intra_split_bench)
    publish_report(report)
    check_report(report)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="small configuration for the CI smoke (identity checks only)",
    )
    args = parser.parse_args(argv)
    report = run_intra_split_bench(tiny=args.tiny)
    publish_report(report)
    check_report(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
