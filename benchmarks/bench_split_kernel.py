"""Benchmark — split-execution kernel (ISSUE 2 acceptance evidence).

Times one fixed study through the split-execution kernel and checks
that it writes **bit identical** persisted JSON to the pre-kernel
reference path (per-model encoder fits, no evaluation memo, per-row
reference transforms): the sha256 of the kernel run must equal the
digest recorded while that path still ran in-tree, where it and the
kernel wrote the same bytes at ``n_jobs`` 1 and 2.  A kernel run at
``n_jobs=2`` (block broadcast via the pool initializer) must match as
well, and a micro benchmark times ``FeatureEncoder.transform`` against
its per-row oracle (``tests/oracles/encode.py``) on a registry table,
asserting ``np.array_equal`` (dtype included).  The whole-study
reference timing can no longer be measured; the report cites it from
the committed ``BENCH_split_kernel.json`` it first appeared in.
Everything lands in ``BENCH_split_kernel.json`` at the repository root.

The study composition deliberately stresses the surfaces the kernel
optimizes: models that are cheap to fit but expensive to predict (KNN,
naive Bayes) so redundant predictions dominate trainings, a wide
one-hot vocabulary (Airbnb's listing names) so encoding is a real cost,
and an evaluation-heavy 30/70 train/test split so the shared-evaluation
memo carries most of the wall time.

Run directly (``python benchmarks/bench_split_kernel.py``) or under
pytest; ``--tiny`` shrinks splits/rows for the CI smoke, which fails
the step if ``results_bit_identical`` ever goes false.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.cleaning import OUTLIERS, OutlierCleaning
from repro.core import CleanMLStudy, StudyConfig
from repro.datasets import load_dataset
from repro.table import FeatureEncoder

try:
    from .common import cpu_count, cpu_dispatch, persisted_sha256
except ImportError:  # running as a script: python benchmarks/bench_split_kernel.py
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from benchmarks.common import cpu_count, cpu_dispatch, persisted_sha256
from tests.oracles import transform_reference

KERNEL_CONFIG = StudyConfig(
    n_splits=6,
    cv_folds=2,
    test_ratio=0.7,
    seed=7,
    models=("knn", "naive_bayes"),
)

TINY_CONFIG = StudyConfig(
    n_splits=2,
    cv_folds=2,
    test_ratio=0.7,
    seed=7,
    models=("knn", "naive_bayes"),
)

N_ROWS = 600
TINY_ROWS = 200

METHODS = (
    ("SD", "mean"),
    ("IQR", "mean"),
    ("IQR", "median"),
)

OUTPUT_PATH = Path(__file__).parent.parent / "BENCH_split_kernel.json"

#: sha256 of the persisted study JSON (full and ``--tiny`` shapes),
#: recorded at the last commit that still carried the reference path,
#: after checking that the reference path and the kernel wrote the same
#: bytes at n_jobs 1 and 2
REFERENCE_DIGESTS = {
    "full": "599a91a82ced458b78d547fdc5da089d7dae6339d4a31d20b76dbd8fa352967b",
    "tiny": "6e39b9d269aa364563cb5597e2c4d28533022e260d3ffa28858d4280df54b5b4",
}

#: the last measured whole-study reference timing (full shape)
CITED_REFERENCE = {
    "source": "BENCH_split_kernel.json at commit f47313b (n_jobs=1; core count not recorded)",
    "naive_seconds": 0.773,
    "kernel_seconds": 0.357,
    "speedup": 2.17,
}


def build_study(config: StudyConfig, n_rows: int = N_ROWS) -> CleanMLStudy:
    study = CleanMLStudy(config)
    study.add(
        load_dataset("Airbnb", seed=0, n_rows=n_rows),
        OUTLIERS,
        methods=[OutlierCleaning(d, r) for d, r in METHODS],
    )
    return study


def time_encoder(n_rows: int, repeats: int = 20) -> dict:
    """Micro-benchmark: vectorized transform vs the per-row oracle, bit-checked.

    Marketing (row-heavy, small categorical vocabularies) isolates the
    per-row loop the vectorization removes; on wide-vocabulary tables
    like Airbnb's the one-hot block allocation dominates both paths and
    masks the difference.
    """
    dataset = load_dataset("Marketing", seed=0, n_rows=max(2000, 4 * n_rows))
    features = dataset.dirty.features_table()
    encoder = FeatureEncoder().fit(features)
    fast = encoder.transform(features)
    reference = transform_reference(encoder, features)
    identical = bool(
        fast.dtype == reference.dtype and np.array_equal(fast, reference)
    )

    start = time.perf_counter()
    for _ in range(repeats):
        encoder.transform(features)
    vectorized = (time.perf_counter() - start) / repeats
    start = time.perf_counter()
    for _ in range(repeats):
        transform_reference(encoder, features)
    per_row = (time.perf_counter() - start) / repeats
    return {
        "table": f"Marketing dirty, {features.n_rows}x{encoder.n_features} encoded",
        "reference_seconds": round(per_row, 6),
        "vectorized_seconds": round(vectorized, 6),
        "speedup": round(per_row / vectorized, 2),
        "bit_identical": identical,
    }


def run_kernel_bench(tiny: bool = False) -> dict:
    config = TINY_CONFIG if tiny else KERNEL_CONFIG
    n_rows = TINY_ROWS if tiny else N_ROWS
    n_tasks = config.n_splits  # one block
    repeats = 1 if tiny else 5

    # warm caches (imports, dataset generation code paths) off the clock
    build_study(config, n_rows).run()

    # best-of-N wall times: min is the standard noise-robust estimator
    # for single-machine timing (anything above the min is interference)
    kernel_seconds = float("inf")
    for _ in range(repeats):
        kernel = build_study(config, n_rows)
        start = time.perf_counter()
        kernel.run(n_jobs=1)
        kernel_seconds = min(kernel_seconds, time.perf_counter() - start)

    parallel = build_study(config, n_rows)
    parallel.run(n_jobs=2)
    digest = persisted_sha256(kernel)
    reference_digest = REFERENCE_DIGESTS["tiny" if tiny else "full"]

    return {
        "benchmark": "split_kernel",
        "cpu_count": cpu_count(),
        "cpu_dispatch": cpu_dispatch(),
        "study": (
            f"Airbnb x outliers, {n_rows} rows, {config.n_splits} splits, "
            f"{len(config.models)} models, {len(METHODS)} methods, "
            f"test_ratio {config.test_ratio}"
        ),
        "n_tasks": n_tasks,
        "kernel_seconds": round(kernel_seconds, 3),
        "tasks_per_second": {"kernel": round(n_tasks / kernel_seconds, 2)},
        "cited_reference": CITED_REFERENCE,
        "encoder_transform": time_encoder(n_rows),
        "reference_digest": reference_digest,
        "results_bit_identical": digest == reference_digest,
        "parallel_bit_identical": persisted_sha256(parallel) == digest,
    }


def publish_report(report: dict) -> None:
    OUTPUT_PATH.parent.mkdir(exist_ok=True)
    OUTPUT_PATH.write_text(json.dumps(report, indent=1) + "\n")
    encoder = report["encoder_transform"]
    cited = report["cited_reference"]
    print(
        "\n".join(
            [
                "Split-execution kernel on " + report["study"],
                f"  kernel: {report['kernel_seconds']:>7.3f}s  "
                f"({report['tasks_per_second']['kernel']:.2f} tasks/s, "
                f"{report['cpu_count']} cores)",
                f"  reference bytes: {report['results_bit_identical']}, "
                f"n_jobs=2 identical: {report['parallel_bit_identical']}",
                f"  cited reference: {cited['speedup']:.2f}x ({cited['source']})",
                f"  encoder transform: {encoder['speedup']:.2f}x "
                f"(bit-identical: {encoder['bit_identical']})",
                f"[written to {OUTPUT_PATH}]",
            ]
        )
    )


def check_report(report: dict) -> None:
    """The invariants CI enforces — identity, never raw speed."""
    assert report["results_bit_identical"], (
        "kernel run diverged from the reference path's recorded digest"
    )
    assert report["parallel_bit_identical"], (
        "n_jobs=2 kernel run diverged from n_jobs=1"
    )
    assert report["encoder_transform"]["bit_identical"], (
        "vectorized encoder diverged from the per-row reference"
    )


def test_split_kernel(benchmark):
    from .common import once

    report = once(benchmark, run_kernel_bench)
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
    report = run_kernel_bench(tiny=args.tiny)
    publish_report(report)
    check_report(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
