"""Benchmark — detection cache of the cleaning kernel (ISSUE 3 evidence).

Times one fixed detection-heavy study through the kernel — one detector
fit + one detection per ``(detector fingerprint, table)`` per split —
and checks that it writes **bit identical** persisted JSON to the two
reference paths it replaced: the full pre-kernel path (private
per-method detector fits, per-model encoder fits, no evaluation memo,
per-row reference transforms) and the split kernel without the
detection cache.  The sha256 of the kernel run must equal the digest
recorded while those paths still ran in-tree, where all three wrote the
same bytes at ``n_jobs`` 1 and 2; a kernel run at ``n_jobs=2`` must
match as well.  That is the cache's correctness contract and the
invariant CI enforces.  The reference timings can no longer be
measured; the report cites them from the committed
``BENCH_cleaning_kernel.json`` they first appeared in.  Results land in
``BENCH_cleaning_kernel.json`` at the repository root.

The study composition deliberately stresses detection: the full Table 2
outlier grid on Credit (the isolation forest is fitted for the Mean /
Median / Mode / HoloClean repairs — 4 fits naive, 1 cached — and SD/IQR
likewise share threshold fits), plus the duplicate grid on Restaurant
(ZeroER's pair featurization dominates — on test splits under its
400-row blocking threshold it scores every pair, ~32k for a 259-row
split; its ``fit_detect`` byproduct hands the training detection to the
cache for free).  A single cheap model keeps training time from
masking the detection work.

A second arm, ``zeroer_features``, times the column-at-a-time ZeroER
pair kernel (``candidate_pairs`` + ``PairFeaturizer.features``) against
its per-pair oracle (``tests/oracles/zeroer.py``) on the Restaurant and
Airbnb test splits of the repository benchmark's duplicate blocks,
interleaved best-of-N, and gates ``zeroer_bit_identical``: the pairs
and every feature byte must match.

Run directly (``python benchmarks/bench_cleaning_kernel.py``) or under
pytest; ``--tiny`` shrinks rows/splits for the CI smoke, which fails
the step if any bit-identity gate ever goes false.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.cleaning import DUPLICATES, OUTLIERS, PairFeaturizer
from repro.cleaning.zeroer import candidate_pairs
from repro.core import CleanMLStudy, StudyConfig
from repro.datasets import load_dataset
from repro.table import train_test_split

try:
    from .common import cpu_count, persisted_sha256
except ImportError:  # running as a script: python benchmarks/bench_cleaning_kernel.py
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from benchmarks.common import cpu_count, persisted_sha256
from tests.oracles import candidate_pairs_reference, pair_features_reference

KERNEL_CONFIG = StudyConfig(
    n_splits=4,
    cv_folds=2,
    seed=7,
    models=("naive_bayes",),
)

TINY_CONFIG = StudyConfig(
    n_splits=2,
    cv_folds=2,
    seed=7,
    models=("naive_bayes",),
)

N_ROWS = 300
TINY_ROWS = 150

#: the duplicate blocks' rows in the repository benchmark's workloads
#: (``perfbench/workloads.py``): their test splits fall under ZeroER's
#: 400-row blocking threshold, so every pair is scored
ZEROER_DATASETS = ("Restaurant", "Airbnb")
ZEROER_ROWS = 800
ZEROER_REPEATS = 5

OUTPUT_PATH = Path(__file__).parent.parent / "BENCH_cleaning_kernel.json"

#: sha256 of the persisted study JSON (full and ``--tiny`` shapes),
#: recorded at the last commit that still carried the reference paths,
#: after checking that the pre-kernel path, the cache-off path and the
#: kernel wrote the same bytes at n_jobs 1 and 2
REFERENCE_DIGESTS = {
    "full": "7bad9c8526d091f37ae2c2bb2fd91bb6499c6a1466d67e27d7d4ce187882e304",
    "tiny": "ee899199b56dd938ddb300f9da247e49e671d896ae7a9140da7a955e90d1fc1c",
}

#: the last measured reference timings (full shape)
CITED_REFERENCE = {
    "source": "BENCH_cleaning_kernel.json at commit bf79bfe (n_jobs=1; core count not recorded)",
    "naive_seconds": 5.359,
    "no_detection_cache_seconds": 5.188,
    "kernel_seconds": 1.936,
    "speedup": 2.77,
    "detection_cache_speedup": 2.68,
}


def build_study(config: StudyConfig, n_rows: int = N_ROWS) -> CleanMLStudy:
    """Outliers x duplicates grid — registry methods, nothing hand-picked."""
    study = CleanMLStudy(config)
    study.add(load_dataset("Credit", seed=0, n_rows=n_rows), OUTLIERS)
    study.add(load_dataset("Restaurant", seed=0, n_rows=n_rows), DUPLICATES)
    return study


def time_zeroer_features(n_rows: int, repeats: int) -> dict:
    """Micro-benchmark: the ZeroER pair kernel vs its per-pair oracle.

    Fits a ``PairFeaturizer`` on each dataset's training split and
    featurizes every candidate pair of its test split, once through the
    per-pair oracles and once through the production kernel,
    interleaved best-of-N, and checks that the pairs and the feature
    bytes are equal.
    """
    splits = []
    for name in ZEROER_DATASETS:
        train, test = train_test_split(
            load_dataset(name, seed=0, n_rows=n_rows).dirty, seed=0
        )
        splits.append((PairFeaturizer().fit(train), test))
    naive_seconds = kernel_seconds = float("inf")
    identical = True
    for _ in range(repeats):
        start = time.perf_counter()
        naive = []
        for featurizer, test in splits:
            pairs = candidate_pairs_reference(test, featurizer.categorical)
            features = pair_features_reference(featurizer, test, pairs)
            naive.append((pairs, features))
        naive_seconds = min(naive_seconds, time.perf_counter() - start)

        start = time.perf_counter()
        kernel = []
        for featurizer, test in splits:
            a, b = candidate_pairs(test, featurizer.categorical)
            kernel.append((a, b, featurizer.features(test, a, b)))
        kernel_seconds = min(kernel_seconds, time.perf_counter() - start)
        identical = identical and all(
            list(zip(a.tolist(), b.tolist())) == pairs
            and X.shape == R.shape
            and X.tobytes() == R.tobytes()
            for (pairs, R), (a, b, X) in zip(naive, kernel)
        )
    return {
        "tables": ", ".join(
            f"{name} test split ({test.n_rows} rows)"
            for name, (_, test) in zip(ZEROER_DATASETS, splits)
        ),
        "pairs": sum(len(pairs) for pairs, _ in naive),
        "naive_seconds": round(naive_seconds, 4),
        "kernel_seconds": round(kernel_seconds, 4),
        "speedup": round(naive_seconds / kernel_seconds, 2),
        "zeroer_bit_identical": bool(identical),
    }


def run_cleaning_bench(tiny: bool = False) -> dict:
    config = TINY_CONFIG if tiny else KERNEL_CONFIG
    n_rows = TINY_ROWS if tiny else N_ROWS
    n_tasks = 2 * config.n_splits  # two blocks
    repeats = 1 if tiny else 3

    # warm caches (imports, dataset generation code paths) off the clock
    build_study(config, n_rows).run()

    # best-of-N wall times: anything above the min is interference
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
        "benchmark": "cleaning_kernel",
        "cpu_count": cpu_count(),
        "study": (
            f"Credit x outliers (12 Table 2 methods) + Restaurant x "
            f"duplicates (2 methods), {n_rows} rows, {config.n_splits} "
            f"splits, models {list(config.models)}"
        ),
        "n_tasks": n_tasks,
        "kernel_seconds": round(kernel_seconds, 3),
        "tasks_per_second": {"kernel": round(n_tasks / kernel_seconds, 2)},
        "cited_reference": CITED_REFERENCE,
        "zeroer_features": time_zeroer_features(
            TINY_ROWS if tiny else ZEROER_ROWS, 1 if tiny else ZEROER_REPEATS
        ),
        "reference_digest": reference_digest,
        "results_bit_identical": digest == reference_digest,
        "parallel_bit_identical": persisted_sha256(parallel) == digest,
    }


def publish_report(report: dict) -> None:
    OUTPUT_PATH.parent.mkdir(exist_ok=True)
    OUTPUT_PATH.write_text(json.dumps(report, indent=1) + "\n")
    cited = report["cited_reference"]
    zeroer = report["zeroer_features"]
    print(
        "\n".join(
            [
                "Cleaning kernel (detection cache) on " + report["study"],
                f"  kernel: {report['kernel_seconds']:>7.3f}s  "
                f"({report['tasks_per_second']['kernel']:.2f} tasks/s, "
                f"{report['cpu_count']} cores)",
                f"  reference bytes: {report['results_bit_identical']}, "
                f"n_jobs=2 identical: {report['parallel_bit_identical']}",
                f"  cited reference: {cited['speedup']:.2f}x vs naive, "
                f"{cited['detection_cache_speedup']:.2f}x from the detection "
                f"cache alone ({cited['source']})",
                f"  ZeroER pair features: {zeroer['speedup']:.2f}x over "
                f"{zeroer['pairs']} pairs on {zeroer['tables']} "
                f"(bit-identical: {zeroer['zeroer_bit_identical']})",
                f"[written to {OUTPUT_PATH}]",
            ]
        )
    )


def check_report(report: dict) -> None:
    """The invariants CI enforces — identity, never raw speed."""
    assert report["results_bit_identical"], (
        "detection-cache run diverged from the reference paths' recorded digest"
    )
    assert report["parallel_bit_identical"], (
        "n_jobs=2 cleaning-kernel run diverged from n_jobs=1"
    )
    assert report["zeroer_features"]["zeroer_bit_identical"], (
        "the ZeroER pair kernel diverged from its per-pair oracle"
    )


def test_cleaning_kernel(benchmark):
    from .common import once

    report = once(benchmark, run_cleaning_bench)
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
    report = run_cleaning_bench(tiny=args.tiny)
    publish_report(report)
    check_report(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
