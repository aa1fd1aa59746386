"""Benchmark — storage-integrity layer (ISSUE 9).

Two claims are on trial.  **Verification is nearly free**: the format-2
store computes per-column sha256 digests while the bytes stream through
the writer (zero extra passes), and the default ``lazy`` mode checks
each digest once per process on first materialization — so the full
ingest → inject → encode pipeline over the ≥1M-row sensor log should
cost within 5% of the same pipeline with verification off.  **Recovery
is invisible**: a study whose spilled store is corrupted mid-flight
(a flipped payload bit, or a torn column whose rebuild keeps hitting
injected ``ENOSPC``) heals through the supervisor's recovery ladder —
rebuild under a new generation, or degrade to the registered resident
table — and persists JSON byte-identical to the fault-free eager run.

Reported:

* ``verification_overhead`` — lazy-verified pipeline wall time over the
  verification-off pipeline, minus one (asserted ≤ 0.05 at full scale;
  the off arm runs first and last, taking the min, so OS file-cache
  warmup cannot be billed to verification);
* ``verify_bits_identical`` — both arms hash chunk-for-chunk to the
  same encoded bytes (verification must never perturb data);
* ``faultfree_bytes_identical`` / ``rebuild_bytes_identical`` /
  ``degrade_bytes_identical`` — the mapped fault-free, bit-flip-healed
  and ENOSPC-degraded studies each persist the eager reference's exact
  bytes, recorded with its sha256, plus the recovery counters proving
  the ladder actually fired.

Run directly (``python benchmarks/bench_storage_integrity.py``) or
under pytest; ``--tiny`` shrinks rows for the CI smoke (identity and
recovery gates only, no overhead gate).
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
from repro.core.faults import BIT_FLIP, TORN_COLUMN, FaultPlan, corrupt_store
from repro.datasets import load_dataset
from repro.table import store_info, store_verification, table_streaming_disabled

try:
    from .bench_out_of_core import CHUNK_ROWS, N_ROWS, TINY_ROWS, build_csv, run_pipeline
    from .common import cpu_count
except ImportError:  # running as a script: python benchmarks/bench_storage_integrity.py
    sys.path.insert(0, str(Path(__file__).parent))
    from bench_out_of_core import CHUNK_ROWS, N_ROWS, TINY_ROWS, build_csv, run_pipeline
    from common import cpu_count

OUTPUT_PATH = Path(__file__).parent.parent / "BENCH_storage_integrity.json"

STUDY_CONFIG = StudyConfig(
    n_splits=2,
    cv_folds=2,
    models=("naive_bayes",),
    seed=11,
)

OVERHEAD_GATE = 0.05


def timed_pipeline(csv_path: Path, work: Path, mode: str) -> tuple[list[str], float]:
    """(chunk digests, seconds) of the streaming pipeline under one mode."""
    gc.collect()
    with store_verification(mode):
        start = time.perf_counter()
        digests = run_pipeline(csv_path, work, streaming=True)
        seconds = time.perf_counter() - start
    return digests, seconds


def run_study(work: Path, label: str, *, corruption=None, plan=None,
              mapped: bool = True) -> tuple[str, dict]:
    """(sha256 of persisted JSON, recovery counters) for one study arm."""
    study = CleanMLStudy(STUDY_CONFIG)
    sensor = load_dataset("Sensor", seed=0, n_rows=120)
    if mapped:
        sensor = sensor.spilled(work / f"{label}-sensor")
    study.add(sensor, OUTLIERS, methods=[OutlierCleaning("SD", "mean")])
    if corruption is not None:
        corrupt_store(work / f"{label}-sensor" / "dirty", corruption)
    supervisor = SupervisorConfig(max_retries=6, backoff_base=0.0, fault_plan=plan)
    study.run(n_jobs=1, granularity="split", supervisor=supervisor)
    stats = dict(study.failure_manifest.stats)
    if study.failure_manifest.failures:
        raise AssertionError(
            f"{label} arm quarantined units instead of healing: "
            f"{study.failure_manifest.describe()}"
        )
    out = work / f"study-{label}.json"
    save_experiments(study.raw_experiments, out)
    return hashlib.sha256(out.read_bytes()).hexdigest(), stats


def run_storage_integrity_bench(tiny: bool = False) -> dict:
    n_rows = TINY_ROWS if tiny else N_ROWS
    with TemporaryDirectory(prefix="bench_integrity_") as tmp:
        work = Path(tmp)
        csv_path = work / "sensor_log.csv"
        build_csv(csv_path, n_rows)

        # overhead arms: off warms the file cache, lazy pays for digests,
        # the second off run removes any residual warmup from the bill
        off_digests, off_first = timed_pipeline(csv_path, work / "off-1", "off")
        lazy_digests, lazy_seconds = timed_pipeline(csv_path, work / "lazy", "lazy")
        _, off_second = timed_pipeline(csv_path, work / "off-2", "off")
        off_seconds = min(off_first, off_second)
        overhead = round(lazy_seconds / off_seconds - 1.0, 4)

        # recovery arms: eager fault-free reference, then mapped arms
        # that must land on its exact bytes whatever breaks on disk
        with table_streaming_disabled():
            eager_sha, _ = run_study(work, "eager", mapped=False)
        faultfree_sha, _ = run_study(work, "faultfree")
        rebuild_sha, rebuild_stats = run_study(work, "rebuild", corruption=BIT_FLIP)
        rebuilt_generation = store_info(work / "rebuild-sensor" / "dirty")["generation"]
        degrade_sha, degrade_stats = run_study(
            work,
            "degrade",
            corruption=TORN_COLUMN,
            plan=FaultPlan(enospc_rate=1.0, io_faulty_attempts=1_000_000),
        )

    return {
        "benchmark": "storage_integrity",
        "cpu_count": cpu_count(),
        "study": (
            f"synthetic sensor log, {n_rows} rows x 7 columns: streamed "
            f"ingest -> inject -> encode (chunk={CHUNK_ROWS}) with sha256 "
            "store verification off vs lazy; plus corrupt-store recovery "
            "(bit-flip rebuild, ENOSPC degrade) pinned to the eager study"
        ),
        "n_rows": n_rows,
        "chunk_rows": CHUNK_ROWS,
        "verify_off_seconds": round(off_seconds, 3),
        "verify_lazy_seconds": round(lazy_seconds, 3),
        "verification_overhead": overhead,
        "overhead_gate": OVERHEAD_GATE,
        "verify_bits_identical": lazy_digests == off_digests,
        "faultfree_bytes_identical": faultfree_sha == eager_sha,
        "rebuild_bytes_identical": rebuild_sha == eager_sha,
        "degrade_bytes_identical": degrade_sha == eager_sha,
        "store_rebuilds": rebuild_stats.get("store_rebuilds", 0),
        "store_degradations": degrade_stats.get("store_degradations", 0),
        "rebuilt_generation": rebuilt_generation,
        "study_sha256": eager_sha,
        "tiny": bool(tiny),
    }


def publish_report(report: dict) -> None:
    OUTPUT_PATH.parent.mkdir(exist_ok=True)
    OUTPUT_PATH.write_text(json.dumps(report, indent=1) + "\n")
    print(
        "\n".join(
            [
                "Storage integrity on " + report["study"],
                f"  pipeline, verification off  {report['verify_off_seconds']:>7.3f}s",
                f"  pipeline, lazy sha256       {report['verify_lazy_seconds']:>7.3f}s",
                f"  verification overhead: {report['verification_overhead'] * 100:+.2f}% "
                f"(gate {report['overhead_gate'] * 100:.0f}% at full scale)",
                f"  verify bits identical:    {report['verify_bits_identical']}",
                f"  fault-free bytes identical: {report['faultfree_bytes_identical']}",
                f"  rebuild heals bit flip:   {report['rebuild_bytes_identical']} "
                f"({report['store_rebuilds']} rebuilds, "
                f"generation {report['rebuilt_generation']})",
                f"  degrade heals ENOSPC:     {report['degrade_bytes_identical']} "
                f"({report['store_degradations']} degradations)",
                f"  reference sha256 {report['study_sha256'][:16]}...",
                f"[written to {OUTPUT_PATH}]",
            ]
        )
    )


def check_report(report: dict) -> None:
    """The invariants CI enforces — identity always, overhead at scale."""
    assert report["verify_bits_identical"], (
        "lazy verification perturbed the pipeline's encoded bytes"
    )
    assert report["faultfree_bytes_identical"], (
        "mapped fault-free study diverged from the eager reference"
    )
    assert report["rebuild_bytes_identical"], (
        "bit-flip-healed study diverged from the eager reference"
    )
    assert report["degrade_bytes_identical"], (
        "ENOSPC-degraded study diverged from the eager reference"
    )
    assert report["store_rebuilds"] >= 1, "rebuild arm never exercised the ladder"
    assert report["store_degradations"] >= 1, "degrade arm never exercised the ladder"
    assert report["rebuilt_generation"] >= 2, "rebuild did not bump the generation"
    if report["n_rows"] >= N_ROWS:
        assert report["verification_overhead"] <= OVERHEAD_GATE, (
            f"lazy sha256 verification cost {report['verification_overhead']:.2%} "
            f"over the unverified pipeline; the gate is {OVERHEAD_GATE:.0%}"
        )


def test_storage_integrity(benchmark):
    from .common import once

    report = once(benchmark, lambda: run_storage_integrity_bench(tiny=True))
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
    report = run_storage_integrity_bench(tiny=args.tiny)
    publish_report(report)
    check_report(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
