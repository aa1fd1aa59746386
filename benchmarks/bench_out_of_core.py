"""Benchmark — out-of-core columnar storage and streaming I/O (ISSUE 8).

The scale story of the storage layer is the **ingest → inject → encode
pipeline**: reading a large CSV, planting missing values and outliers,
and encoding the features.  On the eager path every stage materializes
a full resident table (the CSV reader additionally builds a row-major
Python list of every cell); on the streaming path ingestion parses
column-major chunks that spill straight into the columnar store, the
injectors stream ``iter_chunks`` → store, and the base buffers of every
intermediate table are read-only memmaps — peak residency is a chunk
plus a column, not three copies of the dataset.

This benchmark builds a ≥1M-row synthetic sensor-log CSV (written
chunk-wise so the builder itself stays flat), then reports:

* ``ingest_speedup`` / ``speedup`` — streamed ``read_csv`` wall time vs
  the historical row-major reference parser on the same file
  (``rows_per_second`` for the streamed path), asserted ≥ 1.5x at full
  scale;
* ``rss_ratio`` — peak RSS of the full streaming pipeline over the
  eager pipeline, each measured in its own forked child against a
  no-op fork baseline (``benchmarks.common.measure_peak_rss``),
  asserted ≤ 0.5 at full scale; on platforms that cannot fork/measure
  the ratio is refused and annotated rather than invented;
* ``pipeline_bits_identical`` — the streaming pipeline's injected
  values and encoded feature matrix hash chunk-for-chunk to the same
  bytes as the eager pipeline under ``table_streaming_disabled()``;
* ``study_bytes_identical`` — a study run on a memory-mapped
  (``Dataset.spilled``) dataset at ``n_jobs=2 / granularity=cell``
  (workers re-open the maps) persists byte-identical JSON to the eager
  ``table_streaming_disabled()`` run, recorded with its sha256.

Run directly (``python benchmarks/bench_out_of_core.py``) or under
pytest; ``--tiny`` shrinks rows for the CI smoke (identity gates only).
"""

from __future__ import annotations

import argparse
import csv
import gc
import hashlib
import json
import sys
import time
from pathlib import Path
from tempfile import TemporaryDirectory

import numpy as np

from repro.cleaning import MISSING_VALUES, OUTLIERS, ImputationCleaning, OutlierCleaning
from repro.core import CleanMLStudy, StudyConfig, save_experiments
from repro.datasets import load_dataset
from repro.datasets.inject import inject_missing, inject_outliers
from repro.table import FeatureEncoder, read_csv, table_streaming_disabled
from repro.table.io import _read_csv_reference

try:
    from .common import cpu_count, measure_peak_rss
except ImportError:  # running as a script: python benchmarks/bench_out_of_core.py
    sys.path.insert(0, str(Path(__file__).parent))
    from common import cpu_count, measure_peak_rss

N_ROWS = 1_200_000
TINY_ROWS = 30_000
CHUNK_ROWS = 65_536

_SEGMENTS = [f"seg_{i}" for i in range(12)]

OUTPUT_PATH = Path(__file__).parent.parent / "BENCH_out_of_core.json"

STUDY_CONFIG = StudyConfig(
    n_splits=2,
    cv_folds=2,
    models=("logistic_regression", "naive_bayes"),
    seed=7,
)


def build_csv(path: Path, n_rows: int, seed: int = 0) -> None:
    """Write the synthetic sensor-log CSV chunk-wise (flat builder RSS)."""
    rng = np.random.default_rng(seed)
    header = [
        "volt:numeric", "rotate:numeric", "pressure:numeric",
        "vibration:numeric", "drift:numeric", "segment:categorical",
        "status:categorical!label",
    ]
    segments = np.array(_SEGMENTS, dtype=object)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for start in range(0, n_rows, CHUNK_ROWS):
            n = min(CHUNK_ROWS, n_rows - start)
            volt = rng.normal(170.0, 12.0, n)
            rotate = rng.normal(440.0, 40.0, n)
            pressure = rng.normal(100.0, 9.0, n)
            vibration = rng.normal(40.0, 4.0, n)
            drift = rng.uniform(-1.0, 1.0, n)
            seg = segments[rng.integers(0, len(segments), n)]
            status = np.where(volt + vibration * 3.0 > 290.0, "alarm", "ok")
            columns = [
                [repr(v) for v in volt.tolist()],
                [repr(v) for v in rotate.tolist()],
                [repr(v) for v in pressure.tolist()],
                [repr(v) for v in vibration.tolist()],
                [repr(v) for v in drift.tolist()],
                seg.tolist(),
                status.tolist(),
            ]
            writer.writerows(zip(*columns))


def run_pipeline(csv_path: Path, work: Path, streaming: bool) -> list[str]:
    """ingest → inject missing → inject outliers → encode, hashed per chunk.

    On the streaming path every stage spills to a columnar store and
    hands back a memory-mapped table; on the eager path (wrapped in
    ``table_streaming_disabled()`` by the caller) the ``spill``
    arguments are no-ops and every stage is fully resident.  Chunk
    boundaries for the digest sweep are fixed so both paths hash the
    same byte stream.
    """
    spill = (lambda name: work / name) if streaming else (lambda name: None)
    table = read_csv(csv_path, chunk_rows=CHUNK_ROWS, spill=spill("ingest"))
    table = inject_missing(
        table, ["pressure", "segment"], 0.05, np.random.default_rng(1234),
        spill=spill("missing"), chunk_rows=CHUNK_ROWS,
    )
    table = inject_outliers(
        table, ["volt", "vibration"], 0.02, np.random.default_rng(5678),
        spill=spill("outliers"), chunk_rows=CHUNK_ROWS,
    )
    encoder = FeatureEncoder().fit(table.features_table())
    digests = []
    for chunk in table.iter_chunks(CHUNK_ROWS):
        X = encoder.transform(chunk.features_table())
        digest = hashlib.sha256(X.tobytes())
        digest.update("\x1f".join(str(v) for v in chunk.labels).encode())
        digests.append(digest.hexdigest())
    return digests


def run_study(work: Path, mapped: bool, n_jobs: int, granularity: str) -> str:
    """sha256 of the persisted study JSON, on mapped or resident datasets."""
    study = CleanMLStudy(STUDY_CONFIG)
    sensor = load_dataset("Sensor", seed=0, n_rows=140)
    titanic = load_dataset("Titanic", seed=0, n_rows=140)
    if mapped:
        sensor = sensor.spilled(work / "sensor")
        titanic = titanic.spilled(work / "titanic")
    study.add(
        sensor, OUTLIERS,
        methods=[OutlierCleaning("SD", "mean"), OutlierCleaning("IQR", "mean")],
    )
    study.add(titanic, MISSING_VALUES, methods=[ImputationCleaning("mean", "mode")])
    study.run(n_jobs=n_jobs, granularity=granularity)
    out = work / f"study-{int(mapped)}-{n_jobs}-{granularity}.json"
    save_experiments(study.raw_experiments, out)
    return hashlib.sha256(out.read_bytes()).hexdigest()


def run_out_of_core_bench(tiny: bool = False) -> dict:
    n_rows = TINY_ROWS if tiny else N_ROWS
    with TemporaryDirectory(prefix="bench_ooc_") as tmp:
        work = Path(tmp)
        csv_path = work / "sensor_log.csv"
        build_csv(csv_path, n_rows)
        gc.collect()

        # peak-RSS arms first, while the parent is still small: each arm
        # runs the whole pipeline inside its own forked child, measured
        # against a no-op fork baseline (the child inherits parent RSS)
        _, base_rss = measure_peak_rss(lambda: None) or (None, None)
        if base_rss is not None:
            stream_digests, stream_rss = measure_peak_rss(
                lambda: run_pipeline(csv_path, work / "rss-stream", streaming=True)
            )

            def eager_arm():
                with table_streaming_disabled():
                    return run_pipeline(csv_path, work / "rss-eager", streaming=False)

            eager_digests, eager_rss = measure_peak_rss(eager_arm)
            rss_ratio = round(
                max(stream_rss - base_rss, 1) / max(eager_rss - base_rss, 1), 3
            )
        else:  # pragma: no cover - platform without fork/getrusage
            stream_digests = run_pipeline(csv_path, work / "rss-stream", True)
            with table_streaming_disabled():
                eager_digests = run_pipeline(csv_path, work / "rss-eager", False)
            stream_rss = eager_rss = rss_ratio = None

        # ingestion throughput: streamed column-major parse vs the
        # historical row-major reference on the same file
        start = time.perf_counter()
        streamed = read_csv(csv_path, chunk_rows=CHUNK_ROWS)
        stream_seconds = time.perf_counter() - start
        n_ingested = streamed.n_rows
        del streamed
        gc.collect()
        start = time.perf_counter()
        reference = _read_csv_reference(csv_path)
        reference_seconds = time.perf_counter() - start
        del reference
        gc.collect()
        ingest_speedup = round(reference_seconds / stream_seconds, 2)

        # study byte-identity: memory-mapped dataset, workers re-opening
        # the maps (n_jobs=2, cell granularity), vs the eager reference
        with table_streaming_disabled():
            eager_sha = run_study(work, mapped=True, n_jobs=1, granularity="split")
        mapped_sha = run_study(work, mapped=True, n_jobs=2, granularity="cell")

    report = {
        "benchmark": "out_of_core",
        "cpu_count": cpu_count(),
        "study": (
            f"synthetic sensor log, {n_rows} rows x 7 columns: chunk-streamed "
            f"CSV ingest (chunk={CHUNK_ROWS}) -> spill-injected missing+outliers "
            f"-> chunked encode, streaming/mmap vs eager resident"
        ),
        "n_rows": n_rows,
        "chunk_rows": CHUNK_ROWS,
        "speedup": ingest_speedup,
        "ingest_speedup": ingest_speedup,
        "kernel_seconds": round(stream_seconds, 3),
        "naive_seconds": round(reference_seconds, 3),
        "rows_per_second": int(n_ingested / stream_seconds),
        "streaming_peak_rss": stream_rss,
        "eager_peak_rss": eager_rss,
        "baseline_rss": base_rss,
        "rss_ratio": rss_ratio,
        "pipeline_bits_identical": stream_digests == eager_digests,
        "study_bytes_identical": mapped_sha == eager_sha,
        "study_sha256": mapped_sha,
        "tiny": bool(tiny),
    }
    if rss_ratio is None:
        report["rss_note"] = (
            "platform cannot fork/getrusage; refusing to report peak RSS"
        )
    return report


def publish_report(report: dict) -> None:
    OUTPUT_PATH.parent.mkdir(exist_ok=True)
    OUTPUT_PATH.write_text(json.dumps(report, indent=1) + "\n")
    ratio = report["rss_ratio"]
    rss_line = (
        f"  peak RSS ratio (stream/eager): {ratio}"
        if ratio is not None
        else "  peak RSS: not measurable on this platform (refused)"
    )
    print(
        "\n".join(
            [
                "Out-of-core storage on " + report["study"],
                f"  streamed ingest  {report['kernel_seconds']:>7.3f}s "
                f"({report['rows_per_second']} rows/s)",
                f"  reference ingest {report['naive_seconds']:>7.3f}s",
                f"  ingest speedup: {report['ingest_speedup']:.2f}x",
                rss_line,
                f"  pipeline bits identical: {report['pipeline_bits_identical']}",
                f"  study bytes identical:   {report['study_bytes_identical']} "
                f"(sha256 {report['study_sha256'][:16]}...)",
                f"[written to {OUTPUT_PATH}]",
            ]
        )
    )


def check_report(report: dict) -> None:
    """The invariants CI enforces — identity always, speed/RSS at scale."""
    assert report["pipeline_bits_identical"], (
        "streaming ingest/inject/encode diverged from the eager reference"
    )
    assert report["study_bytes_identical"], (
        "study on memory-mapped dataset diverged from table_streaming_disabled()"
    )
    if report["n_rows"] >= N_ROWS:
        assert report["ingest_speedup"] >= 1.5, (
            f"streamed read_csv won only {report['ingest_speedup']}x over the "
            "row-major reference at full scale"
        )
        if report["rss_ratio"] is not None:
            assert report["rss_ratio"] <= 0.5, (
                f"streaming pipeline peaked at {report['rss_ratio']} of the "
                "eager path's RSS; the gate is 0.5"
            )


def test_out_of_core(benchmark):
    from .common import once

    report = once(benchmark, lambda: run_out_of_core_bench(tiny=True))
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
    report = run_out_of_core_bench(tiny=args.tiny)
    publish_report(report)
    check_report(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
