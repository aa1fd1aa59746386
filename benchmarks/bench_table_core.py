"""Benchmark — columnar table core with zero-copy views (ISSUE 6).

The scale story of the columnar refactor is the **slice pipeline**: the
runner takes a 70/30 split of the dataset, then slices the training side
into CV folds, and encodes every fold — three levels of row selection
per (method, model) cell.  On the pre-view table each level re-copied
every column (object arrays included) and the encoder re-ran its
Python-level value→code map per slice; on the view core each level is
index arithmetic over shared buffers and the code map runs once per
underlying buffer.

This benchmark builds a synthetically scaled Airbnb-like table (500k
rows full, 20k ``--tiny``), runs the split → fold → encode pipeline on
the view path and on the eager reference path — every row selection
through the copy-on-``take`` oracle in ``tests/oracles/table.py`` — and
reports:

* ``encode_bits_identical`` — every fold's encoded matrix hashes to the
  same bytes on both paths (the correctness gate CI enforces);
* ``view_buffers_identical`` — the no-copy proof: every feature column
  of a split-of-split view shares (``is``-identity) the root table's
  buffer, and encoding never materializes the view;
* ``speedup`` — reference seconds / view seconds for the whole
  pipeline, each arm the best of ``REPEATS`` interleaved passes,
  asserted ≥ 2x at full scale.

Run directly (``python benchmarks/bench_table_core.py``) or under
pytest; ``--tiny`` shrinks rows for the CI smoke (identity gates only).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.table import FeatureEncoder, Table, make_schema

try:
    from tests.oracles import table_take_reference
except ImportError:  # running as a script: python benchmarks/bench_table_core.py
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from tests.oracles import table_take_reference
from benchmarks.common import cpu_count

N_ROWS = 500_000
TINY_ROWS = 20_000

#: split → fold shape: each round takes a 60% "train" slice of the
#: table, then encodes 3 fold-train slices of ~2/3 of it
N_ROUNDS = 6
N_FOLDS = 3
TRAIN_RATIO = 0.6

#: timed passes per arm at full scale (interleaved, best-of-N)
REPEATS = 3

#: the categorical surface of a scraped-listings table — many small
#: vocabularies, the shape that makes per-slice value→code mapping the
#: reference path's dominant cost
_VOCABS = {
    "room_type": ["entire_home", "private_room", "shared_room"],
    "bed_type": ["real_bed", "futon", "couch"],
    "property_type": ["apartment", "house", "condo", "loft"],
    "cancellation": ["flexible", "moderate", "strict", "super_strict"],
    "neighborhood": ["downtown", "midtown", "suburb", "airport", "beach"],
    "response_time": ["hour", "few_hours", "day", "few_days", "unknown"],
    "host_tier": [f"tier_{i}" for i in range(6)],
    "city": [f"city_{i}" for i in range(8)],
}

OUTPUT_PATH = Path(__file__).parent.parent / "BENCH_table_core.json"


def build_table(n_rows: int, seed: int = 0) -> Table:
    """An Airbnb-like listings table at synthetic scale.

    Numeric columns are passed as ``float64`` arrays (the constructor's
    vectorized path); categoricals draw from small fixed vocabularies so
    the one-hot width stays realistic.
    """
    rng = np.random.default_rng(seed)
    schema = make_schema(
        numeric=["accommodates", "reviews", "review_score", "availability"],
        categorical=list(_VOCABS),
        label="rate",
    )

    def pick(vocab: list[str]) -> np.ndarray:
        values = np.empty(n_rows, dtype=object)
        values[:] = np.array(vocab, dtype=object)[
            rng.integers(0, len(vocab), size=n_rows)
        ]
        return values

    review_score = np.clip(rng.normal(4.6, 0.3, n_rows), 1.0, 5.0)
    data = {
        "accommodates": np.clip(rng.poisson(3.0, n_rows), 1, 12).astype(np.float64),
        "reviews": rng.poisson(20.0, n_rows).astype(np.float64),
        "review_score": review_score,
        "availability": rng.uniform(0.0, 365.0, n_rows),
        "rate": np.where(review_score > 4.6, "high", "low").astype(object),
    }
    for name, vocab in _VOCABS.items():
        data[name] = pick(vocab)
    return Table(
        schema,
        {spec.name: _column(data[spec.name], spec) for spec in schema.columns},
    )


def _column(values, spec):
    from repro.table import Column

    return Column(values, spec.ctype)


def make_slices(n_rows: int, seed: int = 1):
    """(train_indices, fold_indices) per round — fixed across both paths."""
    rng = np.random.default_rng(seed)
    rounds = []
    train_rows = int(n_rows * TRAIN_RATIO)
    for _ in range(N_ROUNDS):
        train_idx = rng.choice(n_rows, size=train_rows, replace=False)
        fold_slots = rng.integers(0, N_FOLDS, size=train_rows)
        folds = [np.nonzero(fold_slots != slot)[0] for slot in range(N_FOLDS)]
        rounds.append((train_idx, folds))
    return rounds


def run_pipeline(
    table: Table, rounds, digests: list[str] | None = None, take=Table.take
) -> float:
    """Wall seconds of the split → fold → take+encode pipeline.

    Encoder fitting is untimed (one fit serves a whole study block);
    the timed region is exactly the repeated row selection + encoding —
    including, on the view path, the one-time cost of building the
    per-buffer category-code cache on the first fold.  When ``digests``
    is given the encoded bits are hashed into it; that verification
    sweep is run as a separate untimed pass so the identity gate never
    inflates either path's throughput denominator.  ``take`` selects
    rows: the zero-copy ``Table.take`` or the eager oracle.
    """
    encoder = FeatureEncoder().fit(table.features_table())
    start = time.perf_counter()
    for train_idx, folds in rounds:
        train = take(table, train_idx)
        features = train.features_table()
        for fold_idx in folds:
            fold_train = take(features, fold_idx)
            X = encoder.transform(fold_train)
            if digests is not None:
                digests.append(hashlib.sha256(X.tobytes()).hexdigest())
    return time.perf_counter() - start


def check_no_copies(table: Table, rounds) -> bool:
    """Split-of-split views share the root buffers; encode keeps it so."""
    train_idx, folds = rounds[0]
    fold_train = table.take(train_idx).features_table().take(folds[0])
    encoder = FeatureEncoder().fit(table.features_table())
    encoder.transform(fold_train)
    ok = True
    for name in fold_train.schema.names:
        column = fold_train.column(name)
        # still an unmaterialized view of the *root* table's buffer,
        # two take() levels later and after a full encode
        ok = ok and column.is_view
        ok = ok and column.base_buffer is table.column(name).base_buffer
    return ok


def run_table_core_bench(tiny: bool = False) -> dict:
    n_rows = TINY_ROWS if tiny else N_ROWS
    repeats = 1 if tiny else REPEATS
    table = build_table(n_rows)
    rounds = make_slices(n_rows)
    n_encodes = N_ROUNDS * N_FOLDS
    fold_rows = len(rounds[0][1][0])

    # untimed verification sweeps first (they also prove both paths
    # agree), then timed passes, each with a freshly fitted encoder so
    # the view path's cold code-cache build stays inside its timing
    view_digests: list[str] = []
    run_pipeline(table, rounds, digests=view_digests)
    no_copies = check_no_copies(table, rounds)
    reference_table = build_table(n_rows)
    reference_digests: list[str] = []
    run_pipeline(
        reference_table, rounds, digests=reference_digests, take=table_take_reference
    )
    # interleaved best-of-N: anything above an arm's min is interference
    # from the machine, and interleaving exposes both arms to the same
    view_seconds = reference_seconds = float("inf")
    for _ in range(repeats):
        view_seconds = min(view_seconds, run_pipeline(table, rounds))
        reference_seconds = min(
            reference_seconds,
            run_pipeline(reference_table, rounds, take=table_take_reference),
        )

    encoded_rows = n_encodes * fold_rows
    n_features = 4 + len(_VOCABS)
    report = {
        "benchmark": "table_core",
        "cpu_count": cpu_count(),
        "study": (
            f"Airbnb-like synthetic, {n_rows} rows x {n_features} features, "
            f"{N_ROUNDS} splits x {N_FOLDS} folds = {n_encodes} "
            f"take+encode passes of ~{fold_rows} rows"
        ),
        "n_rows": n_rows,
        "n_encodes": n_encodes,
        "fold_rows": fold_rows,
        "repeats": repeats,
        "kernel_seconds": round(view_seconds, 3),
        "naive_seconds": round(reference_seconds, 3),
        "speedup": round(reference_seconds / view_seconds, 2),
        "rows_per_second": int(encoded_rows / view_seconds),
        "encode_bits_identical": view_digests == reference_digests,
        "view_buffers_identical": bool(no_copies),
        "tiny": bool(tiny),
    }
    return report


def publish_report(report: dict) -> None:
    OUTPUT_PATH.parent.mkdir(exist_ok=True)
    OUTPUT_PATH.write_text(json.dumps(report, indent=1) + "\n")
    print(
        "\n".join(
            [
                "Columnar table core on " + report["study"],
                f"  view path      {report['kernel_seconds']:>7.3f}s "
                f"({report['rows_per_second']} encoded rows/s)",
                f"  reference path {report['naive_seconds']:>7.3f}s",
                f"  speedup: {report['speedup']:.2f}x",
                f"  encoded bits identical: {report['encode_bits_identical']}",
                f"  zero new column buffers: {report['view_buffers_identical']}",
                f"[written to {OUTPUT_PATH}]",
            ]
        )
    )


def check_report(report: dict) -> None:
    """The invariants CI enforces — identity always, speed at full scale."""
    assert report["encode_bits_identical"], (
        "view-path encoding diverged from the eager reference path"
    )
    assert report["view_buffers_identical"], (
        "the slice pipeline allocated new column buffers on the view path"
    )
    if report["n_rows"] >= N_ROWS:
        assert report["speedup"] >= 2.0, (
            f"slice pipeline won only {report['speedup']}x over the "
            "copy-based reference at full scale"
        )


def test_table_core(benchmark):
    from .common import once

    report = once(benchmark, run_table_core_bench)
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
    report = run_table_core_bench(tiny=args.tiny)
    publish_report(report)
    check_report(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
