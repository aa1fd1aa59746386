"""Benchmark — fold-major tuning kernel (ISSUE 4 acceptance evidence).

Times a **search-heavy** study (``search_iters=5``, 5-fold CV, KNN +
naive Bayes + decision tree — the §IV-A protocol at full tuning
strength) through the fold-major kernel and checks that it writes
**bit identical** persisted JSON to the candidate-major reference path:
the sha256 of the kernel run must equal the digest recorded while that
path still ran in-tree, where it wrote the same bytes as the kernel at
``n_jobs`` 1 and 2.  A kernel run at ``n_jobs=2`` must match both the
``n_jobs=1`` run and that digest.  The whole-study reference timing can
no longer be measured; the report cites it from the committed
``BENCH_tuning_kernel.json`` it first appeared in.

The headline number is the **tuning-path throughput**: a micro-benchmark
times ``RandomSearch.fit`` itself per model on the study's encoded
training table, fold-major versus the candidate-major oracle
(``tests/oracles/tuning.py``, which shares the production tree split
search), asserting identical ``best_params_`` / ``best_score_``.  KNN
dominates the gain (one distance matrix per fold instead of one per
candidate), naive Bayes amortizes its class statistics, the decision
tree shares root argsorts — together they are the "candidates+1 x
folds full fits" redundancy the kernel exists to remove.

A second arm, ``linear_fit``, times the fused LogisticRegression loop
against its allocating oracle (``tests/oracles/linear.py``) over the
matrix's CV training folds and gates ``linear_bit_identical``: every
fold fit's ``coef_``/``intercept_`` bytes must match.  A third arm,
``knn_select``, scores every candidate of the KNN search space on one
CV fold of the Credit matrix (the shape of the ``one_split_cells``
perfbench workload) through the KNN fold workspace and through the
oracle path (``tests/oracles/knn.py``: the allocating distance
expression once, then one ``argpartition`` and one per-class vote loop
per candidate), and gates ``knn_bit_identical``: every candidate's
predictions must match.  A fourth arm, ``knn_blocked_select``, gates
``selection_bit_identical``: the row-blocked ``_select_neighbors`` must
return the bytes of one whole-matrix ``argpartition``
(``select_neighbors_reference``) on a Credit split's fold and test-set
distance matrices, as computed and with ties forced by rounding.  It
also reports the minor page faults (``ru_minflt``) and system time
(``ru_stime``) of a serial Credit study in a fresh interpreter, where
the selections interleave with everything else a cell allocates, once
with the whole-matrix selection swapped in and once as shipped; fault
counts follow the allocator, so they are reported, never gated.
A fifth arm, ``prediction_reuse``, gates
``prediction_reuse_bit_identical``: on a Credit x outliers split, the
dirty-trained KNN model predicts every method's cleaned test set once
whole and once through its raw-test anchor (``TrainedModel.evaluate``'s
row reuse, which recomputes only the rows cleaning changed), and every
probability matrix must be equal; it reports the query rows each arm
ran the neighbor selection on.  Everything lands in
``BENCH_tuning_kernel.json`` at the repository root.

Run directly (``python benchmarks/bench_tuning_kernel.py``) or under
pytest; ``--tiny`` shrinks splits/rows/search for the CI smoke, which
fails the step if any bit-identity gate ever goes false.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from repro.cleaning import OUTLIERS, OutlierCleaning
from repro.core import CleanMLStudy, StudyConfig
from repro.core.runner import ErrorTypeRun, SplitWorkspace
from repro.datasets import load_dataset
from repro.ml import knn as knn_kernel
from repro.ml import (
    KNeighborsClassifier,
    LogisticRegression,
    RandomSearch,
    kfold_plan,
    make_model,
    search_space,
)
from repro.table import FeatureEncoder, LabelEncoder

try:
    from .common import cpu_count, cpu_dispatch, persisted_sha256
except ImportError:  # running as a script: python benchmarks/bench_tuning_kernel.py
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from benchmarks.common import cpu_count, cpu_dispatch, persisted_sha256
from tests.oracles import (
    knn_proba_reference,
    logistic_fit_reference,
    pairwise_sq_distances_reference,
    random_search_reference,
    select_neighbors_reference,
)

SEARCH_MODELS = ("knn", "naive_bayes", "decision_tree")

KERNEL_CONFIG = StudyConfig(
    n_splits=3,
    cv_folds=5,
    search_iters=5,
    seed=7,
    models=SEARCH_MODELS,
)

TINY_CONFIG = StudyConfig(
    n_splits=2,
    cv_folds=3,
    search_iters=2,
    seed=7,
    models=SEARCH_MODELS,
)

N_ROWS = 420
TINY_ROWS = 150

#: interleaved best-of-N passes of the LogisticRegression arm (full shape)
LINEAR_REPEATS = 5

#: Credit rows of the KNN arm: its 5-fold CV folds are 1400 x 350, the
#: fold shape of a ``one_split_cells`` Credit split
KNN_ROWS = 1750
KNN_REPEATS = 7

#: Credit rows of the selection arm: a 70/30 split gives the 750 x 1750
#: test-set matrix and the 350 x 1400 fold matrices of a
#: ``one_split_cells`` Credit split (the fault study's rows too)
SELECT_ROWS = 2500
#: fault-study runs per arm, alternating
SELECT_ROUNDS = 3

METHODS = (
    ("SD", "mean"),
    ("IQR", "median"),
)

OUTPUT_PATH = Path(__file__).parent.parent / "BENCH_tuning_kernel.json"

#: sha256 of the persisted study JSON (full and ``--tiny`` shapes),
#: recorded at the last commit that still carried the reference path,
#: after checking that the reference path and the kernel wrote the same
#: bytes at n_jobs 1 and 2
REFERENCE_DIGESTS = {
    "full": "fe5cf822a29d7ea7abc3411d57ba115d1f7e2e8f2bc50f134d6cd757a129ce6f",
    "tiny": "edc69d22141b49cf15b9826eb126b52f379951b4e69ddea339ce6b375469c0d9",
}

#: the last measured whole-study reference timing (full shape; its
#: naive arm also ran the per-feature reference split search)
CITED_REFERENCE = {
    "source": "BENCH_tuning_kernel.json at commit 70bb400 (n_jobs=1; core count not recorded)",
    "naive_seconds": 40.205,
    "kernel_seconds": 9.026,
    "speedup": 4.45,
}


def build_study(config: StudyConfig, n_rows: int = N_ROWS) -> CleanMLStudy:
    study = CleanMLStudy(config)
    study.add(
        load_dataset("Airbnb", seed=0, n_rows=n_rows),
        OUTLIERS,
        methods=[OutlierCleaning(d, r) for d, r in METHODS],
    )
    return study


def encoded_matrix(n_rows: int, dataset: str = "Airbnb"):
    """(X, y) of a dataset's dirty table under the study's encoders.

    For the study dataset the matrix shape (wide one-hot vocabulary
    included) is exactly what the study's tuning loop sees.
    """
    table = load_dataset(dataset, seed=0, n_rows=n_rows).dirty
    X = FeatureEncoder().fit_transform(table.features_table())
    y = LabelEncoder().fit(
        table.column(table.schema.label).unique()
    ).transform(table.labels)
    return X, y


def time_tuning(X, y, config: StudyConfig, repeats: int = 3) -> dict:
    """Micro-benchmark: ``RandomSearch.fit`` per model vs the oracle.

    Asserts the fold-major search and the candidate-major oracle agree
    on ``best_params_``/``best_score_``.
    """

    def build_search(name: str) -> RandomSearch:
        return RandomSearch(
            make_model(name, seed=3),
            search_space(name),
            n_iter=config.search_iters,
            n_folds=config.cv_folds,
            seed=42,
        )

    per_model: dict[str, dict] = {}
    identical = True
    total_naive = total_kernel = 0.0
    for name in SEARCH_MODELS:
        naive_seconds = kernel_seconds = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            naive = random_search_reference(build_search(name), X, y)
            naive_seconds = min(naive_seconds, time.perf_counter() - start)

            start = time.perf_counter()
            kernel = build_search(name).fit(X, y)
            kernel_seconds = min(kernel_seconds, time.perf_counter() - start)
        identical = identical and (
            naive.best_params_ == kernel.best_params_
            and naive.best_score_ == kernel.best_score_
        )
        total_naive += naive_seconds
        total_kernel += kernel_seconds
        per_model[name] = {
            "naive_seconds": round(naive_seconds, 4),
            "kernel_seconds": round(kernel_seconds, 4),
            "speedup": round(naive_seconds / kernel_seconds, 2),
        }
    return {
        "matrix": f"{X.shape[0]}x{X.shape[1]} encoded (Airbnb dirty)",
        "candidates": config.search_iters + 1,
        "cv_folds": config.cv_folds,
        "per_model": per_model,
        "naive_seconds": round(total_naive, 4),
        "kernel_seconds": round(total_kernel, 4),
        "speedup": round(total_naive / total_kernel, 2),
        "searches_per_second": {
            "naive": round(len(SEARCH_MODELS) / total_naive, 2),
            "kernel": round(len(SEARCH_MODELS) / total_kernel, 2),
        },
        "tuning_bit_identical": bool(identical),
    }


def time_linear_fit(X, y, n_folds: int, repeats: int) -> dict:
    """Micro-benchmark: the fused LogisticRegression loop vs its oracle.

    Fits a default LogisticRegression on each CV training slice of the
    matrix — the fits one tuning candidate runs — with the allocating
    loop kept as the oracle (``tests/oracles/linear.py``) and with the
    production kernel, interleaved best-of-N, and checks that every
    fit's ``coef_``/``intercept_`` bytes are equal.
    """
    plan = kfold_plan(len(y), n_folds, seed=42)
    folds = [(X[train], y[train]) for train, _ in plan]
    naive_seconds = kernel_seconds = float("inf")
    identical = True
    for _ in range(repeats):
        start = time.perf_counter()
        naive = [
            logistic_fit_reference(LogisticRegression(), X_fold, y_fold)
            for X_fold, y_fold in folds
        ]
        naive_seconds = min(naive_seconds, time.perf_counter() - start)

        start = time.perf_counter()
        kernel = [LogisticRegression().fit(X_fold, y_fold) for X_fold, y_fold in folds]
        kernel_seconds = min(kernel_seconds, time.perf_counter() - start)
        identical = identical and all(
            a.coef_.tobytes() == b.coef_.tobytes()
            and a.intercept_.tobytes() == b.intercept_.tobytes()
            for a, b in zip(naive, kernel)
        )
    return {
        "matrix": f"{X.shape[0]}x{X.shape[1]} encoded (Airbnb dirty)",
        "fits": len(folds),
        "naive_seconds": round(naive_seconds, 4),
        "kernel_seconds": round(kernel_seconds, 4),
        "speedup": round(naive_seconds / kernel_seconds, 2),
        "fits_per_second": {
            "naive": round(len(folds) / naive_seconds, 2),
            "kernel": round(len(folds) / kernel_seconds, 2),
        },
        "linear_bit_identical": bool(identical),
    }


def time_knn_select(X, y, n_folds: int, repeats: int) -> dict:
    """Micro-benchmark: one fold's KNN workspace vs the oracle path.

    Scores every ``(n_neighbors, weights)`` candidate of the KNN search
    space on the first CV fold, interleaved best-of-N.  The oracle arm
    computes the allocating distance matrix once and runs a fresh
    selection and per-class vote per candidate; the kernel arm builds
    the fold workspace (blocked in-place distances, one selection per
    ``k``, one vote per ``(k, weights)``) and asks it for each
    candidate.  Every candidate's predictions must be equal.
    """
    train, val = kfold_plan(len(y), n_folds, seed=42)[0]
    X_train, y_train, X_val = X[train], y[train], X[val]
    space = search_space("knn")
    candidates = [
        KNeighborsClassifier(n_neighbors=k, weights=w)
        for k in space["n_neighbors"]
        for w in space["weights"]
    ]
    naive_seconds = kernel_seconds = float("inf")
    identical = True
    for _ in range(repeats):
        start = time.perf_counter()
        model = KNeighborsClassifier().fit(X_train, y_train)
        distances = pairwise_sq_distances_reference(model, X_val)
        naive = [
            knn_proba_reference(
                distances,
                model._y,
                model.n_classes_,
                min(candidate.n_neighbors, len(y_train)),
                candidate.weights,
            ).argmax(axis=1)
            for candidate in candidates
        ]
        naive_seconds = min(naive_seconds, time.perf_counter() - start)

        start = time.perf_counter()
        workspace = KNeighborsClassifier().make_fold_workspace(X_train, y_train, X_val)
        kernel = [workspace.predict_val(candidate) for candidate in candidates]
        kernel_seconds = min(kernel_seconds, time.perf_counter() - start)
        identical = identical and all(
            a.tobytes() == b.tobytes() for a, b in zip(naive, kernel)
        )
    return {
        "fold": f"{len(train)}x{len(val)} of {X.shape[0]}x{X.shape[1]} encoded (Credit dirty)",
        "candidates": len(candidates),
        "distinct_k": len(space["n_neighbors"]),
        "naive_seconds": round(naive_seconds, 4),
        "kernel_seconds": round(kernel_seconds, 4),
        "speedup": round(naive_seconds / kernel_seconds, 2),
        "knn_bit_identical": bool(identical),
    }


#: One serial Credit x outliers study (KNN + naive Bayes, searched, at
#: cell granularity like ``one_split_cells``) in a fresh interpreter,
#: printing the minor faults and system time of ``run``.  The ``oracle``
#: arm swaps the whole-matrix selection in for ``_select_neighbors``.
FAULT_STUDY = """
import json, resource, sys
import numpy as np
from repro.cleaning import OUTLIERS
from repro.core import CleanMLStudy, StudyConfig
from repro.core.runner import ErrorTypeRun, SplitWorkspace
from repro.datasets import load_dataset
from repro.ml import knn
from tests.oracles import select_neighbors_reference

arm, n_rows = sys.argv[1], int(sys.argv[2])
if arm == "oracle":
    knn._select_neighbors = lambda d, k: np.ascontiguousarray(
        select_neighbors_reference(d, k)
    )
study = CleanMLStudy(StudyConfig(
    n_splits=2, cv_folds=5, search_iters=5, models=("knn", "naive_bayes"),
    seed=1,
))
study.add(load_dataset("Credit", seed=1, n_rows=n_rows), OUTLIERS)
before = resource.getrusage(resource.RUSAGE_SELF)
study.run(n_jobs=1, granularity="cell")
after = resource.getrusage(resource.RUSAGE_SELF)
print(json.dumps({
    "minflt": after.ru_minflt - before.ru_minflt,
    "stime_s": after.ru_stime - before.ru_stime,
}))
"""


def study_faults(arm: str, n_rows: int) -> dict:
    """Faults and system time of one :data:`FAULT_STUDY` run."""
    root = Path(__file__).resolve().parent.parent
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    out = subprocess.run(
        [sys.executable, "-c", FAULT_STUDY, arm, str(n_rows)],
        env=env,
        cwd=root,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def time_knn_blocked_select(X, y, n_folds: int, rounds: int, study_rows: int) -> dict:
    """Blocked neighbor selection vs one whole-matrix ``argpartition``.

    The gate's matrices are a study's: a 70/30 split of ``(X, y)``, the
    validation distances of each CV fold of its training part, and the
    test-set distances of the full training part.  Every distinct ``k``
    of the search space selects from each fold matrix, ``k = 5`` (the
    default) from the test matrix, on the matrices as computed and
    rounded to whole numbers (ties at every ``k``); every selection
    must equal the oracle's.  The fault figures come from whole serial
    studies (:data:`FAULT_STUDY`), where the selections interleave with
    everything else a cell allocates: ``rounds`` runs per arm, the arms
    alternating, medians reported.
    """
    n_test = int(round(0.3 * len(y)))
    order = np.random.default_rng(0).permutation(len(y))
    X_train, y_train = X[order[n_test:]], y[order[n_test:]]
    X_test = X[order[:n_test]]
    folds = kfold_plan(len(y_train), n_folds, seed=42)
    matrices = []
    for train, val in folds:
        model = KNeighborsClassifier().fit(X_train[train], y_train[train])
        matrices.append((model._pairwise_sq_distances(X_train[val]), len(train)))
    model = KNeighborsClassifier().fit(X_train, y_train)
    test_distances = model._pairwise_sq_distances(X_test)
    cases = [
        (distances, min(k, n_train))
        for distances, n_train in matrices
        for k in sorted(set(search_space("knn")["n_neighbors"]))
    ] + [(test_distances, 5)]
    identical = True
    for distances, k in cases:
        for matrix in (distances, np.round(distances)):
            want = select_neighbors_reference(matrix, k)
            got = knn_kernel._select_neighbors(matrix, k)
            identical = identical and got.tobytes() == want.tobytes()

    runs = {"oracle": [], "kernel": []}
    for round_index in range(rounds):
        for arm in sorted(runs, reverse=bool(round_index % 2)):
            runs[arm].append(study_faults(arm, study_rows))
    val_rows = len(folds[0][1])
    return {
        "matrices": (
            f"{len(folds)} folds of {val_rows}x{len(y_train) - val_rows} and "
            f"a {n_test}x{len(y_train)} test set of {X.shape[0]}x{X.shape[1]} "
            "encoded (Credit dirty)"
        ),
        "selections_checked": 2 * len(cases),
        "study_faults": {
            "study": (
                f"serial Credit x outliers, {study_rows} rows, 2 splits, "
                "knn+naive_bayes searched, cell granularity"
            ),
            "runs_per_arm": rounds,
            **{
                arm: {
                    "minflt": int(statistics.median(r["minflt"] for r in arm_runs)),
                    "stime_s": round(
                        statistics.median(r["stime_s"] for r in arm_runs), 3
                    ),
                }
                for arm, arm_runs in runs.items()
            },
        },
        "selection_bit_identical": bool(identical),
    }


def time_prediction_reuse(n_rows: int, repeats: int) -> dict:
    """The dirty KNN model on every cleaned test set: whole vs anchored.

    One Credit x outliers split, the default KNN fitted on its dirty
    training set.  The whole arm predicts each method's cleaned test
    set with ``predict_proba``; the anchored arm predicts the raw test
    set once and each cleaned test set through the anchor, as
    ``TrainedModel.evaluate`` does.  Interleaved best-of-N; every
    probability matrix must be byte-identical.
    """
    config = StudyConfig(n_splits=1, cv_folds=5, models=("knn",), seed=3)
    run = ErrorTypeRun(load_dataset("Credit", seed=3, n_rows=n_rows), OUTLIERS, config)
    workspace = SplitWorkspace(run, 0)
    X_raw = workspace.raw_dirty
    encoded = []  # each method record's cleaned test set, dirty-encoded
    for index in range(len(workspace.methods())):
        record = workspace.record(index)
        workspace._encode_test(record)
        encoded.append(record.X_dirty)
    same_shape = [X for X in encoded if len(X) == len(X_raw)]
    changed_rows = sum(
        int((X.view(np.uint64) != X_raw.view(np.uint64)).any(axis=1).sum())
        for X in same_shape
    )
    whole_seconds = anchored_seconds = float("inf")
    identical = True
    model = workspace.dirty_model("knn")
    for _ in range(repeats):
        start = time.perf_counter()
        whole = [model.model.predict_proba(X) for X in encoded]
        whole_seconds = min(whole_seconds, time.perf_counter() - start)

        model._anchor = None  # the anchor is made inside the timed arm
        start = time.perf_counter()
        anchored = [model._predict_proba(X, X_raw) for X in encoded]
        anchored_seconds = min(anchored_seconds, time.perf_counter() - start)
        identical = identical and all(
            a.tobytes() == b.tobytes() for a, b in zip(whole, anchored)
        )
    n_other = len(encoded) - len(same_shape)
    return {
        "split": (
            f"Credit x outliers, {n_rows} rows: {len(encoded)} cleaned test sets "
            f"of {len(X_raw)} rows ({len(same_shape)} of the raw test's shape)"
        ),
        "selected_rows": {
            "whole": sum(len(X) for X in encoded),
            "anchored": len(X_raw)
            + changed_rows
            + sum(len(X) for X in encoded if len(X) != len(X_raw)),
        },
        "other_shape_tables": n_other,
        "whole_seconds": round(whole_seconds, 4),
        "anchored_seconds": round(anchored_seconds, 4),
        "speedup": round(whole_seconds / anchored_seconds, 2),
        "prediction_reuse_bit_identical": bool(identical),
    }


def run_tuning_bench(tiny: bool = False) -> dict:
    config = TINY_CONFIG if tiny else KERNEL_CONFIG
    n_rows = TINY_ROWS if tiny else N_ROWS
    n_tasks = config.n_splits  # one block
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
    parallel_digest = persisted_sha256(parallel)
    reference_digest = REFERENCE_DIGESTS["tiny" if tiny else "full"]
    X, y = encoded_matrix(n_rows)

    return {
        "benchmark": "tuning_kernel",
        "cpu_count": cpu_count(),
        "cpu_dispatch": cpu_dispatch(),
        "study": (
            f"Airbnb x outliers, {n_rows} rows, {config.n_splits} splits, "
            f"models {'+'.join(config.models)}, {len(METHODS)} methods, "
            f"search_iters {config.search_iters}, cv_folds {config.cv_folds}"
        ),
        "n_tasks": n_tasks,
        "kernel_seconds": round(kernel_seconds, 3),
        "tasks_per_second": {"kernel": round(n_tasks / kernel_seconds, 2)},
        "cited_reference": CITED_REFERENCE,
        "tuning_search": time_tuning(X, y, config, repeats=max(repeats, 2)),
        "linear_fit": time_linear_fit(
            X, y, config.cv_folds, repeats=2 if tiny else LINEAR_REPEATS
        ),
        "knn_select": time_knn_select(
            *encoded_matrix(n_rows if tiny else KNN_ROWS, "Credit"),
            config.cv_folds,
            repeats=2 if tiny else KNN_REPEATS,
        ),
        "knn_blocked_select": time_knn_blocked_select(
            *encoded_matrix(SELECT_ROWS, "Credit"),
            config.cv_folds,
            rounds=1 if tiny else SELECT_ROUNDS,
            study_rows=TINY_ROWS if tiny else SELECT_ROWS,
        ),
        "prediction_reuse": time_prediction_reuse(
            TINY_ROWS * 2 if tiny else SELECT_ROWS, repeats=1 if tiny else 5
        ),
        "reference_digest": reference_digest,
        "results_bit_identical": digest == reference_digest,
        "parallel_bit_identical": parallel_digest == digest,
        # the reference path's own n_jobs=2 run wrote the recorded bytes
        "reference_parallel_bit_identical": parallel_digest == reference_digest,
    }


def publish_report(report: dict) -> None:
    OUTPUT_PATH.parent.mkdir(exist_ok=True)
    OUTPUT_PATH.write_text(json.dumps(report, indent=1) + "\n")
    tuning = report["tuning_search"]
    linear = report["linear_fit"]
    knn = report["knn_select"]
    select = report["knn_blocked_select"]
    reuse = report["prediction_reuse"]
    faults = select["study_faults"]
    cited = report["cited_reference"]
    per_model = "  ".join(
        f"{name}: {entry['speedup']:.2f}x"
        for name, entry in tuning["per_model"].items()
    )
    print(
        "\n".join(
            [
                "Fold-major tuning kernel on " + report["study"],
                f"  study kernel: {report['kernel_seconds']:>7.3f}s  "
                f"({report['tasks_per_second']['kernel']:.2f} tasks/s, "
                f"{report['cpu_count']} cores)",
                f"  reference bytes: {report['results_bit_identical']}, "
                f"kernel n_jobs=2: {report['parallel_bit_identical']}, "
                f"n_jobs=2 vs reference: "
                f"{report['reference_parallel_bit_identical']}",
                f"  cited study speedup: {cited['speedup']:.2f}x "
                f"({cited['source']})",
                f"  tuning path: {tuning['speedup']:.2f}x on "
                f"{tuning['matrix']} ({per_model}; "
                f"bit-identical: {tuning['tuning_bit_identical']})",
                f"  LogisticRegression fit: {linear['speedup']:.2f}x over "
                f"{linear['fits']} fold fits on {linear['matrix']} "
                f"(bit-identical: {linear['linear_bit_identical']})",
                f"  KNN fold workspace: {knn['speedup']:.2f}x over "
                f"{knn['candidates']} candidates on {knn['fold']} "
                f"(bit-identical: {knn['knn_bit_identical']})",
                f"  KNN blocked selection: {select['selections_checked']} "
                f"selections on {select['matrices']} "
                f"(bit-identical: {select['selection_bit_identical']}); "
                f"{faults['study']}: minflt {faults['oracle']['minflt']} -> "
                f"{faults['kernel']['minflt']}, stime "
                f"{faults['oracle']['stime_s']:.3f} -> "
                f"{faults['kernel']['stime_s']:.3f}s",
                f"  KNN prediction reuse: {reuse['speedup']:.2f}x on "
                f"{reuse['split']}, selected rows "
                f"{reuse['selected_rows']['whole']} -> "
                f"{reuse['selected_rows']['anchored']} "
                f"(bit-identical: {reuse['prediction_reuse_bit_identical']})",
                f"[written to {OUTPUT_PATH}]",
            ]
        )
    )


def check_report(report: dict) -> None:
    """The invariants CI enforces — identity, never raw speed."""
    assert report["results_bit_identical"], (
        "fold-major kernel run diverged from the reference path's recorded digest"
    )
    assert report["parallel_bit_identical"], (
        "n_jobs=2 kernel run diverged from n_jobs=1"
    )
    assert report["reference_parallel_bit_identical"], (
        "n_jobs=2 kernel run diverged from the reference path's recorded digest"
    )
    assert report["tuning_search"]["tuning_bit_identical"], (
        "fold-major RandomSearch diverged from the candidate-major oracle"
    )
    assert report["linear_fit"]["linear_bit_identical"], (
        "the fused LogisticRegression loop diverged from its oracle"
    )
    assert report["knn_select"]["knn_bit_identical"], (
        "the KNN fold workspace diverged from its oracle path"
    )
    assert report["knn_blocked_select"]["selection_bit_identical"], (
        "the blocked KNN neighbor selection diverged from one argpartition"
    )
    assert report["prediction_reuse"]["prediction_reuse_bit_identical"], (
        "predicting through a same-shape anchor diverged from whole predictions"
    )


def test_tuning_kernel(benchmark):
    from .common import once

    report = once(benchmark, run_tuning_bench)
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
    report = run_tuning_bench(tiny=args.tiny)
    publish_report(report)
    check_report(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
