"""Shared configuration for the benchmark harness.

Every benchmark regenerates one of the paper's evaluation tables at a
*reduced but representative* scale, because the full protocol (20
splits, 5-fold CV, full-size datasets, full hyper-parameter search) is
CPU-days with from-scratch models.  The reductions — documented in
EXPERIMENTS.md — keep the comparisons the tables make (who wins, by
roughly what factor) while fitting the whole harness in minutes:

* datasets capped at ``BENCH_ROWS`` rows;
* ``n_splits = 5`` instead of 20, 2-fold CV instead of 5;
* all seven models, with lighter ensemble sizes.

Each benchmark prints its paper-style table and writes it to
``benchmarks/output/`` so results survive pytest's capture.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from pathlib import Path

from repro.core import StudyConfig, save_experiments

BENCH_ROWS = 200

#: lighter ensembles so 20 splits x 7 models x many methods stays fast
LIGHT_MODELS = {
    "random_forest": {"n_estimators": 10, "max_depth": 6},
    "xgboost": {"n_estimators": 8, "max_depth": 2},
    "adaboost": {"n_estimators": 10},
    "decision_tree": {"max_depth": 6},
    "logistic_regression": {"max_iter": 150},
}

#: the paper's 20 splits — the t-test degrees of freedom (19) matter for
#: the BY correction; the savings come from rows/CV/ensembles instead
BENCH_CONFIG = StudyConfig(
    n_splits=20,
    cv_folds=2,
    seed=0,
    model_overrides=LIGHT_MODELS,
)

#: a smaller configuration for the combinatorial §VII studies
TINY_CONFIG = StudyConfig(
    n_splits=10,
    cv_folds=2,
    seed=0,
    models=("logistic_regression", "decision_tree", "naive_bayes"),
    model_overrides=LIGHT_MODELS,
)

OUTPUT_DIR = Path(__file__).parent / "output"


def publish(name: str, text: str) -> str:
    """Print a rendered table and persist it under benchmarks/output/."""
    OUTPUT_DIR.mkdir(exist_ok=True)
    path = OUTPUT_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n{text}\n[written to {path}]")
    return text


def cpu_count() -> int:
    """Cores this process may run on — the ``cpu_count`` every report records.

    The scheduler affinity mask where the platform exposes one (a
    container or ``taskset`` can grant fewer cores than the machine
    has), otherwise ``os.cpu_count()``; never less than 1.
    """
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return os.cpu_count() or 1


def cpu_dispatch() -> list[str]:
    """numpy's SIMD dispatch targets this CPU supports, recorded next to ``cpu_count``.

    ``np.argpartition`` (KNN's neighbor selection) dispatches to a SIMD
    argselect whose order among tied values depends on the target, so a
    study digest recorded on one target can differ on another.
    """
    from numpy._core import _multiarray_umath as umath

    return [
        target
        for target in umath.__cpu_dispatch__
        if umath.__cpu_features__.get(target)
    ]


def once(benchmark, fn):
    """Run a study exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def measure_peak_rss(fn):
    """``(result, peak RSS bytes)`` of ``fn()`` run in a forked child.

    The child runs ``fn``, reads its own ``getrusage`` high-water mark
    and pickles ``(result, peak)`` back through a pipe, so the
    measurement covers exactly one workload with no allocator reuse
    from earlier phases.  Note the child inherits the parent's RSS at
    fork time — compare arms against a no-op baseline fork, not
    against zero.

    Returns ``(None, None)`` on platforms without ``fork``/``resource``
    (the refuse-and-annotate policy the speedup gates follow: report
    nothing rather than noise).
    """
    import os
    import pickle
    import sys

    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platform
        return None, None
    if not hasattr(os, "fork"):  # pragma: no cover - non-POSIX platform
        return None, None

    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        # child: run, measure, report, exit without cleanup handlers
        status = 1
        try:
            os.close(read_fd)
            result = fn()
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            # ru_maxrss is kilobytes on Linux, bytes on macOS
            if sys.platform != "darwin":
                peak *= 1024
            payload = pickle.dumps((result, int(peak)))
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(payload)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        payload = pipe.read()
    _, exit_status = os.waitpid(pid, 0)
    if exit_status != 0 or not payload:
        raise RuntimeError(f"measured child failed (status {exit_status})")
    return pickle.loads(payload)


def persisted_sha256(study) -> str:
    """sha256 of a finished study's persisted JSON (``save_experiments`` bytes).

    The kernel benchmarks compare it against digests recorded while the
    pre-kernel reference path still ran in-tree: a match means the
    kernel writes the bytes the reference path wrote.
    """
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "study.json"
        save_experiments(study.raw_experiments, path)
        return hashlib.sha256(path.read_bytes()).hexdigest()
