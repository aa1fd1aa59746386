"""End-to-end resume test: SIGKILL a study mid-run, resume, compare bytes.

The hardest crash there is — ``SIGKILL`` gives the process no chance to
flush, heal, or say goodbye — at every scheduling granularity.  The
driver below runs a checkpointed study in a subprocess; the test kills
it once the ledger shows real progress, resumes the same study
in-process from the surviving ledger, and requires the persisted
results to be **byte-identical** to an uninterrupted run.  This is the
checkpoint format's whole reason to exist (torn final lines are
dropped, complete lines are durable), exercised by an actual kill
rather than a simulated truncation.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cleaning import OUTLIERS, OutlierCleaning
from repro.core import CleanMLStudy, StudyConfig, save_experiments
from repro.datasets import load_dataset

REPO_ROOT = Path(__file__).parent.parent

CONFIG = StudyConfig(
    n_splits=3,
    cv_folds=2,
    models=("logistic_regression", "naive_bayes"),
    seed=7,
)

#: the driver the test SIGKILLs: same study the test builds in-process
DRIVER = """
import sys
from repro.cleaning import OUTLIERS, OutlierCleaning
from repro.core import CleanMLStudy, StudyConfig, save_experiments
from repro.datasets import load_dataset

granularity, jobs, ledger, out = (
    sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4]
)
config = StudyConfig(
    n_splits=3, cv_folds=2,
    models=("logistic_regression", "naive_bayes"), seed=7,
)
study = CleanMLStudy(config)
study.add(
    load_dataset("Sensor", seed=0, n_rows=100),
    OUTLIERS,
    methods=[OutlierCleaning("SD", "mean"), OutlierCleaning("IQR", "mean")],
)
study.run(n_jobs=jobs, granularity=granularity, checkpoint=ledger)
save_experiments(study.raw_experiments, out)
"""


def make_study():
    study = CleanMLStudy(CONFIG)
    study.add(
        load_dataset("Sensor", seed=0, n_rows=100),
        OUTLIERS,
        methods=[OutlierCleaning("SD", "mean"), OutlierCleaning("IQR", "mean")],
    )
    return study


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """Persisted bytes of the uninterrupted study."""
    out = tmp_path_factory.mktemp("reference") / "study.json"
    study = make_study()
    study.run()
    save_experiments(study.raw_experiments, out)
    return out.read_bytes()


def kill_group(process: subprocess.Popen) -> None:
    """SIGKILL the driver together with its pool workers.

    Killing only the driver would orphan its workers, which block on
    the dead pool's queue for the rest of the machine's uptime.
    """
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass  # the whole group has already exited


def ledger_lines(path: Path) -> int:
    try:
        return path.read_text().count("\n")
    except FileNotFoundError:
        return 0


@pytest.mark.parametrize(
    "granularity,jobs,kill_after_lines",
    [
        ("split", 1, 2),  # header + 1 completed split
        ("cell", 1, 3),   # header + 2 completed cell sub-units
        ("cell", 2, 3),   # pool mode, so cells scatter across workers
    ],
)
def test_sigkill_then_resume_is_byte_identical(
    tmp_path, reference, granularity, jobs, kill_after_lines
):
    ledger = tmp_path / "ledger.jsonl"
    out = tmp_path / "study.json"
    process = subprocess.Popen(
        [sys.executable, "-c", DRIVER, granularity, str(jobs),
         str(ledger), str(out)],
        env={
            **os.environ,
            "PYTHONPATH": str(REPO_ROOT / "src"),
        },
        cwd=REPO_ROOT,
        start_new_session=True,
    )
    try:
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            if ledger_lines(ledger) >= kill_after_lines:
                break
            if process.poll() is not None:
                break  # finished before we could kill it — still valid
            time.sleep(0.02)
        else:
            pytest.fail("driver made no checkpoint progress within 120s")
        killed_mid_run = process.poll() is None
        kill_group(process)
        process.wait(timeout=30)
    finally:
        if process.poll() is None:
            kill_group(process)
            process.wait(timeout=30)

    if killed_mid_run:
        # the kill landed while work was outstanding: the ledger must
        # hold partial progress for the resume to build on
        assert ledger_lines(ledger) >= 1
        assert not out.exists()

    resumed = make_study()
    resumed.run(granularity=granularity, checkpoint=ledger)
    save_experiments(resumed.raw_experiments, out)
    assert out.read_bytes() == reference
