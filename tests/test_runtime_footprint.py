"""The runtime needs numpy only: no study path may import scipy.

scipy is a test-only oracle (``tests/oracles/stats.py``).  The driver
below blocks it before anything is imported, so any ``import scipy``
reachable from ``repro``, the CLI, a study run or its statistics pass
raises, and then checks that scipy never entered ``sys.modules``.
``setup.py`` declares the same: numpy is its one install requirement.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

REPO_ROOT = Path(__file__).parent.parent

DRIVER = """
import sys
sys.modules["scipy"] = None

import repro
import repro.cli
from repro.cleaning import OUTLIERS, OutlierCleaning
from repro.core import CleanMLStudy, StudyConfig
from repro.datasets import load_dataset

study = CleanMLStudy(StudyConfig(
    n_splits=2, cv_folds=2, models=("naive_bayes",), seed=7,
))
study.add(
    load_dataset("Sensor", seed=0, n_rows=100),
    OUTLIERS,
    methods=[OutlierCleaning("SD", "mean")],
)
database = study.run(n_jobs=1)
rows = sum(len(database[level]) for level in ("R1", "R2", "R3"))
assert rows > 0, "the statistics pass tested no experiment"
loaded = sorted(
    name for name, module in sys.modules.items()
    if name.split(".")[0] == "scipy" and module is not None
)
assert not loaded, loaded
print("scipy-free", rows)
"""


def test_study_runs_without_scipy():
    result = subprocess.run(
        [sys.executable, "-c", DRIVER],
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("scipy-free")


def test_setup_metadata():
    result = subprocess.run(
        [sys.executable, "setup.py", "--name", "--version"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split()[-2:] == ["repro", repro.__version__]
