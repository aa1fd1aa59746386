"""Shared fixtures and synthetic-data helpers for the test suite."""

import hashlib

import numpy as np
import pytest

from repro.core import save_experiments

#: every (n_jobs, granularity) shape a golden study digest is pinned at
GOLDEN_SHAPES = ((1, "split"), (1, "cell"), (2, "split"), (2, "cell"))


def assert_matches_golden(build_study, digest: str, tmp_path) -> None:
    """Run ``build_study()`` at every golden shape and hash its output.

    Each run's persisted JSON must have the sha256 ``digest``.  Golden
    digests were recorded while the pre-kernel reference path still ran
    in-tree, after checking that the reference and kernel paths wrote
    the same bytes at every shape, so a match pins the kernel to the
    reference without running it.
    """
    for n_jobs, granularity in GOLDEN_SHAPES:
        study = build_study()
        study.run(n_jobs=n_jobs, granularity=granularity)
        path = tmp_path / f"golden-{granularity}-{n_jobs}.json"
        save_experiments(study.raw_experiments, path)
        produced = hashlib.sha256(path.read_bytes()).hexdigest()
        assert produced == digest, (n_jobs, granularity)


def make_blobs(
    n_per_class: int = 60,
    n_classes: int = 2,
    n_features: int = 4,
    separation: float = 3.0,
    seed: int = 0,
):
    """Well-separated Gaussian blobs — every sane classifier aces them."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, 1.0, size=(n_classes, n_features))
    centers *= separation / max(np.linalg.norm(centers, axis=1).min(), 1e-9)
    parts_x, parts_y = [], []
    for cls in range(n_classes):
        parts_x.append(
            rng.normal(0.0, 0.5, size=(n_per_class, n_features)) + centers[cls]
        )
        parts_y.append(np.full(n_per_class, cls, dtype=np.int64))
    X = np.vstack(parts_x)
    y = np.concatenate(parts_y)
    order = rng.permutation(len(y))
    return X[order], y[order]


def make_xor(n: int = 200, seed: int = 0):
    """The XOR pattern — linearly inseparable, easy for trees/boosting."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, size=(n, 2))
    y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(np.int64)
    X = X + rng.normal(0.0, 0.05, size=X.shape)
    return X, y


@pytest.fixture
def blobs2():
    return make_blobs(n_classes=2, seed=1)


@pytest.fixture
def blobs3():
    return make_blobs(n_classes=3, seed=2)


@pytest.fixture
def xor_data():
    return make_xor(seed=3)
