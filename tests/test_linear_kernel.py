"""Tests for the fused LogisticRegression loop and the softmax kernel.

``LogisticRegression.fit`` runs one preallocated, in-place training loop
and ``repro.ml.base.softmax`` folds its row reductions column by column.
Neither may move a bit: every fit's ``coef_``/``intercept_`` is pinned
byte for byte against the allocating loop kept as the oracle
``tests/oracles/linear.py`` — on every registry dataset's encoded
training matrix and its CV fold slices, non-contiguous inputs, search
space draws, the divergence guard, both early exits and 1 to 12
classes — and ``softmax`` against the allocating softmax on random and
extreme logits for k = 1 to 12, on both sides of the k = 8 switch in
numpy's row-sum order.
"""

import warnings

import numpy as np
import pytest

import repro.ml.linear as linear
from repro.datasets import DATASET_NAMES
from repro.ml import (
    LogisticRegression,
    kfold_plan,
    one_hot,
    sample_params,
    search_space,
    softmax,
)
from tests.conftest import make_blobs
from tests.oracles import logistic_fit_reference, softmax_reference
from tests.oracles.linear import loss_reference
from tests.test_tuning_kernel import encoded_dataset


def assert_same_fit(X, y, **params) -> LogisticRegression:
    """Fit kernel and oracle on the same inputs; pin their bytes."""
    kernel = LogisticRegression(**params).fit(X, y)
    oracle = logistic_fit_reference(LogisticRegression(**params), X, y)
    assert kernel.n_classes_ == oracle.n_classes_
    for got, want in (
        (kernel.coef_, oracle.coef_),
        (kernel.intercept_, oracle.intercept_),
    ):
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
    return kernel


def training_matrix(name: str):
    """The first 70% of a registry dataset's encoded dirty table."""
    X, y = encoded_dataset(name)
    cut = int(0.7 * len(y))
    return X[:cut], y[:cut]


def count_iterations(monkeypatch, X, y, **params) -> int:
    """Loop iterations one fit runs: two softmax calls each, plus one."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return softmax(*args, **kwargs)

    monkeypatch.setattr(linear, "softmax", counted)
    LogisticRegression(**params).fit(X, y)
    monkeypatch.undo()
    return (len(calls) - 1) // 2


class TestFitIsTheReference:
    @pytest.mark.parametrize("dataset_name", DATASET_NAMES)
    def test_registry_training_matrix_and_cv_folds(self, dataset_name):
        X, y = training_matrix(dataset_name)
        assert_same_fit(X, y)
        for train_idx, _ in kfold_plan(len(y), 5, seed=0):
            assert_same_fit(X[train_idx], y[train_idx])

    def test_non_contiguous_inputs(self):
        X, y = training_matrix("Airbnb")
        strided = X[::2]
        assert not strided.flags.c_contiguous
        assert_same_fit(strided, y[::2])
        fortran = np.asfortranarray(X)
        assert not fortran.flags.c_contiguous
        assert_same_fit(fortran, y)
        assert_same_fit(X[:, ::-1], y)

    def test_search_space_draws(self):
        X, y = training_matrix("USCensus")
        space = search_space("logistic_regression")
        rng = np.random.default_rng(5)
        for _ in range(6):
            assert_same_fit(X, y, **sample_params(space, rng))

    def test_divergence_guard(self):
        X, y = make_blobs(seed=0)
        assert_same_fit(X, y, l2=1e6, learning_rate=1.0)
        X, y = training_matrix("Titanic")
        assert_same_fit(X, y, l2=1e6, learning_rate=1.0)

    def test_step_exit(self, monkeypatch):
        # tol=0 rules out the tol exit, so stopping before max_iter means
        # the guard halved the step below 1e-8
        X, y = make_blobs(seed=0)
        params = dict(l2=1e8, learning_rate=1.0, tol=0.0)
        assert count_iterations(monkeypatch, X, y, **params) < 300
        assert_same_fit(X, y, **params)

    def test_non_finite_loss_exit(self, monkeypatch):
        # the logits overflow into inf - inf: every candidate's loss is NaN
        X, y = make_blobs(seed=0)
        X = X * 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert count_iterations(monkeypatch, X, y, tol=0.0) < 300
            kernel = assert_same_fit(X, y, tol=0.0)
        assert not kernel.coef_.any()

    def test_tol_early_stop(self, monkeypatch):
        X, y = make_blobs(seed=3)
        assert count_iterations(monkeypatch, X, y, tol=1e-2) < 300
        assert_same_fit(X, y, tol=1e-2)
        assert_same_fit(X, y, max_iter=7)

    def test_tol_boundary_pins_the_loss_bits(self):
        # The tol exit compares |previous_loss - loss| with tol, so a tol
        # set exactly at, and one ulp above, an observed improvement makes
        # the exit iteration hinge on the last bit of the loss.
        X, y = make_blobs(n_per_class=30, n_classes=3, separation=1.0, seed=4)
        targets = one_hot(y, 3)

        def loss_after(n_iter: int) -> float:
            model = LogisticRegression(max_iter=n_iter, tol=0.0)
            logistic_fit_reference(model, X, y)
            return loss_reference(model, X, targets, model.coef_, model.intercept_)

        losses = [loss_after(n_iter) for n_iter in range(41)]
        improvements = np.abs(np.diff(losses))
        # iterations whose improvement is the smallest so far: the first
        # at which a tol that size could stop the loop
        boundaries = [
            i for i in range(5, len(improvements))
            if 0 < improvements[i] < improvements[:i].min()
        ]
        assert len(boundaries) >= 3
        for i in boundaries[:3]:
            assert_same_fit(X, y, tol=improvements[i])
            assert_same_fit(X, y, tol=np.nextafter(improvements[i], np.inf))

    @pytest.mark.parametrize("n_classes", [1, 2, 3, 7, 8, 12])
    def test_class_counts(self, n_classes):
        X, y = make_blobs(n_per_class=25, n_classes=n_classes, seed=n_classes)
        assert_same_fit(X, y)
        # overlapping classes train longer, up to the full max_iter
        X, y = make_blobs(
            n_per_class=25, n_classes=n_classes, separation=0.5, seed=n_classes
        )
        assert_same_fit(X, y, l2=0.0)

    def test_predict_proba_matches_oracle_softmax(self):
        X, y = make_blobs(n_classes=9, seed=2)
        model = LogisticRegression().fit(X, y)
        want = softmax_reference(X @ model.coef_ + model.intercept_)
        assert model.predict_proba(X).tobytes() == want.tobytes()


def logit_cases(n_classes: int):
    rng = np.random.default_rng(n_classes)
    shape = (203, n_classes)
    yield rng.normal(size=shape)
    yield rng.normal(size=shape) * rng.choice([1e-8, 1.0, 30.0, 700.0], size=shape)
    # ties, signed zeros, subnormal gaps and the largest finite values
    yield rng.choice([0.0, -0.0, 5e-324, 1.0, -1.0, 1.0 + 2**-52], size=shape)
    yield rng.choice([-1.7e308, 1.7e308, 0.0, 1e300], size=shape)
    yield rng.choice([-np.inf, np.inf, 0.0, 3.0], size=shape)
    yield np.asfortranarray(rng.normal(size=shape) * 50.0)


class TestSoftmaxIsTheReference:
    @pytest.mark.parametrize("n_classes", range(1, 13))
    def test_random_and_extreme_logits(self, n_classes):
        with np.errstate(all="ignore"):
            for logits in logit_cases(n_classes):
                want = softmax_reference(logits).tobytes()
                assert softmax(logits).tobytes() == want
                if logits.flags.c_contiguous:
                    # in place, as the LR loop runs it
                    buffer = logits.copy()
                    row = np.empty((len(buffer), 1))
                    assert softmax(buffer, out=buffer, row=row).tobytes() == want

    def test_input_is_untouched_without_out(self):
        logits = np.random.default_rng(0).normal(size=(40, 3))
        before = logits.copy()
        softmax(logits)
        assert np.array_equal(logits, before)
