"""Tests for the split-execution kernel (shared encodings, method records).

The kernel's contract is that it is a *pure optimization*: shared
``EncodedTable``s, the workspace's method record, vectorized encoder transforms,
the memoized fold plans, and the executor's block broadcast must all be
invisible in the output.  These tests pin that contract — the vectorized
encoder against its per-row oracle across every registry dataset, and
whole studies against the sha256 of the bytes the pre-kernel reference
path wrote (see ``GOLDEN``).
"""

import numpy as np
import pytest

from repro.cleaning import (
    DUPLICATES,
    MISSING_VALUES,
    OUTLIERS,
    ImputationCleaning,
    OutlierCleaning,
)
from repro.core import (
    CleanMLStudy,
    EncodedTable,
    ErrorTypeRun,
    SplitWorkspace,
    StudyConfig,
    TrainedModel,
    block_method_names,
)
from repro.core.executor import _execute_unit, _register_blocks
from repro.datasets import load_dataset
from repro.datasets.registry import DATASET_NAMES
from repro.ml import kfold_plan
from repro.table import FeatureEncoder, LabelEncoder
from tests.conftest import assert_matches_golden
from tests.oracles import transform_reference

FAST = StudyConfig(
    n_splits=2, cv_folds=2, models=("naive_bayes", "knn"), seed=7
)

SEARCHED = StudyConfig(
    n_splits=2,
    cv_folds=2,
    search_iters=2,
    models=("naive_bayes", "knn"),
    seed=7,
)

#: sha256 of the persisted JSON of :func:`make_study` (``plain``) and
#: :func:`make_searched_study` (``searched``).  Recorded while the
#: pre-kernel reference path (per-model encoder fits, no memo, per-row
#: transforms, candidate-major tuning) still ran in-tree, after checking
#: that it and the kernel wrote these bytes at every (n_jobs 1/2) x
#: (split, cell) shape.
GOLDEN = {
    "plain": "cee87dfd416183a43767f6be52782decf021b0636476736de33a69f802eedfdc",
    "searched": "27c0bd964ab4d46e175d9130510ac91981237fd965953ffa9a1869978274f6b1",
}


def make_study(config=FAST):
    """Outliers (BD + CD scenarios) plus missing values (BD only)."""
    study = CleanMLStudy(config)
    study.add(
        load_dataset("Sensor", seed=0, n_rows=150),
        OUTLIERS,
        methods=[OutlierCleaning("SD", "mean"), OutlierCleaning("IQR", "mean")],
    )
    study.add(
        load_dataset("Titanic", seed=0, n_rows=150),
        MISSING_VALUES,
        methods=[ImputationCleaning("mean", "mode")],
    )
    return study


def make_searched_study():
    study = CleanMLStudy(SEARCHED)
    study.add(
        load_dataset("Sensor", seed=0, n_rows=150),
        OUTLIERS,
        methods=[OutlierCleaning("SD", "mean")],
    )
    return study


class TestVectorizedEncoderIsTheReference:
    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_bit_identical_on_registry_tables(self, name):
        """Vectorized transform == per-row reference, bit for bit.

        Covers every registry dataset's dirty and clean tables, under
        encoders fitted on either table — dtype, values, and column
        order (via the shared ``feature_names_``) all included.
        """
        dataset = load_dataset(name, seed=0, n_rows=120)
        tables = {"dirty": dataset.dirty, "clean": dataset.clean}
        for fit_on, fit_table in tables.items():
            encoder = FeatureEncoder().fit(fit_table.features_table())
            for transform_of, table in tables.items():
                features = table.features_table()
                fast = encoder.transform(features)
                reference = transform_reference(encoder, features)
                assert fast.dtype == reference.dtype, (name, fit_on, transform_of)
                assert fast.shape == (features.n_rows, encoder.n_features)
                assert np.array_equal(fast, reference), (
                    name, fit_on, transform_of,
                )

    def test_unseen_and_missing_still_zero_blocks(self):
        dataset = load_dataset("Titanic", seed=0, n_rows=120)
        encoder = FeatureEncoder().fit(dataset.clean.features_table())
        dirty = dataset.dirty.features_table()
        fast = encoder.transform(dirty)
        assert np.array_equal(fast, transform_reference(encoder, dirty))

    def test_label_encoder_matches_per_row_loop(self):
        values = ["b", "a", "b", "c", "a"] * 7
        encoder = LabelEncoder().fit(values)
        expected = np.array(
            [encoder.classes_.index(v) for v in values], dtype=np.int64
        )
        out = encoder.transform(values)
        assert out.dtype == np.int64
        assert np.array_equal(out, expected)

    def test_label_encoder_unseen_still_raises(self):
        encoder = LabelEncoder().fit(["a", "b"])
        with pytest.raises(ValueError, match="unseen label"):
            encoder.transform(["a", "zzz"])


class TestKernelIsAPureOptimization:
    def test_memo_never_changes_a_metric_pair(self, tmp_path):
        """Kernel runs write the bytes the memo-free reference path wrote."""
        assert_matches_golden(make_study, GOLDEN["plain"], tmp_path)

    def test_search_enabled_study_keeps_the_contract(self, tmp_path):
        """Hyper-parameter search composes with the kernel bit-for-bit.

        RandomSearch's shared fold plan is an algorithmic change that
        applied on the reference path too, so a searched study at every
        job count and granularity must still write the reference bytes.
        """
        assert_matches_golden(make_searched_study, GOLDEN["searched"], tmp_path)

    def test_encoded_table_is_shared_and_uncached(self):
        dataset = load_dataset("Sensor", seed=0, n_rows=120)
        labeler = LabelEncoder().fit(dataset.dirty.labels)
        encoded = EncodedTable(dataset.dirty, labeler)
        fresh = FeatureEncoder().fit(dataset.dirty.features_table())
        X, y = encoded.encode(dataset.clean)
        assert np.array_equal(X, fresh.transform(dataset.clean.features_table()))
        assert np.array_equal(y, labeler.transform(dataset.clean.labels))
        # nothing is kept: whoever scores a table twice holds its encoding
        assert encoded.encode(dataset.clean)[0] is not X
        config = StudyConfig(cv_folds=2, models=("naive_bayes",))
        models = [
            TrainedModel(encoded, name, config, labeler, "accuracy", None, 0)
            for name in ("naive_bayes", "knn")
        ]
        assert all(model._encoded is encoded for model in models)
        with pytest.raises(ValueError, match="different label encoder"):
            TrainedModel(
                encoded, "knn", config, LabelEncoder().fit(dataset.dirty.labels),
                "accuracy", None, 0,
            )


class TestMethodRecordEncodings:
    """A method record encodes what its cells score, no more than the
    evaluation memo and the identity-keyed encoding caches did.

    ``TRANSFORMS`` is the number of ``FeatureEncoder.transform`` calls
    one method-order pass over a split made with those caches (seed 5,
    150 rows, 300 for Restaurant).
    """

    TRANSFORMS = {
        ("Credit", OUTLIERS): 50,
        ("Restaurant", DUPLICATES): 9,
        ("Titanic", MISSING_VALUES): 23,
    }

    @staticmethod
    def run_split(name, error_type, monkeypatch):
        config = StudyConfig(
            n_splits=1, cv_folds=2, models=("knn", "naive_bayes"), seed=5
        )
        rows = 300 if error_type == DUPLICATES else 150
        run = ErrorTypeRun(load_dataset(name, seed=0, n_rows=rows), error_type, config)
        calls = []
        transform = FeatureEncoder.transform

        def spy(encoder, table):
            calls.append(table.n_rows)
            return transform(encoder, table)

        monkeypatch.setattr(FeatureEncoder, "transform", spy)
        workspace = SplitWorkspace(run, 0)
        for index in range(len(workspace.methods())):
            for model in config.models:
                workspace.cell(index, model)
        return workspace, calls

    @pytest.mark.parametrize(
        "block", sorted(TRANSFORMS), ids="{0[0]}-{0[1]}".format
    )
    def test_transforms_equal_the_caches(self, block, monkeypatch):
        _, calls = self.run_split(*block, monkeypatch)
        assert len(calls) == self.TRANSFORMS[block]

    def test_duplicates_split_never_dirty_encodes_its_raw_test_set(
        self, monkeypatch
    ):
        workspace, _ = self.run_split("Restaurant", DUPLICATES, monkeypatch)
        n_raw = workspace.raw_test.n_rows
        assert all(
            workspace.record(index).test.n_rows < n_raw
            for index in range(len(workspace.methods()))
        )
        # KNN reuses rows, but no cleaned test set has the raw one's shape
        assert "raw_dirty" not in vars(workspace)


class TestFoldPlanMemo:
    def test_plan_matches_direct_derivation(self):
        from repro.table.split import kfold_indices

        plan = kfold_plan(50, 5, seed=123)
        direct = kfold_indices(50, 5, np.random.default_rng(123))
        assert len(plan) == len(direct)
        for (ptrain, pval), (dtrain, dval) in zip(plan, direct):
            assert np.array_equal(ptrain, dtrain)
            assert np.array_equal(pval, dval)

    def test_fewer_than_two_folds_is_one_all_rows_fold(self):
        for n_rows, n_folds in ((6, 1), (1, 5), (0, 5)):
            ((train_idx, val_idx),) = kfold_plan(n_rows, n_folds, seed=4)
            assert np.array_equal(train_idx, np.arange(n_rows))
            assert np.array_equal(val_idx, np.arange(n_rows))
        # more folds than rows caps at one row per validation fold
        assert len(kfold_plan(3, 5, seed=4)) == 3


class TestBlockBroadcast:
    def test_registered_execution_matches_self_contained_task(self):
        """The worker entry on broadcast blocks == a self-contained split.

        The self-contained arm builds its own run and workspace from the
        block, with no worker registry involved.
        """
        study = make_study()
        payload = [
            (block.dataset, block.error_type, block.methods)
            for block in study._queue
        ]
        _register_blocks(payload, FAST)
        try:
            for block in study._queue:
                n_methods = len(block_method_names(block, FAST))
                cells = tuple(
                    (index, model)
                    for index in range(n_methods)
                    for model in FAST.models
                )
                run = ErrorTypeRun(
                    block.dataset, block.error_type, FAST,
                    methods=list(block.methods),
                )
                for split in range(FAST.n_splits):
                    key = (block.dataset.name, block.error_type, split)
                    registered = _execute_unit("split", key, cells)
                    workspace = SplitWorkspace(run, split)
                    expected = [workspace.cell(*cell) for cell in cells]
                    assert registered == (key, expected)
        finally:
            _register_blocks([], FAST)
