"""End-to-end integration tests across all subsystems.

These exercise realistic multi-module paths: dataset -> cleaning ->
models -> statistics -> relations -> queries, including the known-answer
scenario of a dataset whose planted error *must* be detected as harmful
to ignore.
"""

import numpy as np
import pytest

from repro import CleanMLStudy, StudyConfig, load_dataset
from repro.cleaning import (
    MISLABELS,
    OUTLIERS,
    ConfidentLearningCleaning,
    OutlierCleaning,
)
from repro.core import EvaluationContext, derive_seed, q1, q2
from repro.datasets import mislabel_variants
from repro.stats import Flag
from repro.table import train_test_split


class TestKnownAnswerOutliers:
    """Sensor's label depends on temperature/light; glitches hurt KNN."""

    def test_cleaning_improves_knn_on_sensor(self):
        dataset = load_dataset("Sensor", seed=0, n_rows=250)
        config = StudyConfig(cv_folds=2, models=("knn",))
        context = EvaluationContext(dataset, config)
        method = OutlierCleaning("IQR", "mean")
        improvements = []
        for split in range(8):
            seed = derive_seed(0, "integration", split)
            raw_train, raw_test = train_test_split(dataset.dirty, seed=seed)
            method.fit(raw_train)
            clean_train = method.transform(raw_train)
            clean_test = method.transform(raw_test)
            dirty_model = context.train(raw_train, "knn", "d", split)
            clean_model = context.train(clean_train, "knn", "c", split)
            after = clean_model.evaluate(*clean_model.encode(clean_test))
            before = dirty_model.evaluate(*dirty_model.encode(clean_test))
            improvements.append(after - before)
        assert np.mean(improvements) > 0.02


class TestKnownAnswerMislabelsCD:
    """Fixing flipped test labels must raise measured accuracy (CD)."""

    def test_cd_scenario_positive_for_uniform_injection(self):
        base = load_dataset("Titanic", seed=0, n_rows=260)
        variant = mislabel_variants(base, seed=0)[0]  # uniform 5%
        config = StudyConfig(
            n_splits=10, cv_folds=2, models=("logistic_regression",), seed=0
        )
        study = CleanMLStudy(config)
        study.add(variant, MISLABELS)
        database = study.run()
        cd_rows = database["R1"].filter(scenario="CD")
        assert len(cd_rows) == 1
        row = cd_rows[0]
        # cleaned test labels agree better with predictions than dirty ones
        assert row.mean_after > row.mean_before
        # and uncorrected statistics call it significant
        assert row.test.p_upper < 0.05


class TestFullStudySnapshot:
    """A tiny but complete study exercising every relation and query."""

    @pytest.fixture(scope="class")
    def database(self):
        config = StudyConfig(
            n_splits=4,
            cv_folds=2,
            models=("logistic_regression", "knn"),
            include_advanced_cleaning=False,
            seed=11,
        )
        study = CleanMLStudy(config)
        study.add(load_dataset("EEG", seed=0, n_rows=180), OUTLIERS)
        return study.run()

    def test_relation_arithmetic(self, database):
        # 9 simple outlier methods x 2 models x 2 scenarios
        assert len(database["R1"]) == 36
        assert len(database["R2"]) == 18
        assert len(database["R3"]) == 2

    def test_queries_consistent_with_relation_totals(self, database):
        q1_total = sum(q1(database["R1"], OUTLIERS)["all"].values())
        assert q1_total == 36
        q2_result = q2(database["R1"], OUTLIERS)
        assert sum(sum(c.values()) for c in q2_result.values()) == 36

    def test_flags_are_valid(self, database):
        for name in ("R1", "R2", "R3"):
            for row in database[name]:
                assert isinstance(row.flag, Flag)
                assert row.test.n == 4


class TestMetricBounds:
    def test_f1_dataset_uses_minority_positive(self):
        dataset = load_dataset("Credit", seed=0, n_rows=250)
        config = StudyConfig(cv_folds=2, models=("logistic_regression",))
        context = EvaluationContext(dataset, config)
        assert context.metric == "f1"
        assert context.positive is not None
        minority_name = context.labeler.classes_[context.positive]
        counts = dataset.dirty.column("status").value_counts()
        assert counts[minority_name] == min(counts.values())
