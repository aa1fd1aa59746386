"""Tests for outlier detection (SD/IQR/IF) and repair."""

import numpy as np
import pytest

from repro.cleaning import IsolationForest, OutlierCleaning, OutlierDetector
from repro.cleaning.isolation_forest import average_path_length
from repro.table import Table, make_schema
from tests.oracles import (
    isolation_path_lengths_reference,
    isolation_score_reference,
)


def make_table(values, label=None):
    schema = make_schema(numeric=["x"], label="y")
    labels = label or ["p", "n"] * (len(values) // 2) + ["p"] * (len(values) % 2)
    return Table.from_dict(schema, {"x": values, "y": labels})


@pytest.fixture
def with_outlier():
    # tight cluster around 10 plus one wild value as the last entry.
    # n must be large enough that one outlier can exceed 3 sigma at all:
    # the max z-score of a single point among n is (n-1)/sqrt(n).
    values = [
        9.5, 10.0, 10.2, 9.8, 10.1, 9.9, 10.3, 9.7, 10.0, 10.4,
        9.6, 10.0, 9.9, 10.1, 10.2, 9.8, 10.0, 10.3, 9.7, 1000.0,
    ]
    return make_table(values)


class TestSDDetector:
    def test_flags_extreme_value(self, with_outlier):
        detector = OutlierDetector("SD").fit(with_outlier)
        mask = detector.detect(with_outlier)["x"]
        assert mask[-1] and mask.sum() == 1

    def test_no_outliers_in_uniform_data(self):
        table = make_table([float(i) for i in range(20)])
        detector = OutlierDetector("SD").fit(table)
        assert not detector.detect(table)["x"].any()

    def test_missing_cells_never_flagged(self):
        table = make_table([1.0, 2.0, None, 3.0, 100.0, 2.0])
        detector = OutlierDetector("SD", n_std=1.5).fit(table)
        assert not detector.detect(table)["x"][2]


class TestIQRDetector:
    def test_flags_extreme_value(self, with_outlier):
        detector = OutlierDetector("IQR").fit(with_outlier)
        assert detector.detect(with_outlier)["x"][-1]

    def test_iqr_more_aggressive_than_sd(self):
        # moderately skewed data: IQR flags more cells than SD (paper Q4.1)
        rng = np.random.default_rng(0)
        values = np.concatenate(
            [rng.normal(0, 1, 95), rng.normal(8, 1, 5)]
        ).tolist()
        table = make_table(values)
        sd_count = OutlierDetector("SD").fit(table).detect(table)["x"].sum()
        iqr_count = OutlierDetector("IQR").fit(table).detect(table)["x"].sum()
        assert iqr_count >= sd_count

    def test_thresholds_come_from_train(self, with_outlier):
        detector = OutlierDetector("IQR").fit(with_outlier)
        test = make_table([10.0, 500.0])
        mask = detector.detect(test)["x"]
        assert mask.tolist() == [False, True]


class TestIsolationForest:
    def test_average_path_length_known_values(self):
        assert average_path_length(np.array([1]))[0] == 0.0
        assert average_path_length(np.array([2]))[0] == 1.0
        assert average_path_length(np.array([100]))[0] > 5.0

    def test_outlier_scores_higher(self):
        rng = np.random.default_rng(0)
        X = np.vstack([rng.normal(0, 1, size=(200, 2)), [[12.0, 12.0]]])
        forest = IsolationForest(n_estimators=50, random_state=0).fit(X)
        scores = forest.score(X)
        assert scores[-1] > np.median(scores[:-1])

    def test_predict_outliers_respects_contamination(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(300, 3))
        forest = IsolationForest(contamination=0.05, random_state=0).fit(X)
        rate = forest.predict_outliers(X).mean()
        assert rate <= 0.12  # near the contamination level

    @pytest.mark.parametrize("seed", range(6))
    def test_scores_match_the_recursive_descent(self, seed):
        # flat trees, precomputed leaf path lengths and the level-by-level
        # descent must give the recursive descent's bytes, tree by tree
        rng = np.random.default_rng(seed)
        n_rows, n_features = int(rng.integers(2, 400)), int(rng.integers(1, 6))
        X = rng.normal(size=(n_rows, n_features))
        X[rng.random(X.shape) < 0.2] = 0.0  # repeated values: unresolved leaves
        X[:, 0] = np.round(X[:, 0])
        forest = IsolationForest(
            n_estimators=int(rng.integers(1, 40)),
            max_samples=int(rng.integers(1, 300)),
            random_state=seed,
        ).fit(X)
        query = np.vstack([X, rng.normal(scale=4.0, size=(50, n_features))])
        query[3] = np.nan  # NaN compares False: every split sends it right
        for tree in forest._trees:
            assert tree.path_lengths(query).tobytes() == (
                isolation_path_lengths_reference(tree, query).tobytes()
            )
        assert forest.score(query).tobytes() == (
            isolation_score_reference(forest, query).tobytes()
        )

    def test_invalid_contamination(self):
        with pytest.raises(ValueError):
            IsolationForest(contamination=0.0)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            IsolationForest().predict_outliers(np.zeros((2, 2)))


class TestOutlierCleaning:
    def test_mean_repair_uses_non_outlier_mean(self, with_outlier):
        cleaned = OutlierCleaning("SD", "mean").fit_transform(with_outlier)
        inliers = with_outlier.column("x").values[:-1]
        assert cleaned.column("x").values[-1] == pytest.approx(np.mean(inliers))

    def test_median_and_mode_repairs(self, with_outlier):
        for strategy in ("median", "mode"):
            cleaned = OutlierCleaning("SD", strategy).fit_transform(with_outlier)
            assert cleaned.column("x").values[-1] < 20.0

    def test_if_detector_runs_end_to_end(self):
        rng = np.random.default_rng(2)
        values = rng.normal(5.0, 1.0, 120).tolist() + [80.0]
        table = make_table(values)
        cleaned = OutlierCleaning("IF", "mean", random_state=0).fit_transform(table)
        assert cleaned.column("x").values[-1] < 80.0

    def test_categorical_columns_untouched(self):
        schema = make_schema(numeric=["x"], categorical=["c"], label="y")
        table = Table.from_dict(
            schema,
            {
                "x": [1.0, 1.1, 0.9, 50.0],
                "c": ["a", "b", "a", "rare"],
                "y": ["p", "n", "p", "n"],
            },
        )
        cleaned = OutlierCleaning("SD", "mean", random_state=0).fit_transform(table)
        assert list(cleaned.column("c").values) == ["a", "b", "a", "rare"]

    def test_names_match_paper(self):
        method = OutlierCleaning("IQR", "mean")
        assert method.detection == "IQR"
        assert method.repair == "Mean"
        assert method.name == "IQR/Mean"

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            OutlierCleaning("LOF", "mean")
        with pytest.raises(ValueError):
            OutlierCleaning("SD", "max")

    def test_affected_rows(self, with_outlier):
        method = OutlierCleaning("SD", "mean").fit(with_outlier)
        assert method.affected_rows(with_outlier).tolist()[-1]
