"""Detector/repair decomposition — parity, cache, and composition tests.

The contract of ISSUE 3: the cleaning layer's refactor onto
``Detector`` x ``Repair`` must be invisible at the byte level, with and
without the per-split detection cache, at any job count.  The golden
fingerprints in ``golden_cleaning.json`` were generated by the
*pre-refactor* monolithic methods, so the parity tests literally compare
against the old code's bits.
"""

import copy
import pickle

import numpy as np
import pytest

from golden_cleaning import (
    fingerprint_method,
    golden_cases,
    load_golden,
    split_for,
)
from repro.cleaning import (
    ADVANCED,
    DUPLICATES,
    ERROR_TYPES,
    INCONSISTENCIES,
    MISLABELS,
    MISSING_VALUES,
    OUTLIERS,
    TABLE2_GRID,
    CleaningMethod,
    ComposedCleaning,
    ConfidentLearningDetector,
    DetectionCache,
    DetectionResult,
    DuplicateDeletionRepair,
    FingerprintDetector,
    HoloCleanRepair,
    ImputationRepair,
    KeyCollisionDetector,
    MergeRepair,
    MissingValueDetector,
    NotFittedError,
    OutlierCleaning,
    OutlierImputationRepair,
    OutlierMaskDetector,
    RelabelRepair,
    RowDeletionRepair,
    ZeroERDetector,
    compose,
    methods_for,
    table2_pairs,
)
from repro.core import CleanMLStudy, StudyConfig
from repro.datasets import load_dataset
from repro.table import Table, make_schema
from tests.conftest import assert_matches_golden

GOLDEN = load_golden()


def replay_case(error_type: str, dataset_name: str, cache: DetectionCache | None):
    """Fingerprints of every registry method on one golden case."""
    train, test = split_for(dataset_name, error_type)
    out = {}
    for method in methods_for(error_type, random_state=GOLDEN["seed"]):
        if cache is not None:
            method.bind_cache(cache)
        out[method.name] = fingerprint_method(method, train, test)
    return out


class TestGoldenParity:
    """Every Table 2 method, every Table 3 dataset: pre-refactor bits."""

    @pytest.mark.parametrize(
        "error_type,dataset_name",
        golden_cases(),
        ids=[f"{e}-{d}" for e, d in golden_cases()],
    )
    def test_cache_off_matches_pre_refactor(self, error_type, dataset_name):
        fresh = replay_case(error_type, dataset_name, cache=None)
        assert fresh == GOLDEN["cases"][f"{error_type}/{dataset_name}"]

    @pytest.mark.parametrize(
        "error_type,dataset_name",
        golden_cases(),
        ids=[f"{e}-{d}" for e, d in golden_cases()],
    )
    def test_cache_on_matches_pre_refactor(self, error_type, dataset_name):
        # one shared cache across all of the error type's methods — the
        # exact sharing pattern the runner's split loop produces
        cache = DetectionCache()
        fresh = replay_case(error_type, dataset_name, cache=cache)
        assert fresh == GOLDEN["cases"][f"{error_type}/{dataset_name}"]
        if error_type in (MISSING_VALUES, OUTLIERS):
            assert cache.hits > 0  # several repairs actually shared detections


class TestStudyParity:
    """Cached studies write the bytes the cache-off path wrote, at any n_jobs."""

    CONFIG = StudyConfig(n_splits=2, cv_folds=2, models=("naive_bayes",), seed=7)

    #: sha256 of the persisted JSON, recorded while the cache-off
    #: reference path (private detector fits per method) still ran
    #: in-tree and wrote these bytes at every (n_jobs, granularity)
    DIGEST = "b2f0bfe4130f10b5f96f6de06127010789dc78ec1409a2e804c29d23da17c7c0"

    def build(self):
        study = CleanMLStudy(self.CONFIG)
        study.add(
            load_dataset("Sensor", seed=0, n_rows=150),
            OUTLIERS,
            methods=[
                OutlierCleaning("SD", "mean", random_state=0),
                OutlierCleaning("SD", "median", random_state=0),
                OutlierCleaning("IQR", "mean", random_state=0),
            ],
        )
        return study

    def test_cache_off_and_parallel_bit_identical(self, tmp_path):
        assert_matches_golden(self.build, self.DIGEST, tmp_path)


class TestTable2Composition:
    """The full grid is enumerable by composing detectors x repairs."""

    def test_grid_covers_every_error_type(self):
        assert set(TABLE2_GRID) == set(ERROR_TYPES)

    def test_registry_methods_are_composed_from_the_grid(self):
        expected_counts = {
            MISSING_VALUES: 7,
            OUTLIERS: 12,
            DUPLICATES: 2,
            INCONSISTENCIES: 1,
            MISLABELS: 1,
        }
        for error_type, count in expected_counts.items():
            methods = methods_for(error_type, random_state=0)
            assert len(methods) == count
            assert all(isinstance(m, ComposedCleaning) for m in methods)
            # the method list is exactly the declarative grid, composed
            assert [m.name for m in methods] == [
                f"{d}/{r}" for d, r in table2_pairs(error_type)
            ]

    def test_full_grid_names_match_paper(self):
        names = {
            error_type: [m.name for m in methods_for(error_type, random_state=0)]
            for error_type in ERROR_TYPES
        }
        assert names[MISSING_VALUES] == [
            "EmptyEntries/MeanMode",
            "EmptyEntries/MeanDummy",
            "EmptyEntries/MedianMode",
            "EmptyEntries/MedianDummy",
            "EmptyEntries/ModeMode",
            "EmptyEntries/ModeDummy",
            "EmptyEntries/HoloClean",
        ]
        assert names[OUTLIERS] == [
            f"{d}/{r}"
            for d in ("SD", "IQR", "IF")
            for r in ("Mean", "Median", "Mode", "HoloClean")
        ]
        assert names[DUPLICATES] == ["KeyCollision/Deletion", "ZeroER/Deletion"]
        assert names[INCONSISTENCIES] == ["OpenRefine/Merge"]
        assert names[MISLABELS] == ["cleanlab/cleanlab"]

    def test_advanced_filter_prunes_grid_cells(self):
        assert len(table2_pairs(MISSING_VALUES, include_advanced=False)) == 6
        assert len(table2_pairs(OUTLIERS, include_advanced=False)) == 9
        assert len(table2_pairs(DUPLICATES, include_advanced=False)) == 1
        assert ADVANCED == {"HoloClean", "ZeroER"}

    def test_new_combination_is_one_line(self):
        # a scenario the paper never ran: flagged mislabels *deleted*
        # instead of relabeled — composable without any new class
        table, _ = mislabeled_table(flip=4, seed=1)
        method = compose(MISLABELS, "cleanlab", "Deletion", random_state=0)
        assert method.name == "cleanlab/Deletion"
        cleaned = method.fit(table).transform(table)
        assert cleaned.n_rows < table.n_rows


def outlier_table() -> Table:
    """A tight cluster plus one wild value that clears the 3-sigma bar.

    n must be large enough that one outlier *can* exceed 3 sigma: the
    max z-score of a single point among n is ``(n-1)/sqrt(n)``.
    """
    values = [
        9.5, 10.0, 10.2, 9.8, 10.1, 9.9, 10.3, 9.7, 10.0, 10.4,
        9.6, 10.0, 9.9, 10.1, 10.2, 9.8, 10.0, 10.3, 9.7, 1000.0,
    ]
    schema = make_schema(numeric=["x"], label="y")
    return Table.from_dict(schema, {"x": values, "y": ["p", "n"] * 10})


def mislabeled_table(flip: int = 4, seed: int = 1):
    """Separable two-class data with ``flip`` labels flipped per class."""
    rng = np.random.default_rng(seed)
    n = 80
    values = np.concatenate(
        [rng.normal(-2, 0.4, n // 2), rng.normal(2, 0.4, n // 2)]
    ).tolist()
    labels = ["a"] * (n // 2) + ["b"] * (n // 2)
    flipped = []
    for start in (0, n // 2):
        for i in range(flip):
            labels[start + i] = "b" if labels[start + i] == "a" else "a"
            flipped.append(start + i)
    schema = make_schema(numeric=["x"], label="y")
    return Table.from_dict(schema, {"x": values, "y": labels}), flipped


@pytest.fixture
def holey():
    schema = make_schema(numeric=["a"], categorical=["c"], label="y")
    return Table.from_dict(
        schema,
        {
            "a": [1.0, None, 3.0, 200.0],
            "c": ["x", None, "x", "y"],
            "y": ["p", "n", "p", "n"],
        },
    )


class TestDetectors:
    def test_missing_value_detector_masks(self, holey):
        detection = MissingValueDetector().fit(holey).detect(holey)
        assert detection.cell_masks["a"].tolist() == [False, True, False, False]
        assert detection.cell_masks["c"].tolist() == [False, True, False, False]
        assert detection.rows().tolist() == [False, True, False, False]

    def test_outlier_detector_masks(self):
        table = outlier_table()
        detection = OutlierMaskDetector("SD").fit(table).detect(table)
        assert detection.cell_masks["x"].tolist()[-1]
        assert detection.rows().sum() == 1

    def test_key_collision_detector_pairs(self):
        schema = make_schema(categorical=["k"], label="y", keys=("k",))
        table = Table.from_dict(
            schema, {"k": ["a", "a", "b"], "y": ["p", "n", "p"]}
        )
        detection = KeyCollisionDetector().fit(table).detect(table)
        assert detection.pairs == ((0, 1),)
        assert detection.rows().tolist() == [False, True, False]

    def test_zeroer_fit_detect_matches_detect(self):
        rng = np.random.default_rng(3)
        names = [f"n{i} {rng.integers(1000)}" for i in range(40)] * 2
        schema = make_schema(categorical=["name"], label="y")
        table = Table.from_dict(
            schema, {"name": names, "y": ["p", "n"] * 40}
        )
        byproduct = ZeroERDetector().fit_detect(table)
        fresh = ZeroERDetector().fit(table).detect(table)
        assert byproduct.pairs == fresh.pairs

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_isolation_forest_fit_detect_matches_detect(self):
        # NaN cells stay unflagged per column; an all-NaN column is
        # mean-filled with 0 for the forest and never flagged
        rng = np.random.default_rng(4)
        x = rng.normal(size=120)
        x[[3, 50]] = 40.0
        z = rng.normal(size=120)
        x[[5, 3, 77]] = np.nan
        z[[3, 50, 90]] = np.nan
        schema = make_schema(numeric=["x", "z", "empty"], label="y")
        table = Table.from_dict(
            schema,
            {"x": x, "z": z, "empty": [np.nan] * 120, "y": ["p", "n"] * 60},
        )
        byproduct = OutlierMaskDetector("IF", random_state=7).fit_detect(table)
        fresh = OutlierMaskDetector("IF", random_state=7).fit(table).detect(table)
        assert list(byproduct.cell_masks) == list(fresh.cell_masks)
        for name, mask in fresh.cell_masks.items():
            assert byproduct.cell_masks[name].tobytes() == mask.tobytes()
            assert not mask[np.isnan(table.column(name).values)].any()
        assert fresh.cell_masks["x"].any()  # the pin is not vacuous
        assert not fresh.cell_masks["empty"].any()
        for method in ("SD", "IQR"):
            assert OutlierMaskDetector(method).fit_detect(table) is None

    def test_fingerprint_detector_payload(self):
        schema = make_schema(categorical=["c"], label="y")
        table = Table.from_dict(
            schema,
            {"c": ["CA", "C.A.", "CA", "NY"], "y": ["p", "n", "p", "n"]},
        )
        detection = FingerprintDetector().fit(table).detect(table)
        assert detection.cell_masks["c"].tolist() == [False, True, False, False]
        assert detection.payload["suggestions"]["c"][1] == "CA"

    def test_confident_learning_detector_payload(self):
        table, flipped = mislabeled_table(flip=4, seed=1)
        detection = ConfidentLearningDetector(seed=0).fit(table).detect(table)
        caught = [i for i in flipped if detection.row_mask[i]]
        assert len(caught) >= len(flipped) // 2
        # every caught flip's payload label undoes the flip
        for i in caught:
            assert detection.payload["labels"][i] != table.column("y").values[i]

    def test_unseeded_detectors_opt_out_of_caching(self):
        assert OutlierMaskDetector("IF", random_state=None).fingerprint() is None
        assert OutlierMaskDetector("IF", random_state=3).fingerprint() is not None
        assert ConfidentLearningDetector(seed=None).fingerprint() is None
        assert ConfidentLearningDetector(seed=5).fingerprint() is not None


class TestRepairs:
    def test_imputation_repair_fills_flagged_cells(self, holey):
        detector = MissingValueDetector().fit(holey)
        detection = detector.detect(holey)
        repair = ImputationRepair("mean", "dummy").fit(holey, None)
        out = repair.apply(holey, detection)
        assert out.column("a").values[1] == pytest.approx((1.0 + 3.0 + 200.0) / 3)
        assert out.column("c").values[1] == "missing"

    def test_row_deletion_repair_drops_flagged_rows(self, holey):
        detection = MissingValueDetector().fit(holey).detect(holey)
        out = RowDeletionRepair().fit(holey, None).apply(holey, detection)
        assert out.n_rows == 3

    def test_outlier_imputation_repair_uses_clean_stats(self):
        table = outlier_table()
        values = table.column("x").values
        detector = OutlierMaskDetector("SD").fit(table)
        detection = detector.detect(table)
        repair = OutlierImputationRepair("mean").fit(table, detection)
        out = repair.apply(table, detection)
        assert out.column("x").values[-1] == pytest.approx(np.mean(values[:-1]))

    def test_duplicate_deletion_repair_keeps_anchor(self):
        schema = make_schema(categorical=["k"], label="y", keys=("k",))
        table = Table.from_dict(
            schema, {"k": ["a", "a", "b"], "y": ["p", "n", "p"]}
        )
        detection = DetectionResult(3, pairs=[(0, 1)])
        out = DuplicateDeletionRepair().fit(table, None).apply(table, detection)
        assert out.n_rows == 2
        assert out.column("y").values[0] == "p"

    def test_merge_repair_applies_suggestions(self):
        schema = make_schema(categorical=["c"], label="y")
        table = Table.from_dict(
            schema, {"c": ["CA", "C.A."], "y": ["p", "n"]}
        )
        detection = FingerprintDetector().fit(table).detect(table)
        out = MergeRepair().fit(table, None).apply(table, detection)
        assert list(out.column("c").values) == ["CA", "CA"]

    def test_relabel_repair_rewrites_flagged_labels(self):
        schema = make_schema(numeric=["x"], label="y")
        table = Table.from_dict(
            schema, {"x": [1.0, 2.0], "y": ["a", "b"]}
        )
        detection = DetectionResult(
            2,
            row_mask=np.array([True, False]),
            payload={"labels": np.array(["b", "b"], dtype=object)},
        )
        out = RelabelRepair().fit(table, None).apply(table, detection)
        assert list(out.column("y").values) == ["b", "b"]

    def test_holoclean_repair_is_shared_between_error_types(self):
        # the one engine backs both Table 2 rows; composing it with the
        # missing-value detector must leave no missing cells behind
        schema = make_schema(numeric=["a", "b"], label="y")
        rng = np.random.default_rng(0)
        a = rng.normal(10, 2, 30)
        data = {
            "a": a.tolist(),
            "b": (2 * a).tolist(),
            "y": ["p", "n"] * 15,
        }
        train = Table.from_dict(schema, data)
        broken = train.with_values("a", [None] + data["a"][1:])
        detector = MissingValueDetector().fit(train)
        repair = HoloCleanRepair().fit(train, detector.detect(train))
        out = repair.apply(broken, detector.detect(broken))
        assert out.n_missing_cells() == 0


class TestDetectionCache:
    def make_table(self):
        schema = make_schema(numeric=["x"], label="y")
        values = [10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0, 500.0]
        return Table.from_dict(schema, {"x": values, "y": ["p", "n"] * 5})

    def test_equal_fingerprints_share_one_fit(self):
        table = self.make_table()
        cache = DetectionCache()
        first = cache.fit(OutlierMaskDetector("SD"), table)
        second = cache.fit(OutlierMaskDetector("SD"), table)
        assert second is first
        assert cache.hits == 1 and cache.misses == 1

    def test_detections_memoized_per_table(self):
        table = self.make_table()
        cache = DetectionCache()
        detector = cache.fit(OutlierMaskDetector("SD"), table)
        a = cache.detect(detector, table)
        b = cache.detect(detector, table)
        assert b is a

    def test_distinct_tables_do_not_collide(self):
        table = self.make_table()
        other = table.mask(np.ones(table.n_rows, dtype=bool))
        cache = DetectionCache()
        detector = cache.fit(OutlierMaskDetector("SD"), table)
        assert cache.detect(detector, table) is not cache.detect(detector, other)

    def test_isolation_forest_training_detection_is_the_fit_byproduct(self):
        table = self.make_table()
        cache = DetectionCache()
        detector = cache.fit(OutlierMaskDetector("IF", random_state=0), table)
        detection = cache.detect(detector, table)
        assert cache.hits == 1 and cache.misses == 1  # no second scoring
        assert detection.cell_masks["x"].tolist()[-1]

    def test_fingerprintless_detectors_bypass(self):
        table = self.make_table()
        cache = DetectionCache()
        first = OutlierMaskDetector("IF", random_state=None)
        assert cache.fit(first, table) is first
        second = OutlierMaskDetector("IF", random_state=None)
        assert cache.fit(second, table) is second  # no sharing
        assert cache.hits == 0 and cache.misses == 0

    def test_clear_releases_entries(self):
        table = self.make_table()
        cache = DetectionCache()
        detector = cache.fit(OutlierMaskDetector("SD"), table)
        cache.detect(detector, table)
        cache.clear()
        assert not cache._detectors and not cache._detections

    def test_bound_cache_dropped_on_copy_and_pickle(self):
        method = OutlierCleaning("SD", "mean").bind_cache(DetectionCache())
        assert copy.deepcopy(method)._cache is None
        assert pickle.loads(pickle.dumps(method))._cache is None
        assert method._cache is not None  # the original stays bound

    def test_transform_before_fit_still_raises(self):
        with pytest.raises(NotFittedError):
            OutlierCleaning("SD", "mean").transform(self.make_table())

    def test_same_fingerprint_detectors_fitted_on_different_trains_do_not_collide(self):
        # regression: two composites' stage-2 SD detectors share a
        # fingerprint but are fitted on *different* imputed trains; when
        # stage 1 passes a hole-free table through unchanged, both
        # detect on the identical table object — the cache must keep
        # their (differently-fitted) detections apart
        from repro.cleaning import CompositeCleaning, ImputationCleaning

        schema = make_schema(numeric=["x"], label="y")
        train = Table.from_dict(
            schema,
            {
                "x": [10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, None, 500.0],
                "y": ["p", "n"] * 5,
            },
        )
        test = Table.from_dict(
            schema,
            {"x": [10.0, 9.9, 501.0, 10.1], "y": ["p", "n", "p", "n"]},
        )

        def build():
            return [
                CompositeCleaning(
                    [ImputationCleaning("mean", "mode"), OutlierCleaning("SD", "mean")]
                ),
                CompositeCleaning(
                    [ImputationCleaning("mode", "mode"), OutlierCleaning("SD", "mean")]
                ),
            ]

        def outputs(cache):
            results = []
            for method in build():
                if cache is not None:
                    method.bind_cache(cache)
                method.fit(train)
                results.append(method.transform(test).column("x").values.tolist())
            return results

        assert outputs(DetectionCache()) == outputs(None)


class TestDefaultAffectedRows:
    """The vectorized transform-diff fallback matches row-dict semantics."""

    class Jitter(CleaningMethod):
        """Test double: rewrites fixed cells, including missingness flips."""

        error_type = "none"
        detection = "Test"
        repair = "Test"

        def fit(self, train):
            return self

        def transform(self, table):
            out = table.with_values(
                "a", [1.0, None, 3.5, None, 5.0]
            )  # row 1: NaN stays NaN, row 2: value change, row 3: fill
            return out.with_values(
                "c", ["x", "y", None, "w", "v"]
            )  # row 0 unchanged, row 2: None stays None, row 4: change

        def row_by_row(self, table):
            cleaned = self.transform(table)
            return np.array(
                [cleaned.row(i) != table.row(i) for i in range(table.n_rows)]
            )

    @pytest.fixture
    def table(self):
        schema = make_schema(numeric=["a"], categorical=["c"], label="y")
        return Table.from_dict(
            schema,
            {
                "a": [1.0, None, 3.0, 4.0, 5.0],
                "c": ["x", "z", None, "w", "u"],
                "y": ["p", "n", "p", "n", "p"],
            },
        )

    def test_matches_row_by_row_reference(self, table):
        method = self.Jitter().fit(table)
        expected = method.row_by_row(table)
        assert method.affected_rows(table).tolist() == expected.tolist()
        assert method.affected_rows(table).tolist() == [
            False, True, True, True, True,
        ]

    def test_row_dropping_methods_still_raise(self, table):
        method = compose(DUPLICATES, "KeyCollision", "Deletion")
        fitted = method.fit(table)
        # composed duplicates report deletions instead of raising…
        assert fitted.affected_rows(table).dtype == bool

        class Dropper(CleaningMethod):
            error_type = "none"
            detection = "Test"
            repair = "Drop"

            def fit(self, train):
                return self

            def transform(self, t):
                return t.mask(np.arange(t.n_rows) > 0)

        # …but the generic fallback is undefined for row-dropping methods
        with pytest.raises(ValueError):
            Dropper().fit(table).affected_rows(table)
