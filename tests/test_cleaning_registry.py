"""Tests for the cleaning registry (paper Table 2) and the human oracle."""

import numpy as np
import pytest

from repro.cleaning import (
    DUPLICATES,
    ERROR_TYPES,
    INCONSISTENCIES,
    MISLABELS,
    MISSING_VALUES,
    OUTLIERS,
    ROW_ID,
    IdentityCleaning,
    OracleCleaning,
    dirty_baseline,
    methods_for,
)
from repro.table import ColumnSpec, ColumnType, Table, make_schema


class TestRegistry:
    def test_missing_values_method_count(self):
        # 6 simple imputations + HoloClean
        assert len(methods_for(MISSING_VALUES)) == 7
        assert len(methods_for(MISSING_VALUES, include_advanced=False)) == 6

    def test_outlier_method_count(self):
        # 3 detectors x (3 imputations + HoloClean)
        assert len(methods_for(OUTLIERS)) == 12
        assert len(methods_for(OUTLIERS, include_advanced=False)) == 9

    def test_duplicate_method_count(self):
        assert len(methods_for(DUPLICATES)) == 2
        assert len(methods_for(DUPLICATES, include_advanced=False)) == 1

    def test_single_method_types(self):
        assert len(methods_for(INCONSISTENCIES)) == 1
        assert len(methods_for(MISLABELS)) == 1

    def test_methods_carry_matching_error_type(self):
        for error_type in ERROR_TYPES:
            for method in methods_for(error_type):
                assert method.error_type == error_type

    def test_method_names_unique_within_error_type(self):
        for error_type in ERROR_TYPES:
            names = [m.name for m in methods_for(error_type)]
            assert len(names) == len(set(names)), error_type

    def test_unknown_error_type_raises(self):
        with pytest.raises(ValueError):
            methods_for("typos")

    def test_seeded_isolation_forests_detect_identically(self):
        # the Table-9 walk-throughs pass their config seed: two method
        # lists built with one seed must flag the same cells.  On a
        # small uniform table, which cells the forest flags depends on
        # its seed.
        rng = np.random.default_rng(0)
        table = Table.from_dict(
            make_schema(numeric=["a", "b"], label="y"),
            {
                "a": rng.uniform(size=40).tolist(),
                "b": rng.uniform(size=40).tolist(),
                "y": ["p", "n"] * 20,
            },
        )

        def isolation_masks(seed):
            return [
                np.concatenate(
                    list(method.fit(table).detector.detect(table).cell_masks.values())
                )
                for method in methods_for(
                    OUTLIERS, include_advanced=False, random_state=seed
                )
                if method.detection == "IF"
            ]

        first, second = isolation_masks(5), isolation_masks(5)
        assert len(first) == 3 and first[0].any()
        for mask, again in zip(first, second):
            assert np.array_equal(mask, again)
        assert not np.array_equal(first[0], isolation_masks(6)[0])

    def test_dirty_baseline_semantics(self):
        assert dirty_baseline(MISSING_VALUES).repair == "Deletion"
        assert isinstance(dirty_baseline(OUTLIERS), IdentityCleaning)
        assert isinstance(dirty_baseline(DUPLICATES), IdentityCleaning)


class TestOracleCleaning:
    def make_pair(self):
        schema = make_schema(
            numeric=["x", ROW_ID],
            categorical=["c"],
            label="y",
            hidden=(ROW_ID,),
        )
        clean = Table.from_dict(
            schema,
            {
                "x": [1.0, 2.0, 3.0],
                "c": ["a", "b", "c"],
                "y": ["p", "n", "p"],
                ROW_ID: [0, 1, 2],
            },
        )
        dirty = Table.from_dict(
            schema,
            {
                "x": [1.0, None, 3.0, 3.0],
                "c": ["a", "b", "c", "c"],
                "y": ["n", "n", "p", "p"],
                ROW_ID: [0, 1, 2, 100],  # row 100 is a planted duplicate
            },
        )
        return clean, dirty

    def test_restores_feature_cells(self):
        clean, dirty = self.make_pair()
        oracle = OracleCleaning(clean, MISSING_VALUES).fit(dirty)
        fixed = oracle.transform(dirty)
        assert fixed.column("x").values[1] == 2.0

    def test_restores_labels_for_mislabels(self):
        clean, dirty = self.make_pair()
        oracle = OracleCleaning(clean, MISLABELS).fit(dirty)
        fixed = oracle.transform(dirty)
        assert fixed.column("y").values[0] == "p"

    def test_drops_planted_duplicates(self):
        clean, dirty = self.make_pair()
        oracle = OracleCleaning(clean, DUPLICATES).fit(dirty)
        fixed = oracle.transform(dirty)
        assert fixed.n_rows == 3

    def test_requires_row_id(self):
        schema = make_schema(numeric=["x"], label="y")
        plain = Table.from_dict(schema, {"x": [1.0], "y": ["p"]})
        with pytest.raises(ValueError):
            OracleCleaning(plain, MISSING_VALUES)

    def test_hidden_column_not_a_feature(self):
        clean, _ = self.make_pair()
        assert ROW_ID not in clean.schema.feature_names
