"""Tests for the column-at-a-time ZeroER pair kernel.

``candidate_pairs`` returns index arrays and ``PairFeaturizer.features``
works one column at a time over them.  Neither may move a bit: pair
order and feature bytes are pinned against the per-pair loops kept as
the oracles ``tests/oracles/zeroer.py`` — on every registry dataset's
train and test splits on the exhaustive and the blocked path, at the
400/401-row switch, at the 50/51-member stop-token guard, and on the
edge values each similarity has to get right (missing cells,
punctuation-only and case-only values, NaN, a zero-std column, no pairs
at all).
"""

import numpy as np
import pytest

import repro.cleaning.zeroer as zeroer
from repro.cleaning import PairFeaturizer, ZeroERDetector
from repro.cleaning.zeroer import candidate_pairs
from repro.datasets import DATASET_NAMES, load_dataset
from repro.table import Table, make_schema, train_test_split
from tests.oracles import candidate_pairs_reference, pair_features_reference


def assert_matches_oracle(table: Table, train: Table | None = None):
    """Pin the kernel's pairs and feature bytes on ``table``; return them."""
    featurizer = PairFeaturizer().fit(table if train is None else train)
    a, b = candidate_pairs(table, featurizer.categorical)
    reference = candidate_pairs_reference(table, featurizer.categorical)
    assert a.dtype.kind == b.dtype.kind == "i"
    assert list(zip(a.tolist(), b.tolist())) == reference
    got = featurizer.features(table, a, b)
    want = pair_features_reference(featurizer, table, reference)
    assert got.shape == want.shape == (len(reference), featurizer.n_features)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    return a, b, got


def synthetic(n_rows: int, **columns) -> Table:
    """A table of the given categorical (str/None) and numeric (float) columns."""
    categorical = [k for k, v in columns.items() if not isinstance(v[0], float)]
    numeric = [k for k in columns if k not in categorical]
    schema = make_schema(numeric=numeric, categorical=categorical, label="y")
    data = {name: list(values) for name, values in columns.items()}
    data["y"] = ["p", "n"] * (n_rows // 2) + ["p"] * (n_rows % 2)
    return Table.from_dict(schema, data)


def unique_names(n_rows: int) -> list[str]:
    return [f"r{i} q{i * 7 % 13}" for i in range(n_rows)]


class TestRegistryParity:
    """Every registry dataset's splits, featurized by the train-fitted model."""

    @pytest.mark.parametrize("name", DATASET_NAMES)
    @pytest.mark.parametrize(
        "n_rows, path",
        # 200 rows split to 140/60 (all pairs); 1400 rows to 980/420
        # (both above the 400-row switch, so both blocked)
        [(200, "exhaustive"), (1400, "blocked")],
    )
    def test_train_and_test_splits(self, name, n_rows, path):
        dirty = load_dataset(name, seed=0, n_rows=n_rows).dirty
        train, test = train_test_split(dirty, seed=0)
        for part in (train, test):
            assert (part.n_rows <= zeroer._SMALL_TABLE) == (path == "exhaustive")
            assert_matches_oracle(part, train=train)


class TestPairEnumeration:
    @pytest.mark.parametrize("n_rows", [0, 1, 2, 5])
    def test_tiny_tables(self, n_rows):
        schema = make_schema(categorical=["name"], label="y")
        table = Table.from_dict(
            schema, {"name": unique_names(n_rows), "y": ["p"] * n_rows}
        )
        a, _, _ = assert_matches_oracle(table)
        assert len(a) == n_rows * (n_rows - 1) // 2

    def test_400_rows_enumerates_every_pair(self):
        table = synthetic(400, name=unique_names(400))
        a, _, _ = assert_matches_oracle(table)
        assert len(a) == 400 * 399 // 2

    def test_401_rows_blocks(self):
        names = unique_names(401)
        table = synthetic(401, name=names)
        a, b, _ = assert_matches_oracle(table)
        # only rows sharing a "q" token pair up once blocking starts
        assert 0 < len(a) < 401 * 400 // 2
        for i, j in zip(a.tolist(), b.tolist()):
            assert names[i].split()[1] == names[j].split()[1]

    @pytest.mark.parametrize("members, kept", [(50, True), (51, False)])
    def test_stop_token_guard(self, members, kept):
        n_rows = 450
        names = [f"u{i}" + (" shared" if i < members else "") for i in range(n_rows)]
        table = synthetic(n_rows, name=names)
        a, _, _ = assert_matches_oracle(table)
        assert len(a) == (members * (members - 1) // 2 if kept else 0)

    def test_blocking_unions_tokens_across_columns(self):
        n_rows = 420
        first = [f"a{i % 30}" for i in range(n_rows)]
        second = [None if i % 3 else f"b{i % 25}" for i in range(n_rows)]
        assert_matches_oracle(synthetic(n_rows, first=first, second=second))


class TestEdgeValues:
    def features_of(self, table: Table) -> np.ndarray:
        return assert_matches_oracle(table)[2]

    def test_missing_on_one_and_both_sides(self):
        table = synthetic(
            4, name=["blue bottle", None, None, "blue bottle"], x=[1.0, 2.0, 3.0, 1.0]
        )
        features = self.features_of(table)
        a, b = np.triu_indices(4, 1)
        both_missing = (a == 1) & (b == 2)
        one_missing = ((a == 0) & (b == 1)) | ((a == 2) & (b == 3))
        assert (features[both_missing | one_missing, :2] == 0.0).all()
        matched = (a == 0) & (b == 3)
        assert (features[matched, :2] > 0.0).all()

    def test_punctuation_only_values_have_empty_token_sets(self):
        table = synthetic(4, name=["!!", "--", "!!", "a.b"])
        features = self.features_of(table)
        # pair (0, 2): union 0 -> Jaccard 0.0, yet the values match exactly
        assert features[1, 0] == 0.0 and features[1, 1] > 0.0
        # pair (0, 1): both empty, different values
        assert features[0, 0] == 0.0 and features[0, 1] == 0.0

    def test_case_only_differences(self):
        table = synthetic(3, name=["Blue Bottle", "blue bottle", "BLUE BOTTLE"])
        featurizer = PairFeaturizer().fit(table)
        features = self.features_of(table)
        weight = featurizer.weights["name"]
        assert (features[:, 0] == weight * 1.0).all()  # Jaccard 1
        assert (features[:, 1] == 0.0).all()  # never an exact match

    def test_nan_on_one_and_both_sides(self):
        table = synthetic(4, x=[np.nan, np.nan, 1.0, 1.5], z=[0.0, 1.0, 2.0, 4.0])
        features = self.features_of(table)
        a, b = np.triu_indices(4, 1)
        assert (features[(a < 2), 0] == 0.0).all()
        assert features[(a == 2) & (b == 3), 0] > 0.0

    def test_zero_std_numeric_column(self):
        table = synthetic(5, x=[3.0] * 5, z=[0.0, 1.0, 2.0, 4.0, 8.0])
        featurizer = PairFeaturizer().fit(table)
        assert featurizer.scales["x"] == 1.0
        features = self.features_of(table)
        assert (features[:, 0] == 1.0).all()

    def test_zero_std_train_scores_a_varying_test(self):
        train = synthetic(5, x=[3.0] * 5, name=unique_names(5))
        test = synthetic(6, x=[0.0, 1.0, 3.0, np.nan, 2.5, 10.0], name=unique_names(6))
        assert_matches_oracle(test, train=train)

    def test_empty_pair_list(self):
        table = synthetic(5, name=unique_names(5), x=[1.0, 2.0, 3.0, 4.0, 5.0])
        featurizer = PairFeaturizer().fit(table)
        empty = np.empty(0, dtype=np.intp)
        got = featurizer.features(table, empty, empty)
        want = pair_features_reference(featurizer, table, [])
        assert got.shape == want.shape == (0, featurizer.n_features)
        assert got.tobytes() == want.tobytes()

    def test_array_exp_matches_scalar_exp(self):
        # the numeric similarity is one vectorized np.exp where the oracle
        # called it per pair; pin that this machine's array and scalar
        # exp agree over the argument range the features produce
        rng = np.random.default_rng(0)
        arguments = -np.abs(rng.standard_normal(20_000)) * rng.choice(
            [1e-3, 1.0, 30.0, 800.0], size=20_000
        )
        vector = np.exp(arguments)
        scalar = np.array([np.exp(x) for x in arguments])
        assert vector.tobytes() == scalar.tobytes()


class TestDetection:
    @pytest.mark.parametrize("name", ["Restaurant", "Airbnb", "Citation"])
    def test_fit_detect_matches_detect_and_yields_python_ints(self, name):
        dirty = load_dataset(name, seed=0, n_rows=800).dirty
        train, test = train_test_split(dirty, seed=0)
        byproduct = ZeroERDetector().fit_detect(train)
        fitted = ZeroERDetector().fit(train)
        assert byproduct.pairs == fitted.detect(train).pairs
        assert byproduct.pairs  # the pins below are not vacuous
        for detection in (byproduct, fitted.detect(test)):
            assert isinstance(detection.pairs, tuple)
            for pair in detection.pairs:
                assert type(pair) is tuple and len(pair) == 2
                assert all(type(index) is int for index in pair)
                assert pair[0] < pair[1]
