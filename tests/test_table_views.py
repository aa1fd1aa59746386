"""Zero-copy view semantics of the columnar table core (ISSUE 6).

Two layers of pinning.  The mechanics classes assert the buffer/view
memory model directly: ``take`` shares buffers instead of copying,
views compose and materialize lazily, mutation discipline is enforced
by read-only buffers, and every edge the study internals hit (zero-row
tables, all-missing columns, views of views, ``with_column`` on a view)
behaves exactly like the eager take and set-based ``drop_rows`` kept as
oracles in ``tests/oracles/table.py``.  The parity class then pins the
system-level contract: persisted study JSON is byte-identical with the
eager oracle patched in for ``Column.take`` ("views off") and with the
zero-copy views ("views on"), across the full
``(n_jobs 1/2) x (split/cell)`` execution matrix.
"""
import pickle

import numpy as np
import pytest

from repro.cleaning import MISSING_VALUES, OUTLIERS, ImputationCleaning, OutlierCleaning
from repro.core import CleanMLStudy, StudyConfig, save_experiments
from repro.table import Column, ColumnType, Table, make_schema
from tests.oracles import drop_rows_reference, take_reference


def numeric(values):
    return Column(values, ColumnType.NUMERIC)


def categorical(values):
    return Column(values, ColumnType.CATEGORICAL)


@pytest.fixture
def small():
    schema = make_schema(numeric=["age"], categorical=["city"], label="y")
    return Table.from_dict(
        schema,
        {
            "age": [25, None, 40, 31],
            "city": ["NY", "SF", None, "NY"],
            "y": ["yes", "no", "yes", "no"],
        },
    )


class TestViewMechanics:
    def test_take_shares_the_buffer(self):
        col = numeric([1.0, 2.0, 3.0])
        view = col.take([2, 0])
        assert view.is_view
        assert view.base_buffer is col.base_buffer
        assert list(view.view_indices) == [2, 0]

    def test_view_materializes_lazily_and_caches(self):
        col = numeric([1.0, 2.0, 3.0])
        view = col.take([1])
        assert view.is_view
        first = view.values
        assert not view.is_view  # materialized on first access
        assert view.values is first  # and cached thereafter
        assert list(first) == [2.0]

    def test_view_of_view_composes_indices_without_gathering(self):
        col = numeric([10.0, 20.0, 30.0, 40.0])
        inner = col.take([3, 1, 0])
        outer = inner.take([2, 0])
        assert outer.base_buffer is col.base_buffer
        assert list(outer.view_indices) == [0, 3]
        assert inner.is_view  # composing never materialized the parent
        assert list(outer.values) == [10.0, 40.0]

    def test_boolean_mask_take(self):
        col = numeric([1.0, 2.0, 3.0])
        view = col.take(np.array([True, False, True]))
        assert list(view.values) == [1.0, 3.0]

    def test_shared_buffer_is_locked_read_only(self):
        col = numeric([1.0, 2.0])
        col.take([0])
        with pytest.raises(ValueError):
            col.base_buffer[0] = 99.0

    def test_gather_is_fresh_and_writable(self):
        col = numeric([1.0, 2.0, 3.0])
        view = col.take([2, 1])
        out = view.gather()
        out[0] = -1.0  # writable
        assert view.is_view  # gather never materializes the cache
        assert list(view.values) == [3.0, 2.0]  # and never aliases it

    def test_copy_of_view_is_independent(self):
        col = categorical(["a", "b", "c"])
        clone = col.take([1, 2]).copy()
        clone.values[0] = "z"
        assert list(col.values) == ["a", "b", "c"]

    def test_aliases_detects_provable_identity(self):
        col = numeric([1.0, 2.0])
        assert col.aliases(col)
        view = col.take([0, 1])
        other = col.take([0, 1])
        assert not view.aliases(other)  # distinct index arrays: unprovable
        assert not col.aliases(numeric([1.0, 2.0]))  # equal but distinct
        assert not col.aliases(view)

    def test_table_take_is_zero_copy(self, small):
        taken = small.take([3, 1])
        for name in small.schema.names:
            assert taken.column(name).base_buffer is small.column(name).base_buffer
        assert taken.row(0) == small.row(3)

    def test_pickled_views_share_one_buffer_per_column(self):
        # a pool broadcast pickles several views of one table together;
        # the receiving side must get one copy of each buffer, not one
        # per view
        rng = np.random.default_rng(0)
        n = 20_000
        age = rng.normal(size=n)
        age[rng.random(n) < 0.1] = np.nan
        city = rng.choice(["NY", "SF", "LA", ""], size=n).tolist()
        schema = make_schema(numeric=["age"], categorical=["city"], label="y")
        table = Table.from_dict(
            schema, {"age": age, "city": city, "y": ["p", "n"] * (n // 2)}
        )
        order = rng.permutation(n)
        a, b = order[: n * 3 // 5], order[n * 3 // 5 :]
        views = (table.take(a), table.take(b))
        payload = pickle.dumps(views)
        loaded = pickle.loads(payload)
        bound = len(pickle.dumps(table)) + a.nbytes + b.nbytes
        assert len(payload) < 1.10 * bound
        for name in schema.names:
            first, second = (view.column(name) for view in loaded)
            assert first.is_view and second.is_view
            assert first.base_buffer is second.base_buffer
            for view, indices in zip(loaded, (a, b)):
                column = view.column(name)
                assert column.view_indices.tolist() == indices.tolist()
                expected = table.column(name).missing_mask()[indices]
                assert (column.missing_mask() == expected).all()
                assert expected.any() == (name != "y")
        for view, original in zip(loaded, views):
            assert view == original


class TestViewEdgeCases:
    def test_zero_row_view(self, small):
        empty = small.take([])
        assert empty.n_rows == 0
        assert empty.column("age").n_missing() == 0
        assert np.isnan(empty.column("age").mean())
        assert empty.concat(small) == small

    def test_all_missing_column_under_views(self):
        col = numeric([None, None, None])
        view = col.take([2, 0])
        assert view.n_missing() == 2
        assert np.isnan(view.mean())
        assert view.mode() is not None and np.isnan(view.mode())
        cat = categorical([None, None]).take([1, 0])
        assert cat.mode() is None
        assert cat.unique() == []

    def test_with_column_on_a_view_table(self, small):
        view = small.take([0, 2])
        updated = view.with_column("age", numeric([1.0, 2.0]))
        assert updated.column("age").mean() == 1.5
        # untouched columns still share the original buffers
        assert updated.column("city").base_buffer is small.column("city").base_buffer
        assert small.column("age").n_missing() == 1

    def test_column_eq_is_nan_aware_under_views(self):
        base = numeric([1.0, None, 3.0, None])
        assert base.take([1, 0]) == numeric([None, 1.0])
        assert base.take([0, 1]) != numeric([1.0, 2.0])
        assert base.take([0]) != categorical(["1.0"])
        # view == view with independent buffers
        assert base.take([3, 2]) == numeric([None, 3.0]).take([0, 1])

    def test_statistics_match_reference_on_views(self):
        rng = np.random.default_rng(0)
        col = numeric(rng.normal(0.0, 1.0, 50))
        idx = rng.choice(50, size=20, replace=False)
        view = col.take(idx)
        eager = take_reference(col, idx)
        assert not eager.is_view
        assert view == eager
        assert view.mean() == eager.mean()
        assert view.std() == eager.std()
        assert view.quantile(0.25) == eager.quantile(0.25)


class TestDropRowsParity:
    """Vectorized drop_rows is behavior-identical to the set-based original."""

    @pytest.mark.parametrize(
        "indices",
        [
            [],
            [0],
            [0, 2],
            [2, 0, 2],  # duplicates
            [99],  # out of range: silently ignored
            [-1],  # negative: no wrap-around, silently ignored
            [0, 1, 2, 3],
            [3, -5, 100, 1],
        ],
    )
    def test_matches_reference(self, small, indices):
        assert small.drop_rows(indices) == drop_rows_reference(small, indices)

    def test_random_parity(self):
        rng = np.random.default_rng(11)
        schema = make_schema(numeric=["x"], label="y")
        table = Table.from_dict(
            schema,
            {"x": rng.normal(0, 1, 60).tolist(), "y": ["a"] * 60},
        )
        for _ in range(10):
            indices = rng.integers(-10, 70, size=rng.integers(0, 30)).tolist()
            assert table.drop_rows(indices) == drop_rows_reference(table, indices)


class TestTakeParity:
    """Zero-copy take is value-identical to the eager oracle."""

    def test_random_parity_with_views_of_views(self):
        rng = np.random.default_rng(5)
        values = rng.normal(0, 1, 40)
        values[::6] = np.nan
        columns = [
            numeric(values),
            categorical([None if i % 7 == 0 else f"c{i % 5}" for i in range(40)]),
        ]
        for column in columns:
            for _ in range(10):
                first = rng.integers(0, 40, size=rng.integers(0, 60))
                second = rng.integers(0, max(len(first), 1), size=len(first) // 2)
                if len(first) == 0:
                    second = second[:0]
                view = column.take(first).take(second)
                eager = take_reference(take_reference(column, first), second)
                assert view.is_view and not eager.is_view
                assert view == eager
                mask = rng.random(40) < 0.5
                assert column.take(mask) == take_reference(column, mask)


class TestZeroColumnRegression:
    """Table.concat keeps `_n_rows` alive with no columns (ISSUE 6 bugfix)."""

    def make_features(self, n):
        schema = make_schema(label="y")
        return Table.from_dict(schema, {"y": ["a"] * n}).features_table()

    def test_concat_preserves_row_count(self):
        merged = self.make_features(3).concat(self.make_features(2))
        assert merged.n_rows == 5

    def test_take_mask_concat_round_trip(self):
        features = self.make_features(4)
        taken = features.take([0, 2, 3])
        assert taken.n_rows == 3
        masked = taken.mask(np.array([True, False, True]))
        assert masked.n_rows == 2
        assert masked.concat(features).n_rows == 6
        assert features.drop_rows([1]).n_rows == 3

    def test_concat_with_columns_still_checks_n_rows(self, small):
        assert small.concat(small).n_rows == 8


FAST = StudyConfig(
    n_splits=2,
    cv_folds=2,
    models=("logistic_regression", "naive_bayes"),
    seed=7,
)


def make_study():
    from repro.datasets import load_dataset

    study = CleanMLStudy(FAST)
    study.add(
        load_dataset("Sensor", seed=0, n_rows=140),
        OUTLIERS,
        methods=[OutlierCleaning("SD", "mean"), OutlierCleaning("IQR", "mean")],
    )
    study.add(
        load_dataset("Titanic", seed=0, n_rows=140),
        MISSING_VALUES,
        methods=[ImputationCleaning("mean", "mode")],
    )
    return study


def persisted_bytes(study, tmp_path, label):
    path = tmp_path / f"{label}.json"
    save_experiments(study.raw_experiments, path)
    return path.read_bytes()


@pytest.fixture(scope="module")
def views_on_reference(tmp_path_factory):
    """The views-enabled n_jobs=1 split run the matrix is pinned against."""
    study = make_study()
    study.run(n_jobs=1, granularity="split")
    tmp_path = tmp_path_factory.mktemp("views-on")
    return persisted_bytes(study, tmp_path, "views-on")


class TestViewsStudyParity:
    """Byte-identical persisted JSON with views on vs off, full matrix.

    "Views off" patches the eager oracle in for ``Column.take``.  Workers
    inherit the patch under the fork start method, so the n_jobs=2 arms
    genuinely execute the eager core; even under spawn the assertion
    must hold — both paths are pinned to the same bytes.
    """

    @pytest.mark.parametrize("granularity", ("split", "cell"))
    @pytest.mark.parametrize("n_jobs", (1, 2))
    def test_views_off_matches_views_on(
        self, n_jobs, granularity, views_on_reference, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(Column, "take", take_reference)
        assert not numeric([1.0, 2.0]).take([1]).is_view
        study = make_study()
        study.run(n_jobs=n_jobs, granularity=granularity)
        monkeypatch.undo()
        label = f"views-off-{granularity}-{n_jobs}"
        assert persisted_bytes(study, tmp_path, label) == views_on_reference
