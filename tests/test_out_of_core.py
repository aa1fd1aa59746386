"""Out-of-core columnar storage (ISSUE 8).

Three layers of pinning.  The store classes assert the on-disk
mechanics directly: round trips through ``save_columnar`` /
``load_columnar`` preserve values and schema, loaded numeric buffers
are read-only memmaps, categorical buffers decode lazily, and pickled
file-backed columns ship a path (not buffer bytes) and re-open the map
on the other side.  The injection class pins every spill-aware injector
value-identical to its resident path under the same rng seed.  The
parity class pins the system contract: persisted study JSON from a run
on memory-mapped (``Dataset.spilled``) datasets is byte-identical to
the eager ``table_streaming_disabled()`` reference across the full
``(n_jobs 1/2) x (split/cell)`` matrix.
"""

import pickle

import numpy as np
import pytest

from repro.cleaning import MISSING_VALUES, OUTLIERS, ImputationCleaning, OutlierCleaning
from repro.core import CleanMLStudy, StudyConfig, save_experiments
from repro.datasets import load_dataset
from repro.datasets.inject import (
    inject_duplicates,
    inject_inconsistencies,
    inject_mislabels,
    inject_missing,
    inject_outliers,
)
from repro.table import (
    Table,
    load_columnar,
    make_schema,
    save_columnar,
    spill_table,
    table_streaming_disabled,
    table_streaming_enabled,
)

#: deliberately odd chunk sizes so chunk boundaries never align with
#: anything natural in the data
ODD_CHUNKS = 7


@pytest.fixture
def table():
    schema = make_schema(
        numeric=["age", "income"],
        categorical=["city"],
        label="y",
        keys=("city",),
    )
    return Table.from_dict(
        schema,
        {
            "age": [25.5, None, 40.0, 33.0, 29.0],
            "income": [1000.0, 2000.0, None, 1500.0, 900.0],
            "city": ["NY", None, "SF", "NY", "LA"],
            "y": ["yes", "no", "yes", "no", "yes"],
        },
    )


class TestColumnarStore:
    def test_round_trip_preserves_everything(self, tmp_path, table):
        save_columnar(table, tmp_path / "t", chunk_rows=2)
        loaded = load_columnar(tmp_path / "t")
        assert loaded == table
        assert loaded.schema == table.schema
        assert loaded.file_backed

    def test_numeric_buffers_are_readonly_memmaps(self, tmp_path, table):
        save_columnar(table, tmp_path / "t")
        loaded = load_columnar(tmp_path / "t")
        buffer = loaded.column("age").base_buffer
        assert isinstance(buffer, np.memmap)
        assert not buffer.flags.writeable

    def test_categorical_decodes_lazily(self, tmp_path, table):
        save_columnar(table, tmp_path / "t")
        loaded = load_columnar(tmp_path / "t")
        city = loaded.column("city")
        assert city._buffer is None  # nothing decoded yet
        assert city._lazy is not None
        view = city.take([2, 0])  # views defer too
        assert city._buffer is None
        assert list(view.values) == ["SF", "NY"]

    def test_missing_values_survive(self, tmp_path, table):
        save_columnar(table, tmp_path / "t")
        loaded = load_columnar(tmp_path / "t")
        assert np.isnan(loaded.column("age").values[1])
        assert loaded.column("city").values[1] is None

    def test_file_backed_pickle_ships_path_not_buffers(self, tmp_path, table):
        big = Table.from_dict(
            table.schema,
            {
                "age": list(np.arange(5000.0)),
                "income": list(np.arange(5000.0) * 2),
                "city": ["NY", "SF", "LA", "SEA", "BOS"] * 1000,
                "y": ["yes", "no"] * 2500,
            },
        )
        save_columnar(big, tmp_path / "big")
        loaded = load_columnar(tmp_path / "big")
        payload = pickle.dumps(loaded)
        assert len(payload) < 4096  # paths and indices, not 5000-row buffers
        reopened = pickle.loads(payload)
        assert reopened == big
        assert reopened.file_backed

    def test_pickled_view_reopens_with_indices(self, tmp_path, table):
        save_columnar(table, tmp_path / "t")
        view = load_columnar(tmp_path / "t").take([4, 0, 2])
        reopened = pickle.loads(pickle.dumps(view))
        assert reopened == table.take([4, 0, 2])

    def test_zero_row_table_round_trips(self, tmp_path, table):
        empty = table.take([])
        save_columnar(empty, tmp_path / "empty")
        loaded = load_columnar(tmp_path / "empty")
        assert loaded.n_rows == 0
        assert loaded.schema == table.schema

    def test_streaming_disabled_loads_resident(self, tmp_path, table):
        save_columnar(table, tmp_path / "t")
        with table_streaming_disabled():
            assert not table_streaming_enabled()
            loaded = load_columnar(tmp_path / "t")
            assert loaded == table
            assert not loaded.file_backed
            assert not isinstance(loaded.column("age").base_buffer, np.memmap)
        assert table_streaming_enabled()

    def test_spill_table_is_save_plus_load(self, tmp_path, table):
        spilled = spill_table(table, tmp_path / "t", chunk_rows=2)
        assert spilled == table
        assert spilled.file_backed

    def test_materialized_view_is_no_longer_file_backed(self, tmp_path, table):
        save_columnar(table, tmp_path / "t")
        view = load_columnar(tmp_path / "t").take([1, 3])
        view.column("age").values  # materializes the view
        assert not view.column("age").is_file_backed


class TestIterChunksEdges:
    def test_chunk_larger_than_table_is_one_view(self, table):
        chunks = list(table.iter_chunks(100))
        assert len(chunks) == 1
        assert chunks[0].column("age").is_view  # before == materializes it
        assert chunks[0] == table

    def test_chunks_of_a_view_of_a_view(self, table):
        view = table.take([4, 3, 2, 1, 0]).take([0, 2, 4])
        chunks = list(view.iter_chunks(2))
        assert [c.n_rows for c in chunks] == [2, 1]
        merged = [v for c in chunks for v in c.column("age").values]
        assert merged == list(view.column("age").values)

    def test_zero_row_table_yields_nothing(self, table):
        assert list(table.take([]).iter_chunks(10)) == []

    def test_nonpositive_chunk_rows_raises(self, table):
        with pytest.raises(ValueError):
            list(table.iter_chunks(0))
        with pytest.raises(ValueError):
            list(table.iter_chunks(-3))


@pytest.fixture
def dataset():
    return load_dataset("Sensor", seed=0, n_rows=90)


class TestSpillInjectionParity:
    """Each injector: spilled result value-identical to the resident path."""

    def _parity(self, tmp_path, fn):
        eager = fn(np.random.default_rng(42), spill=None)
        spilled = fn(np.random.default_rng(42), spill=tmp_path / "spill")
        assert spilled == eager
        assert spilled.file_backed

    def test_missing_mcar(self, tmp_path, dataset):
        self._parity(
            tmp_path,
            lambda rng, spill: inject_missing(
                dataset.clean, ["voltage", "mote"], 0.2, rng,
                spill=spill, chunk_rows=ODD_CHUNKS,
            ),
        )

    def test_missing_mar(self, tmp_path, dataset):
        self._parity(
            tmp_path,
            lambda rng, spill: inject_missing(
                dataset.clean, ["voltage"], 0.2, rng, driver="temperature",
                spill=spill, chunk_rows=ODD_CHUNKS,
            ),
        )

    def test_outliers(self, tmp_path, dataset):
        self._parity(
            tmp_path,
            lambda rng, spill: inject_outliers(
                dataset.clean, ["voltage", "temperature"], 0.1, rng,
                spill=spill, chunk_rows=ODD_CHUNKS,
            ),
        )

    def test_duplicates(self, tmp_path, dataset):
        self._parity(
            tmp_path,
            lambda rng, spill: inject_duplicates(
                dataset.clean, 0.2, rng, spill=spill, chunk_rows=ODD_CHUNKS
            ),
        )

    def test_inconsistencies(self, tmp_path, dataset):
        variants = {"mote": {"mote_1": ["Mote-1", "MOTE 1"], "mote_2": ["m2"]}}
        self._parity(
            tmp_path,
            lambda rng, spill: inject_inconsistencies(
                dataset.clean, variants, 0.5, rng,
                spill=spill, chunk_rows=ODD_CHUNKS,
            ),
        )

    @pytest.mark.parametrize("strategy", ("uniform", "minor"))
    def test_mislabels(self, tmp_path, dataset, strategy):
        self._parity(
            tmp_path,
            lambda rng, spill: inject_mislabels(
                dataset.clean, rng, strategy, 0.1,
                spill=spill, chunk_rows=ODD_CHUNKS,
            ),
        )

    def test_spill_ignored_when_streaming_disabled(self, tmp_path, dataset):
        with table_streaming_disabled():
            out = inject_missing(
                dataset.clean, ["voltage"], 0.2, np.random.default_rng(42),
                spill=tmp_path / "spill", chunk_rows=ODD_CHUNKS,
            )
            assert not out.file_backed
        eager = inject_missing(
            dataset.clean, ["voltage"], 0.2, np.random.default_rng(42)
        )
        assert out == eager

    def test_dataset_spilled(self, tmp_path, dataset):
        mapped = dataset.spilled(tmp_path / "sensor", chunk_rows=ODD_CHUNKS)
        assert mapped.dirty == dataset.dirty
        assert mapped.clean == dataset.clean
        assert mapped.dirty.file_backed and mapped.clean.file_backed
        assert mapped.name == dataset.name


FAST = StudyConfig(
    n_splits=2,
    cv_folds=2,
    models=("logistic_regression", "naive_bayes"),
    seed=7,
)


def make_study(spill_root=None):
    study = CleanMLStudy(FAST)
    sensor = load_dataset("Sensor", seed=0, n_rows=140)
    titanic = load_dataset("Titanic", seed=0, n_rows=140)
    if spill_root is not None:
        sensor = sensor.spilled(spill_root / "sensor")
        titanic = titanic.spilled(spill_root / "titanic")
    study.add(
        sensor,
        OUTLIERS,
        methods=[OutlierCleaning("SD", "mean"), OutlierCleaning("IQR", "mean")],
    )
    study.add(titanic, MISSING_VALUES, methods=[ImputationCleaning("mean", "mode")])
    return study


def persisted_bytes(study, tmp_path, label):
    path = tmp_path / f"{label}.json"
    save_experiments(study.raw_experiments, path)
    return path.read_bytes()


@pytest.fixture(scope="module")
def eager_reference(tmp_path_factory):
    """The table_streaming_disabled n_jobs=1 run the matrix is pinned against."""
    with table_streaming_disabled():
        study = make_study()
        study.run(n_jobs=1, granularity="split")
    tmp_path = tmp_path_factory.mktemp("streaming-off")
    return persisted_bytes(study, tmp_path, "streaming-off")


class TestOutOfCoreStudyParity:
    """Byte-identical persisted JSON on memory-mapped datasets, full matrix.

    The n_jobs=2 arms exercise the worker side of the contract: pickled
    file-backed columns carry (store path, column name) provenance and
    the pool workers re-open the memmaps instead of receiving buffer
    bytes.
    """

    @pytest.mark.parametrize("granularity", ("split", "cell"))
    @pytest.mark.parametrize("n_jobs", (1, 2))
    def test_mapped_matches_eager(
        self, n_jobs, granularity, eager_reference, tmp_path
    ):
        study = make_study(spill_root=tmp_path)
        study.run(n_jobs=n_jobs, granularity=granularity)
        label = f"mapped-{granularity}-{n_jobs}"
        assert persisted_bytes(study, tmp_path, label) == eager_reference
