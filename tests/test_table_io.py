"""Tests for repro.table.io (CSV round trips and chunk-streamed parsing)."""

import tracemalloc

import numpy as np
import pytest

from repro.table import (
    Table,
    make_schema,
    read_csv,
    stream_csv,
    write_csv,
)
from repro.table.io import _parse_header_cell
from repro.table.schema import ColumnType
from tests.oracles import read_csv_reference, write_csv_reference


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
            "age": [25.5, None, 40.0],
            "income": [1000.0, 2000.0, None],
            "city": ["NY", None, "SF,east"],
            "y": ["yes", "no", "yes"],
        },
    )


def test_round_trip_preserves_everything(tmp_path, table):
    path = tmp_path / "t.csv"
    write_csv(table, path)
    loaded = read_csv(path)
    assert loaded == table
    assert loaded.schema.label == "y"
    assert loaded.schema.keys == ("city",)


def test_missing_cells_survive_round_trip(tmp_path, table):
    path = tmp_path / "t.csv"
    write_csv(table, path)
    loaded = read_csv(path)
    assert loaded.column("age").n_missing() == 1
    assert loaded.column("city").values[1] is None


def test_commas_in_values_are_quoted(tmp_path, table):
    path = tmp_path / "t.csv"
    write_csv(table, path)
    loaded = read_csv(path)
    assert loaded.column("city").values[2] == "SF,east"


def test_empty_file_raises(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ValueError):
        read_csv(path)


def test_bad_header_raises(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("no_type_suffix\n1\n")
    with pytest.raises(ValueError):
        read_csv(path)


def test_unknown_type_raises(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a:weird\n1\n")
    with pytest.raises(ValueError):
        read_csv(path)


def test_ragged_row_raises(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a:numeric,b:numeric\n1\n")
    with pytest.raises(ValueError):
        read_csv(path)


def test_write_creates_parent_directories(tmp_path, table):
    path = tmp_path / "nested" / "dir" / "t.csv"
    write_csv(table, path)
    assert path.exists()


class TestStreamingParity:
    """The vectorized writer and chunked reader against the row-major oracles."""

    def test_writer_bytes_match_reference(self, tmp_path, table):
        write_csv(table, tmp_path / "fast.csv")
        write_csv_reference(table, tmp_path / "ref.csv")
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_streamed_read_matches_reference(self, tmp_path, table):
        path = tmp_path / "t.csv"
        write_csv(table, path)
        assert read_csv(path) == read_csv_reference(path)

    def test_odd_chunk_boundaries(self, tmp_path, table):
        path = tmp_path / "t.csv"
        write_csv(table, path)
        assert read_csv(path, chunk_rows=2) == table

    def test_stream_csv_yields_typed_chunks(self, tmp_path, table):
        path = tmp_path / "t.csv"
        write_csv(table, path)
        chunks = list(stream_csv(path, chunk_rows=2))
        assert [c.n_rows for c in chunks] == [2, 1]
        assert all(c.schema == table.schema for c in chunks)

    def test_stream_csv_header_only_yields_one_empty_chunk(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("a:numeric,b:categorical!label\n")
        chunks = list(stream_csv(path))
        assert len(chunks) == 1
        assert chunks[0].n_rows == 0
        assert chunks[0].schema.label == "b"

    def test_stream_csv_nonpositive_chunk_rows_raises(self, tmp_path, table):
        path = tmp_path / "t.csv"
        write_csv(table, path)
        with pytest.raises(ValueError):
            list(stream_csv(path, chunk_rows=0))

    def test_streamed_ragged_row_raises_same_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a:numeric,b:numeric\n1\n")
        with pytest.raises(ValueError, match="row has 1 cells"):
            read_csv(path)


class TestHeaderFlagParsing:
    """Flags are ordered suffix tokens, not substrings (ISSUE 8 satellite)."""

    def test_plain_cell(self):
        assert _parse_header_cell("age:numeric") == (
            "age", ColumnType.NUMERIC, False, False, False,
        )

    def test_all_flags_in_order(self):
        assert _parse_header_cell("y:categorical!label!key!hidden") == (
            "y", ColumnType.CATEGORICAL, True, True, True,
        )

    def test_flag_substring_in_name_survives(self):
        name, ctype, is_label, is_key, is_hidden = _parse_header_cell(
            "risk!label_raw:numeric"
        )
        assert name == "risk!label_raw"
        assert not (is_label or is_key or is_hidden)

    def test_flag_suffix_with_flaglike_name(self):
        name, _, is_label, _, _ = _parse_header_cell("score!label:numeric!label")
        assert name == "score!label"
        assert is_label

    def test_each_flag_stripped_at_most_once(self):
        name, _, is_label, _, _ = _parse_header_cell("x!label:numeric!label")
        assert name == "x!label"
        assert is_label

    def test_column_named_like_a_flag_round_trips(self, tmp_path):
        schema = make_schema(numeric=["risk!label_raw"], categorical=[], label=None)
        original = Table.from_dict(schema, {"risk!label_raw": [1.0, 2.0]})
        path = tmp_path / "t.csv"
        write_csv(original, path)
        assert read_csv(path) == original


def test_large_read_is_not_row_major(tmp_path):
    """The chunked parser must not build a Python list per row (ISSUE 8).

    100k rows x 3 numeric columns is ~2.4 MB of float64; the row-major
    reference peaks an order of magnitude above that in list-of-lists
    and boxed floats.  Pin the streamed parser's Python-heap peak to a
    small multiple of the array payload.
    """
    n_rows = 100_000
    path = tmp_path / "big.csv"
    rng = np.random.default_rng(0)
    with open(path, "w") as handle:
        handle.write("a:numeric,b:numeric,c:numeric\n")
        for start in range(0, n_rows, 10_000):
            block = rng.normal(size=(10_000, 3))
            handle.writelines(
                f"{a!r},{b!r},{c!r}\n" for a, b, c in block.tolist()
            )
    payload = n_rows * 3 * 8
    tracemalloc.start()
    table = read_csv(path, chunk_rows=8192)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert table.n_rows == n_rows
    # final arrays + one chunk of scratch; the reference path needs >10x
    assert peak < payload * 4
