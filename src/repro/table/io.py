"""CSV persistence for :class:`~repro.table.Table`.

Datasets and cleaned variants can be written to / read from disk so that
study runs are inspectable and the library interoperates with external
tools.  Types are carried in the header as ``name:type`` suffixes so a
round trip preserves the schema exactly.

Ingestion is **column-major and chunk-streamed**: :func:`stream_csv`
yields fixed-size row chunks parsed straight into typed column buffers
(one ``np.fromiter`` per numeric column, one object buffer per
categorical column — no row-major Python list of lists is ever built),
and :func:`read_csv` concatenates the chunks' buffers once per column.
Writing is vectorized the same way: each column is formatted once, rows
go out via ``writer.writerows``.

The historical row-major reader/writer are test oracles
(``tests/oracles/io.py``): the tests pin both paths byte-for-byte
against them.
"""

from __future__ import annotations

import csv
from itertools import islice
from pathlib import Path

import numpy as np

from .column import Column
from .schema import ColumnSpec, ColumnType, Schema
from .table import Table

#: rows per chunk :func:`stream_csv` parses at a time
DEFAULT_CHUNK_ROWS = 65536

_MISSING_TOKEN = ""

#: header flag tokens, in the order write_csv appends them
_HEADER_FLAGS = ("!label", "!key", "!hidden")

_NAN = float("nan")


# -- writing ----------------------------------------------------------------


def write_csv(table: Table, path: str | Path) -> None:
    """Write ``table`` to ``path`` with a typed header.

    Header cells look like ``age:numeric`` or ``city:categorical``; the
    label column gets a ``!label`` suffix, key columns ``!key`` and
    hidden columns ``!hidden`` so that :func:`read_csv` can reconstruct
    the full schema.  Formats column-major (one pass per column, rows
    written via ``writerows``); byte-identical to the per-cell
    reference writer in ``tests/oracles/io.py``.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    columns_text: list[list[str]] = []
    for spec in table.schema.columns:
        values = table.column(spec.name).values
        if spec.is_numeric:
            text = [
                _MISSING_TOKEN if value != value else repr(value)
                for value in values.tolist()
            ]
        else:
            text = [
                _MISSING_TOKEN if value is None else str(value)
                for value in values.tolist()
            ]
        columns_text.append(text)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_header_cells(table.schema))
        if columns_text:
            writer.writerows(zip(*columns_text))
        else:
            writer.writerows([] for _ in range(table.n_rows))


def _header_cells(schema: Schema) -> list[str]:
    header = []
    for spec in schema.columns:
        cell = f"{spec.name}:{spec.ctype.value}"
        if spec.name == schema.label:
            cell += "!label"
        if spec.name in schema.keys:
            cell += "!key"
        if spec.name in schema.hidden:
            cell += "!hidden"
        header.append(cell)
    return header


# -- reading ----------------------------------------------------------------


def read_csv(path: str | Path, *, chunk_rows: int | None = None) -> Table:
    """Read a table previously written by :func:`write_csv`.

    Parses chunk-streamed and column-major (see :func:`stream_csv`).
    """
    chunks = stream_csv(path, chunk_rows or DEFAULT_CHUNK_ROWS)
    first = next(chunks)
    parts: dict[str, list[np.ndarray]] = {
        name: [first.column(name).base_buffer] for name in first.schema.names
    }
    n_rows = first.n_rows
    for chunk in chunks:
        n_rows += chunk.n_rows
        for name in first.schema.names:
            parts[name].append(chunk.column(name).base_buffer)
    columns = {
        spec.name: Column.from_buffer(
            buffers[0] if len(buffers) == 1 else np.concatenate(buffers),
            spec.ctype,
        )
        for spec, buffers in zip(first.schema.columns, parts.values())
    }
    return Table(first.schema, columns, n_rows=n_rows)


def stream_csv(path: str | Path, chunk_rows: int = DEFAULT_CHUNK_ROWS):
    """Yield ``Table`` chunks of at most ``chunk_rows`` rows from a CSV.

    Each chunk is parsed column-major into typed buffers; at least one
    chunk is always yielded (a header-only file produces one zero-row
    chunk), so consumers can recover the schema without special cases.
    """
    if chunk_rows <= 0:
        raise ValueError("chunk_rows must be positive")
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path} is empty") from None
        schema = _schema_from_header(header)
        emitted = False
        while True:
            rows = list(islice(reader, chunk_rows))
            if rows or not emitted:
                yield _typed_chunk(schema, rows)
                emitted = True
            if len(rows) < chunk_rows:
                break


def _typed_chunk(schema: Schema, rows: list[list[str]]) -> Table:
    """Parse raw csv rows into a chunk table, column-major."""
    specs = schema.columns
    n_cols = len(specs)
    for raw in rows:
        if len(raw) != n_cols:
            raise ValueError(
                f"row has {len(raw)} cells, expected {n_cols}: {raw!r}"
            )
    n_rows = len(rows)
    columns: dict[str, Column] = {}
    for j, spec in enumerate(specs):
        if spec.is_numeric:
            # float() (not np.float64's parser) keeps cell-level parse
            # semantics identical to the row-major reference reader
            buffer = np.fromiter(
                (_NAN if not row[j] else float(row[j]) for row in rows),
                dtype=np.float64,
                count=n_rows,
            )
        else:
            buffer = np.empty(n_rows, dtype=object)
            for i, row in enumerate(rows):
                cell = row[j]
                buffer[i] = cell if cell else None
        columns[spec.name] = Column.from_buffer(buffer, spec.ctype)
    return Table(schema, columns, n_rows=n_rows)


def _schema_from_header(header: list[str]) -> Schema:
    specs: list[ColumnSpec] = []
    label: str | None = None
    keys: list[str] = []
    hidden: list[str] = []
    for cell in header:
        name, ctype, is_label, is_key, is_hidden = _parse_header_cell(cell)
        specs.append(ColumnSpec(name, ctype))
        if is_label:
            label = name
        if is_key:
            keys.append(name)
        if is_hidden:
            hidden.append(name)
    return Schema(
        columns=tuple(specs), label=label, keys=tuple(keys), hidden=tuple(hidden)
    )


def _parse_header_cell(cell: str) -> tuple[str, ColumnType, bool, bool, bool]:
    """Parse ``name:type[!label][!key][!hidden]``.

    Flags are *ordered suffix tokens*, stripped from the end — a column
    whose name merely contains ``!label``/``!key``/``!hidden`` as a
    substring (e.g. ``risk!label_raw``) round-trips intact.
    """
    base = cell
    flags = {flag: False for flag in _HEADER_FLAGS}
    stripped = True
    while stripped:
        stripped = False
        for flag in _HEADER_FLAGS:
            if base.endswith(flag) and not flags[flag]:
                base = base[: -len(flag)]
                flags[flag] = True
                stripped = True
    if ":" not in base:
        raise ValueError(f"header cell {cell!r} lacks a ':type' suffix")
    name, _, type_name = base.rpartition(":")
    try:
        ctype = ColumnType(type_name)
    except ValueError:
        raise ValueError(f"unknown column type {type_name!r} in {cell!r}") from None
    return name, ctype, flags["!label"], flags["!key"], flags["!hidden"]
