"""The :class:`Table` container — CleanML's unit of data.

A ``Table`` is an immutable-by-convention, column-oriented relation: a
:class:`~repro.table.schema.Schema` plus one :class:`Column` per spec.
Every cleaning operator consumes a table and produces a *new* table, so
dirty and cleaned versions can coexist during an experiment.

Row selection (``take`` / ``mask`` / ``drop_rows`` / ``iter_chunks``,
and everything built on them — train/test splitting, fold slicing,
``features_table``) is **zero-copy**: the result shares each column's
buffer and carries only an index array, materializing lazily on first
value access (see :mod:`repro.table.column` for the memory model).
"""

from __future__ import annotations

import numpy as np

from .column import Column
from .schema import ColumnSpec, ColumnType, Schema


class Table:
    """Column-oriented table with mixed numeric / categorical columns."""

    def __init__(
        self,
        schema: Schema,
        columns: dict[str, Column],
        n_rows: int | None = None,
    ) -> None:
        if set(columns) != set(schema.names):
            missing = set(schema.names) - set(columns)
            extra = set(columns) - set(schema.names)
            raise ValueError(
                f"columns do not match schema (missing={sorted(missing)}, "
                f"extra={sorted(extra)})"
            )
        lengths = {len(col) for col in columns.values()}
        if len(lengths) > 1:
            raise ValueError(f"ragged columns: lengths {sorted(lengths)}")
        if lengths:
            observed = lengths.pop()
            if n_rows is not None and n_rows != observed:
                raise ValueError(
                    f"n_rows={n_rows} does not match column length {observed}"
                )
            n_rows = observed
        for spec in schema.columns:
            if columns[spec.name].ctype is not spec.ctype:
                raise ValueError(
                    f"column {spec.name!r} has type "
                    f"{columns[spec.name].ctype} but schema says {spec.ctype}"
                )
        self.schema = schema
        self._columns = columns
        # Row count survives dropping every column (e.g. a label-only table
        # reduced to features), which plain column inspection cannot tell.
        self._n_rows = 0 if n_rows is None else int(n_rows)

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_dict(cls, schema: Schema, data: dict[str, list]) -> "Table":
        """Build a table from raw python lists keyed by column name."""
        columns = {
            spec.name: Column(data[spec.name], spec.ctype)
            for spec in schema.columns
        }
        return cls(schema, columns)

    @classmethod
    def from_rows(cls, schema: Schema, rows: list[dict]) -> "Table":
        """Build a table from a list of row dictionaries."""
        data: dict[str, list] = {name: [] for name in schema.names}
        for row in rows:
            for name in schema.names:
                data[name].append(row.get(name))
        return cls.from_dict(schema, data)

    # -- basic protocol ------------------------------------------------------

    @property
    def n_rows(self) -> int:
        return self._n_rows

    @property
    def n_columns(self) -> int:
        return len(self._columns)

    @property
    def file_backed(self) -> bool:
        """True when every column's base buffer lives in a columnar store.

        File-backed tables pickle as store paths plus view indices —
        pool workers re-open the memmaps locally instead of receiving
        the buffers over the pipe (see :mod:`repro.table.store`).
        """
        return bool(self._columns) and all(
            column.is_file_backed for column in self._columns.values()
        )

    def __len__(self) -> int:
        return self.n_rows

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        if self.schema != other.schema:
            return False
        return all(
            self._columns[name] == other._columns[name]
            for name in self.schema.names
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Table(rows={self.n_rows}, columns={self.schema.names})"

    def column(self, name: str) -> Column:
        """The named column; raises ``KeyError`` if absent."""
        if name not in self._columns:
            raise KeyError(f"no column named {name!r}")
        return self._columns[name]

    def row(self, index: int) -> dict:
        """Row ``index`` as a ``{column: value}`` dict (missing -> None)."""
        out = {}
        for name in self.schema.names:
            value = self._columns[name].values[index]
            if isinstance(value, float) and np.isnan(value):
                value = None
            out[name] = value
        return out

    def rows(self) -> list[dict]:
        """All rows as dicts — convenient for tests and small tables."""
        return [self.row(i) for i in range(self.n_rows)]

    def copy(self) -> "Table":
        return Table(
            self.schema,
            {name: col.copy() for name, col in self._columns.items()},
            n_rows=self.n_rows,
        )

    # -- row selection ---------------------------------------------------------

    def take(self, indices) -> "Table":
        """New table with the rows at ``indices`` (order preserved).

        Zero-copy: every column of the result shares its parent's
        buffer and only the index array is new.
        """
        indices = np.asarray(indices, dtype=int)
        return Table(
            self.schema,
            {name: col.take(indices) for name, col in self._columns.items()},
            n_rows=len(indices),
        )

    def mask(self, keep: np.ndarray) -> "Table":
        """New table with rows where boolean ``keep`` is True."""
        keep = np.asarray(keep, dtype=bool)
        if len(keep) != self.n_rows:
            raise ValueError("mask length does not match row count")
        return self.take(np.nonzero(keep)[0])

    def drop_rows(self, indices) -> "Table":
        """New table without the rows at ``indices``.

        Out-of-range and negative indices are ignored, matching the
        historical set-membership semantics (kept executable as a test
        oracle in ``tests/oracles/table.py``).
        """
        drop = np.array(sorted({int(i) for i in indices}), dtype=np.int64)
        keep = np.isin(np.arange(self.n_rows), drop, invert=True)
        return self.mask(keep)

    def iter_chunks(self, chunk_rows: int):
        """Yield consecutive row blocks of at most ``chunk_rows`` rows.

        Each block is a zero-copy view table (buffer-sharing ``take``),
        so streaming pipelines — inject → split → clean → encode — can
        walk a large table without ever holding a second full copy.
        """
        if chunk_rows <= 0:
            raise ValueError("chunk_rows must be positive")
        for start in range(0, self.n_rows, chunk_rows):
            stop = min(start + chunk_rows, self.n_rows)
            yield self.take(np.arange(start, stop))

    def concat(self, other: "Table") -> "Table":
        """Vertical concatenation; schemas must match exactly."""
        if self.schema != other.schema:
            raise ValueError("cannot concat tables with different schemas")
        columns = {}
        for spec in self.schema.columns:
            merged = np.concatenate(
                [self._columns[spec.name].values, other._columns[spec.name].values]
            )
            columns[spec.name] = Column(merged, spec.ctype)
        # n_rows passed explicitly: with zero columns the dict above is
        # empty and the constructor could not recover the row count.
        return Table(self.schema, columns, n_rows=self.n_rows + other.n_rows)

    # -- column manipulation -----------------------------------------------------

    def with_column(self, name: str, column: Column) -> "Table":
        """New table with ``name`` replaced (type must match the schema)."""
        spec = self.schema.spec(name)
        if column.ctype is not spec.ctype:
            raise ValueError(
                f"column {name!r} must be {spec.ctype}, got {column.ctype}"
            )
        if len(column) != self.n_rows:
            raise ValueError("replacement column has wrong length")
        columns = dict(self._columns)
        columns[name] = column
        return Table(self.schema, columns)

    def with_values(self, name: str, values) -> "Table":
        """New table with the raw values of column ``name`` replaced."""
        return self.with_column(name, Column(values, self.schema.ctype(name)))

    def drop_columns(self, names: list[str] | tuple[str, ...]) -> "Table":
        """New table without the listed columns."""
        schema = self.schema.drop(list(names))
        columns = {n: c for n, c in self._columns.items() if n in schema.names}
        return Table(schema, columns, n_rows=self.n_rows)

    def add_column(self, spec: ColumnSpec, values) -> "Table":
        """New table with an extra column appended."""
        if spec.name in self.schema:
            raise ValueError(f"column {spec.name!r} already exists")
        schema = Schema(
            columns=self.schema.columns + (spec,),
            label=self.schema.label,
            keys=self.schema.keys,
            hidden=self.schema.hidden,
        )
        columns = dict(self._columns)
        columns[spec.name] = Column(values, spec.ctype)
        return Table(schema, columns)

    # -- label access ------------------------------------------------------------

    @property
    def labels(self) -> np.ndarray:
        """Raw label column values (schema must define a label)."""
        if self.schema.label is None:
            raise ValueError("table has no label column")
        return self.column(self.schema.label).values

    def features_table(self) -> "Table":
        """The table without its label column."""
        if self.schema.label is None:
            return self
        return self.drop_columns([self.schema.label])

    def replace_labels(self, values) -> "Table":
        """New table with the label column replaced by ``values``."""
        if self.schema.label is None:
            raise ValueError("table has no label column")
        return self.with_values(self.schema.label, values)

    # -- missing values ------------------------------------------------------------

    def missing_mask(self) -> np.ndarray:
        """(n_rows, n_cols) boolean matrix of missing cells (schema order)."""
        masks = [self._columns[name].missing_mask() for name in self.schema.names]
        return np.column_stack(masks) if masks else np.zeros((0, 0), dtype=bool)

    def rows_with_missing(self) -> np.ndarray:
        """Indices of rows that contain at least one missing feature value."""
        feature_names = self.schema.feature_names
        if not feature_names:
            return np.array([], dtype=int)
        masks = [self._columns[name].missing_mask() for name in feature_names]
        any_missing = np.logical_or.reduce(masks)
        return np.nonzero(any_missing)[0]

    def n_missing_cells(self) -> int:
        return int(self.missing_mask().sum())
