"""Eager table core — the spec of zero-copy ``take`` and vectorized ``drop_rows``."""

import numpy as np

from repro.table import Column, Table


def take_reference(column: Column, indices) -> Column:
    """The pre-view eager take: the selected rows in a fresh array.

    The zero-copy view ``column.take(indices)`` must match it value for
    value.
    """
    return Column.from_buffer(column.values[np.asarray(indices)], column.ctype)


def table_take_reference(table: Table, indices) -> Table:
    """``Table.take`` on the eager core: every column copied."""
    indices = np.asarray(indices, dtype=int)
    return Table(
        table.schema,
        {
            name: take_reference(table.column(name), indices)
            for name in table.schema.names
        },
        n_rows=len(indices),
    )


def drop_rows_reference(table: Table, indices) -> Table:
    """Set-membership ``drop_rows``: out-of-range indices are ignored."""
    drop = set(int(i) for i in indices)
    keep = np.array([i not in drop for i in range(table.n_rows)], dtype=bool)
    return table.mask(keep)
