"""Row-major CSV I/O — the spec of the column-major streaming reader/writer.

``read_csv``/``write_csv`` parse and format one column at a time in
row chunks.  These per-cell, fully resident versions are what they
replaced: the tests pin both production paths to them byte for byte.
"""

import csv
from pathlib import Path

import numpy as np

from repro.table import ColumnType, Table
from repro.table.io import _MISSING_TOKEN, _header_cells, _schema_from_header


def write_csv_reference(table: Table, path) -> None:
    """The pre-streaming per-cell writer."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_header_cells(table.schema))
        for i in range(table.n_rows):
            row = []
            for spec in table.schema.columns:
                value = table.column(spec.name).values[i]
                row.append(_format_cell(value))
            writer.writerow(row)


def read_csv_reference(path) -> Table:
    """The pre-streaming row-major reader: every row parsed, then typed."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path} is empty") from None
        raw_rows = list(reader)

    schema = _schema_from_header(header)
    specs = schema.columns
    data: dict[str, list] = {spec.name: [] for spec in specs}
    for raw in raw_rows:
        if len(raw) != len(specs):
            raise ValueError(
                f"row has {len(raw)} cells, expected {len(specs)}: {raw!r}"
            )
        for spec, cell in zip(specs, raw):
            data[spec.name].append(_parse_cell(cell, spec.ctype))
    return Table.from_dict(schema, data)


def _format_cell(value) -> str:
    if value is None:
        return _MISSING_TOKEN
    if isinstance(value, (float, np.floating)):
        if np.isnan(value):
            return _MISSING_TOKEN
        return repr(float(value))
    return str(value)


def _parse_cell(cell: str, ctype: ColumnType):
    if cell == _MISSING_TOKEN:
        return None
    if ctype is ColumnType.NUMERIC:
        return float(cell)
    return cell
