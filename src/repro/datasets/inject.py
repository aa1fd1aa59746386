"""Realistic error-injection utilities.

Each injector takes a clean table (carrying the hidden row id) and
returns a dirtier one.  The processes mimic how the corresponding errors
arise in the wild:

* **missing values** — MCAR (uniform) or MAR, where the missingness
  probability of a cell depends on another column's value (e.g. high
  earners skip the income question);
* **outliers** — sensor-style glitches: scale blow-ups, sign flips and
  saturated constants on numeric columns;
* **duplicates** — re-entered records: near-copies with typos,
  abbreviations and small numeric jitter, appended under fresh row ids;
* **inconsistencies** — alternate representations of the same entity
  ("CA" vs "California"), sampled per-cell;
* **mislabels** — class-targeted label flips at 5% following the paper's
  three strategies (uniform / majority / minority, §III-B-5).

Spill-aware streaming
---------------------
Every injector accepts ``spill=`` (a columnar-store directory) and
``chunk_rows=``.  With a spill target the injector writes its output
chunk-by-chunk through :class:`~repro.table.store.ColumnarWriter` and
hands back the memory-mapped table, so injection never holds a second
resident copy of the data.  ``inject_missing`` and ``inject_outliers``
stream the table through ``Table.iter_chunks``; the other three compute
their (global-shuffle or row-serial, draw-order-sensitive) result
eagerly and spill it afterwards.  Random draws are consumed in exactly the
eager order, so spilled and resident outputs are value-identical —
pinned by ``tests/test_out_of_core.py``.  Without ``spill`` every
injector returns a resident table.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..cleaning.human import ROW_ID
from ..table import Column, Table
from ..table.ops import majority_class, minority_class
from ..table.store import (
    ColumnarWriter,
    DEFAULT_CHUNK_ROWS,
    load_columnar,
    spill_table,
)
from .base import fresh_row_ids

MISLABEL_STRATEGIES = ("uniform", "major", "minor")


def _maybe_spill(
    table: Table, spill: str | Path | None, chunk_rows: int | None
) -> Table:
    """Spill an eagerly-built result to a store when requested."""
    if spill is None:
        return table
    return spill_table(table, spill, chunk_rows)


def _stream_with_patches(
    table: Table,
    patches: list[tuple[str, np.ndarray, np.ndarray]],
    spill: str | Path,
    chunk_rows: int | None,
) -> Table:
    """Stream ``table`` to a store with sparse cell overwrites applied.

    ``patches`` entries are ``(column name, row indices, new values)``.
    Peak residency is one chunk plus the patches themselves — the shape
    every draw-order-sensitive injector reduces to: run its (serial)
    corruption loop over one column at a time, record what changed,
    then stream the table once.
    """
    with ColumnarWriter(spill, table.schema) as writer:
        start = 0
        for chunk in table.iter_chunks(chunk_rows or DEFAULT_CHUNK_ROWS):
            stop = start + chunk.n_rows
            arrays = {
                spec.name: chunk.column(spec.name).gather()
                for spec in table.schema.columns
            }
            for name, rows, new_values in patches:
                inside = (rows >= start) & (rows < stop)
                if inside.any():
                    arrays[name][rows[inside] - start] = new_values[inside]
            writer.append_arrays(arrays, n_rows=chunk.n_rows)
            start = stop
        writer.finalize(n_rows=table.n_rows)
    return load_columnar(spill)


# -- missing values ---------------------------------------------------------------


def inject_missing(
    table: Table,
    columns: list[str],
    rate: float,
    rng: np.random.Generator,
    driver: str | None = None,
    *,
    spill: str | Path | None = None,
    chunk_rows: int | None = None,
) -> Table:
    """Blank out ``rate`` of the cells in ``columns``.

    With ``driver`` given (a numeric column), missingness is MAR: cells
    whose row has an above-median driver value are three times more
    likely to go missing.  Without it, missingness is MCAR.

    With ``spill=`` the injected table streams into a columnar store
    chunk-by-chunk and comes back memory-mapped, value-identical to the
    resident path.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError("rate must be in [0, 1)")
    if driver is not None:
        driver_values = table.column(driver).values
        median = np.nanmedian(driver_values)
        odds = np.where(driver_values > median, 3.0, 1.0)
        odds = np.nan_to_num(odds, nan=1.0)
        probability = rate * odds / odds.mean()
    else:
        probability = np.full(table.n_rows, rate)
    probability = np.clip(probability, 0.0, 0.95)
    if spill is not None:
        return _inject_missing_spill(
            table, columns, probability, rng, spill, chunk_rows
        )
    out = table
    for name in columns:
        mask = rng.random(table.n_rows) < probability
        column = out.column(name)
        values = column.values.copy()
        if column.is_numeric:
            values[mask] = np.nan
        else:
            for i in np.nonzero(mask)[0]:
                values[i] = None
        out = out.with_column(name, Column(values, column.ctype))
    return out


def _inject_missing_spill(
    table: Table,
    columns: list[str],
    probability: np.ndarray,
    rng: np.random.Generator,
    spill: str | Path,
    chunk_rows: int | None,
) -> Table:
    # Draw every column's full mask up front, in eager column order, so
    # the generator consumes bits exactly as the resident path does.
    masks = [(name, rng.random(table.n_rows) < probability) for name in columns]
    types = {spec.name: spec for spec in table.schema.columns}
    with ColumnarWriter(spill, table.schema) as writer:
        start = 0
        for chunk in table.iter_chunks(chunk_rows or DEFAULT_CHUNK_ROWS):
            stop = start + chunk.n_rows
            arrays = {
                spec.name: chunk.column(spec.name).gather()
                for spec in table.schema.columns
            }
            for name, mask in masks:
                missing = np.nan if types[name].is_numeric else None
                arrays[name][mask[start:stop]] = missing
            writer.append_arrays(arrays, n_rows=chunk.n_rows)
            start = stop
        writer.finalize(n_rows=table.n_rows)
    return load_columnar(spill)


# -- outliers ---------------------------------------------------------------------


def _corrupt_column(
    values: np.ndarray,
    rate: float,
    rng: np.random.Generator,
    magnitude: float,
) -> np.ndarray | None:
    """Run the outlier glitch loop in place; the corrupted row indices.

    Shared by the resident and spill paths so the (data-dependent)
    draw sequence — ``choice``, per-row mode, and the mode-2 running
    ``nanmax`` over already-corrupted cells — is identical in both.
    Returns ``None`` when no cell qualifies (and nothing was drawn).
    """
    present = ~np.isnan(values)
    candidates = np.nonzero(present)[0]
    n_corrupt = int(round(rate * len(candidates)))
    if n_corrupt == 0:
        return None
    rows = rng.choice(candidates, size=n_corrupt, replace=False)
    spread = np.nanstd(values)
    spread = spread if spread > 0 else 1.0
    for row in rows:
        mode = rng.integers(0, 3)
        if mode == 0:
            values[row] = values[row] * magnitude * rng.uniform(1.0, 3.0)
        elif mode == 1:
            values[row] = -values[row] * magnitude
        else:
            sign = 1.0 if rng.random() < 0.5 else -1.0
            values[row] = sign * (np.nanmax(np.abs(values)) + magnitude * spread)
    return rows


def inject_outliers(
    table: Table,
    columns: list[str],
    rate: float,
    rng: np.random.Generator,
    magnitude: float = 10.0,
    *,
    spill: str | Path | None = None,
    chunk_rows: int | None = None,
) -> Table:
    """Corrupt ``rate`` of the cells in numeric ``columns`` with glitches.

    Each corrupted cell gets one of three realistic failure modes:
    multiplicative blow-up (stuck amplifier), sign flip with scale
    (wiring fault), or saturation at an extreme constant.

    With ``spill=`` the corruption is computed one column at a time
    (the mode-2 saturation level depends on cells corrupted earlier in
    the same column, so the per-column loop cannot be chunked), sparse
    patches are recorded, and the table streams through the columnar
    writer with the patches applied — peak residency is one column
    plus one chunk.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError("rate must be in [0, 1)")
    if spill is not None:
        return _inject_outliers_spill(
            table, columns, rate, rng, magnitude, spill, chunk_rows
        )
    out = table
    for name in columns:
        column = out.column(name)
        if not column.is_numeric:
            raise ValueError(f"outlier injection needs numeric columns, got {name!r}")
        values = column.values.copy()
        rows = _corrupt_column(values, rate, rng, magnitude)
        if rows is None:
            continue
        out = out.with_column(name, Column(values, column.ctype))
    return out


def _inject_outliers_spill(
    table: Table,
    columns: list[str],
    rate: float,
    rng: np.random.Generator,
    magnitude: float,
    spill: str | Path,
    chunk_rows: int | None,
) -> Table:
    patches: list[tuple[str, np.ndarray, np.ndarray]] = []
    for name in columns:
        column = table.column(name)
        if not column.is_numeric:
            raise ValueError(f"outlier injection needs numeric columns, got {name!r}")
        values = column.gather()
        # a column listed twice sees its earlier corruption, exactly as
        # the resident path's successive with_column chain would
        for prior_name, prior_rows, prior_values in patches:
            if prior_name == name:
                values[prior_rows] = prior_values
        rows = _corrupt_column(values, rate, rng, magnitude)
        if rows is None:
            continue
        rows = rows.astype(np.intp)
        patches.append((name, rows, values[rows].copy()))
        del values
    return _stream_with_patches(table, patches, spill, chunk_rows)


# -- duplicates --------------------------------------------------------------------


def perturb_string(value: str, rng: np.random.Generator) -> str:
    """One realistic re-entry typo: delete / double / swap / case-mangle."""
    if len(value) < 2:
        return value + "x"
    mode = rng.integers(0, 4)
    position = int(rng.integers(0, len(value) - 1))
    if mode == 0:  # drop a character
        return value[:position] + value[position + 1 :]
    if mode == 1:  # double a character
        return value[:position] + value[position] + value[position:]
    if mode == 2:  # swap adjacent characters
        chars = list(value)
        chars[position], chars[position + 1] = chars[position + 1], chars[position]
        return "".join(chars)
    return value.lower() if value != value.lower() else value.upper()


def inject_duplicates(
    table: Table,
    rate: float,
    rng: np.random.Generator,
    perturb_columns: list[str] | None = None,
    exact_fraction: float = 0.3,
    *,
    spill: str | Path | None = None,
    chunk_rows: int | None = None,
) -> Table:
    """Append near-copies of ``rate`` of the rows under fresh row ids.

    ``exact_fraction`` of the copies are verbatim (detectable by key
    collision); the rest get typos in ``perturb_columns`` and small
    numeric jitter (the cases only similarity-based detection catches).
    The result is shuffled so duplicates are not trivially adjacent.

    The copies (a ``rate`` fraction of the rows) are built eagerly —
    the per-row draw sequence is serial — but the final global shuffle
    is a zero-copy view, so with ``spill=`` the shuffled result streams
    to the store without ever materializing a resident full copy.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError("rate must be in [0, 1)")
    n_copies = int(round(rate * table.n_rows))
    if n_copies == 0:
        return _maybe_spill(table, spill, chunk_rows)
    source_rows = rng.choice(table.n_rows, size=n_copies, replace=False)
    copies = table.take(source_rows)
    if perturb_columns is None:
        perturb_columns = copies.schema.categorical_features
    next_id = int(np.nanmax(table.column(ROW_ID).values)) + 1
    copies = copies.with_values(ROW_ID, fresh_row_ids(copies, next_id))
    # One mutable copy per column, made on first touch and edited in
    # place across the row loop.  The loop body only ever reads and
    # writes its own row, so this is value-identical to the historical
    # copy-per-(row, column) rebuild — and, because materializing a copy
    # draws nothing from ``rng``, the random sequence (the exactness
    # draw, the 0.7 perturb draw, perturb_string's draws, the numeric
    # jitter) is consumed in exactly the historical order.
    mutable: dict[str, np.ndarray] = {}
    ctypes: dict[str, "ColumnType"] = {}

    def values_for(name: str) -> np.ndarray:
        values = mutable.get(name)
        if values is None:
            column = copies.column(name)
            mutable[name] = values = column.values.copy()
            ctypes[name] = column.ctype
        return values

    for position in range(copies.n_rows):
        if rng.random() < exact_fraction:
            continue
        for name in perturb_columns:
            values = values_for(name)
            if values[position] is None:
                continue
            if rng.random() < 0.7:
                values[position] = perturb_string(str(values[position]), rng)
        for name in copies.schema.numeric_features:
            values = values_for(name)
            if not np.isnan(values[position]):
                values[position] = values[position] * (1.0 + rng.normal(0.0, 0.01))
    for name, values in mutable.items():
        copies = copies.with_column(name, Column(values, ctypes[name]))
    permutation = rng.permutation(table.n_rows + copies.n_rows)
    if spill is not None:
        return _spill_shuffled_concat(table, copies, permutation, spill, chunk_rows)
    merged = table.concat(copies)
    return merged.take(permutation)


def _spill_shuffled_concat(
    table: Table,
    copies: Table,
    permutation: np.ndarray,
    spill: str | Path,
    chunk_rows: int | None,
) -> Table:
    """Stream ``concat(table, copies).take(permutation)`` to a store.

    Each output chunk interleaves rows gathered from the original table
    (possibly memory-mapped) and from the resident copies block, so the
    merged table is never materialized — peak residency is the copies
    block (a ``rate`` fraction of the rows) plus one chunk.
    """
    n = table.n_rows
    chunk_rows = chunk_rows or DEFAULT_CHUNK_ROWS
    with ColumnarWriter(spill, table.schema) as writer:
        for start in range(0, len(permutation), chunk_rows):
            indices = permutation[start : start + chunk_rows]
            original = indices < n
            planted = ~original
            arrays = {}
            for spec in table.schema.columns:
                dtype = np.float64 if spec.is_numeric else object
                out = np.empty(len(indices), dtype=dtype)
                if original.any():
                    out[original] = (
                        table.column(spec.name).take(indices[original]).gather()
                    )
                if planted.any():
                    out[planted] = (
                        copies.column(spec.name).take(indices[planted] - n).gather()
                    )
                arrays[spec.name] = out
            writer.append_arrays(arrays, n_rows=len(indices))
        writer.finalize(n_rows=len(permutation))
    return load_columnar(spill)


# -- inconsistencies ----------------------------------------------------------------


def inject_inconsistencies(
    table: Table,
    variants: dict[str, dict[str, list[str]]],
    rate: float,
    rng: np.random.Generator,
    *,
    spill: str | Path | None = None,
    chunk_rows: int | None = None,
) -> Table:
    """Replace ``rate`` of matching cells with alternate representations.

    ``variants`` maps column -> canonical value -> list of alternate
    spellings (e.g. ``{"state": {"CA": ["Calif.", "California"]}}``).

    The per-cell draw sequence is serial and data-dependent, so with
    ``spill=`` each affected column is scanned resident one at a time,
    the replacements are recorded as sparse patches, and the table
    streams to the store once.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError("rate must be in [0, 1)")
    if spill is not None:
        patches = []
        for name, mapping in variants.items():
            values = table.column(name).gather()
            rows: list[int] = []
            replacements: list[str] = []
            for i, value in enumerate(values):
                if value in mapping and rng.random() < rate:
                    alternates = mapping[value]
                    rows.append(i)
                    replacements.append(
                        alternates[int(rng.integers(0, len(alternates)))]
                    )
            if rows:
                patches.append(
                    (
                        name,
                        np.array(rows, dtype=np.intp),
                        np.array(replacements, dtype=object),
                    )
                )
            del values
        return _stream_with_patches(table, patches, spill, chunk_rows)
    out = table
    for name, mapping in variants.items():
        column = out.column(name)
        values = column.values.copy()
        for i, value in enumerate(values):
            if value in mapping and rng.random() < rate:
                alternates = mapping[value]
                values[i] = alternates[int(rng.integers(0, len(alternates)))]
        out = out.with_column(name, Column(values, column.ctype))
    return out


def inconsistency_rules(variants: dict[str, dict[str, list[str]]]) -> dict:
    """Human cleaning rules (wrong -> right) implied by a variants map."""
    rules: dict[str, dict[str, str]] = {}
    for name, mapping in variants.items():
        rules[name] = {
            alternate: canonical
            for canonical, alternates in mapping.items()
            for alternate in alternates
        }
    return rules


# -- mislabels ----------------------------------------------------------------------


def inject_mislabels(
    table: Table,
    rng: np.random.Generator,
    strategy: str = "uniform",
    rate: float = 0.05,
    *,
    spill: str | Path | None = None,
    chunk_rows: int | None = None,
) -> Table:
    """Flip labels following the paper's three injection strategies.

    * ``uniform`` — flip ``rate`` of the labels *in each class*;
    * ``major``   — flip ``rate`` of the majority class only;
    * ``minor``   — flip ``rate`` of the minority class only.

    Binary tasks only (every paper dataset with injected mislabels is
    binary); flipping sends a label to the other class.

    Only the label column is touched, so with ``spill=`` the flips are
    recorded as sparse patches over one resident label array and the
    table streams to the store once.
    """
    if strategy not in MISLABEL_STRATEGIES:
        raise ValueError(f"strategy must be one of {MISLABEL_STRATEGIES}")
    label_column = table.column(table.schema.label)
    classes = label_column.unique()
    if len(classes) != 2:
        raise ValueError("mislabel injection requires a binary task")
    other = {classes[0]: classes[1], classes[1]: classes[0]}

    if strategy == "uniform":
        targets = classes
    elif strategy == "major":
        targets = [majority_class(table)]
    else:
        targets = [minority_class(table)]

    original = label_column.values
    values = original.copy()
    flipped: list[np.ndarray] = []
    for cls in targets:
        # sample from the original labels so a row never flips twice
        members = np.nonzero(original == cls)[0]
        n_flip = int(round(rate * len(members)))
        if n_flip == 0:
            continue
        flip_rows = rng.choice(members, size=n_flip, replace=False)
        for row in flip_rows:
            values[row] = other[original[row]]
        flipped.append(flip_rows)
    if spill is not None:
        rows = (
            np.sort(np.concatenate(flipped)).astype(np.intp)
            if flipped
            else np.array([], dtype=np.intp)
        )
        patches = [(table.schema.label, rows, values[rows])]
        return _stream_with_patches(table, patches, spill, chunk_rows)
    return table.replace_labels(values)
