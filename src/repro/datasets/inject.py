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
"""

from __future__ import annotations

import numpy as np

from ..cleaning.human import ROW_ID
from ..table import Column, Table
from ..table.ops import majority_class, minority_class
from .base import fresh_row_ids

MISLABEL_STRATEGIES = ("uniform", "major", "minor")


# -- missing values ---------------------------------------------------------------


def inject_missing(
    table: Table,
    columns: list[str],
    rate: float,
    rng: np.random.Generator,
    driver: str | None = None,
) -> Table:
    """Blank out ``rate`` of the cells in ``columns``.

    With ``driver`` given (a numeric column), missingness is MAR: cells
    whose row has an above-median driver value are three times more
    likely to go missing.  Without it, missingness is MCAR.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError("rate must be in [0, 1)")
    out = table
    if driver is not None:
        driver_values = table.column(driver).values
        median = np.nanmedian(driver_values)
        odds = np.where(driver_values > median, 3.0, 1.0)
        odds = np.nan_to_num(odds, nan=1.0)
        probability = rate * odds / odds.mean()
    else:
        probability = np.full(table.n_rows, rate)
    probability = np.clip(probability, 0.0, 0.95)
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


# -- outliers ---------------------------------------------------------------------


def inject_outliers(
    table: Table,
    columns: list[str],
    rate: float,
    rng: np.random.Generator,
    magnitude: float = 10.0,
) -> Table:
    """Corrupt ``rate`` of the cells in numeric ``columns`` with glitches.

    Each corrupted cell gets one of three realistic failure modes:
    multiplicative blow-up (stuck amplifier), sign flip with scale
    (wiring fault), or saturation at an extreme constant.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError("rate must be in [0, 1)")
    out = table
    for name in columns:
        column = out.column(name)
        if not column.is_numeric:
            raise ValueError(f"outlier injection needs numeric columns, got {name!r}")
        values = column.values.copy()
        present = ~np.isnan(values)
        candidates = np.nonzero(present)[0]
        n_corrupt = int(round(rate * len(candidates)))
        if n_corrupt == 0:
            continue
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
        out = out.with_column(name, Column(values, column.ctype))
    return out


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
) -> Table:
    """Append near-copies of ``rate`` of the rows under fresh row ids.

    ``exact_fraction`` of the copies are verbatim (detectable by key
    collision); the rest get typos in ``perturb_columns`` and small
    numeric jitter (the cases only similarity-based detection catches).
    The result is shuffled so duplicates are not trivially adjacent.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError("rate must be in [0, 1)")
    n_copies = int(round(rate * table.n_rows))
    if n_copies == 0:
        return table
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
    merged = table.concat(copies)
    return merged.take(rng.permutation(merged.n_rows))


# -- inconsistencies ----------------------------------------------------------------


def inject_inconsistencies(
    table: Table,
    variants: dict[str, dict[str, list[str]]],
    rate: float,
    rng: np.random.Generator,
) -> Table:
    """Replace ``rate`` of matching cells with alternate representations.

    ``variants`` maps column -> canonical value -> list of alternate
    spellings (e.g. ``{"state": {"CA": ["Calif.", "California"]}}``).
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError("rate must be in [0, 1)")
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
) -> Table:
    """Flip labels following the paper's three injection strategies.

    * ``uniform`` — flip ``rate`` of the labels *in each class*;
    * ``major``   — flip ``rate`` of the majority class only;
    * ``minor``   — flip ``rate`` of the minority class only.

    Binary tasks only (every paper dataset with injected mislabels is
    binary); flipping sends a label to the other class.
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
    for cls in targets:
        # sample from the original labels so a row never flips twice
        members = np.nonzero(original == cls)[0]
        n_flip = int(round(rate * len(members)))
        if n_flip == 0:
            continue
        flip_rows = rng.choice(members, size=n_flip, replace=False)
        for row in flip_rows:
            values[row] = other[original[row]]
    return table.replace_labels(values)
