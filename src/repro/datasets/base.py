"""Dataset abstraction for the CleanML study.

The paper uses 14 real-world datasets with real errors (Table 3); the
sandbox has no network, so each dataset is emulated by a generator that
produces (1) a **clean** ground-truth table and (2) a **dirty** table
with realistic planted errors of exactly the error types the paper lists
for that dataset.  Both tables carry a hidden row-id column so oracle
(human) cleaning and error audits can align them after splits and
shuffles.

A :class:`Dataset` bundles the pair with its metadata: which error types
it carries, whether it is class-imbalanced (→ F1 instead of accuracy,
paper §IV-A step 4), and optional human cleaning rules (paper §VII-C).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..cleaning.base import ERROR_TYPES
from ..cleaning.human import ROW_ID
from ..table import ColumnSpec, ColumnType, Table


@dataclass(frozen=True)
class Dataset:
    """A dirty/clean table pair plus study metadata.

    Attributes
    ----------
    name:
        Registry name (e.g. ``"EEG"``); mislabel-injection variants get
        suffixed names (``"EEG_uniform"``).
    dirty:
        The table with planted errors — what the study actually cleans.
    clean:
        Ground truth aligned via the hidden row id.  Planted duplicate
        rows carry ids absent from ``clean``.
    error_types:
        Error types present in ``dirty`` (subset of
        :data:`~repro.cleaning.ERROR_TYPES`), matching paper Table 3.
    imbalanced:
        True → evaluate with F1 instead of accuracy.
    description:
        One-line summary of the emulated real-world dataset.
    rules:
        Optional human data-quality rules
        (``{column: {wrong: right}}``) for the §VII-C comparison.
    """

    name: str
    dirty: Table
    clean: Table
    error_types: tuple[str, ...]
    imbalanced: bool = False
    description: str = ""
    rules: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        for error_type in self.error_types:
            if error_type not in ERROR_TYPES:
                raise ValueError(f"unknown error type {error_type!r}")
        if ROW_ID not in self.dirty.schema:
            raise ValueError("dirty table must carry the hidden row id")
        if ROW_ID not in self.clean.schema:
            raise ValueError("clean table must carry the hidden row id")

    @property
    def metric(self) -> str:
        """The evaluation metric the paper's protocol assigns."""
        return "f1" if self.imbalanced else "accuracy"

    def has(self, error_type: str) -> bool:
        """True when the dataset carries the given error type."""
        return error_type in self.error_types

    def variant(self, name: str, dirty: Table) -> "Dataset":
        """Same dataset with a different dirty table (mislabel injection)."""
        return Dataset(
            name=name,
            dirty=dirty,
            clean=self.clean,
            error_types=self.error_types,
            imbalanced=self.imbalanced,
            description=self.description,
            rules=self.rules,
        )


def attach_row_ids(table: Table) -> Table:
    """Append the hidden row-id column (0..n-1) and mark it hidden."""
    extended = table.add_column(
        ColumnSpec(ROW_ID, ColumnType.NUMERIC), list(range(table.n_rows))
    )
    schema = extended.schema.with_hidden(extended.schema.hidden + (ROW_ID,))
    return Table(
        schema,
        {name: extended.column(name) for name in schema.names},
        n_rows=extended.n_rows,
    )


def fresh_row_ids(table: Table, start: int) -> list[int]:
    """Row ids for planted rows, guaranteed absent from the ground truth."""
    return list(range(start, start + table.n_rows))


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic squashing used by the label-generation processes."""
    return 1.0 / (1.0 + np.exp(-x))


def labels_from_score(
    score: np.ndarray,
    rng: np.random.Generator,
    positive: str = "yes",
    negative: str = "no",
    noise: float = 0.1,
) -> list[str]:
    """Binary labels from a latent score with Bernoulli label noise.

    The score is standardized, squashed through a sigmoid and thresholded
    at 0.5; ``noise`` of the labels flip so the task is learnable but not
    trivially saturated (mirroring real data where even the clean version
    is imperfect).
    """
    standardized = (score - score.mean()) / (score.std() + 1e-9)
    probability = sigmoid(2.0 * standardized)
    labels = np.where(probability > 0.5, positive, negative).astype(object)
    flip = rng.random(len(labels)) < noise
    flipped = np.where(labels == positive, negative, positive)
    labels[flip] = flipped[flip]
    return labels.tolist()
