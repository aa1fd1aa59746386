"""Column storage for the tabular substrate.

A :class:`Column` wraps a numpy array plus its :class:`ColumnType` and
provides missing-aware statistics (mean / median / mode / std / quantiles)
that the cleaning algorithms rely on.  All statistics ignore missing
entries, matching how CleanML computes repair statistics on dirty data.

Columnar buffer/view memory model (ISSUE 6)
-------------------------------------------
Storage is a contiguous **buffer** (``float64`` for NUMERIC, object-of-str
for CATEGORICAL) that is *immutable once shared*: the first view taken
over a buffer locks it read-only, so every consumer that wants to mutate
must copy first — which is the discipline the cleaning layer already
follows (``column.values.copy()``).

:meth:`Column.take` returns a **zero-copy view**: a column that shares
the parent's buffer and carries only an integer row-index array.  Views
compose — ``take(take(...))`` folds the two index arrays with integer
arithmetic and never touches the value buffer — and **materialize
lazily**: the first access to :attr:`values` gathers ``buffer[indices]``
once and caches the result, after which the column behaves exactly like
an eagerly-copied one.  Consumers that need a private mutable array use
:meth:`gather`, which never caches (and never aliases the shared
buffer), so hot paths like the feature encoder can slice straight from
the buffer without ever materializing the view.

The pre-view, copy-on-``take`` implementation lives on as a test
oracle (``tests/oracles/table.py``), pinned value-for-value against the
view path by the table-view tests.

Pickling ships ``(ctype, indices, buffer)``, so views of one buffer
pickled in one payload (a pool broadcast, say) share a single copy of
that buffer on the receiving side.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from .schema import ColumnType


class Column:
    """A single typed column with missing-value support.

    NUMERIC data is a ``float64`` array (``NaN`` = missing); CATEGORICAL
    data is an object array of ``str`` (``None`` = missing).  Construction
    normalizes arbitrary python sequences into that representation.

    Internally a column is a ``(buffer, indices)`` pair: ``indices is
    None`` for a base column that owns its buffer outright, an integer
    array for a zero-copy view produced by :meth:`take`.  :attr:`values`
    always returns the materialized row-ordered array, gathering (and
    caching) lazily for views.
    """

    def __init__(self, values, ctype: ColumnType) -> None:
        self.ctype = ctype
        if ctype is ColumnType.NUMERIC:
            self._buffer = _as_numeric(values)
        else:
            self._buffer = _as_categorical(values)
        self._indices: np.ndarray | None = None

    @classmethod
    def from_buffer(cls, buffer: np.ndarray, ctype: ColumnType) -> "Column":
        """Wrap an already-normalized buffer without copying or converting.

        The caller vouches that ``buffer`` matches the columnar
        representation contract (float64 / object-of-str).
        """
        column = cls.__new__(cls)
        column.ctype = ctype
        column._buffer = buffer
        column._indices = None
        return column

    # -- basic protocol ----------------------------------------------------

    @property
    def values(self) -> np.ndarray:
        """The column's materialized values (lazy for views, then cached)."""
        if self._indices is not None:
            self._buffer = self._buffer[self._indices]
            self._indices = None
        return self._buffer

    @property
    def is_view(self) -> bool:
        """True while this column is an unmaterialized zero-copy view."""
        return self._indices is not None

    @property
    def base_buffer(self) -> np.ndarray:
        """The underlying shared buffer, without materializing a view.

        For a base column this is simply its storage; for a view it is
        the parent's buffer — which is what the no-copy identity checks
        in the table-core benchmark assert on.
        """
        return self._buffer

    @property
    def view_indices(self) -> np.ndarray | None:
        """The view's row-index array (``None`` once materialized)."""
        return self._indices

    def __len__(self) -> int:
        if self._indices is not None:
            return len(self._indices)
        return len(self._buffer)

    def __getitem__(self, index):
        return self.values[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Column):
            return NotImplemented
        if self.ctype is not other.ctype or len(self) != len(other):
            return False
        mine, theirs = self.missing_mask(), other.missing_mask()
        if not np.array_equal(mine, theirs):
            return False
        present = ~mine
        return bool(np.array_equal(self.values[present], other.values[present]))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "view" if self.is_view else "base"
        return f"Column({self.ctype.value}, n={len(self)}, {state})"

    @property
    def is_numeric(self) -> bool:
        return self.ctype is ColumnType.NUMERIC

    def copy(self) -> "Column":
        clone = Column.__new__(Column)
        clone.ctype = self.ctype
        clone._buffer = self.gather()
        clone._indices = None
        return clone

    def gather(self) -> np.ndarray:
        """A fresh, writable, materialized array — never cached.

        For a view this is one ``buffer[indices]`` gather (the same
        bits :attr:`values` would cache); for a base column, a plain
        copy.  The result never aliases the shared buffer, so callers
        may mutate it freely — this is the encoder's fast path.
        """
        if self._indices is not None:
            return self._buffer[self._indices]
        return np.array(self._buffer)

    def take(self, indices) -> "Column":
        """New column containing the rows at ``indices`` (in order).

        This is zero-copy: the result shares this column's buffer and only carries the (composed) index array.
        The buffer is locked read-only the moment it becomes shared, so
        an accidental in-place write through one alias cannot corrupt
        the others.
        """
        indices = np.asarray(indices)
        if indices.dtype == bool:
            indices = np.nonzero(indices)[0]
        else:
            indices = indices.astype(np.intp, copy=False)
        if self._indices is not None:
            # view-of-view: fold to a single indirection over the base
            # buffer with index arithmetic — no value gather
            indices = self._indices[indices]
        self._buffer.setflags(write=False)
        view = Column.__new__(Column)
        view.ctype = self.ctype
        view._buffer = self._buffer
        view._indices = indices
        return view

    def aliases(self, other: "Column") -> bool:
        """True when the two columns *provably* hold identical values.

        Conservative identity check — same object, or same buffer with
        the same view state — that never compares elements.  Lets
        consumers (e.g. the default ``affected_rows``) skip O(n)
        comparisons for columns a transform passed through untouched.
        """
        if self is other:
            return True
        if self.ctype is not other.ctype or self._buffer is not other._buffer:
            return False
        if self._indices is None and other._indices is None:
            return True
        return self._indices is other._indices

    # -- pickling ----------------------------------------------------------

    def __getstate__(self):
        # views ship their indices and the base buffer, so views of one
        # buffer pickled together share a single copy of it
        return (self.ctype.value, self._indices, self._buffer)

    def __setstate__(self, state) -> None:
        ctype, self._indices, self._buffer = state
        self.ctype = ColumnType(ctype)

    # -- missing values ----------------------------------------------------

    def missing_mask(self) -> np.ndarray:
        """Boolean array, True where the entry is missing."""
        if self.is_numeric:
            return np.isnan(self.values)
        return np.array([v is None for v in self.values], dtype=bool)

    def n_missing(self) -> int:
        return int(self.missing_mask().sum())

    def present_values(self) -> np.ndarray:
        """Values with missing entries removed."""
        return self.values[~self.missing_mask()]

    # -- statistics (all missing-aware) -------------------------------------

    def mean(self) -> float:
        self._require_numeric("mean")
        present = self.present_values()
        return float(np.mean(present)) if len(present) else float("nan")

    def median(self) -> float:
        self._require_numeric("median")
        present = self.present_values()
        return float(np.median(present)) if len(present) else float("nan")

    def std(self) -> float:
        self._require_numeric("std")
        present = self.present_values()
        return float(np.std(present)) if len(present) else float("nan")

    def quantile(self, q: float) -> float:
        self._require_numeric("quantile")
        present = self.present_values()
        return float(np.quantile(present, q)) if len(present) else float("nan")

    def mode(self):
        """Most frequent present value (ties broken by first occurrence).

        Works for both numeric and categorical columns; returns ``None``
        (categorical) or ``NaN`` (numeric) when every entry is missing.
        """
        present = self.present_values()
        if len(present) == 0:
            return float("nan") if self.is_numeric else None
        counts = Counter(present.tolist())
        best_count = max(counts.values())
        for value in present.tolist():
            if counts[value] == best_count:
                return value
        raise AssertionError("unreachable")  # pragma: no cover

    def value_counts(self) -> dict:
        """Mapping of present value -> count, most frequent first."""
        counts = Counter(self.present_values().tolist())
        return dict(sorted(counts.items(), key=lambda kv: (-kv[1], str(kv[0]))))

    def unique(self) -> list:
        """Distinct present values in first-occurrence order."""
        seen: dict = {}
        for value in self.present_values().tolist():
            seen.setdefault(value, None)
        return list(seen)

    def _require_numeric(self, op: str) -> None:
        if not self.is_numeric:
            raise TypeError(f"{op}() requires a numeric column")


def _as_numeric(values) -> np.ndarray:
    if isinstance(values, np.ndarray) and values.dtype == np.float64:
        return values.astype(np.float64, copy=True)
    out = np.empty(len(values), dtype=np.float64)
    for i, value in enumerate(values):
        if value is None or (isinstance(value, str) and value.strip() == ""):
            out[i] = np.nan
        else:
            out[i] = float(value)
    return out


def _as_categorical(values) -> np.ndarray:
    out = np.empty(len(values), dtype=object)
    for i, value in enumerate(values):
        if value is None:
            out[i] = None
        elif isinstance(value, float) and np.isnan(value):
            out[i] = None
        elif isinstance(value, str) and value == "":
            out[i] = None
        else:
            out[i] = str(value)
    return out
