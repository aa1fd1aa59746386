"""Feature and label encoding with strict fit-on-train semantics.

The paper is explicit that "all statistics necessary for data cleaning,
such as mean, are computed only on the training set" (§IV-A step 2).  The
same discipline applies to feature encoding: the :class:`FeatureEncoder`
learns standardization statistics and category vocabularies from the
training table only, and then transforms both splits.

Transforms are vectorized — one-hot blocks are filled by integer fancy
indexing over category codes instead of a per-row Python loop.  The
original per-row implementation lives on as a test oracle
(``tests/oracles/encode.py``), the executable spec the vectorized path
must match bit-for-bit (``tests/test_split_kernel.py`` asserts the
equality across every registry dataset).

The encoder is also view-aware: numeric blocks slice straight out of the
column's shared buffer with one :meth:`~repro.table.column.Column.gather`
(never materializing the view's cache), and categorical codes are
computed once per *base buffer* and re-sliced per view — so encoding k
fold-views of one table pays the Python-level value→code map exactly
once instead of k times.
"""

from __future__ import annotations

from itertools import repeat

import numpy as np

from .schema import ColumnType
from .table import Table

#: metrics hook, push-installed by :func:`repro.core.observability.install`
_metrics = None


class LabelEncoder:
    """Maps raw label values to contiguous integer class ids."""

    def __init__(self) -> None:
        self.classes_: list = []
        self._index: dict = {}

    def fit(self, labels) -> "LabelEncoder":
        self.classes_ = []
        self._index = {}
        for value in _to_list(labels):
            if value not in self._index:
                self._index[value] = len(self.classes_)
                self.classes_.append(value)
        if not self.classes_:
            raise ValueError("cannot fit a label encoder on no labels")
        return self

    @property
    def n_classes(self) -> int:
        return len(self.classes_)

    def transform(self, labels) -> np.ndarray:
        values = _to_list(labels)
        try:
            # C-level map over the fitted index — no per-value Python frame
            return np.fromiter(
                map(self._index.__getitem__, values),
                dtype=np.int64,
                count=len(values),
            )
        except KeyError as exc:
            raise ValueError(f"unseen label {exc.args[0]!r}") from None

    def fit_transform(self, labels) -> np.ndarray:
        return self.fit(labels).transform(labels)

    def inverse_transform(self, ids: np.ndarray) -> list:
        """Raw label values for integer class ids."""
        return [self.classes_[int(i)] for i in ids]


class FeatureEncoder:
    """Turns a mixed-type :class:`Table` into a dense ``float64`` matrix.

    Numeric features are standardized to zero mean / unit variance using
    training statistics; categorical features are one-hot encoded with the
    training vocabulary (unseen categories become all-zero blocks, which is
    the conventional safe treatment).

    Residual missing values — possible because CleanML deliberately trains
    on *dirty* data for error types other than missing values — are imputed
    at encode time: numeric missing becomes the train mean (0 after
    standardization) and categorical missing becomes an all-zero block.
    This is an encoding necessity, not a cleaning step: it applies equally
    to dirty and clean variants so the measured effect is the cleaning
    itself.
    """

    def __init__(self, numeric_missing: str = "mean") -> None:
        if numeric_missing not in ("mean", "nan"):
            raise ValueError("numeric_missing must be 'mean' or 'nan'")
        #: "mean" imputes numeric holes with the train mean at encode
        #: time; "nan" passes NaN through for models that reason about
        #: missingness themselves (NaCL)
        self.numeric_missing = numeric_missing
        self._numeric: list[str] = []
        self._categorical: list[str] = []
        self._means: dict[str, float] = {}
        self._stds: dict[str, float] = {}
        self._vocab: dict[str, list[str]] = {}
        self._index: dict[str, dict[str, int]] = {}
        self.feature_names_: list[str] = []
        self._fitted = False
        # (name, id(base buffer)) -> (buffer, codes); the buffer reference
        # keeps the id stable for as long as the entry lives
        self._code_cache: dict[tuple[str, int], tuple[np.ndarray, np.ndarray]] = {}

    def fit(self, table: Table) -> "FeatureEncoder":
        schema = table.schema
        self._numeric = schema.numeric_features
        self._categorical = schema.categorical_features
        self._means, self._stds = {}, {}
        self._vocab, self._index = {}, {}
        self._code_cache = {}  # codes depend on the fitted vocabulary
        for name in self._numeric:
            column = table.column(name)
            mean, std = column.mean(), column.std()
            self._means[name] = 0.0 if np.isnan(mean) else mean
            self._stds[name] = 1.0 if (np.isnan(std) or std == 0.0) else std
        for name in self._categorical:
            column = table.column(name)
            vocab = [str(v) for v in column.unique()]
            self._vocab[name] = vocab
            # the value -> position index is part of the fitted state, so
            # transform never rebuilds it per call
            index = {v: j for j, v in enumerate(vocab)}
            self._index[name] = index
            if index:
                # seed the per-buffer code cache while fit already has
                # the column in hand: every zero-copy view of this
                # table (train/test splits, folds, chunks) then encodes
                # with one integer gather instead of re-running the
                # Python-level value→code map per slice
                buffer = column.base_buffer
                codes = np.fromiter(
                    map(index.get, buffer, repeat(-1)),
                    dtype=np.int64,
                    count=len(buffer),
                )
                self._code_cache[(name, id(buffer))] = (buffer, codes)
        self.feature_names_ = list(self._numeric)
        for name in self._categorical:
            self.feature_names_ += [f"{name}={v}" for v in self._vocab[name]]
        self._fitted = True
        return self

    @property
    def n_features(self) -> int:
        self._require_fitted()
        return len(self.feature_names_)

    def transform(self, table: Table) -> np.ndarray:
        """Encode ``table`` into a dense ``(n_rows, n_features)`` matrix.

        Blocks are written straight into one preallocated output — no
        intermediate per-column blocks, no ``hstack`` reassembly pass —
        which matters at scale: the old shape copied the whole matrix
        twice.  Values, dtype and layout are exactly what hstack-ing
        per-column blocks produces (the per-row reference oracle still
        does precisely that).
        """
        self._require_fitted()
        n = table.n_rows
        if _metrics is not None:
            _metrics.count("encode.matrix_fills")
            _metrics.count("encode.matrix_cells", n * len(self.feature_names_))
        out = np.zeros((n, len(self.feature_names_)), dtype=np.float64)
        offset = 0
        for name in self._numeric:
            values = table.column(name).gather()
            mean, std = self._means[name], self._stds[name]
            if self.numeric_missing == "mean":
                values[np.isnan(values)] = mean
            out[:, offset] = (values - mean) / std
            offset += 1
        for name in self._categorical:
            width = len(self._vocab[name])
            if width:
                codes = self._category_codes(table.column(name), name, n)
                hits = codes >= 0
                out[np.nonzero(hits)[0], offset + codes[hits]] = 1.0
            offset += width
        return out

    def _category_codes(self, column, name: str, n: int) -> np.ndarray:
        """Vocabulary codes for a categorical column, view-aware.

        For a base column this is the direct value→code map.  For a
        zero-copy view the codes are computed once over the shared
        *base* buffer, cached per ``(name, buffer)``, and re-sliced with
        the view's index array — ``codes_base[view_indices]`` is
        value-for-value what mapping the materialized view would give,
        at integer-gather cost.
        """
        index = self._index[name]
        if not column.is_view:
            return np.fromiter(
                map(index.get, column.values, repeat(-1)), dtype=np.int64, count=n
            )
        base = column.base_buffer
        key = (name, id(base))
        cached = self._code_cache.get(key)
        if cached is None:
            if _metrics is not None:
                _metrics.count("encode.code_cache.misses")
            codes = np.fromiter(
                map(index.get, base, repeat(-1)), dtype=np.int64, count=len(base)
            )
            cached = (base, codes)
            self._code_cache[key] = cached
        elif _metrics is not None:
            _metrics.count("encode.code_cache.hits")
        return cached[1][column.view_indices]

    def fit_transform(self, table: Table) -> np.ndarray:
        return self.fit(table).transform(table)

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise RuntimeError("encoder is not fitted; call fit() first")


def encode_pair(
    train: Table, test: Table
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, LabelEncoder]:
    """Encode a (train, test) pair leakage-free.

    Returns ``(X_train, y_train, X_test, y_test, label_encoder)``.  The
    label encoder is fitted on the union of both label columns so that a
    class present only in the test split still gets an id (the model will
    simply never predict it).
    """
    encoder = FeatureEncoder().fit(train.features_table())
    x_train = encoder.transform(train.features_table())
    x_test = encoder.transform(test.features_table())
    labeler = LabelEncoder().fit(
        list(train.labels.tolist()) + list(test.labels.tolist())
    )
    y_train = labeler.transform(train.labels)
    y_test = labeler.transform(test.labels)
    return x_train, y_train, x_test, y_test, labeler


def _to_list(labels) -> list:
    if isinstance(labels, np.ndarray):
        return labels.tolist()
    return list(labels)
