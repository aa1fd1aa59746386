"""Per-row feature-encoder transform — the spec of ``FeatureEncoder.transform``."""

import numpy as np

from repro.table import FeatureEncoder, Table


def transform_reference(encoder: FeatureEncoder, table: Table) -> np.ndarray:
    """The original per-row transform of a fitted ``encoder``.

    Numeric columns are standardized one block at a time and categorical
    columns are one-hot encoded by a Python loop over the rows; the
    blocks are then ``hstack``-ed.  The vectorized transform must
    produce the same values, dtype and column order.
    """
    encoder._require_fitted()
    n = table.n_rows
    blocks: list[np.ndarray] = []
    for name in encoder._numeric:
        values = table.column(name).gather()
        mean, std = encoder._means[name], encoder._stds[name]
        if encoder.numeric_missing == "mean":
            values[np.isnan(values)] = mean
        blocks.append(((values - mean) / std).reshape(n, 1))
    for name in encoder._categorical:
        vocab = encoder._vocab[name]
        block = np.zeros((n, len(vocab)), dtype=np.float64)
        index = encoder._index[name]
        for i, value in enumerate(table.column(name).values):
            if value is not None and str(value) in index:
                block[i, index[str(value)]] = 1.0
        blocks.append(block)
    if not blocks:
        return np.zeros((n, 0), dtype=np.float64)
    return np.hstack(blocks)
