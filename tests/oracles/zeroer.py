"""Per-pair ZeroER blocking and featurization — the spec of the column kernel.

``candidate_pairs_reference`` is the tuple-list pair enumeration
``repro.cleaning.zeroer.candidate_pairs`` ran before it returned index
arrays, and ``pair_features_reference`` is the per-pair loop
``PairFeaturizer.features`` ran before it went column at a time.  The
production kernel must produce the same pairs in the same order and
feature matrices with the same bytes.
"""

import numpy as np

from repro.cleaning.zeroer import _SMALL_TABLE, tokenize


def candidate_pairs_reference(table, columns: list[str]) -> list[tuple[int, int]]:
    """Blocked candidate pairs (i, j) with i < j.

    Small tables are enumerated exhaustively; larger ones use token
    blocking over the given categorical columns.
    """
    n = table.n_rows
    if n <= _SMALL_TABLE:
        return [(i, j) for i in range(n) for j in range(i + 1, n)]
    buckets: dict[str, list[int]] = {}
    for i in range(n):
        tokens: set[str] = set()
        for name in columns:
            tokens |= tokenize(table.column(name).values[i])
        for token in tokens:
            buckets.setdefault(token, []).append(i)
    pairs: set[tuple[int, int]] = set()
    for members in buckets.values():
        if len(members) > 50:  # stop-token guard
            continue
        for a_pos, a in enumerate(members):
            for b in members[a_pos + 1 :]:
                pairs.add((a, b))
    return sorted(pairs)


def pair_features_reference(
    featurizer, table, pairs: list[tuple[int, int]]
) -> np.ndarray:
    """Similarity feature matrix of a fitted ``PairFeaturizer``, one row per pair."""
    out = np.zeros((len(pairs), featurizer.n_features))
    token_cache: dict[tuple[str, int], set[str]] = {}

    def tokens(name: str, row: int) -> set[str]:
        key = (name, row)
        if key not in token_cache:
            token_cache[key] = tokenize(table.column(name).values[row])
        return token_cache[key]

    for p, (a, b) in enumerate(pairs):
        col = 0
        for name in featurizer.categorical:
            weight = featurizer.weights[name]
            ta, tb = tokens(name, a), tokens(name, b)
            union = len(ta | tb)
            jaccard = len(ta & tb) / union if union else 0.0
            out[p, col] = weight * jaccard
            va = table.column(name).values[a]
            vb = table.column(name).values[b]
            exact = 1.0 if (va is not None and va == vb) else 0.0
            out[p, col + 1] = weight * exact
            col += 2
        for name in featurizer.numeric:
            va = table.column(name).values[a]
            vb = table.column(name).values[b]
            if np.isnan(va) or np.isnan(vb):
                out[p, col] = 0.0
            else:
                out[p, col] = np.exp(-abs(va - vb) / featurizer.scales[name])
            col += 1
    return out
