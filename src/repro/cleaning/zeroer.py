"""ZeroER-style unsupervised entity resolution (Wu et al., SIGMOD 2020).

ZeroER's core idea: similarity feature vectors of record pairs follow a
two-component generative mixture — one component for matches, one for
unmatches — whose parameters can be learned with EM using **zero labeled
examples**.  This module reproduces that pipeline:

1. **Blocking** — candidate pairs share at least one token in some
   categorical field (or all pairs when the table is small);
2. **Featurization** — one column at a time over the pair index arrays.
   Per categorical column: token-Jaccard (computed once per distinct
   value pair) and exact match (on the column's factorized codes); per
   numeric column: ``exp(-|a-b| / scale)`` with the training column's
   std as scale;
3. **EM** over a two-component diagonal Gaussian mixture, initialized
   from the overall-similarity extremes;
4. pairs whose match-component posterior exceeds a threshold are
   duplicates; union-find clusters them and all but the first record of
   each cluster are deleted.

The mixture is fitted on the training split and reused to score test
pairs, keeping the fit-on-train discipline.
"""

from __future__ import annotations

import numpy as np

from ..table import Table
from .base import DUPLICATES, ComposedCleaning, DetectionResult, Detector, check_fitted
from .duplicates import DuplicateDeletionRepair

_SMALL_TABLE = 400  # below this, skip blocking and enumerate all pairs


def tokenize(value: str | None) -> set[str]:
    """Lower-cased alphanumeric tokens of a cell value."""
    if value is None:
        return set()
    cleaned = "".join(c.lower() if c.isalnum() else " " for c in str(value))
    return {token for token in cleaned.split() if token}


def _factorize(values: np.ndarray) -> tuple[np.ndarray, list]:
    """Codes of a categorical column (``None`` -> -1) and its distinct values."""
    index: dict = {}
    codes = np.fromiter(
        (
            -1 if value is None else index.setdefault(value, len(index))
            for value in values
        ),
        dtype=np.intp,
        count=len(values),
    )
    return codes, list(index)


def candidate_pairs(table: Table, columns: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Blocked candidate pairs as index arrays ``(a, b)`` with ``a < b``.

    Small tables are enumerated exhaustively, in row-major order; larger
    ones use token blocking over the given categorical columns, and the
    pairs come out in lexicographic order.
    """
    n = table.n_rows
    if n <= _SMALL_TABLE:
        return np.triu_indices(n, 1)
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
    ordered = np.array(sorted(pairs), dtype=np.intp).reshape(-1, 2)
    return ordered[:, 0], ordered[:, 1]


def _jaccard(ca: np.ndarray, cb: np.ndarray, token_sets: list[set[str]]) -> np.ndarray:
    """Token Jaccard of each code pair, computed once per distinct pair."""
    token_sets = [set()] + token_sets  # shifted by one: code -1 (None) has no tokens
    width = len(token_sets)
    distinct, inverse = np.unique((ca + 1) * width + (cb + 1), return_inverse=True)
    first, second = np.divmod(distinct, width)
    shared = np.fromiter(
        (
            len(token_sets[i] & token_sets[j])
            for i, j in zip(first.tolist(), second.tolist())
        ),
        dtype=np.intp,
        count=len(distinct),
    )
    sizes = np.fromiter(map(len, token_sets), dtype=np.intp, count=width)
    union = sizes[first] + sizes[second] - shared
    # small ints convert to float64 exactly, so this division rounds like
    # Python's int / int; an empty union scores 0.0
    similarity = np.zeros(len(distinct))
    np.divide(shared, union, out=similarity, where=union > 0)
    return similarity[inverse]


class PairFeaturizer:
    """Similarity feature vectors for record pairs.

    Scales for numeric distances are learned from the training table so
    train and test pairs live in the same feature space.  Categorical
    similarities are weighted by the column's *uniqueness ratio*
    (distinct values / rows): agreeing on a near-key column like a name
    is strong identity evidence, agreeing on a 5-value city column is
    not.  Without this, the mixture model separates "same city" from
    "different city" instead of match from unmatch.
    """

    def fit(self, train: Table) -> "PairFeaturizer":
        self.categorical = list(train.schema.categorical_features)
        self.numeric = list(train.schema.numeric_features)
        self.scales = {}
        for name in self.numeric:
            std = train.column(name).std()
            self.scales[name] = std if std and not np.isnan(std) and std > 0 else 1.0
        self.weights = {}
        n_rows = max(train.n_rows, 1)
        for name in self.categorical:
            distinct = len(train.column(name).unique())
            self.weights[name] = max(distinct / n_rows, 0.05)
        self.n_features = 2 * len(self.categorical) + len(self.numeric)
        return self

    def features(self, table: Table, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Similarity feature matrix, one row per candidate pair ``(a[p], b[p])``."""
        out = np.zeros((len(a), self.n_features))
        col = 0
        for name in self.categorical:
            weight = self.weights[name]
            codes, distinct = _factorize(table.column(name).values)
            ca, cb = codes[a], codes[b]
            out[:, col] = weight * _jaccard(ca, cb, [tokenize(v) for v in distinct])
            out[:, col + 1] = weight * ((ca == cb) & (ca >= 0))
            col += 2
        for name in self.numeric:
            values = table.column(name).values
            va, vb = values[a], values[b]
            similarity = np.exp(-np.abs(va - vb) / self.scales[name])
            similarity[np.isnan(va) | np.isnan(vb)] = 0.0
            out[:, col] = similarity
            col += 1
        return out


class TwoComponentGaussianMixture:
    """Diagonal-covariance GMM with exactly two components, fitted by EM.

    Component 1 is pinned to the high-similarity side at initialization,
    so its posterior is the match probability.

    Parameters
    ----------
    update:
        ``"all"`` runs classic EM (means, variances and weights all
        adapt).  ``"weights"`` freezes the component *shapes* at their
        seeded values and lets only the mixing weights adapt — ZeroER's
        regularized regime, which stops the match component from drifting
        down and absorbing a large moderately-similar pair population
        (e.g. "records from the same city").
    seed_fraction:
        Fraction of the most-similar pairs used to seed the match
        component; ``None`` picks the seed adaptively by cutting at the
        largest similarity gap in the top tail (the right choice when
        the true duplicate count is unknown).
    var_floor:
        Lower bound on every per-feature variance; similarity features
        live in [0, 1], so the default tolerates small perturbations
        around the seed without collapsing to a point mass.
    """

    def __init__(
        self,
        max_iter: int = 100,
        tol: float = 1e-6,
        update: str = "all",
        seed_fraction: float | None = 0.05,
        var_floor: float = 1e-4,
    ) -> None:
        if update not in ("all", "weights"):
            raise ValueError("update must be 'all' or 'weights'")
        self.max_iter = max_iter
        self.tol = tol
        self.update = update
        self.seed_fraction = seed_fraction
        self.var_floor = var_floor

    def fit(self, X: np.ndarray) -> "TwoComponentGaussianMixture":
        X = np.asarray(X, dtype=np.float64)
        n = len(X)
        if n < 4:
            raise ValueError("need at least 4 pairs to fit the mixture")
        overall = X.mean(axis=1)
        order = np.argsort(overall)
        if self.seed_fraction is None:
            n_seed = _gap_seed_count(overall[order])
        else:
            n_seed = max(2, int(n * self.seed_fraction))
        top = X[order[-n_seed:]]
        bottom = X[order[:-n_seed]]

        self.weights = np.array([1.0 - n_seed / n, n_seed / n])
        self.means = np.vstack([bottom.mean(axis=0), top.mean(axis=0)])
        self.vars = np.vstack(
            [
                bottom.var(axis=0) + self.var_floor,
                top.var(axis=0) + self.var_floor,
            ]
        )

        previous = -np.inf
        for _ in range(self.max_iter):
            resp, log_likelihood = self._e_step(X)
            self._m_step(X, resp)
            if abs(log_likelihood - previous) < self.tol:
                break
            previous = log_likelihood
        return self

    def _log_density(self, X: np.ndarray) -> np.ndarray:
        out = np.zeros((len(X), 2))
        for k in range(2):
            diff = X - self.means[k]
            out[:, k] = -0.5 * np.sum(
                np.log(2.0 * np.pi * self.vars[k]) + diff**2 / self.vars[k],
                axis=1,
            ) + np.log(max(self.weights[k], 1e-12))
        return out

    def _e_step(self, X: np.ndarray) -> tuple[np.ndarray, float]:
        log_joint = self._log_density(X)
        shift = log_joint.max(axis=1, keepdims=True)
        joint = np.exp(log_joint - shift)
        total = joint.sum(axis=1, keepdims=True)
        resp = joint / total
        log_likelihood = float(np.sum(np.log(total) + shift))
        return resp, log_likelihood

    def _m_step(self, X: np.ndarray, resp: np.ndarray) -> None:
        for k in range(2):
            mass = resp[:, k].sum()
            if mass < 1e-9:
                continue
            self.weights[k] = mass / len(X)
            if self.update == "weights":
                continue
            self.means[k] = (resp[:, k][:, None] * X).sum(axis=0) / mass
            diff = X - self.means[k]
            self.vars[k] = np.maximum(
                (resp[:, k][:, None] * diff**2).sum(axis=0) / mass,
                self.var_floor,
            )

    def match_posterior(self, X: np.ndarray) -> np.ndarray:
        """P(match component | x) for each row of X."""
        resp, _ = self._e_step(np.asarray(X, dtype=np.float64))
        # component 1 was initialized on the similar side, but EM can swap;
        # the component with the larger mean similarity is "match"
        match = int(np.argmax(self.means.mean(axis=1)))
        return resp[:, match]


def _gap_seed_count(sorted_similarity: np.ndarray, max_fraction: float = 0.05) -> int:
    """Seed size chosen at the largest gap in the top similarity tail.

    Scans the ``max_fraction`` most-similar pairs (ascending input) and
    cuts where consecutive similarities jump the most — duplicates sit
    above a visible gap, arbitrary similar-ish pairs do not.
    """
    n = len(sorted_similarity)
    tail = max(4, int(n * max_fraction))
    tail = min(tail, n - 1)
    top = sorted_similarity[-tail - 1 :]
    gaps = np.diff(top)
    cut = int(np.argmax(gaps))
    return max(2, len(top) - 1 - cut)


class ZeroERDetector(Detector):
    """ZeroER match detection: blocked pairs scored by the fitted mixture.

    ``fit`` already featurizes every candidate training pair to run EM,
    so :meth:`fit_detect` scores those features in place and hands the
    training detection to the cache for free — without it, a
    ``detect(train)`` would re-block and re-featurize the whole table.

    Parameters
    ----------
    threshold:
        Match-posterior cutoff above which a pair is a duplicate.
    """

    name = "ZeroER"

    def __init__(self, threshold: float = 0.9) -> None:
        if not 0.0 < threshold < 1.0:
            raise ValueError("threshold must be in (0, 1)")
        self.threshold = threshold

    def fit(self, train: Table) -> "ZeroERDetector":
        self._fit(train)
        return self

    def fit_detect(self, train: Table) -> DetectionResult:
        pairs, X = self._fit(train)
        return DetectionResult(train.n_rows, pairs=self._score(pairs, X))

    def _fit(self, train: Table):
        self._featurizer = PairFeaturizer().fit(train)
        pairs = candidate_pairs(train, self._featurizer.categorical)
        X = None
        self._mixture: TwoComponentGaussianMixture | None = None
        if len(pairs[0]) >= 4:
            X = self._featurizer.features(train, *pairs)
            # ZeroER's regularized regime: a small seeded match component
            # with frozen shape, so EM cannot drift into "similar-ish"
            # pair populations (the paper's false-positive tendency shows
            # up as an over-eager seed instead)
            self._mixture = TwoComponentGaussianMixture(
                update="weights", seed_fraction=None
            ).fit(X)
        return pairs, X

    def _score(self, pairs, X) -> list[tuple[int, int]]:
        """Pairs whose match posterior clears the threshold."""
        a, b = pairs
        if self._mixture is None or len(a) == 0:
            return []
        match = self._mixture.match_posterior(X) > self.threshold
        return list(zip(a[match].tolist(), b[match].tolist()))

    def matched_pairs(self, table: Table) -> list[tuple[int, int]]:
        """Pairs the fitted model declares duplicates."""
        check_fitted(self, "_featurizer")
        if self._mixture is None:
            return []
        pairs = candidate_pairs(table, self._featurizer.categorical)
        if len(pairs[0]) == 0:
            return []
        X = self._featurizer.features(table, *pairs)
        return self._score(pairs, X)

    def detect(self, table: Table) -> DetectionResult:
        return DetectionResult(table.n_rows, pairs=self.matched_pairs(table))

    def fingerprint(self) -> tuple:
        return ("ZeroER", self.threshold)


class ZeroERCleaning(ComposedCleaning):
    """Unsupervised duplicate cleaning via the ZeroER mixture model.

    Parameters
    ----------
    threshold:
        Match-posterior cutoff above which a pair is a duplicate.
    """

    def __init__(self, threshold: float = 0.9) -> None:
        super().__init__(
            DUPLICATES, ZeroERDetector(threshold), DuplicateDeletionRepair()
        )
        self.threshold = threshold

    def matched_pairs(self, table: Table) -> list[tuple[int, int]]:
        """Pairs the fitted model declares duplicates (compat passthrough)."""
        return self.detector.matched_pairs(table)
