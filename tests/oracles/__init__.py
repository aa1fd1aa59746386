"""Reference implementations kept as test oracles.

Every optimized kernel in ``src/`` was written against a plain
reference implementation: the per-row encoder transform, the
per-feature CART and XGBoost split searches, the per-class KNN vote,
the eager copy-on-``take`` column, the set-based ``drop_rows``, the
candidate-major cross-validation loop, the allocating
LogisticRegression loop and row softmax, and ZeroER's per-pair
blocking and featurization loops.  Production has one code path per
kernel; the references live here as plain functions, and the tests pin
each production kernel to its oracle bit for bit.  The kernel
benchmarks import them too, to time the "before" arm.

A new kernel follows the same shape: add its reference here, pin
bit-equality in a test, and gate it in a benchmark.
"""

from .encode import transform_reference
from .knn import vote_reference
from .linear import logistic_fit_reference, softmax_reference
from .table import drop_rows_reference, table_take_reference, take_reference
from .trees import cart_best_split_reference, gbt_best_split_reference
from .tuning import cross_val_score_reference, random_search_reference
from .zeroer import candidate_pairs_reference, pair_features_reference

__all__ = [
    "candidate_pairs_reference",
    "cart_best_split_reference",
    "cross_val_score_reference",
    "drop_rows_reference",
    "gbt_best_split_reference",
    "logistic_fit_reference",
    "pair_features_reference",
    "random_search_reference",
    "softmax_reference",
    "table_take_reference",
    "take_reference",
    "transform_reference",
    "vote_reference",
]
