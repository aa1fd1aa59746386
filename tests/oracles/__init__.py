"""Reference implementations kept as test oracles.

Every optimized kernel in ``src/`` was written against a plain
reference implementation: the per-row encoder transform, the
per-feature CART and XGBoost split searches, the allocating KNN
distance expression, its whole-matrix neighbor selection and per-class
vote, the eager copy-on-``take`` column, the set-based ``drop_rows``,
the candidate-major cross-validation loop, the allocating
LogisticRegression loop and row softmax, ZeroER's per-pair blocking
and featurization loops, the row-major CSV reader and writer, the
isolation forest's recursive descent, and scipy's incomplete-beta
Student-t tail.
Production has one code path per kernel; the references live here as
plain functions, and the tests pin each production kernel to its
oracle bit for bit (the Student-t tail, a different algorithm, to a
fixed tolerance).  The kernel benchmarks import them too, to time
the "before" arm.

A new kernel follows the same shape: add its reference here, pin
bit-equality in a test, and gate it in a benchmark.
"""

from .encode import transform_reference
from .io import read_csv_reference, write_csv_reference
from .isolation import isolation_path_lengths_reference, isolation_score_reference
from .knn import (
    knn_proba_reference,
    pairwise_sq_distances_reference,
    select_neighbors_reference,
    vote_reference,
)
from .linear import logistic_fit_reference, softmax_reference
from .stats import t_sf_reference
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
    "isolation_path_lengths_reference",
    "isolation_score_reference",
    "knn_proba_reference",
    "logistic_fit_reference",
    "pair_features_reference",
    "pairwise_sq_distances_reference",
    "random_search_reference",
    "read_csv_reference",
    "select_neighbors_reference",
    "softmax_reference",
    "table_take_reference",
    "t_sf_reference",
    "take_reference",
    "transform_reference",
    "vote_reference",
    "write_csv_reference",
]
