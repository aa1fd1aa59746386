"""Tabular substrate: typed columns, tables, splits, encoding, CSV I/O."""

from .column import Column
from .encode import FeatureEncoder, LabelEncoder, encode_pair
from .io import read_csv, stream_csv, write_csv
from .ops import (
    class_distribution,
    filter_rows,
    group_indices,
    group_sizes,
    is_imbalanced,
    majority_class,
    minority_class,
    sort_by,
    summarize,
)
from .schema import ColumnSpec, ColumnType, Schema, make_schema
from .split import (
    kfold_indices,
    split_indices,
    stratified_split_indices,
    train_test_split,
)
from .table import Table

__all__ = [
    "Column",
    "ColumnSpec",
    "ColumnType",
    "FeatureEncoder",
    "LabelEncoder",
    "Schema",
    "Table",
    "class_distribution",
    "encode_pair",
    "filter_rows",
    "group_indices",
    "group_sizes",
    "is_imbalanced",
    "kfold_indices",
    "majority_class",
    "make_schema",
    "minority_class",
    "read_csv",
    "sort_by",
    "split_indices",
    "stratified_split_indices",
    "stream_csv",
    "summarize",
    "train_test_split",
    "write_csv",
]
