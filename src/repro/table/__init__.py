"""Tabular substrate: typed columns, tables, splits, encoding, CSV I/O."""

from .column import Column
from .encode import FeatureEncoder, LabelEncoder, encode_pair
from .io import read_csv, stream_csv, write_csv
from .store import (
    DEFAULT_CHUNK_ROWS,
    ColumnarWriter,
    StoreCorruptionError,
    diagnose_store,
    load_columnar,
    recover_store,
    register_store_source,
    save_columnar,
    set_store_verification,
    spill_table,
    store_info,
    store_verification,
    store_verification_mode,
    table_streaming_disabled,
    table_streaming_enabled,
)
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
    "ColumnarWriter",
    "DEFAULT_CHUNK_ROWS",
    "FeatureEncoder",
    "LabelEncoder",
    "Schema",
    "StoreCorruptionError",
    "Table",
    "class_distribution",
    "diagnose_store",
    "encode_pair",
    "filter_rows",
    "group_indices",
    "group_sizes",
    "is_imbalanced",
    "kfold_indices",
    "majority_class",
    "load_columnar",
    "make_schema",
    "minority_class",
    "read_csv",
    "recover_store",
    "register_store_source",
    "save_columnar",
    "set_store_verification",
    "sort_by",
    "spill_table",
    "split_indices",
    "store_info",
    "store_verification",
    "store_verification_mode",
    "stratified_split_indices",
    "stream_csv",
    "summarize",
    "table_streaming_disabled",
    "table_streaming_enabled",
    "train_test_split",
    "write_csv",
]
