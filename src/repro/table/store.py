"""Binary columnar on-disk format with memory-mapped, verified loading.

A **store** is a directory holding one ``.npy`` file per column plus a
``manifest.json`` that carries the schema, the row count, and (for
categorical columns) the value dictionary.  Format 2 adds end-to-end
integrity metadata — a per-column content digest and byte length, plus a
store-level generation stamp:

``manifest.json``::

    {
      "format": 2,
      "n_rows": 1200000,
      "generation": 1,
      "label": "y", "keys": [...], "hidden": [...],
      "source": {"kind": "csv", "path": "/data/x.csv", "chunk_rows": 65536},
      "columns": [
        {"name": "age", "type": "numeric", "file": "col_00000.npy",
         "sha256": "ab12...", "n_bytes": 9600000},
        {"name": "city", "type": "categorical", "file": "col_00001.npy",
         "sha256": "cd34...", "n_bytes": 4800000,
         "dictionary": ["tokyo", "lima"]}
      ]
    }

Numeric columns are little-endian ``float64`` (``NaN`` = missing) and
load back with ``np.load(..., mmap_mode="r")`` — the returned read-only
memmap *is* the column's base buffer, so the zero-copy view machinery
(``take``/``mask``/``iter_chunks``) composes index arrays over the map
and a slice of an on-disk table never allocates a resident value copy.
Categorical columns are little-endian ``int32`` codes (``-1`` =
missing) into the manifest dictionary, decoded lazily through a shared
:class:`~repro.table.column._LazyBuffer` cell on first touch.

:class:`ColumnarWriter` appends row chunks incrementally — each column
file starts with a placeholder npy header that :meth:`finalize`
rewrites with the final shape — so a writer never holds more than one
chunk resident.  That is what ``read_csv(..., spill=...)`` and the
spill-aware injectors stream through.

Integrity
---------

The ``sha256`` entry hashes exactly the payload bytes streamed through
:meth:`ColumnarWriter.append` (everything after the fixed 128-byte npy
header), updated incrementally as chunks are written — zero extra
passes over the data.  Verification is mode-controlled
(:func:`set_store_verification`, CLI ``--verify-store``):

* ``"lazy"`` (default) — :func:`load_columnar` checks manifest shape
  and byte length eagerly, and each column's digest is verified once
  per process on first materialization (through regular file reads,
  never through the map, so a truncated file raises instead of
  delivering ``SIGBUS``).
* ``"eager"`` — all digests are verified up front in ``load_columnar``.
* ``"off"`` — the unverified format-1 behaviour.

Every detected inconsistency raises :class:`StoreCorruptionError` with
a ``kind`` from the taxonomy below, the store path, and (when known)
the column name.  Format-1 stores still load but are flagged
unverifiable (:func:`store_info`).  A store whose manifest records a
``source`` (or that was registered via :func:`register_store_source`)
can be healed in place by :func:`recover_store`: rebuild from source
under a bumped ``generation`` — the manifest mtime changes, so the
mtime-keyed per-process caches re-open fresh maps — or degrade to the
eager in-memory table.

:func:`table_streaming_disabled` switches the whole streaming stack
back to the eager reference behavior (the recovery ladder's ``degrade``
step runs it), and ``store_verification("off")`` keeps the unverified
load path as the executable reference for the integrity layer.  All
modes must produce byte-identical study output — pinned by
``tests/test_out_of_core.py`` / ``tests/test_storage_integrity.py`` and
gated by ``benchmarks/bench_out_of_core.py`` /
``benchmarks/bench_storage_integrity.py``.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .column import Column, _LazyBuffer
from .schema import ColumnSpec, ColumnType, Schema
from .table import Table

STORE_FORMAT_VERSION = 2
#: manifest formats this reader accepts (format 1 loads unverified)
SUPPORTED_STORE_FORMATS = (1, 2)
MANIFEST_NAME = "manifest.json"

#: default row-chunk size for every streaming entry point
DEFAULT_CHUNK_ROWS = 65536

#: categorical code reserved for missing values
_MISSING_CODE = -1

_NUMERIC_DESCR = "<f8"
_CODES_DESCR = "<i4"

#: process-wide switch for the streaming/memmap table stack; flip only
#: through :func:`table_streaming_disabled`
_STREAMING_ENABLED = True

#: verification modes, least to most paranoid
VERIFY_MODES = ("off", "lazy", "eager")

#: process-wide digest-verification mode; flip through
#: :func:`set_store_verification` / :func:`store_verification`
_VERIFY_MODE = "lazy"


def table_streaming_enabled() -> bool:
    """Whether tables load memory-mapped and I/O streams in chunks."""
    return _STREAMING_ENABLED


@contextmanager
def table_streaming_disabled():
    """Run on the eager (fully-resident) reference table I/O for the block.

    ``load_columnar`` materializes every column into resident arrays,
    ``read_csv``/``write_csv`` fall back to the historical row-major
    implementations, and the injectors' ``spill`` parameters become
    no-ops.  The streaming path must produce byte-identical persisted
    study output.  This is the one reference switch that stays in
    production: the store recovery ladder's ``degrade`` step runs the
    eager path.
    """
    global _STREAMING_ENABLED
    previous = _STREAMING_ENABLED
    _STREAMING_ENABLED = False
    try:
        yield
    finally:
        _STREAMING_ENABLED = previous


def store_verification_mode() -> str:
    """The active digest-verification mode (``off``/``lazy``/``eager``)."""
    return _VERIFY_MODE


def set_store_verification(mode: str) -> None:
    """Set the process-wide digest-verification mode.

    ``"lazy"`` (the default) verifies each column's content digest once
    per process on first materialization; ``"eager"`` verifies every
    digest inside :func:`load_columnar`; ``"off"`` is the unverified
    reference path.  Workers inherit the parent's mode through the
    fork-based pool start.
    """
    global _VERIFY_MODE
    if mode not in VERIFY_MODES:
        raise ValueError(f"unknown store verification mode {mode!r}")
    _VERIFY_MODE = mode


@contextmanager
def store_verification(mode: str):
    """Run the block under a specific verification mode."""
    previous = _VERIFY_MODE
    set_store_verification(mode)
    try:
        yield
    finally:
        set_store_verification(previous)


# -- corruption taxonomy ----------------------------------------------------

TRUNCATED_COLUMN = "truncated_column"
HEADER_MISMATCH = "header_mismatch"
DIGEST_MISMATCH = "digest_mismatch"
TORN_MANIFEST = "torn_manifest"
VERSION_SKEW = "version_skew"
MISSING_COLUMN = "missing_column"
MISSING_MANIFEST = "missing_manifest"


class StoreCorruptionError(RuntimeError):
    """A columnar store failed an integrity check.

    ``kind`` is one of the taxonomy constants above; ``store`` is the
    store directory and ``column`` the offending column name when one
    is known.  The error pickles losslessly (it crosses the pool
    boundary so the supervisor-side recovery ladder can read ``store``).
    """

    def __init__(
        self,
        kind: str,
        store: str | Path,
        column: str | None = None,
        detail: str = "",
    ) -> None:
        self.kind = kind
        self.store = str(store)
        self.column = column
        self.detail = detail
        message = f"{kind} in columnar store {self.store}"
        if column is not None:
            message += f", column {column!r}"
        if detail:
            message += f": {detail}"
        super().__init__(message)

    def __reduce__(self):
        return (type(self), (self.kind, self.store, self.column, self.detail))


# -- injected I/O faults ----------------------------------------------------

#: optional hook(op, store_key) raising OSError to simulate disk faults;
#: installed by the chaos harness (core/faults.py), never set in
#: production.  ``op`` is "write" (store writes) or "read" (digest
#: verification reads).
_IO_FAULT_HOOK: Optional[Callable[[str, str], None]] = None


def set_io_fault_hook(hook: Callable[[str, str], None] | None) -> None:
    """Install (or clear) the injected-I/O-fault hook for this process."""
    global _IO_FAULT_HOOK
    _IO_FAULT_HOOK = hook


def _store_fault_key(store: Path) -> str:
    """A tmpdir-stable key for a store directory (last two components)."""
    real = Path(os.path.realpath(store))
    return f"{real.parent.name}/{real.name}"


def _fire_io_fault(op: str, store: Path) -> None:
    hook = _IO_FAULT_HOOK
    if hook is not None:
        hook(op, _store_fault_key(store))


# -- incremental .npy files -------------------------------------------------

#: fixed total header size; rewritten in place once the row count is known
_HEADER_SIZE = 128


def _npy_header(descr: str, n_rows: int) -> bytes:
    """A v1 ``.npy`` header padded to exactly ``_HEADER_SIZE`` bytes."""
    body = "{'descr': '%s', 'fortran_order': False, 'shape': (%d,), }" % (
        descr,
        n_rows,
    )
    # magic(6) + version(2) + HEADER_LEN(2) + body + padding + newline
    pad = _HEADER_SIZE - 10 - 1 - len(body)
    if pad < 0:  # pragma: no cover - row counts this large don't fit in RAM
        raise ValueError("npy header does not fit the fixed 128-byte slot")
    text = body + " " * pad + "\n"
    return b"\x93NUMPY" + bytes([1, 0]) + struct.pack("<H", len(text)) + text.encode("latin1")


class _NpyColumnFile:
    """One column file being written incrementally.

    The payload digest is fed as bytes stream out, so by
    :meth:`finalize` the sha256 of everything after the fixed header is
    already known — integrity metadata costs no second pass.  (The
    back-patched header itself is not digested; its shape claim is
    cross-checked against the manifest row count at load time instead.)
    """

    def __init__(self, path: Path, descr: str) -> None:
        self.path = path
        self.descr = descr
        self.n_rows = 0
        self.n_bytes = 0
        self._sha256 = hashlib.sha256()
        self._handle = open(path, "wb")
        self._handle.write(_npy_header(descr, 0))

    def append(self, values: np.ndarray) -> None:
        data = np.ascontiguousarray(values).astype(self.descr, copy=False)
        payload = data.tobytes()
        self._handle.write(payload)
        self._sha256.update(payload)
        self.n_rows += len(data)
        self.n_bytes += len(payload)

    def digest(self) -> str:
        return self._sha256.hexdigest()

    def finalize(self) -> None:
        self._handle.seek(0)
        self._handle.write(_npy_header(self.descr, self.n_rows))
        self._handle.flush()
        self._handle.close()

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()


# -- writing ----------------------------------------------------------------


def _fsync_directory(path: Path) -> None:
    """fsync a directory so a just-renamed entry survives power loss."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir-open support
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fsync on dirs unsupported here
        pass
    finally:
        os.close(fd)


class ColumnarWriter:
    """Stream row chunks of one schema into a columnar store directory.

    Usage::

        writer = ColumnarWriter(path, table.schema)
        for chunk in table.iter_chunks(65536):
            writer.append(chunk)
        writer.finalize()
        mapped = load_columnar(path)

    Categorical values are dictionary-encoded incrementally: codes are
    assigned in first-appearance order across the appended chunks, and
    the dictionary lands in the manifest at :meth:`finalize` together
    with each column's streamed sha256 digest and payload byte length.

    Rewriting an existing store bumps the manifest ``generation`` and
    replaces the column files (old files are unlinked first, so
    already-open maps in other processes keep their inodes while new
    opens see the new data).  If an exception — including an injected
    ``ENOSPC`` — escapes mid-write, the ``with`` form unlinks the
    partial ``.npy`` files and removes a directory it created, so a
    failed spill never leaves a mappable-looking corpse.
    """

    def __init__(
        self,
        path: str | Path,
        schema: Schema,
        *,
        source: dict | None = None,
        generation: int | None = None,
    ) -> None:
        self.path = Path(path)
        self.schema = schema
        self._created_dir = not self.path.exists()
        self.path.mkdir(parents=True, exist_ok=True)
        if generation is None:
            generation = _next_generation(self.path)
        self.generation = generation
        self._source = source
        self._files: dict[str, _NpyColumnFile] = {}
        self._dicts: dict[str, dict[str, int]] = {}
        self._n_rows = 0
        self._finalized = False
        for index, spec in enumerate(schema.columns):
            descr = _NUMERIC_DESCR if spec.is_numeric else _CODES_DESCR
            file_path = self.path / f"col_{index:05d}.npy"
            try:
                os.unlink(file_path)  # rebuilds must not mutate mapped inodes
            except FileNotFoundError:
                pass
            self._files[spec.name] = _NpyColumnFile(file_path, descr)
            if not spec.is_numeric:
                self._dicts[spec.name] = {}

    def append(self, chunk: Table) -> None:
        """Append one row chunk (a table with this writer's schema)."""
        arrays = {
            spec.name: chunk.column(spec.name).values
            for spec in self.schema.columns
        }
        self.append_arrays(arrays, n_rows=chunk.n_rows)

    def append_arrays(self, arrays: dict[str, np.ndarray], n_rows: int | None = None) -> None:
        """Append one row chunk given as per-column value arrays.

        ``n_rows`` is only required for zero-column schemas, where the
        row count cannot be inferred from the arrays.
        """
        if n_rows is None:
            if not arrays:
                raise ValueError("n_rows is required for zero-column appends")
            n_rows = len(next(iter(arrays.values())))
        _fire_io_fault("write", self.path)
        for spec in self.schema.columns:
            values = arrays[spec.name]
            if len(values) != n_rows:
                raise ValueError(
                    f"column {spec.name!r} chunk has {len(values)} rows, "
                    f"expected {n_rows}"
                )
            if spec.is_numeric:
                self._files[spec.name].append(values)
            else:
                self._files[spec.name].append(self._encode(spec.name, values))
        self._n_rows += int(n_rows)

    def _encode(self, name: str, values: np.ndarray) -> np.ndarray:
        dictionary = self._dicts[name]
        codes = np.empty(len(values), dtype=np.int32)
        for i, value in enumerate(values):
            if value is None:
                codes[i] = _MISSING_CODE
            else:
                code = dictionary.get(value)
                if code is None:
                    code = len(dictionary)
                    dictionary[value] = code
                codes[i] = code
        return codes

    def finalize(self, n_rows: int | None = None) -> Path:
        """Rewrite the column headers with final shapes, write the manifest."""
        if self._finalized:
            raise RuntimeError("writer already finalized")
        if n_rows is not None and n_rows != self._n_rows:
            raise ValueError(
                f"expected {n_rows} rows but {self._n_rows} were appended"
            )
        _fire_io_fault("write", self.path)
        entries = []
        for index, spec in enumerate(self.schema.columns):
            column_file = self._files[spec.name]
            if column_file.n_rows != self._n_rows:
                raise ValueError(
                    f"column {spec.name!r} has {column_file.n_rows} rows, "
                    f"expected {self._n_rows}"
                )
            column_file.finalize()
            entry = {
                "name": spec.name,
                "type": spec.ctype.value,
                "file": column_file.path.name,
                "sha256": column_file.digest(),
                "n_bytes": column_file.n_bytes,
            }
            if not spec.is_numeric:
                dictionary = self._dicts[spec.name]
                entry["dictionary"] = list(dictionary)
            entries.append(entry)
        manifest = {
            "format": STORE_FORMAT_VERSION,
            "n_rows": self._n_rows,
            "generation": self.generation,
            "label": self.schema.label,
            "keys": list(self.schema.keys),
            "hidden": list(self.schema.hidden),
            "columns": entries,
        }
        if self._source is not None:
            manifest["source"] = self._source
        manifest_path = self.path / MANIFEST_NAME
        temp_path = self.path / (MANIFEST_NAME + ".tmp")
        with open(temp_path, "w") as handle:
            json.dump(manifest, handle, indent=1)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_path, manifest_path)
        _fsync_directory(self.path)
        _GENERATION_HINTS[os.path.realpath(self.path)] = self.generation
        self._finalized = True
        return self.path

    def close(self) -> None:
        """Release file handles without finalizing (error cleanup path)."""
        for column_file in self._files.values():
            column_file.close()

    def abort(self) -> None:
        """Unlink the partial column files written so far.

        Also removes the manifest tmp file and, when this writer created
        the store directory, the (now empty) directory itself.
        """
        self.close()
        for column_file in self._files.values():
            try:
                os.unlink(column_file.path)
            except OSError:
                pass
        try:
            os.unlink(self.path / (MANIFEST_NAME + ".tmp"))
        except OSError:
            pass
        if self._created_dir:
            try:
                self.path.rmdir()  # only succeeds when empty
            except OSError:
                pass

    def __enter__(self) -> "ColumnarWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.abort()
        elif not self._finalized:
            self.close()


def save_columnar(
    table: Table,
    path: str | Path,
    chunk_rows: int | None = None,
    *,
    source: dict | None = None,
) -> Path:
    """Persist ``table`` to a columnar store directory at ``path``.

    Streams through ``iter_chunks`` so peak resident memory is one
    chunk, even when ``table`` is itself a view or memory-mapped.
    ``source`` (optional) is recorded in the manifest so the store can
    be rebuilt after corruption (see :func:`recover_store`).
    """
    chunk_rows = chunk_rows or DEFAULT_CHUNK_ROWS
    with ColumnarWriter(path, table.schema, source=source) as writer:
        for chunk in table.iter_chunks(chunk_rows):
            writer.append(chunk)
        writer.finalize(n_rows=table.n_rows)
    return Path(path)


def spill_table(
    table: Table, path: str | Path, chunk_rows: int | None = None
) -> Table:
    """Write ``table`` to a store and hand back the loaded (mapped) table."""
    save_columnar(table, path, chunk_rows)
    return load_columnar(path)


# -- loading ----------------------------------------------------------------

#: manifest realpath -> (mtime_ns, parsed manifest)
_MANIFEST_CACHE: dict[str, tuple[int, dict]] = {}

#: (store realpath, manifest mtime_ns, column name, verified-variant) ->
#: buffer or lazy cell.  Shared process-wide so that unpickling many
#: views of one store opens each memmap once; the mtime in the key
#: invalidates rewritten stores, and the variant flag keeps verified
#: and unverified cells apart when the mode is toggled mid-process.
_BUFFER_CACHE: dict[tuple[str, int, str, bool], object] = {}

#: (store realpath, manifest mtime_ns, column name) whose payload
#: digest this process has already verified — each generation of each
#: column is hashed at most once per process
_VERIFIED: set[tuple[str, int, str]] = set()

#: store realpath -> highest generation this process has seen; lets a
#: rebuild bump the generation even when the manifest is unreadable
_GENERATION_HINTS: dict[str, int] = {}

#: metrics hook, push-installed by :func:`repro.core.observability.install`
_metrics = None


def _next_generation(path: Path) -> int:
    real = os.path.realpath(path)
    known = _GENERATION_HINTS.get(real, 0)
    try:
        _, manifest = _read_manifest(Path(path))
        known = max(known, int(manifest.get("generation", 1)))
    except (StoreCorruptionError, OSError, ValueError):
        pass
    return known + 1


def _read_manifest(path: Path) -> tuple[int, dict]:
    manifest_path = path / MANIFEST_NAME
    real = os.path.realpath(manifest_path)
    try:
        mtime = os.stat(real).st_mtime_ns
    except FileNotFoundError:
        raise StoreCorruptionError(
            MISSING_MANIFEST, path, detail="manifest.json does not exist"
        ) from None
    cached = _MANIFEST_CACHE.get(real)
    if cached is None or cached[0] != mtime:
        try:
            with open(manifest_path) as handle:
                manifest = json.load(handle)
        except FileNotFoundError:
            raise StoreCorruptionError(
                MISSING_MANIFEST, path, detail="manifest.json does not exist"
            ) from None
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            raise StoreCorruptionError(
                TORN_MANIFEST, path, detail=str(error)
            ) from None
        version = manifest.get("format")
        if version not in SUPPORTED_STORE_FORMATS:
            raise StoreCorruptionError(
                VERSION_SKEW,
                path,
                detail=f"unsupported columnar store format {version!r}",
            )
        cached = (mtime, manifest)
        _MANIFEST_CACHE[real] = cached
        store_real = os.path.realpath(path)
        generation = int(manifest.get("generation", 1))
        if generation > _GENERATION_HINTS.get(store_real, 0):
            _GENERATION_HINTS[store_real] = generation
    return cached


def store_info(path: str | Path) -> dict:
    """Inspect a store's integrity metadata without opening buffers.

    Returns ``{"format", "generation", "n_rows", "verifiable"}`` —
    ``verifiable`` is ``False`` for format-1 stores, which still load
    but carry no digests to check against.
    """
    _, manifest = _read_manifest(Path(path))
    columns = manifest.get("columns", [])
    verifiable = int(manifest.get("format", 1)) >= 2 and all(
        "sha256" in entry for entry in columns
    )
    return {
        "format": int(manifest.get("format", 1)),
        "generation": int(manifest.get("generation", 1)),
        "n_rows": int(manifest["n_rows"]),
        "verifiable": verifiable,
    }


def _schema_from_manifest(manifest: dict) -> Schema:
    specs = tuple(
        ColumnSpec(entry["name"], ColumnType(entry["type"]))
        for entry in manifest["columns"]
    )
    return Schema(
        columns=specs,
        label=manifest["label"],
        keys=tuple(manifest["keys"]),
        hidden=tuple(manifest["hidden"]),
    )


def _decode_codes(codes: np.ndarray, dictionary: tuple[str, ...]) -> np.ndarray:
    """int32 codes -> object-of-str buffer (``-1`` decodes to ``None``)."""
    lookup = np.empty(len(dictionary) + 1, dtype=object)
    for code, value in enumerate(dictionary):
        lookup[code] = value
    lookup[-1] = None  # _MISSING_CODE indexes here from the end
    return lookup[codes]


# -- integrity checks -------------------------------------------------------


def _check_entry_shape(store: Path, entry: dict, n_rows: int) -> None:
    """Structural check: the column file exists with the exact size."""
    name = entry["name"]
    file = store / entry["file"]
    try:
        size = os.stat(file).st_size
    except FileNotFoundError:
        raise StoreCorruptionError(
            MISSING_COLUMN,
            store,
            name,
            detail=f"column file {entry['file']} is missing",
        ) from None
    expected = entry.get("n_bytes")
    if expected is None:  # format-1 manifests carry no byte length
        itemsize = 8 if entry["type"] == ColumnType.NUMERIC.value else 4
        expected = n_rows * itemsize
    if size != _HEADER_SIZE + expected:
        raise StoreCorruptionError(
            TRUNCATED_COLUMN,
            store,
            name,
            detail=f"{size} bytes on disk, expected {_HEADER_SIZE + expected}",
        )


def _check_entry_digest(
    store: Path,
    mtime: int,
    entry: dict,
    *,
    use_cache: bool = True,
    fire_hook: bool = True,
) -> None:
    """Stream the column payload and compare against the manifest sha256.

    Reads through regular file I/O, never through a map, so a short
    file raises cleanly instead of delivering ``SIGBUS`` mid-study.
    Verified ``(store, generation, column)`` triples are memoized per
    process.
    """
    digest = entry.get("sha256")
    if digest is None:  # format-1 entry: nothing to verify against
        return
    name = entry["name"]
    key = (os.path.realpath(store), mtime, name)
    if use_cache and key in _VERIFIED:
        if _metrics is not None:
            _metrics.count("store.digest_memo_hits")
        return
    if fire_hook:
        _fire_io_fault("read", store)
    sha256 = hashlib.sha256()
    try:
        with open(store / entry["file"], "rb") as handle:
            handle.seek(_HEADER_SIZE)
            while True:
                block = handle.read(1 << 20)
                if not block:
                    break
                sha256.update(block)
    except FileNotFoundError:
        raise StoreCorruptionError(
            MISSING_COLUMN,
            store,
            name,
            detail=f"column file {entry['file']} is missing",
        ) from None
    if sha256.hexdigest() != digest:
        if _metrics is not None:
            _metrics.count("store.digest_failures")
        raise StoreCorruptionError(
            DIGEST_MISMATCH,
            store,
            name,
            detail="content digest does not match manifest sha256",
        )
    if _metrics is not None:
        _metrics.count("store.digest_verifications")
        _metrics.count("store.bytes_verified", int(entry.get("n_bytes", 0)))
    _VERIFIED.add(key)


def _load_npy(store: Path, entry: dict, n_rows: int, *, mmap: bool):
    """np.load with npy-header failures mapped into the taxonomy."""
    name = entry["name"]
    try:
        array = np.load(store / entry["file"], mmap_mode="r" if mmap else None)
    except FileNotFoundError:
        raise StoreCorruptionError(
            MISSING_COLUMN,
            store,
            name,
            detail=f"column file {entry['file']} is missing",
        ) from None
    except ValueError as error:
        raise StoreCorruptionError(
            HEADER_MISMATCH, store, name, detail=str(error)
        ) from None
    if array.ndim != 1 or len(array) != n_rows:
        raise StoreCorruptionError(
            HEADER_MISMATCH,
            store,
            name,
            detail=f"header shape {array.shape} for {n_rows} manifest rows",
        )
    return array


def _open_buffer(store: Path, mtime: int, entry: dict, n_rows: int):
    """The shared buffer (or lazy cell) for one column of a store."""
    verify = (
        _VERIFY_MODE != "off" and "sha256" in entry and n_rows > 0
    )
    key = (os.path.realpath(store), mtime, entry["name"], verify)
    buffer = _BUFFER_CACHE.get(key)
    if buffer is None:
        file = store / entry["file"]
        if entry["type"] == ColumnType.NUMERIC.value:
            if n_rows == 0:
                # zero-length arrays cannot memory-map; a resident empty
                # array is an exact stand-in
                buffer = np.load(file)
                buffer.setflags(write=False)
            elif verify:

                def loader(store=store, mtime=mtime, entry=entry, n_rows=n_rows):
                    _check_entry_shape(store, entry, n_rows)
                    _check_entry_digest(store, mtime, entry)
                    return _load_npy(store, entry, n_rows, mmap=True)

                buffer = _LazyBuffer(loader, n_rows)
            else:
                buffer = np.load(file, mmap_mode="r")
                buffer.setflags(write=False)
        else:
            dictionary = tuple(entry.get("dictionary", ()))

            def loader(
                store=store,
                mtime=mtime,
                entry=entry,
                dictionary=dictionary,
                n_rows=n_rows,
                verify=verify,
            ):
                if verify:
                    _check_entry_shape(store, entry, n_rows)
                    _check_entry_digest(store, mtime, entry)
                codes = _load_npy(store, entry, n_rows, mmap=bool(n_rows))
                return _decode_codes(codes, dictionary)

            buffer = _LazyBuffer(loader, n_rows)
        _BUFFER_CACHE[key] = buffer
    return buffer


def load_columnar(path: str | Path) -> Table:
    """Load a store written by :class:`ColumnarWriter`/:func:`save_columnar`.

    With streaming enabled the returned table is **file-backed**:
    numeric buffers are read-only memmaps, categorical buffers decode
    lazily, and pickling ships store paths instead of data.  Under
    :func:`table_streaming_disabled` every column materializes into an
    ordinary resident array instead (the eager reference behavior).

    Unless verification is off, the manifest's shape/byte-length claims
    are checked eagerly here; content digests are checked lazily on
    first materialization (``"lazy"``) or up front (``"eager"``).
    """
    path = Path(path)
    mtime, manifest = _read_manifest(path)
    schema = _schema_from_manifest(manifest)
    n_rows = int(manifest["n_rows"])
    if _STREAMING_ENABLED and _VERIFY_MODE != "off":
        for entry in manifest["columns"]:
            _check_entry_shape(path, entry, n_rows)
            if _VERIFY_MODE == "eager":
                _check_entry_digest(path, mtime, entry)
    columns: dict[str, Column] = {}
    for entry in manifest["columns"]:
        name = entry["name"]
        ctype = ColumnType(entry["type"])
        if not _STREAMING_ENABLED:
            columns[name] = _load_column_eager(path, entry)
            continue
        source = (str(path), name)
        buffer = _open_buffer(path, mtime, entry, n_rows)
        if isinstance(buffer, _LazyBuffer):
            columns[name] = Column.from_lazy(buffer, ctype, source=source)
        else:
            columns[name] = Column.from_buffer(buffer, ctype, source=source)
    return Table(schema, columns, n_rows=n_rows)


def _load_column_eager(store: Path, entry: dict) -> Column:
    """Reference load: fully resident, never mapped, no provenance."""
    ctype = ColumnType(entry["type"])
    raw = np.load(store / entry["file"])
    if ctype is ColumnType.NUMERIC:
        return Column.from_buffer(raw.astype(np.float64, copy=False), ctype)
    decoded = _decode_codes(raw, tuple(entry.get("dictionary", ())))
    return Column.from_buffer(decoded, ctype)


def _corruption_placeholder(error: StoreCorruptionError, n_rows: int) -> _LazyBuffer:
    """A lazy cell that re-raises ``error`` on every materialization.

    Installed by :func:`attach_source` when the store is already
    corrupt at unpickle time (e.g. a torn manifest): the worker must
    not die in the pool initializer — the unit that touches the data
    fails instead, which is what routes the error into the supervisor's
    recovery ladder.
    """

    def loader():
        raise error

    return _LazyBuffer(loader, n_rows)


def attach_source(
    column: Column, source: tuple[str, str], n_rows: int | None = None
) -> None:
    """Re-bind an unpickled file-backed column to its local store.

    Called from ``Column.__setstate__``: the pickle carried only
    ``(store directory, column name)`` plus view indices and the base
    row count, so the receiving process opens (or re-uses, via the
    process-wide cache) the memmap/lazy cell itself.  When the store is
    corrupt and ``n_rows`` is known, a placeholder cell defers the
    :class:`StoreCorruptionError` to first materialization.
    """
    store = Path(source[0])
    try:
        mtime, manifest = _read_manifest(store)
        entries = {entry["name"]: entry for entry in manifest["columns"]}
        entry = entries.get(source[1])
        if entry is None:
            raise StoreCorruptionError(
                MISSING_COLUMN,
                store,
                source[1],
                detail="column is not in the store manifest",
            )
    except StoreCorruptionError as error:
        if n_rows is None:
            raise
        column._buffer = None
        column._lazy = _corruption_placeholder(error, n_rows)
        column._source = source
        return
    buffer = _open_buffer(store, mtime, entry, int(manifest["n_rows"]))
    if isinstance(buffer, _LazyBuffer):
        column._buffer = None
        column._lazy = buffer
    else:
        column._buffer = buffer
        column._lazy = None
    column._source = source


# -- recovery ---------------------------------------------------------------


@dataclass(frozen=True)
class StoreSource:
    """How to regenerate a store: a rebuild closure and/or an eager load.

    ``rebuild(path)`` rewrites the store directory from the recorded
    origin (re-spill from CSV, re-save from a resident table) under a
    bumped generation; ``eager()`` returns the fully-resident table for
    the degrade rung of the recovery ladder.
    """

    rebuild: Callable[[Path], None] | None = None
    eager: Callable[[], Table] | None = None


#: store realpath -> in-process recovery source (registered at spill time)
_STORE_SOURCES: dict[str, StoreSource] = {}


def register_store_source(
    path: str | Path,
    *,
    rebuild: Callable[[Path], None] | None = None,
    eager: Callable[[], Table] | None = None,
) -> None:
    """Record how the store at ``path`` can be regenerated after corruption."""
    _STORE_SOURCES[os.path.realpath(path)] = StoreSource(rebuild=rebuild, eager=eager)


def store_source(path: str | Path) -> StoreSource | None:
    """The recovery source for a store, if any.

    In-process registrations (``register_store_source``) win; otherwise
    a ``source`` record in the manifest (written by
    ``read_csv(..., spill=...)``) yields a CSV re-spill source that
    works across processes and sessions.
    """
    real = os.path.realpath(path)
    registered = _STORE_SOURCES.get(real)
    if registered is not None:
        return registered
    try:
        _, manifest = _read_manifest(Path(path))
    except StoreCorruptionError:
        return None
    spec = manifest.get("source")
    if (
        isinstance(spec, dict)
        and spec.get("kind") == "csv"
        and os.path.exists(str(spec.get("path", "")))
    ):
        csv_path = str(spec["path"])
        chunk_rows = spec.get("chunk_rows")

        def rebuild(target: Path, csv_path=csv_path, chunk_rows=chunk_rows) -> None:
            from .io import read_csv

            read_csv(csv_path, chunk_rows=chunk_rows, spill=target)

        def eager(csv_path=csv_path, chunk_rows=chunk_rows) -> Table:
            from .io import read_csv

            with table_streaming_disabled():
                return read_csv(csv_path, chunk_rows=chunk_rows)

        return StoreSource(rebuild=rebuild, eager=eager)
    return None


def diagnose_store(path: str | Path) -> StoreCorruptionError | None:
    """Full eager integrity check; the error found, or ``None`` if clean.

    Re-hashes every column (ignoring the per-process verified memo) so
    a just-rebuilt store is genuinely re-checked, and skips the
    injected-fault hook — the doctor must not catch the disease.
    """
    path = Path(path)
    try:
        mtime, manifest = _read_manifest(path)
        n_rows = int(manifest["n_rows"])
        for entry in manifest["columns"]:
            _check_entry_shape(path, entry, n_rows)
            _check_entry_digest(
                path, mtime, entry, use_cache=False, fire_hook=False
            )
    except StoreCorruptionError as error:
        return error
    return None


def recover_store(path: str | Path) -> tuple[str, Table | None]:
    """Heal a corrupt store; ``(action, eager_table_or_None)``.

    The ladder (each rung only if the previous is unavailable/failed):

    * ``"clean"`` — re-diagnosis found nothing wrong (a sibling unit's
      recovery already healed it); retry as-is.
    * ``"rebuilt"`` — the recorded source re-wrote the store under a
      new generation and it now verifies end to end.
    * ``"degraded"`` — rebuild unavailable or failed; the returned
      fully-resident table replaces the mapped one.
    * ``"unrecoverable"`` — no source; the caller falls through to the
      supervisor's quarantine machinery.
    """
    path = Path(path)
    if diagnose_store(path) is None:
        return ("clean", None)
    source = store_source(path)
    if source is None:
        return ("unrecoverable", None)
    if source.rebuild is not None:
        try:
            source.rebuild(path)
        except (OSError, StoreCorruptionError, ValueError):
            pass
        else:
            if diagnose_store(path) is None:
                return ("rebuilt", None)
    if source.eager is not None:
        try:
            return ("degraded", source.eager())
        except (OSError, StoreCorruptionError, ValueError):
            pass
    return ("unrecoverable", None)


def table_store_path(table: Table) -> str | None:
    """The store directory backing ``table``'s columns, if file-backed."""
    for name in table.schema.names:
        source = table.column(name)._source
        if source is not None:
            return source[0]
    return None
