"""Storage-integrity layer (ISSUE 9).

Four layers of pinning.  The format classes assert the v2 on-disk
mechanics directly: streamed sha256 digests and byte lengths in the
manifest, generation stamps that bump on rewrite, v1 stores refused as
version skew, and the full
:class:`StoreCorruptionError` taxonomy — one kind per way a store can
rot.  The writer class pins the failed-spill cleanup contract
(satellite: no mappable-looking corpse after an exception, including an
injected ``ENOSPC``).  The recovery classes pin the ladder at the unit
level (clean → rebuilt → unrecoverable, generation-skew cache
re-opening) and the I/O-fault draw discipline.  The chaos class pins
the system contract: under every injected disk fault × (n_jobs 1/2) ×
(split/cell), persisted study JSON is byte-identical to the fault-free
run on the resident dataset, with corruption healed through the
supervisor (retry, rebuild) or quarantined as failure-manifest entries
that a fault-free resume completes.
"""

import json
import pickle

import numpy as np
import pytest

from repro.cleaning import OUTLIERS, OutlierCleaning
from repro.core import (
    CleanMLStudy,
    StudyConfig,
    load_checkpoint_state,
    save_experiments,
)
from repro.core import faults
from repro.core.faults import (
    BIT_FLIP,
    EIO,
    ENOSPC,
    MANIFEST_CORRUPT,
    TORN_COLUMN,
    FaultPlan,
    corrupt_store,
)
from repro.core.supervisor import SupervisorConfig
from repro.datasets import load_dataset
from repro.table import (
    ColumnarWriter,
    StoreCorruptionError,
    Table,
    diagnose_store,
    load_columnar,
    make_schema,
    recover_store,
    register_store_source,
    save_columnar,
    spill_table,
    store_info,
    store_verification,
)
from repro.table import store as store_mod
from repro.table.store import attach_source


@pytest.fixture
def table():
    schema = make_schema(
        numeric=["age", "income"],
        categorical=["city"],
        label="y",
        keys=("city",),
    )
    return Table.from_dict(
        schema,
        {
            "age": [25.5, None, 40.0, 33.0, 29.0],
            "income": [1000.0, 2000.0, None, 1500.0, 900.0],
            "city": ["NY", None, "SF", "NY", "LA"],
            "y": ["yes", "no", "yes", "no", "yes"],
        },
    )


def _downgrade_to_v1(store):
    """Rewrite a v2 manifest as the format-1 layout (no integrity metadata)."""
    manifest_path = store / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["format"] = 1
    manifest.pop("generation", None)
    manifest.pop("source", None)
    for entry in manifest["columns"]:
        entry.pop("sha256", None)
        entry.pop("n_bytes", None)
    manifest_path.write_text(json.dumps(manifest, indent=1))


class TestFormatV2:
    def test_manifest_carries_digests_lengths_generation(self, tmp_path, table):
        save_columnar(table, tmp_path / "t", chunk_rows=2)
        manifest = json.loads((tmp_path / "t" / "manifest.json").read_text())
        assert manifest["format"] == 2
        assert manifest["generation"] == 1
        for entry in manifest["columns"]:
            assert len(entry["sha256"]) == 64
            itemsize = 8 if entry["type"] == "numeric" else 4
            assert entry["n_bytes"] == table.n_rows * itemsize

    def test_round_trip_verified(self, tmp_path, table):
        save_columnar(table, tmp_path / "t", chunk_rows=2)
        assert store_info(tmp_path / "t")["format"] == 2
        loaded = load_columnar(tmp_path / "t")
        assert loaded == table
        assert diagnose_store(tmp_path / "t") is None

    def test_rewrite_bumps_generation(self, tmp_path, table):
        save_columnar(table, tmp_path / "t")
        save_columnar(table, tmp_path / "t")
        assert store_info(tmp_path / "t")["generation"] == 2
        assert load_columnar(tmp_path / "t") == table

    def test_v1_store_loads_flagged_unverifiable(self, tmp_path, table):
        """Format-1 stores (no digests) are refused, not loaded unverified."""
        save_columnar(table, tmp_path / "t")
        _downgrade_to_v1(tmp_path / "t")
        for read in (store_info, load_columnar):
            with pytest.raises(StoreCorruptionError) as info:
                read(tmp_path / "t")
            assert info.value.kind == "version_skew"

    def test_digest_streams_match_offline_hash(self, tmp_path, table):
        import hashlib

        save_columnar(table, tmp_path / "t", chunk_rows=2)
        manifest = json.loads((tmp_path / "t" / "manifest.json").read_text())
        for entry in manifest["columns"]:
            payload = (tmp_path / "t" / entry["file"]).read_bytes()[128:]
            assert hashlib.sha256(payload).hexdigest() == entry["sha256"]

    def test_zero_row_store_verifies(self, tmp_path, table):
        empty = table.take([])
        save_columnar(empty, tmp_path / "empty")
        assert diagnose_store(tmp_path / "empty") is None
        assert load_columnar(tmp_path / "empty").n_rows == 0


class TestCorruptionTaxonomy:
    def _store(self, tmp_path, table):
        save_columnar(table, tmp_path / "t", chunk_rows=2)
        return tmp_path / "t"

    def test_torn_column_raises_eagerly(self, tmp_path, table):
        store = self._store(tmp_path, table)
        corrupt_store(store, TORN_COLUMN)
        with pytest.raises(StoreCorruptionError) as info:
            load_columnar(store)
        assert info.value.kind == "truncated_column"
        assert info.value.store == str(store)
        assert info.value.column == "age"

    def test_bit_flip_raises_on_first_materialization(self, tmp_path, table):
        store = self._store(tmp_path, table)
        corrupt_store(store, BIT_FLIP)
        loaded = load_columnar(store)  # shape/length still consistent
        with pytest.raises(StoreCorruptionError) as info:
            loaded.column("age").values
        assert info.value.kind == "digest_mismatch"

    def test_bit_flip_caught_up_front_in_eager_mode(self, tmp_path, table):
        store = self._store(tmp_path, table)
        corrupt_store(store, BIT_FLIP)
        with store_verification("eager"):
            with pytest.raises(StoreCorruptionError) as info:
                load_columnar(store)
        assert info.value.kind == "digest_mismatch"

    def test_bit_flip_invisible_on_reference_path(self, tmp_path, table):
        store = self._store(tmp_path, table)
        corrupt_store(store, BIT_FLIP)
        with store_verification("off"):
            loaded = load_columnar(store)
            loaded.column("age").values  # the unverified path cannot see it

    def test_manifest_corrupt_raises_torn_manifest(self, tmp_path, table):
        store = self._store(tmp_path, table)
        corrupt_store(store, MANIFEST_CORRUPT)
        with pytest.raises(StoreCorruptionError) as info:
            load_columnar(store)
        assert info.value.kind == "torn_manifest"

    def test_missing_column_file(self, tmp_path, table):
        store = self._store(tmp_path, table)
        (store / "col_00000.npy").unlink()
        with pytest.raises(StoreCorruptionError) as info:
            load_columnar(store)
        assert info.value.kind == "missing_column"
        assert info.value.column == "age"

    def test_missing_manifest(self, tmp_path, table):
        store = self._store(tmp_path, table)
        (store / "manifest.json").unlink()
        with pytest.raises(StoreCorruptionError) as info:
            load_columnar(store)
        assert info.value.kind == "missing_manifest"

    def test_version_skew(self, tmp_path, table):
        store = self._store(tmp_path, table)
        manifest = json.loads((store / "manifest.json").read_text())
        manifest["format"] = 99
        (store / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(StoreCorruptionError) as info:
            load_columnar(store)
        assert info.value.kind == "version_skew"

    def test_unknown_column_name_on_attach(self, tmp_path, table):
        from repro.table import Column, ColumnType

        store = self._store(tmp_path, table)
        column = Column([1.0], ColumnType.NUMERIC)
        with pytest.raises(StoreCorruptionError) as info:
            attach_source(column, (str(store), "no_such_column"))
        assert info.value.kind == "missing_column"

    def test_corrupt_at_unpickle_defers_to_materialization(self, tmp_path, table):
        store = self._store(tmp_path, table)
        loaded = load_columnar(store)
        payload = pickle.dumps(loaded)
        corrupt_store(store, MANIFEST_CORRUPT)
        reopened = pickle.loads(payload)  # must not raise (pool initializer)
        with pytest.raises(StoreCorruptionError) as info:
            reopened.column("age").values
        assert info.value.kind == "torn_manifest"

    def test_error_pickles_losslessly(self, tmp_path, table):
        error = StoreCorruptionError("digest_mismatch", tmp_path, "age", "boom")
        clone = pickle.loads(pickle.dumps(error))
        assert clone.kind == error.kind
        assert clone.store == error.store
        assert clone.column == "age"
        assert clone.detail == "boom"


class TestWriterCleanup:
    def test_exception_removes_created_store(self, tmp_path, table):
        target = tmp_path / "spill"
        with pytest.raises(RuntimeError, match="mid-write"):
            with ColumnarWriter(target, table.schema) as writer:
                writer.append(table.take([0, 1]))
                raise RuntimeError("mid-write")
        assert not target.exists()

    def test_injected_enospc_removes_created_store(self, tmp_path, table):
        faults.install_plan(FaultPlan(enospc_rate=1.0, io_faulty_attempts=1))
        try:
            with pytest.raises(OSError, match="ENOSPC"):
                save_columnar(table, tmp_path / "spill")
        finally:
            faults.clear_plan()
        assert not (tmp_path / "spill").exists()

    def test_exception_over_existing_store_leaves_no_partial_columns(
        self, tmp_path, table
    ):
        target = tmp_path / "spill"
        save_columnar(table, target)
        with pytest.raises(RuntimeError):
            with ColumnarWriter(target, table.schema) as writer:
                writer.append(table.take([0]))
                raise RuntimeError("rebuild died")
        # the directory (not ours) and old manifest survive, but the
        # half-written columns are gone — diagnosis says so explicitly
        assert target.exists()
        assert (target / "manifest.json").exists()
        problem = diagnose_store(target)
        assert problem is not None and problem.kind == "missing_column"

    def test_clean_exit_without_finalize_keeps_files(self, tmp_path, table):
        target = tmp_path / "spill"
        with ColumnarWriter(target, table.schema) as writer:
            writer.append(table.take([0, 1]))
        # no exception, no finalize: handles closed, files kept (the
        # historical contract for callers that finalize separately)
        assert (target / "col_00000.npy").exists()


class TestRecoveryLadder:
    def _spilled(self, tmp_path, table):
        store = tmp_path / "t"
        save_columnar(table, store, chunk_rows=2)
        return store

    def test_clean_store_short_circuits(self, tmp_path, table):
        store = self._spilled(tmp_path, table)
        assert recover_store(store) == "clean"

    def test_rebuild_from_registered_source(self, tmp_path, table):
        store = self._spilled(tmp_path, table)
        register_store_source(
            store, rebuild=lambda target: save_columnar(table, target, 2)
        )
        corrupt_store(store, TORN_COLUMN)
        assert recover_store(store) == "rebuilt"
        assert diagnose_store(store) is None
        assert store_info(store)["generation"] == 2
        assert load_columnar(store) == table

    def test_degrade_when_no_rebuild(self, tmp_path, table):
        """No rebuild source: nothing to fall back to, the store stays corrupt."""
        store = self._spilled(tmp_path, table)
        corrupt_store(store, BIT_FLIP)
        assert recover_store(store) == "unrecoverable"
        assert diagnose_store(store).kind == "digest_mismatch"

    def test_degrade_when_rebuild_keeps_failing(self, tmp_path, table):
        """A failing rebuild leaves the unit to the supervisor's retries."""

        def broken_rebuild(target):
            raise OSError(28, "injected ENOSPC")

        store = self._spilled(tmp_path, table)
        register_store_source(store, rebuild=broken_rebuild)
        corrupt_store(store, TORN_COLUMN)
        assert recover_store(store) == "unrecoverable"
        assert recover_store(store) == "unrecoverable"
        assert diagnose_store(store) is not None

    def test_transient_write_fault_heals_on_second_recovery(self, tmp_path, table):
        store = self._spilled(tmp_path, table)
        register_store_source(
            store, rebuild=lambda target: save_columnar(table, target, 2)
        )
        corrupt_store(store, TORN_COLUMN)
        faults.install_plan(FaultPlan(enospc_rate=1.0, io_faulty_attempts=1))
        try:
            # first rung attempt: the rebuild write hits the injected
            # ENOSPC and the ladder bottoms out
            assert recover_store(store) == "unrecoverable"
            # the supervisor retries the unit; its next recovery's
            # rebuild is past the transient fault and succeeds
            assert recover_store(store) == "rebuilt"
        finally:
            faults.clear_plan()
        assert load_columnar(store) == table

    @pytest.mark.parametrize("source_fault", ("intact", "torn_then_healed", "torn"))
    def test_respilled_dataset_rebuilds_its_own_store(self, tmp_path, source_fault):
        """A twice-spilled copy rebuilds; a torn source is healed before it is read."""
        sensor = load_dataset("Sensor", seed=0, n_rows=90)
        sensor.spilled(tmp_path / "a").spilled(tmp_path / "b")
        source, copy = tmp_path / "a" / "dirty", tmp_path / "b" / "dirty"
        if source_fault != "intact":
            corrupt_store(source, TORN_COLUMN)
        if source_fault == "torn_then_healed":
            assert recover_store(source) == "rebuilt"
        corrupt_store(copy, TORN_COLUMN)
        assert recover_store(copy) == "rebuilt"
        assert diagnose_store(source) is None
        assert load_columnar(source) == sensor.dirty
        assert load_columnar(copy) == sensor.dirty

    def test_respilled_rebuild_fails_while_source_is_unrecoverable(self, tmp_path):
        sensor = load_dataset("Sensor", seed=0, n_rows=90)
        sensor.spilled(tmp_path / "a").spilled(tmp_path / "b")
        source, copy = tmp_path / "a" / "dirty", tmp_path / "b" / "dirty"
        store_mod._STORE_SOURCES.pop(str(source.resolve()), None)
        corrupt_store(source, TORN_COLUMN)
        corrupt_store(copy, TORN_COLUMN)
        assert recover_store(copy) == "unrecoverable"

    def test_unrecoverable_without_source(self, tmp_path, table):
        store = self._spilled(tmp_path, table)
        corrupt_store(store, TORN_COLUMN)
        assert recover_store(store) == "unrecoverable"

    def test_csv_manifest_source_rebuilds_cross_process(self, tmp_path, table):
        from repro.table import read_csv, write_csv

        csv_path = tmp_path / "data.csv"
        write_csv(table, csv_path)
        store = tmp_path / "spill"
        loaded = read_csv(csv_path, chunk_rows=2, spill=store)
        assert loaded == table
        corrupt_store(store, BIT_FLIP)
        # no in-process registration for this store: wipe the registry
        # to prove the manifest's recorded CSV source alone suffices
        store_mod._STORE_SOURCES.pop(str(store.resolve()), None)
        assert recover_store(store) == "rebuilt"
        assert load_columnar(store) == table


class TestGenerationSkew:
    """Satellite: mtime-keyed caches must re-open rewritten stores."""

    def test_caches_reopen_new_generation_not_stale_buffers(self, tmp_path, table):
        store = tmp_path / "t"
        first = spill_table(table, store, chunk_rows=2)
        assert list(first.column("age").values[:1]) == [25.5]  # maps gen 1

        mutated = Table.from_dict(
            table.schema,
            {
                "age": [99.0, 1.0, 2.0, 3.0, 4.0],
                "income": [9.0, 8.0, 7.0, 6.0, 5.0],
                "city": ["LA", "LA", "LA", "NY", "SF"],
                "y": ["no", "no", "no", "yes", "yes"],
            },
        )
        save_columnar(mutated, store, chunk_rows=2)  # generation 2
        assert store_info(store)["generation"] == 2

        second = load_columnar(store)
        assert list(second.column("age").values) == [99.0, 1.0, 2.0, 3.0, 4.0]
        assert list(second.column("city").values)[:3] == ["LA", "LA", "LA"]
        # the generation-1 table keeps serving its own (already
        # materialized) buffers; nothing aliases across generations
        assert list(first.column("age").values[:1]) == [25.5]

    def test_unpickle_after_rewrite_attaches_new_generation(self, tmp_path, table):
        store = tmp_path / "t"
        loaded = spill_table(table, store, chunk_rows=2)
        payload = pickle.dumps(loaded)
        save_columnar(table, store, chunk_rows=3)  # same data, new generation
        reopened = pickle.loads(payload)
        assert reopened == table  # fresh manifest mtime -> fresh cells


class TestIOFaultPlan:
    def test_decide_io_is_deterministic_and_capped(self):
        plan = FaultPlan(seed=3, enospc_rate=1.0, eio_rate=1.0, io_faulty_attempts=2)
        assert plan.decide_io("write", "d/s", 0) == ENOSPC
        assert plan.decide_io("read", "d/s", 1) == EIO
        assert plan.decide_io("write", "d/s", 2) is None  # past faulty attempts
        quiet = FaultPlan(seed=3)
        assert quiet.decide_io("write", "d/s", 0) is None

    def test_partial_rate_draws_match_derive_seed_discipline(self):
        import random

        from repro.core.runner import derive_seed

        plan = FaultPlan(seed=9, eio_rate=0.5, io_faulty_attempts=1)
        for key in ("a/dirty", "a/clean", "b/dirty"):
            draw = random.Random(
                derive_seed(9, "chaos-io", "read", key, 0)
            ).random()
            expected = EIO if draw < 0.5 else None
            assert plan.decide_io("read", key, 0) == expected

    def test_injected_eio_fires_once_per_store_then_passes(self, tmp_path, table):
        store = tmp_path / "t"
        save_columnar(table, store)
        faults.install_plan(FaultPlan(eio_rate=1.0, io_faulty_attempts=1))
        try:
            loaded = load_columnar(store)
            with pytest.raises(OSError, match="EIO"):
                loaded.column("age").values
            # the lazy cell keeps its loader on failure: the retry
            # re-reads, and the second access is past the fault window
            assert loaded.column("age").values[0] == 25.5
        finally:
            faults.clear_plan()


# -- chaos-storage matrix ---------------------------------------------------

CHAOS_CONFIG = StudyConfig(
    n_splits=2,
    cv_folds=2,
    models=("naive_bayes",),
    seed=11,
)


def chaos_sensor(*spill_dirs):
    """The chaos dataset, spilled once into each directory in turn."""
    sensor = load_dataset("Sensor", seed=0, n_rows=90)
    for directory in spill_dirs:
        sensor = sensor.spilled(directory)
    return sensor


def make_chaos_study(spill_root=None, *, sensor=None):
    study = CleanMLStudy(CHAOS_CONFIG)
    if sensor is None:
        sensor = chaos_sensor(*([spill_root / "sensor"] if spill_root else []))
    study.add(sensor, OUTLIERS, methods=[OutlierCleaning("SD", "mean")])
    return study


def persisted_bytes(study, tmp_path, label):
    path = tmp_path / f"{label}.json"
    save_experiments(study.raw_experiments, path)
    return path.read_bytes()


@pytest.fixture(scope="module")
def chaos_reference(tmp_path_factory):
    """The fault-free run on the resident dataset every chaos arm must match."""
    study = make_chaos_study()
    study.run(n_jobs=1, granularity="split")
    tmp_path = tmp_path_factory.mktemp("chaos-reference")
    return persisted_bytes(study, tmp_path, "reference")


#: disk-fault arms: static corruption applied post-spill, and/or an
#: injected I/O-error plan armed for the run
CHAOS_ARMS = {
    "torn_column": (TORN_COLUMN, None),
    "bit_flip": (BIT_FLIP, None),
    "manifest_corrupt": (MANIFEST_CORRUPT, None),
    # ENOSPC: corruption plus a write fault — the first rebuild dies
    # mid-write (exercising the writer's abort cleanup), the supervisor
    # retries the unit, and the next recovery's rebuild succeeds
    "enospc": (TORN_COLUMN, FaultPlan(enospc_rate=1.0, io_faulty_attempts=1)),
    # transient EIO: no corruption; the first digest-verification read
    # in each process raises and the plain supervisor retry heals it
    "eio": (None, FaultPlan(eio_rate=1.0, io_faulty_attempts=1)),
}


class TestChaosStorageMatrix:
    """Byte-identical persisted JSON under every disk fault, full matrix."""

    @pytest.mark.parametrize("granularity", ("split", "cell"))
    @pytest.mark.parametrize("n_jobs", (1, 2))
    @pytest.mark.parametrize("fault", sorted(CHAOS_ARMS))
    def test_faulted_run_matches_reference(
        self, fault, n_jobs, granularity, chaos_reference, tmp_path
    ):
        corruption, plan = CHAOS_ARMS[fault]
        study = make_chaos_study(spill_root=tmp_path)
        if corruption is not None:
            corrupt_store(tmp_path / "sensor" / "dirty", corruption)
        supervisor = SupervisorConfig(
            max_retries=6, backoff_base=0.0, fault_plan=plan
        )
        study.run(n_jobs=n_jobs, granularity=granularity, supervisor=supervisor)
        assert study.failure_manifest.failures == []  # healed, not quarantined
        label = f"{fault}-{granularity}-{n_jobs}"
        assert persisted_bytes(study, tmp_path, label) == chaos_reference

    def test_bit_flip_heals_by_rebuild(self, chaos_reference, tmp_path):
        study = make_chaos_study(spill_root=tmp_path)
        corrupt_store(tmp_path / "sensor" / "dirty", BIT_FLIP)
        study.run(
            n_jobs=1,
            granularity="split",
            supervisor=SupervisorConfig(max_retries=6, backoff_base=0.0),
        )
        assert study.failure_manifest.stats.get("store_rebuilds", 0) >= 1
        assert store_info(tmp_path / "sensor" / "dirty")["generation"] == 2
        assert persisted_bytes(study, tmp_path, "rebuilt") == chaos_reference

    @pytest.mark.parametrize("n_jobs", (1, 2))
    def test_enospc_heals_by_rebuild(self, n_jobs, chaos_reference, tmp_path):
        study = make_chaos_study(spill_root=tmp_path)
        corrupt_store(tmp_path / "sensor" / "dirty", TORN_COLUMN)
        plan = FaultPlan(enospc_rate=1.0, io_faulty_attempts=1)
        study.run(
            n_jobs=n_jobs,
            granularity="cell",
            supervisor=SupervisorConfig(
                max_retries=6, backoff_base=0.0, fault_plan=plan
            ),
        )
        manifest = study.failure_manifest
        assert manifest.failures == []
        assert manifest.stats.get("store_unrecoverable", 0) >= 1  # rebuild 1 died
        assert manifest.stats.get("store_rebuilds", 0) >= 1
        assert persisted_bytes(study, tmp_path, "enospc") == chaos_reference

    @pytest.mark.parametrize("n_jobs", (1, 2))
    def test_respilled_dataset_heals_by_rebuild(
        self, n_jobs, chaos_reference, tmp_path
    ):
        sensor = chaos_sensor(tmp_path / "a", tmp_path / "b")
        corrupt_store(tmp_path / "b" / "dirty", TORN_COLUMN)
        study = make_chaos_study(sensor=sensor)
        study.run(
            n_jobs=n_jobs,
            granularity="cell",
            supervisor=SupervisorConfig(max_retries=6, backoff_base=0.0),
        )
        assert study.failure_manifest.failures == []
        assert study.failure_manifest.stats.get("store_rebuilds", 0) >= 1
        assert persisted_bytes(study, tmp_path, "respilled") == chaos_reference

    def test_persistent_enospc_quarantines_then_resumes(
        self, chaos_reference, tmp_path
    ):
        sensor = chaos_sensor(tmp_path / "sensor")
        corrupt_store(tmp_path / "sensor" / "dirty", TORN_COLUMN)
        ledger = tmp_path / "ledger.jsonl"
        # the disk stays full: every rebuild dies, so the units exhaust
        # their retries and are quarantined
        study = make_chaos_study(sensor=sensor)
        study.run(
            n_jobs=1,
            granularity="split",
            checkpoint=ledger,
            supervisor=SupervisorConfig(
                max_retries=2,
                backoff_base=0.0,
                quarantine=True,
                fault_plan=FaultPlan(enospc_rate=1.0, io_faulty_attempts=1_000_000),
            ),
        )
        manifest = study.failure_manifest
        assert manifest.stats.get("store_unrecoverable", 0) >= 1
        assert manifest.stats.get("store_rebuilds", 0) == 0
        assert manifest.failures
        assert ("Sensor", OUTLIERS) in manifest.dropped_blocks
        assert study.raw_experiments == []
        _, _, failed = load_checkpoint_state(ledger)
        assert set(failed) == {failure.key for failure in manifest.failures}
        # space frees up: the resume re-attempts the quarantined units,
        # rebuilds the store, and lands on the reference bytes
        resumed = make_chaos_study(sensor=sensor)
        resumed.run(
            n_jobs=1,
            granularity="split",
            checkpoint=ledger,
            supervisor=SupervisorConfig(
                max_retries=6, backoff_base=0.0, quarantine=True
            ),
        )
        assert resumed.failure_manifest.failures == []
        assert resumed.failure_manifest.stats.get("store_rebuilds", 0) >= 1
        assert persisted_bytes(resumed, tmp_path, "resumed") == chaos_reference

    def test_unrecoverable_corruption_quarantines(self, tmp_path):
        study = make_chaos_study(spill_root=tmp_path)
        store = tmp_path / "sensor" / "dirty"
        corrupt_store(store, TORN_COLUMN)
        # wipe the spill-time registration: no source, nothing to heal from
        store_mod._STORE_SOURCES.pop(str(store.resolve()), None)
        ledger = tmp_path / "ledger.jsonl"
        study.run(
            n_jobs=1,
            granularity="split",
            checkpoint=ledger,
            supervisor=SupervisorConfig(
                max_retries=1, backoff_base=0.0, quarantine=True
            ),
        )
        manifest = study.failure_manifest
        assert manifest.stats.get("store_unrecoverable", 0) >= 1
        assert manifest.failures  # quarantined units recorded
        assert ("Sensor", OUTLIERS) in manifest.dropped_blocks
        assert study.raw_experiments == []
        ledger_text = ledger.read_text()
        assert '"failed"' in ledger_text  # format-4 failure entries banked

    def test_verification_off_matches_reference(self, chaos_reference, tmp_path):
        with store_verification("off"):
            study = make_chaos_study(spill_root=tmp_path)
            study.run(n_jobs=1, granularity="split")
        assert persisted_bytes(study, tmp_path, "unverified") == chaos_reference
