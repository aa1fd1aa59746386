"""Determinism stress suite for the two-level scheduler.

The executor's contract extends to sub-split scheduling: every
``(n_jobs, granularity)`` pair must produce **byte-identical** persisted
JSON — cell sub-units derive their seeds from structural keys (split
index, method name, model name), never execution order, and the cell
reducer sorts by (split, method, model) before accumulating.  These
tests pin that contract across the full matrix, pin the sub-unit seed
enumeration against collisions (mirroring the split-level pin), prove
the per-workspace state — the ``DetectionCache`` and the method
record — cannot change results whether a split's cells run batched in
one worker or scattered across many, pin that a workspace frees each
method's record when the next method's cell arrives, and pin
the worker workspace registry's LRU eviction and build counter.
"""

import gc
import hashlib
import weakref

import pytest

from repro.cleaning import (
    DUPLICATES,
    MISSING_VALUES,
    OUTLIERS,
    ImputationCleaning,
    KeyCollisionCleaning,
    OutlierCleaning,
)
from repro.core import (
    CleanMLStudy,
    ErrorTypeRun,
    SplitWorkspace,
    StudyConfig,
    executor,
    merge_cell_results,
    observing,
    save_experiments,
)
from repro.core import runner
from repro.core.runner import EncodedTable, derive_seed
from repro.datasets import load_dataset

N_JOBS = (1, 2, 4)
GRANULARITIES = ("split", "cell")

FAST = StudyConfig(
    n_splits=2,
    cv_folds=2,
    models=("logistic_regression", "naive_bayes"),
    seed=7,
)

SEARCHED = StudyConfig(
    n_splits=2,
    cv_folds=3,
    search_iters=2,
    models=("knn", "naive_bayes"),
    seed=7,
)


#: two small blocks: a two-method outlier grid and an imputation
BLOCKS = (
    ("Sensor", OUTLIERS, [OutlierCleaning("SD"), OutlierCleaning("IQR")]),
    ("Titanic", MISSING_VALUES, [ImputationCleaning("mean", "mode")]),
)

#: arm -> (config, blocks, sha256 of the persisted JSON).  The digests
#: were recorded with the dedicated whole-split runner that preceded
#: the split's rebuild on ``SplitWorkspace`` cells, so a change that moves a
#: byte fails even when split and cell drift together.  Beyond the plain
#: blocks the arms cover methods sharing a (detection, repair) label,
#: BD-only missing values, row-dropping duplicates, searched cells, and a
#: block with no methods at all.
GOLDEN = {
    "plain": (FAST, BLOCKS,
              "511e3b68e8ffae77ed2503168c1c0c0dcbb8eb6123e5c97b357ca1529183352e"),
    "shared_label": (FAST, [("Sensor", OUTLIERS, [
        OutlierCleaning("IF", "mean", random_state=1),
        OutlierCleaning("SD", "median"),
        OutlierCleaning("IF", "mean", random_state=2),
    ])], "6c71f642996d76e5370430667ce1ea3fb44d949160787585ae3c7ac0f0c06d44"),
    "missing_values": (FAST, [("Titanic", MISSING_VALUES, [
        ImputationCleaning("mean", "mode"),
        ImputationCleaning("median", "dummy"),
    ])], "061591a14b9e6fbfbdfe090da301c2a508a5b47d7f768d2a415179510c7ff805"),
    "duplicates": (FAST, [("Restaurant", DUPLICATES, [KeyCollisionCleaning()])],
                   "1fc453b169f60a83c4d87fa508ffc10556bad77a677c8448dee17074747e7474"),
    "searched": (SEARCHED, BLOCKS,
                 "9aa2ccf0a1745eb496be937065e42af996487a908b14df99b56e2229afedd9c6"),
    "no_methods": (FAST, [("Sensor", OUTLIERS, [])],
                   "6da37b4ee745aa16eab64e2376c7173835b50bf572bbaadab610d47b45001fdd"),
}


def make_study(config=FAST, blocks=BLOCKS):
    study = CleanMLStudy(config)
    for name, error_type, methods in blocks:
        study.add(load_dataset(name, seed=0, n_rows=140), error_type, methods=methods)
    return study


def persisted_bytes(study, tmp_path, label):
    path = tmp_path / f"{label}.json"
    save_experiments(study.raw_experiments, path)
    return path.read_bytes()


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """The n_jobs=1, granularity=split run everything is pinned against."""
    study = make_study()
    study.run(n_jobs=1, granularity="split")
    tmp_path = tmp_path_factory.mktemp("reference")
    return persisted_bytes(study, tmp_path, "reference"), study.raw_experiments


class TestDeterminismMatrix:
    """Byte-identical output at every (n_jobs, granularity) combination."""

    @pytest.mark.parametrize("granularity", GRANULARITIES)
    @pytest.mark.parametrize("n_jobs", N_JOBS)
    def test_persisted_json_is_byte_identical(
        self, n_jobs, granularity, reference, tmp_path
    ):
        study = make_study()
        study.run(n_jobs=n_jobs, granularity=granularity)
        assert study.raw_experiments == reference[1]
        label = f"{granularity}-{n_jobs}"
        assert persisted_bytes(study, tmp_path, label) == reference[0]

    @pytest.mark.parametrize("granularity", GRANULARITIES)
    @pytest.mark.parametrize("n_jobs", (1, 2))
    @pytest.mark.parametrize("arm", sorted(GOLDEN))
    def test_persisted_json_matches_golden_digest(
        self, arm, n_jobs, granularity, tmp_path
    ):
        config, blocks, digest = GOLDEN[arm]
        study = make_study(config, blocks)
        study.run(n_jobs=n_jobs, granularity=granularity)
        produced = persisted_bytes(study, tmp_path, arm)
        assert hashlib.sha256(produced).hexdigest() == digest

    def test_granularity_never_affects_equality_or_fingerprint(self):
        # the granularity is an argument of the run, not a config field,
        # so it can reach neither equality nor the checkpoint fingerprint
        with pytest.raises(TypeError):
            StudyConfig(granularity="cell")

    def test_invalid_granularity_rejected(self):
        for name in ("block", "fold"):  # the fold granularity was removed
            with pytest.raises(ValueError, match=r"\('split', 'cell'\)"):
                make_study().run(n_jobs=1, granularity=name)


class TestSubUnitSeeds:
    """Sub-unit seed inputs are collision-free over the full paper grid.

    Mirrors the split-level pin in ``test_core_executor.py``: a cell
    sub-unit draws from the (seed, dataset, role, model, split) space, so
    the enumeration covers every derive_seed input any cell can form —
    plus the split-seed inputs — and asserts the 31-bit seeds are
    distinct.
    """

    def test_sub_unit_seed_inputs_collide_nowhere(self):
        from repro.cleaning.base import ERROR_TYPES, MISLABELS
        from repro.cleaning.registry import methods_for
        from repro.datasets.inject import MISLABEL_STRATEGIES
        from repro.datasets.registry import (
            MISLABEL_INJECTION_DATASETS,
            expected_datasets,
        )
        from repro.ml.registry import MODEL_NAMES

        seed, n_splits = 0, 20
        inputs = set()
        for error_type in ERROR_TYPES:
            if error_type == MISLABELS:
                names = ["Clothing"] + [
                    f"{base}_{strategy}"
                    for base in MISLABEL_INJECTION_DATASETS
                    for strategy in MISLABEL_STRATEGIES
                ]
            else:
                names = list(expected_datasets(error_type))
            for name in names:
                methods = methods_for(
                    error_type, include_advanced=True, random_state=seed
                )
                # the role strings cells derive model seeds with
                roles = ["dirty"] + [f"clean:{m.name}" for m in methods]
                for split in range(n_splits):
                    inputs.add((seed, name, error_type, split))
                    for model in MODEL_NAMES:
                        for role in roles:
                            inputs.add((seed, name, role, model, split))

        assert len(inputs) > 20_000
        seeds = {derive_seed(*parts) for parts in inputs}
        assert len(seeds) == len(inputs)


def run_block_cells(workspace_for, run, config, n_methods):
    """All of split 0's cells through caller-provided workspaces."""
    cells = []
    for index in range(n_methods):
        for model in config.models:
            cells.append(workspace_for(index, model).cell(index, model))
    return cells


class TestCacheSemantics:
    """Batched and scattered cells agree; only cache *hits* may differ."""

    def build_run(self):
        study = make_study()
        block = study._queue[0]  # Sensor x outliers, two methods
        return (
            ErrorTypeRun(
                block.dataset, block.error_type, FAST, methods=list(block.methods)
            ),
            len(block.methods),
        )

    def test_scattered_cells_match_batched_cells(self):
        """One shared workspace == a fresh workspace per cell, bit for bit.

        The scattered arm rebuilds the DetectionCache, the evaluation
        memo, encodings, and the dirty-side models from scratch for
        every cell — the worst possible scatter of a split across
        workers — and must still produce identical CellResults, because
        every cached value is a pure function of the task key.
        """
        run, n_methods = self.build_run()
        shared = SplitWorkspace(run, split=0)
        batched = run_block_cells(
            lambda index, model: shared, run, FAST, n_methods
        )
        scattered = run_block_cells(
            lambda index, model: SplitWorkspace(run, split=0),
            run,
            FAST,
            n_methods,
        )
        assert batched == scattered

    def test_detection_cache_hits_differ_but_outputs_do_not(self):
        run, n_methods = self.build_run()
        shared = SplitWorkspace(run, split=0)
        run_block_cells(lambda index, model: shared, run, FAST, n_methods)

        fresh_hits = []
        for index in range(n_methods):
            for model in FAST.models:
                workspace = SplitWorkspace(run, split=0)
                workspace.cell(index, model)
                fresh_hits.append(workspace.dcache.hits)
        # the batched workspace shares detector fits across its whole
        # method iteration; each scattered workspace starts cold (the
        # outputs agree: test_scattered_cells_match_batched_cells)
        assert shared.dcache.hits > max(fresh_hits)

    def test_reducer_rejects_incomplete_and_duplicate_cells(self):
        run, n_methods = self.build_run()
        workspace = SplitWorkspace(run, split=0)
        cells = run_block_cells(
            lambda index, model: workspace, run, FAST, n_methods
        )
        with pytest.raises(ValueError, match="missing cells"):
            merge_cell_results(OUTLIERS, FAST.models, 0, n_methods, cells[:-1])
        with pytest.raises(ValueError, match="duplicate cell"):
            merge_cell_results(
                OUTLIERS, FAST.models, 0, n_methods, cells + [cells[0]]
            )
        other = SplitWorkspace(run, split=1)
        stray = other.cell(0, FAST.models[0])
        with pytest.raises(ValueError, match="span multiple splits"):
            merge_cell_results(
                OUTLIERS, FAST.models, 0, n_methods, cells + [stray]
            )
        with pytest.raises(ValueError, match="span multiple splits"):
            merge_cell_results(OUTLIERS, FAST.models, 1, n_methods, cells)

    def test_reducer_reduces_an_empty_split_to_an_empty_result(self):
        result = merge_cell_results(OUTLIERS, FAST.models, 3, 0, [])
        assert (result.split, result.r1, result.r2, result.r3) == (3, {}, {}, {})


def live_methods(workspace):
    """Indices of the methods a workspace holds a record of."""
    record = workspace._record
    return set() if record is None else {record.index}


def record_parts(record, workspace):
    """Weak references to everything a method record alone keeps alive.

    The raw test set's labels and dirty encoding belong to the workspace
    (a record of a method that repairs nothing shares them), and the
    fitted method stays in the workspace's method list.
    """
    shared = (
        workspace.raw_test,
        vars(workspace).get("raw_dirty"),
        vars(workspace).get("raw_labels"),
    )
    parts = (
        record, record.train, record.train.X, record.test,
        record.X_dirty, record.X_clean, record.X_raw, *record.models.values(),
    )
    return [
        weakref.ref(part)
        for part in parts
        if part is not None and all(part is not other for other in shared)
    ]


class TestSplitEviction:
    """A ``SplitWorkspace`` holds one method record at a time.

    ``SplitWorkspace.record`` replaces the held record when a cell of
    another method arrives, so split units (the worker entry walks the
    cells in method order) and cell units (any order, on per-worker
    workspaces) alike peak at one method's footprint.  A replaced record
    is freed at once, by reference counting: nothing the workspace keeps
    (dirty models and their anchors, the detection cache) refers to it,
    and it refers back to nothing, so no reference cycle waits for the
    cyclic garbage collector.  A cell of a replaced method rebuilds the
    identical record.
    """

    def build_run(self):
        block = make_study()._queue[0]  # Sensor x outliers, two methods
        run = ErrorTypeRun(
            block.dataset, block.error_type, FAST, methods=list(block.methods)
        )
        return run, len(block.methods)

    def test_workspace_never_holds_two_methods(self, monkeypatch):
        run, n_methods = self.build_run()
        replaced = []
        workspaces = set()
        pending = []  # weak references to the record being replaced
        last = []  # weak references to the workspace and its last record
        original_record = SplitWorkspace.record
        original_cell = SplitWorkspace.cell

        def record(self, index):
            held = self._record
            if held is None or held.index == index:
                return original_record(self, index)
            # a method's state only grows while its cells run, so the
            # moment before its replacement is the workspace's peak
            assert held.models.keys() == set(FAST.models)
            pending[:] = record_parts(held, self)
            del held
            replaced.append(index)
            return original_record(self, index)

        class CheckedEncodedTable(EncodedTable):
            def __init__(self, *args):
                # the replaced record is gone before the next method's
                # training table is encoded
                assert [part() for part in pending] == [None] * len(pending)
                super().__init__(*args)

        def cell(self, index, name):
            result = original_cell(self, index, name)
            workspaces.add(id(self))
            last[:] = [weakref.ref(self), *record_parts(self._record, self)]
            return result

        monkeypatch.setattr(SplitWorkspace, "record", record)
        monkeypatch.setattr(SplitWorkspace, "cell", cell)
        monkeypatch.setattr(runner, "EncodedTable", CheckedEncodedTable)
        executor._register_blocks(
            [(run.dataset, run.error_type, tuple(run._methods))], FAST
        )
        gc.disable()  # a reference cycle would outlive the replacement
        try:
            executor._execute_unit(
                "split",
                (run.dataset.name, run.error_type, 0),
                tuple(
                    (index, model)
                    for index in range(n_methods)
                    for model in FAST.models
                ),
            )
            # the unit's workspace goes when it ends, with its last record
            assert [part() for part in last] == [None] * len(last)
        finally:
            gc.enable()
            executor._clear_worker_state()
        # every method but the first replaces the one before it
        assert replaced == list(range(1, n_methods))
        assert len(workspaces) == 1

    @pytest.mark.parametrize(
        "order", ["in_order", "reversed", "repeated", "interleaved"]
    )
    def test_any_cell_order_holds_at_most_one_method(self, order):
        run, n_methods = self.build_run()
        shared = SplitWorkspace(run, split=0)
        reference = {
            (cell.method_index, cell.model): cell
            for cell in run_block_cells(
                lambda index, model: shared, run, FAST, n_methods
            )
        }
        keys = list(reference)
        first, second = FAST.models
        keys = {
            "in_order": keys,
            "reversed": keys[::-1],
            "repeated": [keys[0], keys[0], keys[-1], keys[-1], keys[0]],
            "interleaved": [(0, first), (1, first), (0, second), (1, second)],
        }[order]
        workspace = SplitWorkspace(run, split=0)
        for index, model in keys:
            assert workspace.cell(index, model) == reference[index, model]
            assert live_methods(workspace) == {index}

    def test_rerun_of_an_evicted_method_returns_an_equal_cell(self):
        run, _ = self.build_run()
        model = FAST.models[0]
        workspace = SplitWorkspace(run, split=0)
        first = workspace.cell(0, model)
        evicted = workspace._record
        workspace.cell(1, model)
        assert 0 not in live_methods(workspace)
        again = workspace.cell(0, model)
        assert again == first
        assert workspace._record is not evicted  # rebuilt, not kept


class TestWorkerWorkspaces:
    """The per-worker ``SplitWorkspace`` registry cell units share."""

    def test_registry_evicts_the_least_recently_used_split(self, monkeypatch):
        name, error_type, methods = BLOCKS[0]
        dataset = load_dataset(name, seed=0, n_rows=140)
        monkeypatch.setattr(executor, "_WORKER_WORKSPACE_CAP", 2)
        executor._register_blocks([(dataset, error_type, tuple(methods))], FAST)
        try:
            a, b, c = ((name, error_type, split) for split in range(3))
            first = executor._worker_workspace(a)
            executor._worker_workspace(b)
            # a hit moves A to the back, so C evicts B, not A
            assert executor._worker_workspace(a) is first
            executor._worker_workspace(c)
            assert list(executor._WORKER_WORKSPACES) == [a, c]
            assert executor._worker_workspace(a) is first
        finally:
            executor._clear_worker_state()

    def test_one_workspace_build_per_pending_split_in_process(self):
        study = make_study()
        with observing() as collector:
            study.run(n_jobs=1, granularity="cell")
        pending = len(BLOCKS) * FAST.n_splits
        assert collector.counters["executor.workspace_builds"] == pending
