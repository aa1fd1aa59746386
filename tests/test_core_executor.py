"""Tests for the parallel execution engine.

The executor's contract is strong: any ``n_jobs`` produces
*bit-identical* raw experiments, flags, database rows, and persisted
JSON.  These tests pin that contract on two small synthetic datasets x
two error types, plus the order-independent merge and checkpoint-resume
equivalences the contract rests on.
"""

import json

import pytest

from repro.cleaning import (
    MISSING_VALUES,
    OUTLIERS,
    ImputationCleaning,
    OutlierCleaning,
)
from repro.core import (
    CleanMLStudy,
    SplitResult,
    StudyBlock,
    StudyConfig,
    build_task_graph,
    execute_study,
    execute_task,
    merge_split_results,
    save_experiments,
    study_fingerprint,
)
from repro.core.runner import derive_seed
from repro.datasets import load_dataset

FAST = StudyConfig(
    n_splits=3, cv_folds=2, models=("logistic_regression", "knn"), seed=7
)


def make_study(config=FAST):
    """Two small synthetic datasets x two error types."""
    study = CleanMLStudy(config)
    study.add(
        load_dataset("Sensor", seed=0, n_rows=150),
        OUTLIERS,
        methods=[OutlierCleaning("SD", "mean"), OutlierCleaning("IQR", "mean")],
    )
    study.add(
        load_dataset("Titanic", seed=0, n_rows=150),
        MISSING_VALUES,
        methods=[ImputationCleaning("mean", "mode")],
    )
    return study


@pytest.fixture(scope="module")
def sequential():
    """The n_jobs=1 reference run (module-scoped: runs take seconds)."""
    study = make_study()
    database = study.run(n_jobs=1)
    return study, database


@pytest.fixture(scope="module")
def parallel():
    """The same study at n_jobs=2."""
    study = make_study()
    database = study.run(n_jobs=2)
    return study, database


class TestParallelDeterminism:
    def test_identical_raw_experiments(self, sequential, parallel):
        assert sequential[0].raw_experiments == parallel[0].raw_experiments

    def test_identical_flags_and_rows(self, sequential, parallel):
        for level in ("R1", "R2", "R3"):
            assert list(sequential[1][level]) == list(parallel[1][level])

    def test_identical_persisted_bytes(self, sequential, parallel, tmp_path):
        paths = (tmp_path / "sequential.json", tmp_path / "parallel.json")
        for (study, _), path in zip((sequential, parallel), paths):
            save_experiments(study.raw_experiments, path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_config_n_jobs_is_honored(self):
        study = make_study(StudyConfig(
            n_splits=2, cv_folds=2, models=("naive_bayes",), seed=7, n_jobs=2,
        ))
        reference = make_study(StudyConfig(
            n_splits=2, cv_folds=2, models=("naive_bayes",), seed=7,
        ))
        study.run()
        reference.run()
        assert study.raw_experiments == reference.raw_experiments

    def test_rejects_nonpositive_jobs(self):
        with pytest.raises(ValueError):
            make_study().run(n_jobs=0)


class TestTaskGraph:
    def test_one_task_per_block_per_split(self):
        study = make_study()
        tasks = build_task_graph(study._queue, FAST)
        assert len(tasks) == 2 * FAST.n_splits
        assert len({task.key for task in tasks}) == len(tasks)

    def test_rejects_duplicate_blocks(self):
        dataset = load_dataset("Sensor", seed=0, n_rows=150)
        blocks = [
            StudyBlock(dataset=dataset, error_type=OUTLIERS),
            StudyBlock(dataset=dataset, error_type=OUTLIERS),
        ]
        with pytest.raises(ValueError):
            build_task_graph(blocks, FAST)

    def test_task_is_pure_function_of_key(self):
        study = make_study()
        task = build_task_graph(study._queue, FAST)[0]
        key_a, result_a = execute_task(task)
        key_b, result_b = execute_task(task)
        assert key_a == key_b and result_a == result_b


class TestOrderIndependentMerge:
    def test_shuffled_results_merge_identically(self, sequential):
        study = make_study()
        tasks = build_task_graph(study._queue, FAST)
        block_tasks = [t for t in tasks if t.dataset.name == "Sensor"]
        results = [execute_task(t)[1] for t in block_tasks]
        forward = merge_split_results("Sensor", OUTLIERS, results)
        backward = merge_split_results("Sensor", OUTLIERS, results[::-1])
        assert forward == backward
        reference = [
            e for e in sequential[0].raw_experiments if e.dataset == "Sensor"
        ]
        assert forward == reference

    def test_rejects_missing_split(self):
        results = [
            SplitResult(split=0, r1={}, r2={}, r3={}),
            SplitResult(split=2, r1={}, r2={}, r3={}),
        ]
        with pytest.raises(ValueError):
            merge_split_results("Sensor", OUTLIERS, results)


class TestCheckpointResume:
    def test_resume_from_partial_checkpoint(self, sequential, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        study = make_study()
        tasks = build_task_graph(study._queue, FAST)
        # simulate an interrupted run: only half the tasks completed
        from repro.core import append_checkpoint

        fingerprint = study_fingerprint(study._queue, FAST)
        for task in tasks[: len(tasks) // 2]:
            append_checkpoint(ledger, *execute_task(task), fingerprint=fingerprint)
        resumed = make_study()
        resumed.run(n_jobs=1, checkpoint=ledger)
        assert resumed.raw_experiments == sequential[0].raw_experiments

    def test_completed_checkpoint_skips_all_work(self, sequential, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        first = make_study()
        first.run(n_jobs=1, checkpoint=ledger)
        recorded = len(ledger.read_text().splitlines())
        second = make_study()
        announced = []
        second.run(
            n_jobs=1,
            checkpoint=ledger,
            progress=lambda ds, et: announced.append((ds, et)),
        )
        # no new entries were appended: every task key was skipped,
        # and fully resumed blocks are not announced as running
        assert len(ledger.read_text().splitlines()) == recorded
        assert announced == []
        assert second.raw_experiments == sequential[0].raw_experiments

    def test_resume_with_drifted_config_is_refused(self, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        config = StudyConfig(
            n_splits=2, cv_folds=2, models=("naive_bayes",), seed=7
        )
        make_study(config).run(n_jobs=1, checkpoint=ledger)
        drifted = make_study(StudyConfig(
            n_splits=2, cv_folds=2, models=("naive_bayes", "knn"), seed=7
        ))
        from repro.core import CheckpointError

        with pytest.raises(CheckpointError):
            drifted.run(n_jobs=1, checkpoint=ledger)

    def test_resume_with_drifted_dataset_rows_is_refused(self, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        config = StudyConfig(
            n_splits=2, cv_folds=2, models=("naive_bayes",), seed=7
        )

        def study_with(rows):
            study = CleanMLStudy(config)
            study.add(
                load_dataset("Sensor", seed=0, n_rows=rows), OUTLIERS,
                methods=[OutlierCleaning("SD", "mean")],
            )
            return study

        study_with(150).run(checkpoint=ledger)
        from repro.core import CheckpointError

        with pytest.raises(CheckpointError):
            study_with(200).run(checkpoint=ledger)

    def test_method_parameter_drift_changes_fingerprint(self):
        def fingerprint_with(method):
            study = CleanMLStudy(FAST)
            study.add(
                load_dataset("Sensor", seed=0, n_rows=150), OUTLIERS,
                methods=[method],
            )
            return study_fingerprint(study._queue, FAST)

        assert fingerprint_with(
            OutlierCleaning("SD", "mean", random_state=1)
        ) != fingerprint_with(OutlierCleaning("SD", "mean", random_state=2))

    def test_resume_with_drifted_methods_is_refused(self, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        config = StudyConfig(
            n_splits=2, cv_folds=2, models=("naive_bayes",), seed=7
        )

        def study_with(methods):
            study = CleanMLStudy(config)
            study.add(
                load_dataset("Sensor", seed=0, n_rows=150), OUTLIERS,
                methods=methods,
            )
            return study

        study_with([OutlierCleaning("SD", "mean")]).run(checkpoint=ledger)
        from repro.core import CheckpointError

        with pytest.raises(CheckpointError):
            study_with([OutlierCleaning("IQR", "mode")]).run(checkpoint=ledger)

    def test_parallel_run_writes_resumable_checkpoint(self, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        config = StudyConfig(
            n_splits=2, cv_folds=2, models=("naive_bayes",), seed=7
        )
        first = make_study(config)
        first.run(n_jobs=2, checkpoint=ledger)
        second = make_study(config)
        second.run(n_jobs=1, checkpoint=ledger)
        assert first.raw_experiments == second.raw_experiments


class TestDuplicateMethodLabels:
    def test_methods_sharing_a_label_keep_all_pairs(self):
        """Two methods with the same (detection, repair) label both count.

        The accumulators key experiments by label, so each split must
        contribute one pair per *method*, not per label — and the
        parallel path must preserve that.
        """
        config = StudyConfig(
            n_splits=2, cv_folds=2, models=("naive_bayes",), seed=7
        )

        def run_with_jobs(jobs):
            study = CleanMLStudy(config)
            study.add(
                load_dataset("Sensor", seed=0, n_rows=150),
                OUTLIERS,
                methods=[
                    OutlierCleaning("SD", "mean"),
                    OutlierCleaning("SD", "mean"),
                ],
            )
            study.run(n_jobs=jobs)
            return study.raw_experiments

        sequential = run_with_jobs(1)
        r1 = [e for e in sequential if e.level == "R1"]
        # 2 duplicate methods x 2 splits = 4 pairs per R1 experiment
        assert all(len(e.pairs) == 4 for e in r1)
        assert run_with_jobs(2) == sequential


class TestSeedCollisions:
    def test_runner_seed_inputs_collide_nowhere(self):
        """Every derive_seed input the runner can form is collision-free.

        Enumerates the full paper grid — every registry dataset (with
        mislabel-injection variants) x its error types x 20 splits x all
        models x all cleaning-method roles — and asserts the 31-bit
        seeds are distinct, so no two experiments ever share randomness.
        """
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
                roles = ["dirty"] + [f"clean:{m.name}" for m in methods]
                for split in range(n_splits):
                    inputs.add((seed, name, error_type, split))
                    for model in MODEL_NAMES:
                        for role in roles:
                            inputs.add((seed, name, role, model, split))

        assert len(inputs) > 20_000  # the enumeration actually covers the grid
        seeds = {derive_seed(*parts) for parts in inputs}
        assert len(seeds) == len(inputs)


class TestStudyConfigFreeze:
    def test_config_with_dict_overrides_is_hashable(self):
        config = StudyConfig(
            model_overrides={"random_forest": {"n_estimators": 10}}
        )
        assert isinstance(hash(config), int)

    def test_overrides_participate_in_equality(self):
        light = StudyConfig(model_overrides={"knn": {"n_neighbors": 3}})
        heavy = StudyConfig(model_overrides={"knn": {"n_neighbors": 9}})
        assert light != heavy
        assert light == StudyConfig(model_overrides={"knn": {"n_neighbors": 3}})

    def test_key_order_does_not_matter(self):
        a = StudyConfig(model_overrides={"knn": {"a": 1, "b": 2}})
        b = StudyConfig(model_overrides={"knn": {"b": 2, "a": 1}})
        assert a == b and hash(a) == hash(b)

    def test_n_jobs_never_affects_equality(self):
        assert StudyConfig(n_jobs=1) == StudyConfig(n_jobs=8)

    def test_replace_refreeze_is_idempotent(self):
        from dataclasses import replace

        config = StudyConfig(model_overrides={"knn": {"n_neighbors": 3}})
        assert replace(config, n_splits=5).model_overrides == config.model_overrides

    def test_overrides_still_reach_models(self):
        config = StudyConfig(model_overrides={"knn": {"n_neighbors": 3}})
        assert config.overrides_for("knn") == {"n_neighbors": 3}
        assert config.overrides_for("naive_bayes") == {}

    def test_item_tuple_input_freezes_like_a_mapping(self):
        as_dict = StudyConfig(model_overrides={"knn": {"n_neighbors": 3}})
        as_items = StudyConfig(
            model_overrides=(("knn", {"n_neighbors": 3}),)
        )
        assert as_dict == as_items
        assert isinstance(hash(as_items), int)
        assert as_items.overrides_for("knn") == {"n_neighbors": 3}

    def test_invalid_overrides_rejected(self):
        with pytest.raises(TypeError):
            StudyConfig(model_overrides=[("knn", {"n_neighbors": 3})])

    def test_structured_override_values_round_trip(self):
        config = StudyConfig(
            model_overrides={
                "mlp": {"hidden": [16, 8], "opts": {"momentum": 0.9}}
            }
        )
        assert isinstance(hash(config), int)
        assert config.overrides_for("mlp") == {
            "hidden": [16, 8],
            "opts": {"momentum": 0.9},
        }


class TestCellCheckpoints:
    """Sub-unit ledger entries: crash recovery and cross-ledger merges."""

    CELL_CONFIG = StudyConfig(
        n_splits=2, cv_folds=2, models=("logistic_regression", "knn"), seed=7
    )

    def make_cell_study(self):
        study = CleanMLStudy(self.CELL_CONFIG)
        study.add(
            load_dataset("Sensor", seed=0, n_rows=150),
            OUTLIERS,
            methods=[
                OutlierCleaning("SD", "mean"),
                OutlierCleaning("IQR", "mean"),
            ],
        )
        return study

    def reference_experiments(self):
        study = self.make_cell_study()
        study.run(n_jobs=1, granularity="split")
        return study.raw_experiments

    def test_cell_run_interleaves_cell_and_split_entries(self, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        study = self.make_cell_study()
        study.run(n_jobs=1, granularity="cell", checkpoint=ledger)
        entries = [json.loads(line) for line in ledger.read_text().splitlines()[1:]]
        cells = [e for e in entries if "cell" in e]
        splits = [e for e in entries if "task" in e]
        # 2 methods x 2 models x 2 splits cells, one split entry per split
        assert len(cells) == 8
        assert len(splits) == 2

    def test_crash_mid_cell_append_resumes_identically(self, tmp_path):
        """Torn final line injected *inside a cell entry* at cell granularity.

        The signature of a crash mid-append while a split was still
        accumulating cells: the ledger ends in half a cell line, with
        that split's earlier cells complete and no split entry yet.  The
        resume must drop the torn line, reuse the banked cells, re-run
        only the missing ones, and produce bit-identical experiments.
        """
        reference = self.reference_experiments()
        ledger = tmp_path / "ledger.jsonl"
        study = self.make_cell_study()
        study.run(n_jobs=1, granularity="cell", checkpoint=ledger)

        lines = ledger.read_text().splitlines(keepends=True)
        # keep the header + the first three cell entries, then tear the
        # fourth cell entry mid-append (its split entry never lands)
        assert all('"cell"' in line for line in lines[1:4])
        ledger.write_text("".join(lines[:4]) + lines[4][: len(lines[4]) // 2])

        from repro.core import load_checkpoint_state

        done, cells, _ = load_checkpoint_state(ledger)
        assert done == {} and len(cells) == 3  # torn line dropped

        resumed = self.make_cell_study()
        resumed.run(n_jobs=1, granularity="cell", checkpoint=ledger)
        assert resumed.raw_experiments == reference

        # the healed ledger is now complete: a further rerun skips all work
        size = ledger.stat().st_size
        again = self.make_cell_study()
        again.run(n_jobs=1, granularity="cell", checkpoint=ledger)
        assert ledger.stat().st_size == size
        assert again.raw_experiments == reference

    def test_cell_ledger_resumes_at_other_granularities(self, tmp_path):
        """A partial cell ledger resumes at either granularity (a split
        resume re-runs the unfinished split whole)."""
        reference = self.reference_experiments()
        ledger = tmp_path / "ledger.jsonl"
        study = self.make_cell_study()
        study.run(n_jobs=1, granularity="cell", checkpoint=ledger)
        lines = ledger.read_text().splitlines(keepends=True)
        for granularity in ("cell", "split"):
            ledger.write_text("".join(lines[:5]))  # four cells, no split entry
            resumed = self.make_cell_study()
            resumed.run(n_jobs=1, granularity=granularity, checkpoint=ledger)
            assert resumed.raw_experiments == reference

    def test_cell_entries_round_trip_merge_checkpoints(self, tmp_path):
        """Sub-unit entries survive append -> load -> merge across ledgers."""
        from repro.core import (
            append_cell_checkpoint,
            load_checkpoint_state,
            merge_checkpoints,
        )

        full = tmp_path / "full.jsonl"
        study = self.make_cell_study()
        study.run(n_jobs=1, granularity="cell", checkpoint=full)
        done, cells, _ = load_checkpoint_state(full)
        assert len(cells) == 8 and len(done) == 2

        # shard a few cells into a second ledger, as a sharded run would
        shard = tmp_path / "shard.jsonl"
        fingerprint = study_fingerprint(
            self.make_cell_study()._queue, self.CELL_CONFIG
        )
        for key, cell in list(cells.items())[:3]:
            append_cell_checkpoint(
                shard, key[:3], cell, fingerprint=fingerprint
            )

        merged = merge_checkpoints([full, shard])
        assert {key for key in merged if len(key) == 5} == set(cells)
        assert {key for key in merged if len(key) == 3} == set(done)
        for key, cell in cells.items():
            assert merged[key] == cell

    def test_conflicting_cell_entries_refuse_to_merge(self, tmp_path):
        from dataclasses import replace

        from repro.core import (
            CheckpointError,
            append_cell_checkpoint,
            load_checkpoint_state,
            merge_checkpoints,
        )

        full = tmp_path / "full.jsonl"
        study = self.make_cell_study()
        study.run(n_jobs=1, granularity="cell", checkpoint=full)
        _, cells, _ = load_checkpoint_state(full)
        key, cell = next(iter(cells.items()))
        drifted = replace(cell, clean_val_score=cell.clean_val_score + 0.5)
        conflict = tmp_path / "conflict.jsonl"
        append_cell_checkpoint(conflict, key[:3], drifted)
        with pytest.raises(CheckpointError):
            merge_checkpoints([full, conflict])

    def test_parallel_cell_run_writes_resumable_checkpoint(self, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        first = self.make_cell_study()
        first.run(n_jobs=2, granularity="cell", checkpoint=ledger)
        second = self.make_cell_study()
        second.run(n_jobs=1, granularity="split", checkpoint=ledger)
        assert first.raw_experiments == second.raw_experiments
