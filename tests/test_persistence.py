"""Tests for study persistence (save / load / merge / replay) and the
executor's checkpoint ledger format."""

import json

import pytest

from repro.core import CleanMLStudy, Scenario, StudyConfig
from repro.core.persistence import (
    FORMAT_VERSION,
    CheckpointError,
    append_checkpoint,
    append_failed_checkpoint,
    experiment_from_dict,
    experiment_to_dict,
    failure_from_dict,
    failure_to_dict,
    load_checkpoint,
    load_checkpoint_state,
    load_experiments,
    load_study,
    merge_checkpoints,
    merge_studies,
    save_experiments,
    save_study,
    split_result_from_dict,
    split_result_to_dict,
)
from repro.core.runner import RawExperiment, SplitResult
from repro.core.schema import MetricPair
from repro.core.supervisor import UnitFailure


def make_experiment(level="R1", dataset="EEG", model="knn", scenario=Scenario.BD):
    return RawExperiment(
        level=level,
        dataset=dataset,
        error_type="outliers",
        scenario=scenario,
        detection="IQR",
        repair="Mean",
        ml_model=model,
        pairs=(MetricPair(0.8, 0.85), MetricPair(0.79, 0.84), MetricPair(0.81, 0.8)),
    )


class TestRoundTrip:
    def test_dict_round_trip(self):
        experiment = make_experiment()
        rebuilt = experiment_from_dict(experiment_to_dict(experiment))
        assert rebuilt == experiment

    def test_file_round_trip(self, tmp_path):
        experiments = [make_experiment(), make_experiment(model="xgboost")]
        path = tmp_path / "results" / "study.json"
        save_experiments(experiments, path)
        assert load_experiments(path) == experiments

    def test_r3_none_fields_survive(self, tmp_path):
        experiment = RawExperiment(
            level="R3", dataset="EEG", error_type="outliers",
            scenario=Scenario.CD, detection=None, repair=None, ml_model=None,
            pairs=(MetricPair(0.5, 0.6),),
        )
        path = tmp_path / "r3.json"
        save_experiments([experiment], path)
        loaded = load_experiments(path)[0]
        assert loaded.detection is None and loaded.ml_model is None

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format_version": 99, "experiments": []}))
        with pytest.raises(ValueError):
            load_experiments(path)


class TestStudyReplay:
    def test_saved_study_rebuilds_same_database(self, tmp_path):
        study = CleanMLStudy(StudyConfig(n_splits=3))
        study.raw_experiments = [
            make_experiment(),
            make_experiment(model="xgboost"),
            make_experiment(level="R3", model=None),
        ]
        # normalize the R3 row's key fields
        study.raw_experiments[2] = RawExperiment(
            level="R3", dataset="EEG", error_type="outliers",
            scenario=Scenario.BD, detection=None, repair=None, ml_model=None,
            pairs=(MetricPair(0.8, 0.9), MetricPair(0.8, 0.9), MetricPair(0.8, 0.88)),
        )
        path = tmp_path / "study.json"
        save_study(study, path)
        reloaded = load_study(path, config=StudyConfig(n_splits=3))
        original = study.build_database()
        rebuilt = reloaded.build_database()
        for name in ("R1", "R3"):
            assert [r.flag for r in original[name]] == [
                r.flag for r in rebuilt[name]
            ]

    def test_replay_with_different_procedure(self, tmp_path):
        study = CleanMLStudy(StudyConfig(n_splits=3))
        study.raw_experiments = [make_experiment()]
        path = tmp_path / "study.json"
        save_study(study, path)
        reloaded = load_study(path)
        relaxed = reloaded.build_database(procedure="none")
        strict = reloaded.build_database(procedure="bonferroni")
        assert len(relaxed["R1"]) == len(strict["R1"]) == 1


def make_split_result(split=0, shift=0.0):
    return SplitResult(
        split=split,
        r1={
            ("IQR", "Mean", "knn", Scenario.BD): [
                MetricPair(0.8 + shift, 0.85),
                MetricPair(0.79 + shift, 0.84),  # two methods, same label
            ],
            ("IQR", "Mean", "knn", Scenario.CD): [MetricPair(0.7 + shift, 0.75)],
        },
        r2={("IQR", "Mean", Scenario.BD): [MetricPair(0.81 + shift, 0.86)]},
        r3={(Scenario.BD,): [MetricPair(0.82 + shift, 0.87)]},
    )


class TestCheckpointFormat:
    def test_split_result_round_trip(self):
        result = make_split_result(split=3, shift=0.01)
        rebuilt = split_result_from_dict(split_result_to_dict(result))
        assert rebuilt == result

    def test_append_and_load(self, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        append_checkpoint(ledger, ("EEG", "outliers", 0), make_split_result(0))
        append_checkpoint(ledger, ("EEG", "outliers", 1), make_split_result(1))
        done = load_checkpoint(ledger)
        assert set(done) == {("EEG", "outliers", 0), ("EEG", "outliers", 1)}
        assert done[("EEG", "outliers", 1)].split == 1

    def test_missing_file_is_empty_checkpoint(self, tmp_path):
        assert load_checkpoint(tmp_path / "absent.jsonl") == {}

    def test_header_carries_format_version(self, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        append_checkpoint(ledger, ("EEG", "outliers", 0), make_split_result(0))
        header = json.loads(ledger.read_text().splitlines()[0])
        # 4 since quarantine "failed" entries landed (supervisor)
        assert header["format_version"] == FORMAT_VERSION == 4

    def test_format3_ledger_still_loads(self, tmp_path):
        """Pre-supervisor (format-3) ledgers are refused, not read."""
        ledger = tmp_path / "ledger.jsonl"
        append_checkpoint(ledger, ("EEG", "outliers", 0), make_split_result(0))
        lines = ledger.read_text().splitlines()
        header = json.loads(lines[0])
        header["format_version"] = 3
        lines[0] = json.dumps(header)
        ledger.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError, match="unsupported checkpoint format 3"):
            load_checkpoint(ledger)

    def test_unsupported_version_rejected(self, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        ledger.write_text(
            json.dumps({"format_version": 99, "kind": "cleanml-checkpoint"})
            + "\n"
        )
        with pytest.raises(CheckpointError):
            load_checkpoint(ledger)

    def test_results_file_rejected_as_checkpoint(self, tmp_path):
        path = tmp_path / "results.json"
        save_experiments([make_experiment()], path)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_truncated_final_line_is_dropped(self, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        append_checkpoint(ledger, ("EEG", "outliers", 0), make_split_result(0))
        append_checkpoint(ledger, ("EEG", "outliers", 1), make_split_result(1))
        torn = ledger.read_text()[:-40]  # crash mid-append
        ledger.write_text(torn)
        done = load_checkpoint(ledger)
        assert set(done) == {("EEG", "outliers", 0)}

    def test_corrupt_interior_line_raises(self, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        append_checkpoint(ledger, ("EEG", "outliers", 0), make_split_result(0))
        lines = ledger.read_text().splitlines()
        lines.insert(1, "{not json")
        ledger.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError):
            load_checkpoint(ledger)

    def test_corrupt_header_raises(self, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        ledger.write_text("{not json\n")
        with pytest.raises(CheckpointError):
            load_checkpoint(ledger)

    def test_fingerprint_drift_rejected_on_resume(self, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        written = StudyConfig(models=("knn",), seed=1).fingerprint()
        append_checkpoint(
            ledger, ("EEG", "outliers", 0), make_split_result(0),
            fingerprint=written,
        )
        # same protocol: fine
        assert load_checkpoint(ledger, fingerprint=written)
        drifted = StudyConfig(models=("knn", "naive_bayes"), seed=1).fingerprint()
        with pytest.raises(CheckpointError):
            load_checkpoint(ledger, fingerprint=drifted)

    def test_n_splits_and_n_jobs_are_not_protocol_drift(self, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        written = StudyConfig(models=("knn",), n_splits=8)
        append_checkpoint(
            ledger, ("EEG", "outliers", 0), make_split_result(0),
            fingerprint=written.fingerprint(),
        )
        extended = StudyConfig(models=("knn",), n_splits=20, n_jobs=4)
        assert load_checkpoint(ledger, fingerprint=extended.fingerprint())

    def test_unstamped_ledger_loads_without_fingerprint_check(self, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        append_checkpoint(ledger, ("EEG", "outliers", 0), make_split_result(0))
        assert load_checkpoint(ledger, fingerprint=StudyConfig().fingerprint())

    def test_torn_header_is_an_empty_resumable_checkpoint(self, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        ledger.write_text('{"format_version": 2, "ki')  # crash mid-header
        assert load_checkpoint(ledger) == {}
        # appending heals the torn tail and rebuilds a valid ledger
        append_checkpoint(ledger, ("EEG", "outliers", 0), make_split_result(0))
        assert set(load_checkpoint(ledger)) == {("EEG", "outliers", 0)}

    def test_append_after_torn_entry_heals_the_tail(self, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        append_checkpoint(ledger, ("EEG", "outliers", 0), make_split_result(0))
        append_checkpoint(ledger, ("EEG", "outliers", 1), make_split_result(1))
        ledger.write_bytes(ledger.read_bytes()[:-40])  # crash mid-append
        append_checkpoint(ledger, ("EEG", "outliers", 2), make_split_result(2))
        done = load_checkpoint(ledger)
        assert set(done) == {("EEG", "outliers", 0), ("EEG", "outliers", 2)}

    def test_v1_results_files_still_load(self, tmp_path):
        """Format-1 results files are refused, not read."""
        path = tmp_path / "v1.json"
        path.write_text(
            json.dumps(
                {
                    "format_version": 1,
                    "experiments": [experiment_to_dict(make_experiment())],
                }
            )
        )
        with pytest.raises(ValueError, match="unsupported results format 1"):
            load_experiments(path)


class TestCheckpointMerge:
    def test_merges_ledgers_from_separate_processes(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        append_checkpoint(a, ("EEG", "outliers", 0), make_split_result(0))
        append_checkpoint(b, ("EEG", "outliers", 1), make_split_result(1))
        append_checkpoint(b, ("Sensor", "outliers", 0), make_split_result(0))
        merged = merge_checkpoints([a, b])
        assert len(merged) == 3

    def test_agreeing_duplicates_are_fine(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for path in (a, b):
            append_checkpoint(path, ("EEG", "outliers", 0), make_split_result(0))
        merged = merge_checkpoints([a, b])
        assert len(merged) == 1

    def test_conflicting_duplicates_raise(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        append_checkpoint(a, ("EEG", "outliers", 0), make_split_result(0))
        append_checkpoint(
            b, ("EEG", "outliers", 0), make_split_result(0, shift=0.05)
        )
        with pytest.raises(CheckpointError):
            merge_checkpoints([a, b])

    def test_mixed_fingerprints_refuse_to_merge(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        append_checkpoint(
            a, ("EEG", "outliers", 0), make_split_result(0),
            fingerprint=StudyConfig(seed=0).fingerprint(),
        )
        append_checkpoint(
            b, ("EEG", "outliers", 1), make_split_result(1),
            fingerprint=StudyConfig(seed=1).fingerprint(),
        )
        # disjoint task keys, so only the fingerprint check can catch it
        with pytest.raises(CheckpointError):
            merge_checkpoints([a, b])

    def test_matching_fingerprints_merge(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        fingerprint = StudyConfig(seed=0).fingerprint()
        append_checkpoint(
            a, ("EEG", "outliers", 0), make_split_result(0),
            fingerprint=fingerprint,
        )
        append_checkpoint(
            b, ("EEG", "outliers", 1), make_split_result(1),
            fingerprint=fingerprint,
        )
        assert len(merge_checkpoints([a, b])) == 2


def make_failure(key=("EEG", "outliers", 0), kind="split", attempts=3):
    return UnitFailure(
        kind=kind, key=key, attempts=attempts, error="ValueError: boom"
    )


class TestFailureRecords:
    """Format 4: quarantined units recorded as ``failed`` ledger entries."""

    def test_dict_round_trip(self):
        failure = make_failure(
            key=("EEG", "outliers", 0, 2, "knn"), kind="cell"
        )
        assert failure_from_dict(failure_to_dict(failure)) == failure

    def test_failed_entry_round_trips_through_ledger(self, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        append_checkpoint(ledger, ("EEG", "outliers", 0), make_split_result(0))
        append_failed_checkpoint(ledger, make_failure(("EEG", "outliers", 1)))
        done, cells, failed = load_checkpoint_state(ledger)
        assert set(done) == {("EEG", "outliers", 0)} and not cells
        assert failed == {("EEG", "outliers", 1): make_failure(("EEG", "outliers", 1))}

    def test_failed_entries_are_not_completed_tasks(self, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        append_failed_checkpoint(ledger, make_failure())
        # the split-level view skips them: a resume must re-attempt
        assert load_checkpoint(ledger) == {}

    def test_later_failure_supersedes_earlier(self, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        append_failed_checkpoint(ledger, make_failure(attempts=1))
        append_failed_checkpoint(ledger, make_failure(attempts=4))
        _, _, failed = load_checkpoint_state(ledger)
        assert failed[("EEG", "outliers", 0)].attempts == 4

    def test_merge_success_wins_over_failure(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        append_failed_checkpoint(a, make_failure(("EEG", "outliers", 0)))
        append_checkpoint(b, ("EEG", "outliers", 0), make_split_result(0))
        merged = merge_checkpoints([a, b])
        assert isinstance(merged[("EEG", "outliers", 0)], SplitResult)

    def test_merge_keeps_failure_only_keys(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        append_checkpoint(a, ("EEG", "outliers", 0), make_split_result(0))
        append_failed_checkpoint(b, make_failure(("EEG", "outliers", 1)))
        merged = merge_checkpoints([a, b])
        assert isinstance(merged[("EEG", "outliers", 1)], UnitFailure)
        assert len(merged) == 2

    def test_merge_keeps_highest_attempt_count(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        append_failed_checkpoint(a, make_failure(attempts=5))
        append_failed_checkpoint(b, make_failure(attempts=2))
        merged = merge_checkpoints([a, b])
        assert merged[("EEG", "outliers", 0)].attempts == 5


class TestAtomicSave:
    """``save_experiments`` must never leave a torn results file."""

    def test_failed_dump_leaves_original_intact(self, tmp_path, monkeypatch):
        path = tmp_path / "study.json"
        original = [make_experiment()]
        save_experiments(original, path)

        def explode(*args, **kwargs):
            raise RuntimeError("disk full")

        monkeypatch.setattr(json, "dump", explode)
        with pytest.raises(RuntimeError):
            save_experiments([make_experiment(model="xgboost")], path)
        monkeypatch.undo()
        assert load_experiments(path) == original

    def test_no_temp_files_left_behind(self, tmp_path, monkeypatch):
        path = tmp_path / "study.json"
        save_experiments([make_experiment()], path)
        monkeypatch.setattr(
            json, "dump", lambda *a, **k: (_ for _ in ()).throw(OSError())
        )
        with pytest.raises(OSError):
            save_experiments([make_experiment()], path)
        monkeypatch.undo()
        leftovers = [p.name for p in tmp_path.iterdir() if p.name != "study.json"]
        assert leftovers == []


class TestMerge:
    def test_merges_disjoint_studies(self):
        a = CleanMLStudy()
        a.raw_experiments = [make_experiment(dataset="EEG")]
        b = CleanMLStudy()
        b.raw_experiments = [make_experiment(dataset="Sensor")]
        merged = merge_studies([a, b])
        assert len(merged.raw_experiments) == 2
        database = merged.build_database()
        assert len(database["R1"]) == 2

    def test_rejects_duplicates(self):
        a = CleanMLStudy()
        a.raw_experiments = [make_experiment()]
        b = CleanMLStudy()
        b.raw_experiments = [make_experiment()]
        with pytest.raises(ValueError):
            merge_studies([a, b])
