"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_list_parses(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_parses_options(self):
        args = build_parser().parse_args(
            ["run", "EEG", "outliers", "--splits", "3", "--models",
             "knn", "naive_bayes", "--rows", "150"]
        )
        assert args.dataset == "EEG"
        assert args.splits == 3
        assert args.models == ["knn", "naive_bayes"]

    def test_invalid_error_type_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "EEG", "typos"])

    def test_granularity_parses_and_rejects_unknown(self):
        args = build_parser().parse_args(
            ["run", "EEG", "outliers", "--granularity", "cell"]
        )
        assert args.granularity == "cell"
        assert build_parser().parse_args(
            ["run", "EEG", "outliers"]
        ).granularity == "split"
        for name in ("block", "fold"):  # the fold granularity was removed
            with pytest.raises(SystemExit):
                build_parser().parse_args(["run", "EEG", "outliers", "--granularity", name])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "EEG" in out and "Clothing" in out

    def test_describe(self, capsys):
        assert main(["describe", "Titanic"]) == 0
        out = capsys.readouterr().out
        assert "age" in out and "missing" in out.lower()

    def test_run_small_study(self, capsys):
        code = main(
            ["run", "Sensor", "outliers", "--splits", "2",
             "--cv-folds", "2", "--rows", "150",
             "--models", "naive_bayes", "knn"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Q1 on R1" in out
        assert "relation sizes" in out

    def test_run_small_study_at_cell_granularity(self, capsys):
        code = main(
            ["run", "Sensor", "outliers", "--splits", "2",
             "--cv-folds", "2", "--rows", "150",
             "--models", "naive_bayes", "knn",
             "--granularity", "cell"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Q1 on R1" in out

    def test_run_unknown_dataset(self, capsys):
        assert main(["run", "MNIST", "outliers"]) == 2

    def test_run_skips_missing_error_type(self, capsys):
        code = main(
            ["run", "Sensor", "duplicates", "--splits", "2", "--rows", "150"]
        )
        # Sensor has no duplicates: the run completes with empty output
        assert code == 0
