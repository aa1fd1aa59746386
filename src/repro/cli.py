"""Command-line interface for running CleanML studies.

Usage::

    python -m repro list                 # datasets and their error types
    python -m repro run EEG outliers     # one dataset x error type study
    python -m repro run --all missing_values
    python -m repro describe Titanic     # schema + error audit

Options mirror :class:`~repro.core.StudyConfig`; the defaults are a fast
laptop configuration, ``--paper`` switches to the paper's full protocol
(20 splits, 5-fold CV, all models).  ``--jobs N`` runs splits across N
worker processes with bit-identical results, and ``--checkpoint PATH``
records completed splits so an interrupted run resumes where it stopped.
``--task-timeout`` / ``--max-retries`` / ``--quarantine`` configure the
fault-tolerance supervisor: hung units are killed and retried with
deterministic backoff, dead workers resurrect the pool, and with
``--quarantine`` a unit that keeps failing is recorded in the ledger's
failure manifest instead of aborting the study.
"""

from __future__ import annotations

import argparse
import sys

from .cleaning.base import ERROR_TYPES
from .core import (
    GRANULARITIES,
    CleanMLStudy,
    StudyConfig,
    SupervisorConfig,
    render_error_type_report,
)
from .core import observability
from .core.observability import (
    ObservabilityConfig,
    RunReport,
    TRACE_LEVELS,
    diagnostic,
    validate_metrics_path,
)
from .core.reporting import relation_sizes
from .datasets import (
    DATASET_NAMES,
    audit_dataset,
    datasets_with,
    load_dataset,
    render_audits,
)
from .ml.registry import MODEL_NAMES
from .table.ops import summarize


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CleanML reproduction: impact of data cleaning on ML",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list datasets and their error types")

    describe = commands.add_parser("describe", help="summarize one dataset")
    describe.add_argument("dataset", choices=DATASET_NAMES)
    describe.add_argument("--seed", type=int, default=0)

    run = commands.add_parser("run", help="run a study and print Q1-Q5")
    run.add_argument(
        "dataset",
        help=f"dataset name or --all; one of {', '.join(DATASET_NAMES)}",
    )
    run.add_argument("error_type", choices=ERROR_TYPES)
    run.add_argument("--all", action="store_true", dest="all_datasets",
                     help="run the whole error-type population")
    run.add_argument("--splits", type=int, default=8)
    run.add_argument("--cv-folds", type=int, default=2)
    run.add_argument("--rows", type=int, default=None,
                     help="subsample datasets to this many rows")
    run.add_argument("--models", nargs="+", default=None, choices=MODEL_NAMES)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--search-iters", type=int, default=0)
    run.add_argument("--paper", action="store_true",
                     help="the paper's protocol: 20 splits, 5-fold CV, all models")
    run.add_argument("--fdr", default="by",
                     choices=("none", "bonferroni", "bh", "by"))
    run.add_argument("--jobs", type=int, default=1,
                     help="worker processes; results are bit-identical "
                          "for any job count")
    run.add_argument("--granularity", default="split",
                     choices=GRANULARITIES,
                     help="scheduling granularity: split (one task per "
                          "split) or cell (one sub-unit per (method, model) "
                          "cell — keeps every worker busy when --splits < "
                          "--jobs); results are bit-identical for either "
                          "choice")
    run.add_argument("--checkpoint", default=None, metavar="PATH",
                     help="task-ledger file: completed splits recorded "
                          "there are skipped, new ones appended (resume "
                          "an interrupted run by repeating the command)")
    run.add_argument("--task-timeout", type=float, default=None,
                     metavar="SECONDS",
                     help="wall-clock deadline per scheduled unit; a hung "
                          "worker is killed and the unit retried "
                          "(default: no deadline)")
    run.add_argument("--max-retries", type=int, default=2,
                     help="retries per failing unit before a cell degrades "
                          "to its split / a split is quarantined "
                          "(default: 2; retrying never changes results)")
    run.add_argument("--quarantine", action="store_true",
                     help="complete the study with a failure manifest when "
                          "a unit keeps failing — the failed unit is "
                          "recorded in the checkpoint ledger and its "
                          "(dataset, error type) block dropped from the "
                          "results — instead of aborting")
    run.add_argument("--metrics", default=None, metavar="PATH",
                     help="write a JSON run report (cache hit rates, "
                          "supervisor recovery ledger, trace spans) to "
                          "PATH; collection never changes results — "
                          "persisted study output is byte-identical with "
                          "or without it")
    run.add_argument("--trace", default="off", choices=TRACE_LEVELS,
                     help="trace-span verbosity for the run report: off "
                          "(counters only), phase (study phases), unit "
                          "(phases plus per-unit timings aggregated by "
                          "kind)")

    report = commands.add_parser(
        "report", help="pretty-print a run report written by run --metrics"
    )
    report.add_argument("path", help="path of a run-report JSON file")
    return parser


def command_list() -> int:
    """Print every dataset with its metric and error types."""
    width = max(len(name) for name in DATASET_NAMES)
    for name in DATASET_NAMES:
        dataset = load_dataset(name, seed=0)
        errors = ", ".join(dataset.error_types)
        metric = dataset.metric
        print(f"{name:<{width}}  [{metric:>8}]  {errors}")
    return 0


def command_describe(args) -> int:
    """Print one dataset's schema summary and error audit."""
    dataset = load_dataset(args.dataset, seed=args.seed)
    print(f"{dataset.name}: {dataset.description}")
    print(f"error types: {', '.join(dataset.error_types)}")
    print(f"rows: dirty={dataset.dirty.n_rows} clean={dataset.clean.n_rows}")
    print(f"metric: {dataset.metric}\n")
    print(f"{'column':<16} {'type':<12} {'missing':>8}  notes")
    for name, info in summarize(dataset.dirty).items():
        if name in dataset.dirty.schema.hidden:
            continue
        notes = ""
        if "n_unique" in info:
            notes = f"{info['n_unique']} distinct"
        elif "mean" in info:
            notes = f"mean={info['mean']:.2f} std={info['std']:.2f}"
        print(f"{name:<16} {info['type']:<12} {info['missing']:>8}  {notes}")
    print()
    print(render_audits([audit_dataset(dataset)]))
    return 0


def command_run(args) -> int:
    """Run a study and print all applicable Q1-Q5 reports."""
    if args.jobs < 1:
        diagnostic(f"--jobs must be >= 1, got {args.jobs}")
        return 2
    metrics_path = None
    if args.metrics is not None:
        # fail before the study starts — a run that computes for an hour
        # and then cannot write its report helps nobody (mirrors the
        # checkpoint path's fail-fast discipline)
        try:
            metrics_path = validate_metrics_path(args.metrics)
        except ValueError as error:
            diagnostic(f"error: {error}")
            return 2
    if args.paper:
        config = StudyConfig(
            n_splits=20, cv_folds=5, seed=args.seed,
            search_iters=args.search_iters, fdr_procedure=args.fdr,
        )
    else:
        config = StudyConfig(
            n_splits=args.splits,
            cv_folds=args.cv_folds,
            models=tuple(args.models) if args.models else MODEL_NAMES,
            seed=args.seed,
            search_iters=args.search_iters,
            fdr_procedure=args.fdr,
        )

    overrides = {"n_rows": args.rows} if args.rows else {}
    if args.all_datasets:
        population = datasets_with(args.error_type, seed=args.seed)
        if args.rows:
            population = [
                load_dataset(d.name, seed=args.seed, **overrides)
                if "_" not in d.name
                else d
                for d in population
            ]
    else:
        if args.dataset not in DATASET_NAMES:
            print(f"unknown dataset {args.dataset!r}", file=sys.stderr)
            return 2
        population = [load_dataset(args.dataset, seed=args.seed, **overrides)]

    observe = metrics_path is not None or args.trace != "off"
    if observe:
        observability.install(
            ObservabilityConfig(enabled=True, trace=args.trace)
        )

    study = CleanMLStudy(config)
    for dataset in population:
        if not dataset.has(args.error_type):
            diagnostic(f"skipping {dataset.name}: no {args.error_type}")
            continue
        study.add(dataset, args.error_type)
    supervisor = SupervisorConfig(
        timeout=args.task_timeout,
        max_retries=args.max_retries,
        quarantine=args.quarantine,
    )
    try:
        database = study.run(
            progress=lambda ds, et: diagnostic(f"running {ds} x {et} ..."),
            n_jobs=args.jobs,
            checkpoint=args.checkpoint,
            granularity=args.granularity,
            supervisor=supervisor,
        )
    except KeyboardInterrupt:
        # execute_study has already cancelled pending futures and torn
        # the pool down; everything completed is banked in the ledger.
        diagnostic("\nrun interrupted")
        if args.checkpoint:
            resume = " ".join(sys.argv if sys.argv else ["python -m repro"])
            diagnostic(
                f"resume with: {resume}\n(completed units recorded in "
                f"{args.checkpoint} will be skipped)"
            )
        else:
            diagnostic(
                "no --checkpoint was given, so completed work was not "
                "recorded; rerun with --checkpoint PATH to make runs "
                "resumable"
            )
        return 130
    finally:
        if observe:
            report = observability.build_report(
                meta={
                    "datasets": ",".join(d.name for d in population),
                    "error_type": args.error_type,
                    "jobs": args.jobs,
                    "granularity": args.granularity,
                    "trace": args.trace,
                }
            )
            observability.uninstall()
            if metrics_path is not None:
                report.save(metrics_path)
                diagnostic(f"run report written to {metrics_path}")
            else:
                diagnostic(report.describe())
    manifest = study.failure_manifest
    if manifest.failures or manifest.dropped_blocks:
        diagnostic(f"\nFAILURE MANIFEST\n{manifest.describe()}")
    print(render_error_type_report(database, args.error_type))
    sizes = relation_sizes(database)
    print(
        "\nrelation sizes: "
        + ", ".join(f"{name}={count}" for name, count in sizes.items())
    )
    return 0


def command_report(args) -> int:
    """Pretty-print a persisted run report."""
    try:
        report = RunReport.load(args.path)
    except FileNotFoundError:
        diagnostic(f"error: no run report at {args.path}")
        return 2
    except ValueError as error:
        diagnostic(f"error: {error}")
        return 2
    print(report.describe())
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return command_list()
    if args.command == "describe":
        return command_describe(args)
    if args.command == "report":
        return command_report(args)
    return command_run(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
