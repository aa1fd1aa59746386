"""Study orchestration: run experiments, build the CleanML database.

The :class:`CleanMLStudy` is the top-level entry point a user of this
library touches: register datasets (or whole error-type populations),
``run()``, and query the resulting :class:`~repro.core.relations
.CleanMLDatabase`.  Flags are decided by the paper's three paired
t-tests with a per-relation Benjamini-Yekutieli pass (§IV-B/C).
"""

from __future__ import annotations

import numpy as np

from ..cleaning.base import ERROR_TYPES, CleaningMethod
from ..datasets.base import Dataset
from ..stats.flags import flags_with_fdr
from ..stats.ttest import paired_t_test
from . import observability
from .executor import StudyBlock, execute_study
from .relations import CleanMLDatabase
from .runner import RawExperiment, StudyConfig
from .schema import ExperimentRow
from .supervisor import FailureManifest, SupervisorConfig


class CleanMLStudy:
    """Run the CleanML protocol over a set of (dataset, error type) pairs.

    Example
    -------
    >>> study = CleanMLStudy(StudyConfig(n_splits=5))
    >>> study.add(load_dataset("EEG"), "outliers")   # doctest: +SKIP
    >>> database = study.run()                        # doctest: +SKIP
    >>> database["R1"].distribution()                 # doctest: +SKIP
    """

    def __init__(self, config: StudyConfig | None = None) -> None:
        self.config = config or StudyConfig()
        self._queue: list[StudyBlock] = []
        self.raw_experiments: list[RawExperiment] = []
        #: filled by :meth:`run` — quarantined units, dropped blocks, and
        #: recovery counters of the most recent execution
        self.failure_manifest: FailureManifest = FailureManifest()

    # -- registration ---------------------------------------------------------

    def add(
        self,
        dataset: Dataset,
        error_type: str,
        methods: list[CleaningMethod] | None = None,
    ) -> "CleanMLStudy":
        """Queue one dataset x error-type experiment block."""
        if error_type not in ERROR_TYPES:
            raise ValueError(f"unknown error type {error_type!r}")
        self._queue.append(
            StudyBlock(
                dataset=dataset,
                error_type=error_type,
                methods=tuple(methods) if methods is not None else None,
            )
        )
        return self

    # -- execution --------------------------------------------------------------

    def run(
        self,
        progress=None,
        n_jobs: int = 1,
        checkpoint=None,
        granularity: str = "split",
        supervisor: SupervisorConfig | None = None,
    ) -> CleanMLDatabase:
        """Execute all queued blocks and return the populated database.

        ``progress`` is an optional callback ``(dataset_name, error_type)``
        invoked before each block — benchmarks use it for logging.

        ``n_jobs`` sets the number of worker processes (default 1, in
        this process); any value produces bit-identical results — every
        seed depends only on the split index and the cell, and the
        executor merges cells and splits in a fixed order (see
        :mod:`repro.core.executor`).

        ``granularity`` sets the scheduling granularity: ``"split"``
        (the default) runs one unit per split; ``"cell"`` runs each
        split's (cleaning method, model) cells as units of their own —
        the lever that keeps every worker busy when a study has fewer
        splits than the machine has cores.  Like ``n_jobs``, the choice
        never changes a single bit of the results.

        ``checkpoint`` is an optional path of a ledger: completed
        (dataset, error type, split) entries recorded there are skipped,
        banked cells are not run again, and every split this run
        completes is appended, so interrupted studies resume where they
        stopped.

        ``supervisor`` configures fault tolerance
        (:class:`~repro.core.supervisor.SupervisorConfig`): per-unit
        timeouts, deterministic retries, and —
        with ``quarantine=True`` — completion with a failure manifest
        (:attr:`failure_manifest`) instead of an aborted study when a
        unit keeps failing.  Recovery never changes results: a run that
        retried its way to completion is byte-identical to a clean one.
        """
        self.failure_manifest = FailureManifest()
        with observability.span("study/execute"):
            self.raw_experiments.extend(
                execute_study(
                    self._queue,
                    self.config,
                    n_jobs=n_jobs,
                    checkpoint=checkpoint,
                    progress=progress,
                    granularity=granularity,
                    supervisor=supervisor,
                    manifest=self.failure_manifest,
                )
            )
        self._queue.clear()
        with observability.span("study/database"):
            return self.build_database()

    def build_database(
        self, alpha: float | None = None, procedure: str | None = None
    ) -> CleanMLDatabase:
        """Statistics pass: t-tests per experiment, FDR per relation.

        Exposed separately from :meth:`run` so the FDR ablation can
        rebuild the database under different procedures without
        re-running any ML.
        """
        alpha = self.config.alpha if alpha is None else alpha
        procedure = self.config.fdr_procedure if procedure is None else procedure
        database = CleanMLDatabase()
        for level in ("R1", "R2", "R3"):
            block = [e for e in self.raw_experiments if e.level == level]
            tests = [
                paired_t_test(
                    [pair.before for pair in experiment.pairs],
                    [pair.after for pair in experiment.pairs],
                )
                for experiment in block
            ]
            flags = flags_with_fdr(tests, alpha=alpha, procedure=procedure)
            relation = database[level]
            for experiment, test, flag in zip(block, tests, flags):
                relation.insert(
                    ExperimentRow(
                        dataset=experiment.dataset,
                        error_type=experiment.error_type,
                        scenario=experiment.scenario,
                        detection=experiment.detection,
                        repair=experiment.repair,
                        ml_model=experiment.ml_model,
                        flag=flag,
                        test=test,
                        mean_before=float(
                            np.mean([pair.before for pair in experiment.pairs])
                        ),
                        mean_after=float(
                            np.mean([pair.after for pair in experiment.pairs])
                        ),
                    )
                )
        return database
