"""Run-report observability tests (ISSUE 10).

The contract under test has three legs.  **Side-effect freedom**: the
persisted study JSON is byte-identical with observability on (full
``unit`` tracing) or off, across the ``(n_jobs 1/2) x
(split/cell)`` matrix.  **Deterministic merge**: per-worker metric
deltas absorb commutatively, every counter name is declared in
``METRIC_CLASSES``, and repeated runs of one configuration produce
identical schedule-invariant counters no matter the work-stealing order
(and identical counters of every class at ``n_jobs=1``).
**Complete recovery ledger**: every supervisor recovery path — retries,
resurrections, degradation, quarantine — surfaces in the
:class:`RunReport` with counts that exactly match the failure manifest,
pinned under deterministic chaos plans.
"""

import pytest

from repro.cleaning import (
    DUPLICATES,
    MISSING_VALUES,
    OUTLIERS,
    ImputationCleaning,
    OutlierCleaning,
)
from repro.cleaning.base import DetectionCache
from repro.core import (
    CleanMLStudy,
    FaultPlan,
    StudyConfig,
    SupervisorConfig,
    save_experiments,
)
from repro.core import observability
from repro.core.observability import (
    METRIC_CLASSES,
    SCHEDULE_INVARIANT,
    MetricsCollector,
    ObservabilityConfig,
    RunReport,
    build_report,
    observing,
    validate_metrics_path,
)
from repro.datasets import load_dataset

FAST = StudyConfig(
    n_splits=2,
    cv_folds=2,
    models=("logistic_regression", "naive_bayes"),
    seed=7,
)

#: halved grid for the expensive chaos arms
SLIM_METHODS = (("SD", "mean"),)

#: full unit-level collection — the most invasive configuration, so the
#: byte-identity matrix runs against the worst case
OBSERVE_ALL = ObservabilityConfig(enabled=True, trace="unit")


def make_study(methods=(("SD", "mean"), ("IQR", "mean"))):
    study = CleanMLStudy(FAST)
    study.add(
        load_dataset("Sensor", seed=0, n_rows=100),
        OUTLIERS,
        methods=[OutlierCleaning(d, r) for d, r in methods],
    )
    return study


def run_study(out_path, methods=(("SD", "mean"), ("IQR", "mean")),
              obs=None, **kwargs):
    """Run the tiny study; returns (bytes, manifest, report-or-None)."""
    study = make_study(methods)
    if obs is None:
        study.run(**kwargs)
        save_experiments(study.raw_experiments, out_path)
        return out_path.read_bytes(), study.failure_manifest, None
    with observing(obs):
        study.run(**kwargs)
        report = build_report()
    save_experiments(study.raw_experiments, out_path)
    return out_path.read_bytes(), study.failure_manifest, report


def assert_registered(report):
    """Every counter and gauge of ``report`` has a declared class."""
    names = set(report.counters) | set(report.gauges)
    assert names <= set(METRIC_CLASSES), sorted(names - set(METRIC_CLASSES))


def invariant(metrics: dict) -> dict:
    return {
        name: value
        for name, value in metrics.items()
        if METRIC_CLASSES[name] == SCHEDULE_INVARIANT
    }


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """Observability-OFF persisted bytes for both study grids."""
    root = tmp_path_factory.mktemp("reference")
    fast, _, _ = run_study(root / "fast.json")
    slim, _, _ = run_study(root / "slim.json", methods=SLIM_METHODS)
    return {"fast": fast, "slim": slim}


class TestByteIdentity:
    """Collection never perturbs results, at any scheduling shape."""

    @pytest.mark.parametrize("granularity", ["split", "cell"])
    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_observed_run_is_byte_identical(
        self, tmp_path, reference, granularity, n_jobs
    ):
        produced, manifest, report = run_study(
            tmp_path / "out.json",
            n_jobs=n_jobs,
            granularity=granularity,
            obs=OBSERVE_ALL,
        )
        assert produced == reference["fast"]
        assert not manifest.failures
        # the run was actually observed: layer counters are present
        # (worker deltas shipped home when n_jobs > 1)
        assert report.counters.get("encode.matrix_fills", 0) > 0
        assert "cleaning.detection_cache.misses" in report.counters
        assert_registered(report)

    def test_observability_off_is_truly_off(self, tmp_path, reference):
        produced, _, report = run_study(
            tmp_path / "out.json",
            obs=ObservabilityConfig(enabled=False),
        )
        assert produced == reference["fast"]
        assert report.counters == {} and report.spans == {}


class TestMergeDeterminism:
    """Absorption order under work-stealing never changes the counters."""

    @staticmethod
    def repeated_reports(tmp_path, n_jobs, granularity):
        return [
            run_study(
                tmp_path / f"{granularity}-{n_jobs}-{run}.json",
                n_jobs=n_jobs,
                granularity=granularity,
                obs=OBSERVE_ALL,
            )[2]
            for run in range(2)
        ]

    def test_repeated_pool_runs_have_identical_counters(self, tmp_path):
        """Schedule-invariant counters repeat exactly under work-stealing.

        Schedule-dependent counters (cache statistics, and work that a
        worker's rebuilt workspace repeats) may differ between the runs.
        """
        for granularity in ("split", "cell"):
            first, second = self.repeated_reports(tmp_path, 2, granularity)
            assert_registered(first)
            assert invariant(first.counters) == invariant(second.counters)
            assert invariant(first.gauges) == invariant(second.gauges)
            assert invariant(first.counters)  # the pin is not vacuous
            # 2 splits x 2 methods x 2 models, whichever worker ran them
            assert first.counters["runner.cells"] == 8
            # span *counts* are deterministic; wall-clock figures are not
            assert {k: v[0] for k, v in first.spans.items()} == \
                   {k: v[0] for k, v in second.spans.items()}

    def test_repeated_serial_runs_have_identical_counters(self, tmp_path):
        """With one worker the schedule is fixed, so every counter repeats."""
        for granularity in ("split", "cell"):
            first, second = self.repeated_reports(tmp_path, 1, granularity)
            assert first.counters == second.counters
            assert first.gauges == second.gauges

    def test_every_metric_name_is_registered(self):
        """A searched study reports only declared names."""
        config = StudyConfig(
            n_splits=2,
            cv_folds=2,
            search_iters=1,
            models=("knn", "naive_bayes"),
            seed=7,
        )
        study = CleanMLStudy(config)
        study.add(
            load_dataset("Titanic", seed=0, n_rows=100),
            MISSING_VALUES,
            methods=[
                ImputationCleaning("mean", "mode"),
                ImputationCleaning("median", "dummy"),
            ],
        )
        with observing(OBSERVE_ALL):
            study.run(n_jobs=2, granularity="cell")
            report = build_report()
        for layer in ("cleaning.", "encode.", "runner.", "tuning."):
            assert any(name.startswith(layer) for name in report.counters), layer
        assert_registered(report)

    def test_absorb_is_commutative(self):
        a = {"counters": {"x": 2, "y": 1}, "gauges": {"g": 5.0},
             "spans": {"s": [2, 1.0, 0.2, 0.8]}}
        b = {"counters": {"x": 3, "z": 7}, "gauges": {"g": 2.0, "h": 1.0},
             "spans": {"s": [1, 0.1, 0.1, 0.1], "t": [1, 2.0, 2.0, 2.0]}}
        left, right = MetricsCollector(), MetricsCollector()
        left.absorb(a), left.absorb(b)
        right.absorb(b), right.absorb(a)
        assert left.snapshot() == right.snapshot()

    def test_drain_resets_the_collector(self):
        collector = MetricsCollector()
        collector.count("n", 3)
        shipped = collector.drain()
        assert shipped["counters"] == {"n": 3}
        assert collector.snapshot() == {
            "counters": {}, "gauges": {}, "spans": {}
        }


class TestCacheAccounting:
    """Cache counters account for every request: hits + misses == requests."""

    def test_hits_plus_misses_equal_requests(self, monkeypatch):
        requests = []
        for name in ("fit", "detect"):
            original = getattr(DetectionCache, name)

            def counted(self, *args, _original=original, **kwargs):
                requests.append(name)
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(DetectionCache, name, counted)
        config = StudyConfig(
            n_splits=2,
            cv_folds=2,
            search_iters=1,
            models=("knn", "naive_bayes"),
            seed=7,
        )
        study = CleanMLStudy(config)
        study.add(load_dataset("Sensor", seed=0, n_rows=100), OUTLIERS)
        study.add(load_dataset("Restaurant", seed=0, n_rows=120), DUPLICATES)
        with observing(ObservabilityConfig(enabled=True)):
            study.run(n_jobs=1)
            counters = build_report().counters

        hits = counters.get("cleaning.detection_cache.hits", 0)
        misses = counters.get("cleaning.detection_cache.misses", 0)
        assert hits > 0 and misses > 0  # both branches ran
        assert hits + misses == len(requests)


class TestRecoveryLedger:
    """Every supervisor recovery path is visible in the run report, with
    counts exactly matching the failure manifest."""

    @staticmethod
    def supervisor_counters(report):
        return {
            key.split("supervisor.", 1)[1]: value
            for key, value in report.counters.items()
            if key.startswith("supervisor.")
        }

    def test_retries_exactly_counted(self, tmp_path, reference):
        plan = FaultPlan(seed=1, exception_rate=1.0, faulty_attempts=2)
        produced, manifest, report = run_study(
            tmp_path / "out.json",
            granularity="cell",
            obs=OBSERVE_ALL,
            supervisor=SupervisorConfig(
                max_retries=3, backoff_base=0.0, fault_plan=plan
            ),
        )
        assert produced == reference["fast"]
        # 2 splits x 2 methods x 2 models = 8 cells, 2 failures each
        assert report.counters["supervisor.retries"] == 16
        assert self.supervisor_counters(report) == dict(manifest.stats)
        assert_registered(report)

    def test_resurrections_counted(self, tmp_path, reference):
        plan = FaultPlan(seed=3, crash_rate=1.0)  # every unit dies once
        produced, manifest, report = run_study(
            tmp_path / "out.json",
            methods=SLIM_METHODS,
            n_jobs=2,
            granularity="cell",
            obs=OBSERVE_ALL,
            supervisor=SupervisorConfig(
                max_retries=2, backoff_base=0.001, fault_plan=plan
            ),
        )
        assert produced == reference["slim"]
        assert report.counters["supervisor.resurrections"] >= 1
        assert self.supervisor_counters(report) == dict(manifest.stats)
        assert_registered(report)

    def test_degradation_counted(self, tmp_path, reference):
        poison = (("cell", "Sensor", "outliers", 0, 0, "logistic_regression"),)
        produced, manifest, report = run_study(
            tmp_path / "out.json",
            granularity="cell",
            obs=OBSERVE_ALL,
            supervisor=SupervisorConfig(
                max_retries=1, backoff_base=0.0,
                fault_plan=FaultPlan(poison=poison),
            ),
        )
        assert produced == reference["fast"]
        assert report.counters["supervisor.degraded_cells"] == 1
        assert self.supervisor_counters(report) == dict(manifest.stats)
        assert_registered(report)

    def test_quarantine_counted(self, tmp_path):
        poison = (("split", "Sensor", "outliers", 1),)
        _, manifest, report = run_study(
            tmp_path / "out.json",
            checkpoint=tmp_path / "ledger.jsonl",
            obs=OBSERVE_ALL,
            supervisor=SupervisorConfig(
                max_retries=1, backoff_base=0.0, quarantine=True,
                fault_plan=FaultPlan(poison=poison),
            ),
        )
        assert report.counters["supervisor.quarantined"] == 1
        assert self.supervisor_counters(report) == dict(manifest.stats)
        assert_registered(report)


class TestTraceSpans:
    def test_phase_tracing_records_study_phases_only(self, tmp_path):
        _, _, report = run_study(
            tmp_path / "out.json",
            obs=ObservabilityConfig(enabled=True, trace="phase"),
        )
        assert "study/execute" in report.spans
        assert "study/database" in report.spans
        assert not any("unit/" in name for name in report.spans)

    def test_unit_tracing_times_units_by_kind(self, tmp_path):
        _, _, report = run_study(
            tmp_path / "out.json",
            n_jobs=2,
            granularity="cell",
            obs=OBSERVE_ALL,
        )
        cell_spans = [n for n in report.spans if n.endswith("unit/cell")]
        assert cell_spans
        # 2 splits x 2 methods x 2 models = 8 cells, aggregated by kind
        assert sum(report.spans[n][0] for n in cell_spans) == 8

    def test_counters_only_when_trace_off(self, tmp_path):
        _, _, report = run_study(
            tmp_path / "out.json",
            obs=ObservabilityConfig(enabled=True, trace="off"),
        )
        assert report.counters and not report.spans

    def test_span_level_gating(self):
        with observing(ObservabilityConfig(enabled=True, trace="phase")) as c:
            with observability.span("quiet", level="unit"):
                pass
            with observability.span("loud", level="phase"):
                pass
            assert set(c.spans) == {"loud"}

    def test_nested_spans_join_paths(self):
        collector = MetricsCollector()
        with collector.span("outer"):
            with collector.span("inner"):
                pass
        assert set(collector.spans) == {"outer", "outer/inner"}

    def test_span_is_noop_when_uninstalled(self):
        assert observability.metrics() is None
        with observability.span("never"):
            pass  # must not raise, must not record anywhere

    def test_invalid_trace_level_rejected(self):
        with pytest.raises(ValueError):
            ObservabilityConfig(enabled=True, trace="verbose")


class TestRunReport:
    def build(self):
        collector = MetricsCollector()
        collector.count("cache.hits", 5)
        collector.gauge_max("memo.peak", 12)
        collector.observe("phase/run", 1.25)
        return RunReport.from_collector(
            collector, meta={"granularity": "cell", "jobs": 2}
        )

    def test_save_load_round_trip(self, tmp_path):
        report = self.build()
        path = report.save(tmp_path / "report.json")
        loaded = RunReport.load(path)
        assert loaded.to_dict() == report.to_dict()

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"schema": "something-else/9"}')
        with pytest.raises(ValueError, match="not a run report"):
            RunReport.load(path)

    def test_describe_lists_every_section(self):
        text = self.build().describe()
        assert "run report" in text
        assert "cache.hits" in text and "memo.peak" in text
        assert "phase/run" in text and "granularity" in text

    def test_describe_empty_report(self):
        assert "(empty)" in RunReport().describe()


class TestMetricsPathValidation:
    def test_directory_path_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="directory"):
            validate_metrics_path(tmp_path)

    def test_missing_parent_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="does not exist"):
            validate_metrics_path(tmp_path / "no" / "such" / "report.json")

    def test_valid_path_accepted(self, tmp_path):
        path = validate_metrics_path(tmp_path / "report.json")
        assert path == tmp_path / "report.json"
        assert not path.exists()  # the probe never creates the target


class TestCLI:
    def test_run_writes_report_and_report_command_reads_it(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        metrics = tmp_path / "report.json"
        code = main([
            "run", "Sensor", "outliers", "--splits", "2", "--cv-folds", "2",
            "--rows", "80", "--models", "logistic_regression",
            "--metrics", str(metrics), "--trace", "unit",
        ])
        assert code == 0
        assert observability.metrics() is None  # uninstalled afterwards
        report = RunReport.load(metrics)
        assert report.counters and report.spans
        assert report.meta["granularity"] == "split"
        capsys.readouterr()
        assert main(["report", str(metrics)]) == 0
        captured = capsys.readouterr()
        assert "run report" in captured.out
        assert "supervisor" in captured.out or "encode" in captured.out

    def test_invalid_metrics_path_fails_before_running(self, tmp_path, capsys):
        from repro.cli import main

        code = main([
            "run", "Sensor", "outliers",
            "--metrics", str(tmp_path / "missing-dir" / "report.json"),
        ])
        assert code == 2
        assert "does not exist" in capsys.readouterr().err

    def test_report_command_missing_file(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["report", str(tmp_path / "nope.json")]) == 2
        assert "no run report" in capsys.readouterr().err

    def test_observability_flags_default_off(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["run", "Sensor", "outliers"])
        assert args.metrics is None
        assert args.trace == "off"
