"""Fold every committed ``BENCH_*.json`` into one ``BENCH_summary.json``.

Each kernel PR leaves its acceptance evidence at the repository root
(``BENCH_parallel.json``, ``BENCH_split_kernel.json``, ...).  This
aggregator collects them into a single trajectory record: per-benchmark
headline numbers (speedups, throughputs, study descriptions) plus every
bit-identity gate found anywhere in the reports, with a global
``all_gates_pass`` verdict.  CI runs it after the per-kernel smokes so
the artifact bundle always carries one machine-readable summary of the
performance story; it exits non-zero if any recorded gate is false.

Run: ``PYTHONPATH=src python benchmarks/aggregate.py`` (add ``--check``
to only verify gates without rewriting the summary).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent
OUTPUT_PATH = ROOT / "BENCH_summary.json"

#: report keys treated as headline metrics when present at the top level
HEADLINE_KEYS = (
    "study",
    "speedup",
    "naive_seconds",
    "kernel_seconds",
    "tasks_per_second",
    "rows_per_second",
    "n_tasks",
    "recovery_overhead",
    "faults_recovered",
    "observability_overhead",
)


def _collect_gates(node, prefix: str, gates: dict) -> None:
    """Every boolean whose key ends in ``_identical`` / ``identical``."""
    if isinstance(node, dict):
        for key, value in node.items():
            path = f"{prefix}.{key}" if prefix else key
            if isinstance(value, bool) and key.endswith("identical"):
                gates[path] = value
            else:
                _collect_gates(value, path, gates)
    elif isinstance(node, list):
        for index, value in enumerate(node):
            _collect_gates(value, f"{prefix}[{index}]", gates)


def summarize(report_paths) -> dict:
    benchmarks: dict[str, dict] = {}
    gates: dict[str, dict] = {}
    for path in sorted(report_paths):
        name = path.stem.removeprefix("BENCH_")
        try:
            report = json.loads(path.read_text())
        except json.JSONDecodeError as error:
            raise SystemExit(f"{path.name}: not valid JSON ({error})")
        entry = {
            key: report[key] for key in HEADLINE_KEYS if key in report
        }
        for arm, key in (
            ("tuning_search", "tuning"),
            ("linear_fit", "linear"),
            ("knn_select", "knn"),
            ("zeroer_features", "zeroer"),
        ):
            section = report.get(arm)
            if isinstance(section, dict) and "speedup" in section:
                entry[f"{key}_speedup"] = section["speedup"]
        benchmarks[name] = entry
        report_gates: dict[str, bool] = {}
        _collect_gates(report, "", report_gates)
        if report_gates:
            gates[name] = report_gates
    collected = [
        value for report_gates in gates.values() for value in report_gates.values()
    ]
    # an empty gate set must fail, not vacuously pass: it means every
    # report stopped emitting the *_identical keys this check exists for
    all_pass = bool(collected) and all(collected)
    return {
        "summary": "CleanML reproduction — kernel benchmark trajectory",
        "benchmarks": benchmarks,
        "bit_identity_gates": gates,
        "gate_count": len(collected),
        "all_gates_pass": bool(all_pass),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check",
        action="store_true",
        help="verify gates only; do not rewrite BENCH_summary.json",
    )
    args = parser.parse_args(argv)

    reports = [
        path
        for path in ROOT.glob("BENCH_*.json")
        if path.name != OUTPUT_PATH.name
    ]
    if not reports:
        print("no BENCH_*.json reports found at the repository root")
        return 1
    summary = summarize(reports)
    if not args.check:
        OUTPUT_PATH.write_text(json.dumps(summary, indent=1) + "\n")

    width = max(len(name) for name in summary["benchmarks"])
    for name, entry in summary["benchmarks"].items():
        speedup = entry.get("speedup")
        headline = f"{speedup:.2f}x" if speedup is not None else "-"
        if "tuning_speedup" in entry:
            headline += f" (tuning {entry['tuning_speedup']:.2f}x)"
        if "linear_speedup" in entry:
            headline += f" (LR fit {entry['linear_speedup']:.2f}x)"
        if "knn_speedup" in entry:
            headline += f" (KNN fold {entry['knn_speedup']:.2f}x)"
        if "zeroer_speedup" in entry:
            headline += f" (ZeroER features {entry['zeroer_speedup']:.2f}x)"
        gate_count = len(summary["bit_identity_gates"].get(name, {}))
        print(f"  {name:<{width}}  {headline:<48} {gate_count} identity gates")
    verdict = "pass" if summary["all_gates_pass"] else "FAIL"
    print(f"  all bit-identity gates: {verdict}")
    if not args.check:
        print(f"[written to {OUTPUT_PATH}]")
    return 0 if summary["all_gates_pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
