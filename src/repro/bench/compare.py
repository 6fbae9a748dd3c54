"""Scripted comparison of two benchmark JSON documents.

This is the piece CI calls (``repro bench compare baseline.json current.json``)
so that a performance regression fails the build by exit code rather than by
a human eyeballing tables.  Policy:

* the two documents must describe the same workload (hard error otherwise);
* the headline metric is ``events_per_second`` — the current run must reach
  at least ``(1 - max_regression)`` of the baseline's value to pass;
* ``labels_per_second`` is reported alongside but only gates when the
  workload labeled anything in the baseline;
* with ``strict`` (and equal seeds/params) the simulated outcome must be
  *identical* — same label count, same cost, same counters — which is how
  the reference-mode baselines prove the fast paths change no behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Union

from .runner import load_result


@dataclass
class ComparisonReport:
    """Outcome of comparing a current benchmark run against a baseline."""

    workload: str
    baseline_events_per_second: float
    current_events_per_second: float
    baseline_labels_per_second: float
    current_labels_per_second: float
    max_regression: float
    passed: bool
    #: Human-readable findings, one per line.
    messages: list[str] = field(default_factory=list)

    @property
    def events_ratio(self) -> float:
        if self.baseline_events_per_second <= 0:
            return float("inf")
        return self.current_events_per_second / self.baseline_events_per_second

    @property
    def labels_ratio(self) -> float:
        if self.baseline_labels_per_second <= 0:
            return float("inf")
        return self.current_labels_per_second / self.baseline_labels_per_second

    def summary_lines(self) -> list[str]:
        verdict = "PASS" if self.passed else "FAIL"
        lines = [
            f"workload:          {self.workload}",
            f"events/sec:        {self.baseline_events_per_second:,.0f} -> "
            f"{self.current_events_per_second:,.0f} ({self.events_ratio:.2f}x)",
            f"labels/sec:        {self.baseline_labels_per_second:,.0f} -> "
            f"{self.current_labels_per_second:,.0f} ({self.labels_ratio:.2f}x)",
            f"allowed regression: {self.max_regression:.0%}",
        ]
        lines.extend(self.messages)
        lines.append(f"verdict:           {verdict}")
        return lines


def compare_documents(
    baseline: Mapping[str, Any],
    current: Mapping[str, Any],
    max_regression: float = 0.30,
    strict: bool = False,
) -> ComparisonReport:
    """Compare two schema-valid benchmark documents (see module docstring)."""
    if not 0.0 <= max_regression < 1.0:
        raise ValueError("max_regression must be in [0, 1)")
    if baseline["workload"] != current["workload"]:
        raise ValueError(
            f"cannot compare different workloads: baseline is "
            f"{baseline['workload']!r}, current is {current['workload']!r}"
        )

    report = ComparisonReport(
        workload=str(baseline["workload"]),
        baseline_events_per_second=float(baseline["events_per_second"]),
        current_events_per_second=float(current["events_per_second"]),
        baseline_labels_per_second=float(baseline["labels_per_second"]),
        current_labels_per_second=float(current["labels_per_second"]),
        max_regression=max_regression,
        passed=True,
    )
    floor = 1.0 - max_regression

    if report.events_ratio < floor:
        report.passed = False
        report.messages.append(
            f"REGRESSION: events/sec fell to {report.events_ratio:.2f}x of the "
            f"baseline (floor {floor:.2f}x)"
        )
    if report.baseline_labels_per_second > 0 and report.labels_ratio < floor:
        report.passed = False
        report.messages.append(
            f"REGRESSION: labels/sec fell to {report.labels_ratio:.2f}x of the "
            f"baseline (floor {floor:.2f}x)"
        )

    if baseline["seed"] != current["seed"]:
        report.messages.append(
            f"note: seeds differ (baseline {baseline['seed']}, current "
            f"{current['seed']}); throughput is still comparable but outcomes "
            "are not"
        )
    elif strict:
        _check_identical_outcomes(baseline, current, report)

    return report


def compare_files(
    baseline_path: Union[str, Path],
    current_path: Union[str, Path],
    max_regression: float = 0.30,
    strict: bool = False,
) -> ComparisonReport:
    """Load, validate, and compare two ``BENCH_*.json`` files."""
    return compare_documents(
        load_result(baseline_path),
        load_result(current_path),
        max_regression=max_regression,
        strict=strict,
    )


def _check_identical_outcomes(
    baseline: Mapping[str, Any],
    current: Mapping[str, Any],
    report: ComparisonReport,
) -> None:
    """Same seed + strict: the simulated behaviour must match exactly."""
    for key in ("labels", "events_processed", "sim_seconds"):
        if baseline[key] != current[key]:
            report.passed = False
            report.messages.append(
                f"MISMATCH: {key} differs for the same seed "
                f"({baseline[key]} vs {current[key]}); the optimisation "
                "changed simulation behaviour"
            )
    baseline_cost = dict(baseline["cost"])
    current_cost = dict(current["cost"])
    for key in sorted(set(baseline_cost) | set(current_cost)):
        old = baseline_cost.get(key)
        new = current_cost.get(key)
        if old != new:
            report.passed = False
            report.messages.append(
                f"MISMATCH: cost counter {key!r} differs for the same seed "
                f"({old} vs {new})"
            )
    # Dispatch probe counters are diagnostics: fast dispatch changes probe
    # volume *by design* without touching simulated behaviour, so a
    # difference here (e.g. fast vs reference-mode documents, or a baseline
    # predating the counters) is reported but never fails the comparison.
    baseline_dispatch = dict(baseline.get("dispatch") or {})
    current_dispatch = dict(current.get("dispatch") or {})
    if baseline_dispatch != current_dispatch:
        report.messages.append(
            "note: dispatch probe counters differ "
            f"({baseline_dispatch or 'absent'} vs {current_dispatch or 'absent'}); "
            "diagnostic only, not gated"
        )
