"""repro.api — the service-shaped frontend of the reproduction.

* :class:`JobSpec` / :class:`LabelingJob` / :class:`Engine` — submit labeling
  jobs, run many concurrently, and stream typed per-batch
  :class:`ProgressEvent`\\ s while a run advances;
* the versioned JSON wire format (:mod:`repro.api.wire`) the HTTP service
  speaks.

Every job runs on the simulated crowd platform
(:class:`~repro.crowd.platform.SimulatedCrowdPlatform`), which
:func:`build_run` constructs for each execution.

Quickstart::

    from repro import Engine, JobSpec, full_clamshell, make_mnist_like

    engine = Engine(max_workers=4)
    job = engine.submit(JobSpec(dataset=make_mnist_like(seed=1), num_records=200))
    for event in job.stream():
        print(event.kind.value, event.records_labeled)
    result = job.result()

``repro.core`` imports the leaf module ``repro.api.events``; the engine
(which itself builds on ``repro.core``) and the run-record names re-exported
from ``repro.core.metrics`` are loaded lazily via PEP 562 so that importing
this package from core never creates a cycle.
"""

from __future__ import annotations

from typing import Any

from .events import ProgressEvent, ProgressKind

#: Names served lazily from :mod:`repro.api.engine` (PEP 562).
_ENGINE_EXPORTS = frozenset(
    {
        "Engine",
        "JobSpec",
        "JobStatus",
        "LabelingJob",
        "build_run",
    }
)

#: Names served lazily from :mod:`repro.core.metrics` (PEP 562): a run's
#: stats, read off its platform when it settles.
_METRICS_EXPORTS = frozenset({"ExecutionStats", "RunFingerprint", "collect_stats"})

#: Names served lazily from :mod:`repro.api.wire` (PEP 562) — the JSON wire
#: format the HTTP service speaks.
_WIRE_EXPORTS = frozenset(
    {
        "WIRE_VERSION",
        "config_from_dict",
        "config_to_dict",
        "dataset_from_dict",
        "dataset_to_dict",
        "event_to_dict",
        "population_from_dict",
        "population_to_dict",
        "result_summary",
        "spec_from_dict",
        "spec_to_dict",
        "stats_to_dict",
    }
)

__all__ = [
    "Engine",
    "ExecutionStats",
    "JobSpec",
    "JobStatus",
    "LabelingJob",
    "ProgressEvent",
    "ProgressKind",
    "RunFingerprint",
    "WIRE_VERSION",
    "build_run",
    "collect_stats",
    "config_from_dict",
    "config_to_dict",
    "dataset_from_dict",
    "dataset_to_dict",
    "event_to_dict",
    "population_from_dict",
    "population_to_dict",
    "result_summary",
    "spec_from_dict",
    "spec_to_dict",
    "stats_to_dict",
]


def __getattr__(name: str) -> Any:
    if name in _ENGINE_EXPORTS:
        from . import engine

        return getattr(engine, name)
    if name in _METRICS_EXPORTS:
        from ..core import metrics

        return getattr(metrics, name)
    if name in _WIRE_EXPORTS:
        from . import wire

        return getattr(wire, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _ENGINE_EXPORTS | _METRICS_EXPORTS | _WIRE_EXPORTS)
