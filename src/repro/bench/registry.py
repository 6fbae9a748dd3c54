"""The benchmark workload registry.

A *workload* is a named, deterministic unit of simulator work: given a seed
(and optional keyword parameters) it executes one or more labeling runs
through the :class:`~repro.api.engine.Engine` and returns a
:class:`WorkloadOutcome` summarising how much simulation was performed —
events processed, labels produced, simulated seconds covered, dollars spent.
The :mod:`repro.bench.runner` times workload executions and serialises the
outcome plus wall-clock statistics to the stable ``BENCH_<workload>.json``
schema; the CI perf gate compares those files across commits.

Workloads are registered by name with the :func:`register_workload`
decorator:

    @register_workload("scale", description="pool-size x task-count sweep")
    def scale(seed: int = 0, **params) -> WorkloadOutcome: ...

Determinism contract: for a fixed seed and fixed parameters, a workload must
produce an identical outcome on every execution (the runner verifies this
across repeats).  This is what lets the comparator treat a throughput drop
as a performance regression rather than a behaviour change.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from ..core.metrics import RunFingerprint

#: A workload callable: ``fn(seed=..., **params) -> WorkloadOutcome``.
WorkloadFn = Callable[..., "WorkloadOutcome"]


@dataclass(frozen=True)
class WorkloadOutcome:
    """What one execution of a workload simulated (wall-clock-independent).

    Every field but ``details`` is a pure function of (workload, seed,
    params), and ``fingerprints`` pins it run by run: the runner's
    determinism check requires equal fingerprints on every repeat.
    ``details`` carries per-sub-run diagnostics (e.g. one entry per sweep
    point, and wall-clock observations) and is included in the JSON output
    but not in the comparator's headline metrics.
    """

    #: Simulation seconds covered, summed over the workload's runs.
    sim_seconds: float
    #: Events popped from the platforms' event queues, summed over runs.
    events_processed: int
    #: Records the workload produced consensus labels for.
    labels: int
    #: Total dollars spent across runs (waiting + labeling + recruitment).
    cost: float
    #: Summed raw platform counters (assignments started/completed/..., plus
    #: waiting/working seconds).
    counters: dict[str, float] = field(default_factory=dict)
    #: Free-form, JSON-serialisable diagnostics (per sweep point, speedups).
    details: dict[str, Any] = field(default_factory=dict)
    #: :meth:`~repro.core.batcher.RunResult.fingerprint` of each run, in run
    #: order.
    fingerprints: tuple[RunFingerprint, ...] = ()


@dataclass(frozen=True)
class WorkloadSpec:
    """A registered workload: its callable plus display metadata."""

    name: str
    description: str
    fn: WorkloadFn
    #: Default parameters, shown by ``repro bench list`` and recorded in the
    #: JSON output so a benchmark file documents what it measured.
    defaults: Mapping[str, Any] = field(default_factory=dict)

    def execute(self, seed: int = 0, **params: Any) -> WorkloadOutcome:
        merged = {**self.defaults, **params}
        return self.fn(seed=seed, **merged)


_REGISTRY: dict[str, WorkloadSpec] = {}


def register_workload(
    name: str,
    description: str = "",
    defaults: Mapping[str, Any] | None = None,
) -> Callable[[WorkloadFn], WorkloadFn]:
    """Decorator registering a workload callable under ``name``."""
    if not name or not isinstance(name, str):
        raise ValueError("workload name must be a non-empty string")

    def decorator(fn: WorkloadFn) -> WorkloadFn:
        if name in _REGISTRY:
            raise ValueError(f"workload {name!r} is already registered")
        desc = description
        if not desc and fn.__doc__:
            desc = fn.__doc__.strip().splitlines()[0]
        _REGISTRY[name] = WorkloadSpec(
            name=name, description=desc, fn=fn, defaults=dict(defaults or {})
        )
        return fn

    return decorator


def get_workload(name: str) -> WorkloadSpec:
    """Look up a registered workload; raises ``KeyError`` with the known names."""
    _ensure_builtin_workloads()
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "<none>"
        raise KeyError(
            f"unknown benchmark workload {name!r}; registered workloads: {known}"
        ) from None


def available_workloads() -> tuple[str, ...]:
    """Names of all registered workloads, sorted."""
    _ensure_builtin_workloads()
    return tuple(sorted(_REGISTRY))


def workload_specs() -> list[WorkloadSpec]:
    """All registered workloads, sorted by name."""
    _ensure_builtin_workloads()
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def _ensure_builtin_workloads() -> None:
    # Imported lazily: workloads import the engine/experiment layers, which
    # would be a heavy (and circular-feeling) import at registry load time.
    from . import workloads  # noqa: F401
