"""Reusable RNG-stream equivalence harness: oracle vs fast-path runs.

The simulator's optimisations all carry the same contract: they must change
*how fast* a run executes, never *what* it simulates.  Concretely, for any
seed, pool size, and batch configuration, every execution variant — the
incremental active-task index vs the brute-force candidate scan, the
event-level dispatch gate on vs off — must produce bit-identical labels,
platform cost counters, simulation clocks, and dollar costs: same RNG
stream, same assignment-by-assignment schedule.

This module factors the sweep machinery out of
``tests/test_mitigator_equivalence.py`` so future PRs can reuse it: build a
config with :func:`labeling_config`, describe the execution variants to pit
against each other as :class:`Variant` rows, and call
:func:`assert_equivalent`.  Each variant runs the full engine path
(``JobSpec`` -> ``build_run`` -> ``run_iter``) and is fingerprinted by
:func:`run_fingerprint`; the assertion helper compares every behavioural
field across variants and additionally holds the dispatch-probe counters
equal across variants that share a gate setting (the indexed and scan paths
must make identical gate decisions).

Probe counters are compared separately from the behavioural fingerprint
because the dispatch gate changes probe volume *by design*: a gate-on run
skips provably-futile probes that a gate-off run still pays for.  What the
gate must never change is everything else.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Optional, Sequence

from repro.api.engine import Engine, JobSpec, build_run
from repro.api.events import ProgressEvent, drain_stream
from repro.core.config import CLAMShellConfig, LearningStrategy
from repro.experiments.common import make_labeling_workload, mixed_speed_population


def labeling_config(**overrides: Any) -> CLAMShellConfig:
    """A labeling-only config (no learner) with mitigation on by default."""
    base = dict(
        straggler_mitigation=True,
        maintenance_threshold=None,
        learning_strategy=LearningStrategy.NONE,
    )
    base.update(overrides)
    return CLAMShellConfig(**base)


@dataclasses.dataclass(frozen=True)
class Variant:
    """One execution variant of the same (config, seed, records) run."""

    name: str
    #: Serve dispatch from the incremental ActiveTaskIndex (fast path) or
    #: from the brute-force ``pick_task_scan`` (the reference oracle).
    use_index: bool = True
    #: Enable the LifeGuard's event-level dispatch placeability gate.
    use_dispatch_gate: bool = True


#: The default 2x2 grid: {indexed, scan-oracle} x {gate on, gate off}.
#: Every sweep cell built on this grid simultaneously proves the index
#: against the scan *and* the gate against ungated probing.
DEFAULT_VARIANTS: tuple[Variant, ...] = (
    Variant("indexed+gate", use_index=True, use_dispatch_gate=True),
    Variant("oracle+gate", use_index=False, use_dispatch_gate=True),
    Variant("indexed-ungated", use_index=True, use_dispatch_gate=False),
    Variant("oracle-ungated", use_index=False, use_dispatch_gate=False),
)


def run_fingerprint(
    config: CLAMShellConfig,
    num_records: int,
    use_index: bool = True,
    use_dispatch_gate: bool = True,
    mitigator_overrides: Optional[dict[str, Any]] = None,
    use_soa_state: bool = True,
    draw_block_size: Optional[int] = None,
) -> dict[str, Any]:
    """One full engine-path run, reduced to everything that must match.

    Returns a dict with the behavioural fields (labels, cost counters,
    simulation clock, dollars, event and waiting/working totals) plus a
    separate ``"probes"`` entry holding the dispatch-probe diagnostics,
    which are only required to match between runs with the same gate
    setting.

    ``use_soa_state`` picks the platform's assignment ledger (struct-of-
    arrays fast path vs the per-dict oracle twin) and ``draw_block_size``
    the per-worker RNG-block refill size (``None`` keeps the platform
    default); both travel through ``JobSpec.backend_options`` — the same
    plumbing production callers use — and neither may change a single
    behavioural field.
    """
    backend_options: dict[str, Any] = {}
    if not use_soa_state:
        backend_options["use_soa_state"] = False
    if draw_block_size is not None:
        backend_options["draw_block_size"] = draw_block_size
    dataset = make_labeling_workload(num_records=2 * num_records, seed=config.seed)
    spec = JobSpec(
        dataset=dataset,
        config=config,
        population=mixed_speed_population(seed=config.seed),
        num_records=num_records,
        backend_options=backend_options or None,
    )
    platform, batcher = build_run(spec)
    batcher.lifeguard.use_dispatch_gate = use_dispatch_gate
    mitigator = batcher.lifeguard.mitigator
    mitigator.use_index = use_index
    for name, value in (mitigator_overrides or {}).items():
        setattr(mitigator, name, value)
    result = drain_stream(batcher.run_iter(num_records=num_records))
    counters = dataclasses.asdict(platform.counters)
    probes = {
        key: counters.pop(key) for key in list(counters) if key.startswith("probes_")
    }
    return {
        "labels": result.labels,
        "counters": counters,
        "probes": probes,
        "sim_seconds": platform.now,
        "total_cost": result.total_cost,
        "events_processed": platform.queue.events_processed,
        "waiting_seconds": platform.pool.total_waiting_seconds(),
        "working_seconds": platform.pool.total_working_seconds(),
    }


def spec_fingerprint(spec: JobSpec) -> dict[str, Any]:
    """One full engine-path execution of ``spec``, reduced to the behavioural
    fields that must be bit-identical across equivalent specs.

    This is what the wire-format round-trip property test pins: a spec
    rebuilt from its JSON document must fingerprint identically to the
    original.  Populations are stateful (their RNG advances per draw), so
    callers must pass a freshly built spec per execution — never fingerprint
    the same spec instance twice expecting equal results.
    """
    platform, batcher = build_run(spec)
    result = drain_stream(
        batcher.run_iter(
            num_records=spec.num_records,
            accuracy_target=spec.accuracy_target,
            max_batches=spec.max_batches,
        )
    )
    return {
        "labels": result.labels,
        "counters": dataclasses.asdict(platform.counters),
        "sim_seconds": platform.now,
        "total_cost": result.total_cost,
        "events_processed": platform.queue.events_processed,
    }


def behavioural_view(fingerprint: dict[str, Any]) -> dict[str, Any]:
    """The gate-independent part of a fingerprint (everything but probes)."""
    return {key: value for key, value in fingerprint.items() if key != "probes"}


# -- state axis: struct-of-arrays ledger vs per-dict oracle ------------------


@dataclasses.dataclass(frozen=True)
class StateVariant:
    """One (assignment-ledger, dispatch-gate) cell of the state sweep."""

    name: str
    #: Keep assignment state in the struct-of-arrays ledger (fast path) or
    #: in the per-dict scan-oracle twin (``use_soa_state=False``).
    use_soa_state: bool = True
    #: The LifeGuard's event-level dispatch placeability gate.
    use_dispatch_gate: bool = True
    #: Per-worker RNG-block refill size; ``None`` keeps the platform
    #: default.  Blocks are a prefetch window, so any size must fingerprint
    #: identically — boundary cells vary this axis deliberately.
    draw_block_size: Optional[int] = None


#: The state 2x2 grid: {soa, dict-oracle} x {gate on, gate off}.  Every cell
#: built on this grid proves the struct-of-arrays ledger against the seed
#: per-dict implementation under both gate regimes.
STATE_VARIANTS: tuple[StateVariant, ...] = (
    StateVariant("soa+gate", use_soa_state=True, use_dispatch_gate=True),
    StateVariant("dict-oracle+gate", use_soa_state=False, use_dispatch_gate=True),
    StateVariant("soa-ungated", use_soa_state=True, use_dispatch_gate=False),
    StateVariant("dict-oracle-ungated", use_soa_state=False, use_dispatch_gate=False),
)


def assert_state_equivalent(
    config: CLAMShellConfig,
    num_records: int = 60,
    variants: Sequence[StateVariant] = STATE_VARIANTS,
    **mitigator_overrides: Any,
) -> dict[str, dict[str, Any]]:
    """Run one sweep cell across assignment ledgers and assert no divergence.

    * Behavioural fields must be bit-identical across *all* variants: the
      two ledgers consume the same per-worker draw blocks, so identity is
      by construction — this sweep is what makes that claim falsifiable.
    * Probe counters must be bit-identical across variants sharing a gate
      setting (ledger layout must never change a gate decision).

    Returns the per-variant fingerprints for cell-specific assertions.
    """
    runs = {
        variant.name: run_fingerprint(
            config,
            num_records,
            use_dispatch_gate=variant.use_dispatch_gate,
            mitigator_overrides=mitigator_overrides or None,
            use_soa_state=variant.use_soa_state,
            draw_block_size=variant.draw_block_size,
        )
        for variant in variants
    }
    names = [variant.name for variant in variants]
    reference_name = names[0]
    reference = behavioural_view(runs[reference_name])
    for name in names[1:]:
        assert behavioural_view(runs[name]) == reference, (
            f"state variant {name!r} diverged behaviourally from "
            f"{reference_name!r} for config {config.describe()!r}"
        )
    by_gate: dict[bool, str] = {}
    for variant in variants:
        first = by_gate.setdefault(variant.use_dispatch_gate, variant.name)
        assert runs[variant.name]["probes"] == runs[first]["probes"], (
            f"state variant {variant.name!r} made different gate/probe "
            f"decisions than {first!r} (gate={variant.use_dispatch_gate}) "
            f"for config {config.describe()!r}"
        )
    return runs


# -- executor axis: thread pool vs process pool ------------------------------


@dataclasses.dataclass(frozen=True)
class ExecutorVariant:
    """One (execution mode, dispatch-gate) cell of the executor sweep."""

    name: str
    #: ``"thread"`` runs the job on the engine's pool threads; ``"process"``
    #: runs it in a shared-nothing child process whose events are replayed
    #: over a pipe one message each.
    executor: str = "thread"
    #: The LifeGuard's event-level placeability gate, carried through the
    #: config so the setting survives the trip into a worker process.
    use_dispatch_gate: bool = True


#: The executor 2x2 grid: {thread, process} x {gated, ungated}.  Holding the
#: gate axis in the same sweep proves the process pool replays the exact
#: dispatch decisions of the threaded run in both gate regimes.
EXECUTOR_VARIANTS: tuple[ExecutorVariant, ...] = (
    ExecutorVariant("thread+gate", executor="thread", use_dispatch_gate=True),
    ExecutorVariant("process+gate", executor="process", use_dispatch_gate=True),
    ExecutorVariant("thread-ungated", executor="thread", use_dispatch_gate=False),
    ExecutorVariant("process-ungated", executor="process", use_dispatch_gate=False),
)


def event_view(event: ProgressEvent) -> tuple[Any, ...]:
    """A :class:`ProgressEvent` reduced to its comparable fields.

    Everything the event reports is included except the final event's
    ``result`` payload (its labels/cost are asserted separately — RunResult
    holds numpy-backed outcome records that do not define a usable ``==``).
    """
    return (
        event.kind.value,
        event.batch_index,
        event.wall_clock,
        event.records_labeled,
        event.pool_size,
        tuple(sorted(event.new_labels.items())),
        event.batch_latency,
        event.accuracy_estimate,
        event.workers_replaced,
        event.assignments_started,
        event.assignments_terminated,
    )


def engine_run_fingerprint(
    config: CLAMShellConfig,
    num_records: int,
    executor: str = "thread",
    max_workers: int = 2,
) -> dict[str, Any]:
    """One full submit-path run through an :class:`Engine`, fingerprinted.

    The engine-level counterpart of :func:`run_fingerprint`: the spec is
    built fresh (populations are stateful), submitted to a pooled engine in
    the requested execution mode, and reduced to the fields that must be
    bit-identical across executors — labels, cost counters, stats, and the
    full observed event sequence (via :func:`event_view`).  Probe counters
    are split out exactly like :func:`run_fingerprint` so gate-on and
    gate-off cells can share the comparison helpers.
    """
    dataset = make_labeling_workload(num_records=2 * num_records, seed=config.seed)
    spec = JobSpec(
        dataset=dataset,
        config=config,
        population=mixed_speed_population(seed=config.seed),
        num_records=num_records,
    )
    with Engine(max_workers=max_workers, executor=executor) as engine:
        job = engine.submit(spec)
        result = job.result(timeout=600)
        stats = job.stats()
        events = job.events()
    counters = dict(stats.counters)
    probes = {
        key: counters.pop(key) for key in list(counters) if key.startswith("probes_")
    }
    return {
        "labels": result.labels,
        "counters": counters,
        "probes": probes,
        "sim_seconds": stats.sim_seconds,
        "total_cost": result.total_cost,
        "events_processed": stats.events_processed,
        "events": [event_view(event) for event in events],
    }


def assert_executors_equivalent(
    config: CLAMShellConfig,
    num_records: int = 40,
    variants: Sequence[ExecutorVariant] = EXECUTOR_VARIANTS,
    max_workers: int = 2,
) -> dict[str, dict[str, Any]]:
    """Run one sweep cell across executors and assert they cannot diverge.

    * Labels, counters, stats, cost, and the event-for-event progress
      sequence must be bit-identical across *all* variants.
    * Probe counters must be bit-identical across variants sharing a gate
      setting (the process pool must replay the thread path's gate
      decisions exactly).

    Returns the per-variant fingerprints for cell-specific assertions.
    """
    runs = {
        variant.name: engine_run_fingerprint(
            config.with_overrides(use_dispatch_gate=variant.use_dispatch_gate),
            num_records,
            executor=variant.executor,
            max_workers=max_workers,
        )
        for variant in variants
    }
    names = [variant.name for variant in variants]
    reference_name = names[0]
    reference = behavioural_view(runs[reference_name])
    for name in names[1:]:
        assert behavioural_view(runs[name]) == reference, (
            f"executor variant {name!r} diverged behaviourally from "
            f"{reference_name!r} for config {config.describe()!r}"
        )
    by_gate: dict[bool, str] = {}
    for variant in variants:
        first = by_gate.setdefault(variant.use_dispatch_gate, variant.name)
        assert runs[variant.name]["probes"] == runs[first]["probes"], (
            f"executor variant {variant.name!r} made different gate/probe "
            f"decisions than {first!r} (gate={variant.use_dispatch_gate}) "
            f"for config {config.describe()!r}"
        )
    return runs


def assert_equivalent(
    config: CLAMShellConfig,
    num_records: int = 60,
    variants: Sequence[Variant] = DEFAULT_VARIANTS,
    **mitigator_overrides: Any,
) -> dict[str, dict[str, Any]]:
    """Run every variant of one sweep cell and assert they cannot diverge.

    * Behavioural fields must be bit-identical across *all* variants.
    * Probe counters must be bit-identical across variants sharing a gate
      setting (indexed and oracle dispatch must close/skip identically).

    Returns the per-variant fingerprints so callers can make additional
    cell-specific assertions (e.g. on probe volume).
    """
    runs = {
        variant.name: run_fingerprint(
            config,
            num_records,
            use_index=variant.use_index,
            use_dispatch_gate=variant.use_dispatch_gate,
            mitigator_overrides=mitigator_overrides or None,
        )
        for variant in variants
    }
    names = [variant.name for variant in variants]
    reference_name = names[0]
    reference = behavioural_view(runs[reference_name])
    for name in names[1:]:
        assert behavioural_view(runs[name]) == reference, (
            f"variant {name!r} diverged behaviourally from {reference_name!r} "
            f"for config {config.describe()!r}"
        )
    by_gate: dict[bool, str] = {}
    for variant in variants:
        first = by_gate.setdefault(variant.use_dispatch_gate, variant.name)
        assert runs[variant.name]["probes"] == runs[first]["probes"], (
            f"variant {variant.name!r} made different gate/probe decisions "
            f"than {first!r} (gate={variant.use_dispatch_gate}) "
            f"for config {config.describe()!r}"
        )
    return runs
