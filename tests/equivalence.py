"""Reusable RNG-stream equivalence harness: fast mode vs reference mode.

The simulator's optimisations all carry the same contract: they must change
*how fast* a run executes, never *what* it simulates.  Each fast path has a
brute-force twin — the active-task index has ``pick_task_scan``, and fast
dispatch's early exit from the probe sweep has probing every available
worker — and one switch, :attr:`CLAMShellConfig.reference`, runs all the
twins at once.  For any seed, pool size and batch configuration, fast and
reference mode must produce bit-identical labels, platform cost counters,
simulation clocks and dollar costs: same RNG stream, same
assignment-by-assignment schedule.  So must the thread and process
executors, in either mode.

Build a config with :func:`labeling_config`, describe the variants to pit
against each other as :class:`Variant` rows, and call
:func:`assert_equivalent` (in-process engine path: ``JobSpec`` ->
``build_run`` -> ``run_iter``) or :func:`assert_executors_equivalent`
(submitted to a pooled :class:`Engine`).  Both reduce each run to its
:meth:`~repro.core.batcher.RunResult.fingerprint`, hold the behavioural
view equal across variants, and hold the dispatch-probe counters equal
across variants that share a mode.  Every variant of a cell runs the same
:class:`JobSpec` object in its own mode, so the sweep also proves that a
spec reruns identically.

Probe counters sit outside the behavioural view because fast dispatch
changes probe volume *by design*: a fast run skips provably-futile probes
that a reference run still pays for.  What the mode must never change is
everything else.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Optional, Sequence

import pytest

from repro.api.engine import Engine, JobSpec, build_run
from repro.crowd import platform as platform_module
from repro.api.events import ProgressEvent, drain_stream
from repro.core.config import CLAMShellConfig, LearningStrategy
from repro.core.metrics import RunFingerprint
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
    #: Run in reference mode (``CLAMShellConfig.reference``).
    reference: bool = False
    #: Per-worker RNG-block refill size; ``None`` keeps the platform's
    #: constant.  Blocks are a prefetch window, so any size must fingerprint
    #: identically.
    draw_block_size: Optional[int] = None
    #: Engine executor, read by :func:`assert_executors_equivalent` only.
    executor: str = "thread"


#: The default grid: {fast, reference}.
DEFAULT_VARIANTS: tuple[Variant, ...] = (
    Variant("fast"),
    Variant("reference", reference=True),
)

#: The executor grid: {thread, process} x {fast, reference}.  Crossing the
#: modes proves the process pool replays the threaded run's exact dispatch
#: decisions in both.
EXECUTOR_VARIANTS: tuple[Variant, ...] = (
    Variant("thread"),
    Variant("process", executor="process"),
    Variant("thread-reference", reference=True),
    Variant("process-reference", reference=True, executor="process"),
)


def labeling_spec(config: CLAMShellConfig, num_records: int) -> JobSpec:
    """The labeling spec of one sweep cell: every variant runs this one
    object, in its own mode (:func:`_in_mode`)."""
    return JobSpec(
        dataset=make_labeling_workload(num_records=2 * num_records, seed=config.seed),
        config=config,
        population=mixed_speed_population(seed=config.seed),
        num_records=num_records,
    )


def _in_mode(spec: JobSpec, reference: bool) -> JobSpec:
    """``spec`` with its config in fast or reference mode."""
    return spec.with_overrides(config=spec.config.with_overrides(reference=reference))


def _spec_fingerprint(
    spec: JobSpec,
    mitigator_overrides: Optional[dict[str, Any]] = None,
    draw_block_size: Optional[int] = None,
) -> RunFingerprint:
    _, batcher = build_run(spec)
    mitigator = batcher.lifeguard.mitigator
    for name, value in (mitigator_overrides or {}).items():
        setattr(mitigator, name, value)
    with pytest.MonkeyPatch.context() as patch:
        if draw_block_size is not None:
            patch.setattr(platform_module, "DEFAULT_DRAW_BLOCK_SIZE", draw_block_size)
        return drain_stream(batcher.run_iter(num_records=spec.num_records)).fingerprint()


def run_fingerprint(
    config: CLAMShellConfig,
    num_records: int,
    reference: bool = False,
    mitigator_overrides: Optional[dict[str, Any]] = None,
    draw_block_size: Optional[int] = None,
) -> RunFingerprint:
    """One full engine-path run, reduced to its fingerprint.

    ``draw_block_size`` (``None`` keeps the platform's constant) patches the
    block size the platform builds its draw blocks with, for this run only,
    and must not change a single behavioural field.
    """
    return _spec_fingerprint(
        _in_mode(labeling_spec(config, num_records), reference),
        mitigator_overrides,
        draw_block_size,
    )


def event_view(event: ProgressEvent) -> tuple[Any, ...]:
    """A :class:`ProgressEvent` reduced to its comparable fields.

    Everything the event reports is included except the final event's
    ``result`` payload, whose fingerprint is compared separately.
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
    spec: JobSpec,
    executor: str = "thread",
    max_workers: int = 2,
) -> tuple[RunFingerprint, list[tuple[Any, ...]]]:
    """One full submit-path run of ``spec`` through an :class:`Engine`: its
    fingerprint and its observed event sequence (via :func:`event_view`).

    The engine-level counterpart of :func:`run_fingerprint`, submitted to a
    pooled engine in the requested execution mode.
    """
    with Engine(max_workers=max_workers, executor=executor) as engine:
        job = engine.submit(spec)
        result = job.result(timeout=600)
        events = job.events()
    return result.fingerprint(), [event_view(event) for event in events]


def _assert_no_divergence(
    runs: dict[str, RunFingerprint],
    variants: Sequence[Variant],
    config: CLAMShellConfig,
) -> None:
    """Behavioural views equal across all variants; probe counters equal
    across variants in the same mode."""
    first = variants[0].name
    expected = runs[first].behaviour
    for variant in variants[1:]:
        assert runs[variant.name].behaviour == expected, (
            f"variant {variant.name!r} diverged behaviourally from {first!r} "
            f"for config {config.describe()!r}"
        )
    by_mode: dict[bool, str] = {}
    for variant in variants:
        twin = by_mode.setdefault(variant.reference, variant.name)
        assert runs[variant.name].probes == runs[twin].probes, (
            f"variant {variant.name!r} made different probe decisions "
            f"than {twin!r} (reference={variant.reference}) "
            f"for config {config.describe()!r}"
        )


def assert_equivalent(
    config: CLAMShellConfig,
    num_records: int = 60,
    variants: Sequence[Variant] = DEFAULT_VARIANTS,
    **mitigator_overrides: Any,
) -> dict[str, RunFingerprint]:
    """Run every variant of one sweep cell and assert they cannot diverge.

    Returns the per-variant fingerprints so callers can make additional
    cell-specific assertions (e.g. on probe volume).
    """
    spec = labeling_spec(config, num_records)
    runs = {
        variant.name: _spec_fingerprint(
            _in_mode(spec, variant.reference),
            mitigator_overrides=mitigator_overrides or None,
            draw_block_size=variant.draw_block_size,
        )
        for variant in variants
    }
    _assert_no_divergence(runs, variants, config)
    return runs


def assert_executors_equivalent(
    config: CLAMShellConfig,
    num_records: int = 40,
    variants: Sequence[Variant] = EXECUTOR_VARIANTS,
    max_workers: int = 2,
) -> dict[str, RunFingerprint]:
    """Run one sweep cell across executors and modes and assert that labels,
    counters, stats, cost, and the event-for-event progress sequence cannot
    diverge.

    Returns the per-variant fingerprints for cell-specific assertions.
    """
    spec = labeling_spec(config, num_records)
    runs = {}
    event_sequences = {}
    for variant in variants:
        runs[variant.name], event_sequences[variant.name] = engine_run_fingerprint(
            _in_mode(spec, variant.reference),
            executor=variant.executor,
            max_workers=max_workers,
        )
    _assert_no_divergence(runs, variants, config)
    first = variants[0].name
    for variant in variants[1:]:
        assert event_sequences[variant.name] == event_sequences[first], (
            f"variant {variant.name!r} streamed different events than {first!r}"
        )
    return runs
