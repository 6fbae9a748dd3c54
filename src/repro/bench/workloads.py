"""Built-in benchmark workloads.

Each workload exercises one axis of the system the paper's evaluation cares
about, sized so the whole suite finishes in seconds:

* ``headline`` — the §6.6 end-to-end configuration (full CLAMShell with
  hybrid learning) on a synthetic classification dataset; the CI smoke gate
  runs this one.
* ``straggler`` — straggler mitigation on vs off (Figures 9-11 regime).
* ``maintenance`` — pool maintenance PM8 vs PM∞ (Figures 3-6 regime).
* ``hybrid`` — active vs passive vs hybrid learning (Figure 15 regime).
* ``scale`` — a pool-size × task-count sweep well beyond paper scale
  (the paper's pools hold 5-25 workers labeling ~500 records; the sweep goes
  to 100-worker pools and thousands of records).  Learning is disabled so
  the measurement isolates the simulator hot path: the event loop, the
  dispatch/mitigation scan, and the per-assignment RNG draws.

Every workload runs through :meth:`repro.api.engine.Engine.run_with_stats`
— the public API surface — and returns a :class:`WorkloadOutcome` whose
fields are deterministic functions of (seed, params).
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from ..api.engine import Engine, ExecutionStats, JobSpec
from ..core.config import (
    CLAMShellConfig,
    LearningStrategy,
    baseline_retainer,
    full_clamshell,
)
from ..crowd.worker import WorkerPopulation
from ..experiments.common import make_labeling_workload, mixed_speed_population
from ..learning.datasets import Dataset, make_classification
from .registry import WorkloadOutcome, register_workload


def _execute(
    config: CLAMShellConfig,
    dataset: Dataset,
    num_records: int,
    population: Optional[WorkerPopulation] = None,
    max_batches: int = 1000,
) -> ExecutionStats:
    """One run through the engine, returning its simulator-side stats."""
    spec = JobSpec(
        dataset=dataset,
        config=config,
        # `is None`, not truthiness: parametric populations have len() == 0.
        population=(
            population
            if population is not None
            else mixed_speed_population(seed=config.seed)
        ),
        num_records=num_records,
        max_batches=max_batches,
    )
    _, stats = Engine().run_with_stats(spec)
    return stats


def _outcome(
    stats: Sequence[ExecutionStats], details: dict[str, Any]
) -> WorkloadOutcome:
    """Fold per-run stats into one outcome."""
    total = stats[0]
    for extra in stats[1:]:
        total = total.merged_with(extra)
    return WorkloadOutcome(
        sim_seconds=total.sim_seconds,
        events_processed=total.events_processed,
        labels=total.labels,
        cost=total.total_cost,
        counters=total.counters,
        details=details,
    )


@register_workload(
    "headline",
    description="full CLAMShell (SM+PM8+hybrid) end-to-end labeling run",
    defaults={"num_records": 250, "pool_size": 10},
)
def headline_workload(
    seed: int = 0, num_records: int = 250, pool_size: int = 10
) -> WorkloadOutcome:
    """The §6.6 configuration: everything on, hybrid learning."""
    dataset = make_classification(
        n_samples=max(4 * num_records, 400), n_classes=2, seed=seed
    )
    config = full_clamshell(pool_size=pool_size, seed=seed)
    stats = _execute(config, dataset, num_records)
    return _outcome([stats], {"num_records": num_records, "pool_size": pool_size})


@register_workload(
    "straggler",
    description="straggler mitigation on vs off, labeling-only",
    defaults={"num_records": 300, "pool_size": 15},
)
def straggler_workload(
    seed: int = 0, num_records: int = 300, pool_size: int = 15
) -> WorkloadOutcome:
    """Figures 9-11 regime: SM on vs off on a slow-tailed pool."""
    dataset = make_labeling_workload(num_records=2 * num_records, seed=seed)
    base = CLAMShellConfig(
        pool_size=pool_size,
        straggler_mitigation=False,
        maintenance_threshold=None,
        learning_strategy=LearningStrategy.NONE,
        seed=seed,
    )
    stats_off = _execute(base, dataset, num_records)
    stats_on = _execute(
        base.with_overrides(straggler_mitigation=True), dataset, num_records
    )
    details = {
        "sim_seconds_no_sm": stats_off.sim_seconds,
        "sim_seconds_sm": stats_on.sim_seconds,
        "sim_speedup": (
            stats_off.sim_seconds / stats_on.sim_seconds
            if stats_on.sim_seconds > 0
            else float("inf")
        ),
    }
    return _outcome([stats_off, stats_on], details)


@register_workload(
    "maintenance",
    description="pool maintenance PM8 vs PMinf, labeling-only",
    defaults={"num_records": 300, "pool_size": 15, "threshold": 8.0},
)
def maintenance_workload(
    seed: int = 0,
    num_records: int = 300,
    pool_size: int = 15,
    threshold: float = 8.0,
) -> WorkloadOutcome:
    """Figures 3-6 regime: maintained vs unmaintained pools."""
    dataset = make_labeling_workload(num_records=2 * num_records, seed=seed)
    base = CLAMShellConfig(
        pool_size=pool_size,
        straggler_mitigation=False,
        maintenance_threshold=None,
        learning_strategy=LearningStrategy.NONE,
        seed=seed,
    )
    stats_inf = _execute(base, dataset, num_records)
    stats_pm = _execute(
        base.with_overrides(maintenance_threshold=threshold), dataset, num_records
    )
    details = {
        "sim_seconds_pm_inf": stats_inf.sim_seconds,
        "sim_seconds_pm": stats_pm.sim_seconds,
        "workers_replaced": stats_pm.counters.get("workers_replaced", 0.0),
    }
    return _outcome([stats_inf, stats_pm], details)


@register_workload(
    "hybrid",
    description="active vs passive vs hybrid learning simulation",
    defaults={"num_records": 150, "pool_size": 10},
)
def hybrid_workload(
    seed: int = 0, num_records: int = 150, pool_size: int = 10
) -> WorkloadOutcome:
    """Figure 15 regime: the three learning strategies on one dataset."""
    dataset = make_classification(
        n_samples=max(4 * num_records, 400), n_classes=2, seed=seed
    )
    stats = []
    details: dict[str, Any] = {}
    for strategy in (
        LearningStrategy.ACTIVE,
        LearningStrategy.PASSIVE,
        LearningStrategy.HYBRID,
    ):
        config = baseline_retainer(
            pool_size=pool_size, learning_strategy=strategy, seed=seed
        )
        run_stats = _execute(config, dataset, num_records)
        stats.append(run_stats)
        details[f"sim_seconds_{strategy.value}"] = run_stats.sim_seconds
    return _outcome(stats, details)


#: Default (pool size, records) sweep for the ``scale`` workload.  The paper
#: runs 5-25 worker pools over ~500 records; this sweeps to 40x the largest
#: pool and 16x the record budget.  The 1000-worker tier exists because the
#: incremental active-task index made it affordable: the brute-force
#: mitigation scan ran it at ~660 events/sec, the index at several thousand.
SCALE_SWEEP: tuple[tuple[int, int], ...] = (
    (25, 1000),
    (50, 2000),
    (100, 4000),
    (1000, 8000),
)


@register_workload(
    "scale",
    description="pool-size x task-count sweep beyond paper scale, learning off",
    defaults={"sweep": SCALE_SWEEP},
)
def scale_workload(
    seed: int = 0,
    sweep: Sequence[Sequence[int]] = SCALE_SWEEP,
    max_extra_assignments: Optional[int] = None,
    reference: bool = False,
) -> WorkloadOutcome:
    """Simulator hot-path stress: big pools, thousands of tasks, no learner.

    ``max_extra_assignments`` bounds mitigation duplication per task (the
    ``scale_capped`` registration runs this very sweep with a cap, cutting
    the assignment tail severalfold at the 1000-worker tier).
    ``reference=True`` runs the sweep in reference mode
    (:attr:`~repro.core.config.CLAMShellConfig.reference`) for the
    ``BENCH_*.reference.json`` baselines: same labels, events, simulated
    clock and cost counters, more probes and more wall time.
    """
    stats = []
    points = []
    for pool_size, num_records in sweep:
        dataset = make_labeling_workload(num_records=num_records, seed=seed)
        config = CLAMShellConfig(
            pool_size=int(pool_size),
            straggler_mitigation=True,
            maintenance_threshold=None,
            max_extra_assignments=max_extra_assignments,
            learning_strategy=LearningStrategy.NONE,
            seed=seed,
            reference=reference,
        )
        run_stats = _execute(config, dataset, num_records)
        stats.append(run_stats)
        points.append(
            {
                "pool_size": int(pool_size),
                "num_records": int(num_records),
                "events_processed": run_stats.events_processed,
                "sim_seconds": run_stats.sim_seconds,
                "labels": run_stats.labels,
                "assignments_started": run_stats.counters.get(
                    "assignments_started", 0.0
                ),
                "probes_attempted": run_stats.counters.get("probes_attempted", 0.0),
                "probes_futile": run_stats.counters.get("probes_futile", 0.0),
            }
        )
    return _outcome(stats, {"sweep": points})


@register_workload(
    "scale_capped",
    description=(
        "the scale sweep with bounded tail duplication "
        "(max_extra_assignments cap)"
    ),
    defaults={
        "sweep": SCALE_SWEEP,
        # The full_clamshell production default: severalfold fewer
        # assignment starts at the 1000-worker tier, nearly all of the
        # mitigation latency win kept.
        "max_extra_assignments": 2,
    },
)
def scale_capped_workload(
    seed: int = 0,
    sweep: Sequence[Sequence[int]] = SCALE_SWEEP,
    max_extra_assignments: Optional[int] = 2,
    reference: bool = False,
) -> WorkloadOutcome:
    """The ``scale`` sweep with the §4.1 duplicate cap enabled.

    Same tiers, same seeds, same populations — only
    ``max_extra_assignments`` differs, so diffing its ``BENCH`` document
    against ``scale``'s isolates what bounding the duplication tail buys:
    severalfold fewer ``assignments_started`` (and events) at the
    1000-worker tier for the same labels.  A saturated cap is also where
    fast dispatch skips the most probes (most would be futile).  Run with ``--param reference=true`` to regenerate
    ``BENCH_scale_capped.reference.json``, the reference-mode twin that
    proves the capped fast paths behaviour-identical.
    """
    return scale_workload(
        seed=seed,
        sweep=sweep,
        max_extra_assignments=max_extra_assignments,
        reference=reference,
    )


@register_workload(
    "concurrency",
    description="pooled Engine.run_many over independent labeling jobs",
    defaults={
        "num_jobs": 6,
        "max_workers": 4,
        "num_records": 150,
        "pool_size": 15,
        "executor": "thread",
    },
)
def concurrency_workload(
    seed: int = 0,
    num_jobs: int = 6,
    max_workers: int = 4,
    num_records: int = 150,
    pool_size: int = 15,
    executor: str = "thread",
) -> WorkloadOutcome:
    """Concurrent engine execution: ``num_jobs`` independent labeling runs
    race on a ``max_workers``-wide pool via :meth:`Engine.run_many_with_stats`.

    Each job gets its own seed, dataset slice, population, and platform, so
    per-job outcomes are deterministic and the aggregate is independent of
    pool interleaving — which is exactly what lets a concurrency benchmark
    back a regression gate.  Wall-clock improvements here measure the
    engine's submission/streaming overhead and lock contention, not the
    simulator.

    ``--param executor=process`` runs the same jobs in shared-nothing worker
    processes instead of pool threads.  The labels/events/cost fingerprint
    is bit-identical by construction (CI strict-compares the process run
    against the committed thread baseline); wall-clock scales with cores
    once jobs are large enough to amortise worker startup.
    """
    specs = []
    for job in range(num_jobs):
        job_seed = seed + 1000 * job
        dataset = make_labeling_workload(num_records=2 * num_records, seed=job_seed)
        config = CLAMShellConfig(
            pool_size=pool_size,
            straggler_mitigation=True,
            maintenance_threshold=None,
            learning_strategy=LearningStrategy.NONE,
            seed=job_seed,
        )
        specs.append(
            JobSpec(
                dataset=dataset,
                config=config,
                # One population instance per spec: populations are stateful
                # and sharing one across concurrent jobs races its RNG.
                population=mixed_speed_population(seed=job_seed),
                num_records=num_records,
                name=f"concurrency-{job}",
            )
        )
    with Engine(max_workers=max_workers, executor=executor) as engine:
        paired = engine.run_many_with_stats(specs)
        high_water = engine.concurrency_high_water
    stats = [job_stats for _, job_stats in paired]
    details = {
        "num_jobs": num_jobs,
        "max_workers": max_workers,
        "executor": executor,
        "per_job_labels": [len(result.labels) for result, _ in paired],
        # Diagnostic only: depends on thread scheduling, so it lives in
        # details (excluded from the determinism fingerprint).
        "concurrency_high_water": high_water,
    }
    return _outcome(stats, details)


@register_workload(
    "service",
    description="HTTP/SSE labeling service under N concurrent clients",
    defaults={
        "num_clients": 8,
        "jobs_per_client": 2,
        "num_records": 40,
        "pool_size": 6,
    },
)
def service_workload(
    seed: int = 0,
    num_clients: int = 8,
    jobs_per_client: int = 2,
    num_records: int = 40,
    pool_size: int = 6,
) -> WorkloadOutcome:
    """Labeling-as-a-service under load: a live HTTP server on an ephemeral
    port, ``num_clients`` threads each submitting ``jobs_per_client`` jobs
    over the wire and following every read endpoint (SSE stream to
    completion, paginated labels, final status).

    Every job carries its own seed through the JSON wire document, so the
    labels/cost outcome is a pure function of (seed, params) no matter how
    requests interleave — that is the fingerprint the determinism check
    pins.  Requests/sec and latency percentiles are wall-clock and live in
    ``details`` only; ``requests_per_second`` is the gate-facing throughput
    headline for this workload.
    """
    from ..service import LabelingService, run_load, start_server

    payloads = []
    for client in range(num_clients):
        client_payloads = []
        for job in range(jobs_per_client):
            job_seed = seed + 1000 * (client * jobs_per_client + job)
            client_payloads.append(
                {
                    "dataset": {
                        "generator": "labeling_workload",
                        "params": {
                            "num_records": 2 * num_records,
                            "seed": job_seed,
                        },
                    },
                    "config": {
                        "pool_size": pool_size,
                        "straggler_mitigation": True,
                        "maintenance_threshold": None,
                        "learning_strategy": LearningStrategy.NONE.value,
                        "seed": job_seed,
                    },
                    "population": {"factory": "mixed_speed", "seed": job_seed},
                    "num_records": num_records,
                    "name": f"service-{client}-{job}",
                }
            )
        payloads.append(client_payloads)

    service = LabelingService(max_workers=num_clients)
    server = start_server(service, port=0)
    try:
        host, port = server.server_address[:2]
        report = run_load(host, port, payloads)
        stats = [
            service.engine.get_job(job_id).stats() for job_id in report.job_ids
        ]
    finally:
        server.shutdown()
        server.server_close()
        service.close()
    details = {
        "num_clients": num_clients,
        "jobs_per_client": jobs_per_client,
        # Wall-clock observations: details only (not in the fingerprint).
        "requests": report.requests,
        "requests_per_second": report.requests_per_second,
        "latency_ms_p50": report.latency_ms(0.50),
        "latency_ms_p99": report.latency_ms(0.99),
        "events_streamed": report.events_streamed,
        "stream_seconds_max": max(report.stream_seconds, default=0.0),
    }
    return _outcome(stats, details)
