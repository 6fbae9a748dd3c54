"""Per-layer metrics: which functions the traced pass wraps, and what the
spans and the passes' own observations add up to, layer by layer.

Layer names are the program's module names.  A layer's ``self_s`` is the
time inside its wrapped functions minus the time covered by wrapped
functions they call, per pass.  Counts are per pass too.  Functions that
run in process-executor children are out of reach of a shim in the parent,
so on ``process_fanout`` only the parent-side ``api`` spans and the
counters the children ship back are measured.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Hashable, Optional, Sequence

from repro.api import engine as api_engine
from repro.api import wire
from repro.api.events import ProgressKind
from repro.core.batcher import Batcher
from repro.core.lifeguard import LifeGuard
from repro.core.maintainer import PoolMaintainer
from repro.core.mitigator import StragglerMitigator
from repro.crowd.events import EventQueue
from repro.crowd.platform import SimulatedCrowdPlatform
from repro.learning.learners import ActiveLearner, BaseLearner, HybridLearner, PassiveLearner
from repro.service import app as service_app

from .stats import median, percentile
from .tracing import Span, Target, Tracer
from .workloads import Pass

#: Client route -> the ``LabelingService`` method that handles it.
ROUTES: dict[str, str] = {
    "post_jobs": "service.submit",
    "events": "service.events",
    "labels": "service.labels_page",
    "labels_304": "service.labels_page",
    "get_job": "service.get_job",
    "delete": "service.delete",
}


def _job_id_arg(args: tuple, kwargs: dict, result: Any) -> Any:
    return args[1]


def _job_of_handle(args: tuple, kwargs: dict, result: Any) -> Any:
    return args[1].job_id


def _emitted(args: tuple, kwargs: dict, result: Any) -> tuple[str, bool]:
    started = any(event.kind is ProgressKind.RUN_STARTED for event in args[1])
    return args[0].job_id, started


def targets() -> list[Target]:
    """Every function the traced pass wraps, with the span name it records."""
    platform = [
        "start_assignment", "complete_assignment", "terminate_assignment",
        "refill_pool", "replace_worker",
    ]
    return [
        Target(EventQueue, "pop", "crowd.queue"),
        Target(EventQueue, "schedule", "crowd.queue"),
        *(Target(SimulatedCrowdPlatform, name, "crowd.platform") for name in platform),
        Target(LifeGuard, "run_batch", "dispatch.run_batch"),
        Target(StragglerMitigator, "pick_task", "dispatch.pick_task"),
        Target(StragglerMitigator, "placeable_count", "dispatch.placeable_count"),
        Target(PoolMaintainer, "maintain", "maintainer"),
        Target(Batcher, "run_iter", "batcher", iterator=True),
        Target(BaseLearner, "retrain", "learning.retrain"),
        Target(BaseLearner, "test_accuracy", "learning.accuracy_eval"),
        *(
            Target(learner, "propose_batch", "learning.propose")
            for learner in (PassiveLearner, ActiveLearner, HybridLearner)
        ),
        Target(api_engine.Engine, "submit", "api.submit", key=lambda a, k, r: r.job_id),
        Target(api_engine.Engine, "run_with_stats", "api.job"),
        Target(api_engine.Engine, "_run_job", "api.job", key=_job_of_handle),
        Target(api_engine.Engine, "_run_job_process", "api.child", key=_job_of_handle),
        Target(api_engine.LabelingJob, "_emit_batch", "api.emit", key=_emitted),
        Target(wire, "spec_from_dict", "api.wire_decode"),
        Target(service_app, "spec_from_dict", "api.wire_decode"),
        Target(
            service_app.LabelingService, "submit", "service.submit",
            key=lambda a, k, r: a[1].get("name"),
        ),
        Target(
            service_app.LabelingService, "events", "service.events",
            key=_job_id_arg, iterator=True,
        ),
        Target(
            service_app.LabelingService, "labels_page", "service.labels_page",
            key=lambda a, k, r: (a[1], k.get("offset", 0)),
        ),
        Target(service_app.LabelingService, "get_job", "service.get_job", key=_job_id_arg),
        Target(service_app.LabelingService, "delete", "service.delete", key=_job_id_arg),
    ]


#: Per-layer metric -> unit, in report order.  ``BENCHMARK.json`` lists the
#: same names.
UNITS: dict[str, str] = {
    "crowd.queue.calls": "count",
    "crowd.queue.self_s": "s",
    "crowd.platform.calls": "count",
    "crowd.platform.self_s": "s",
    "crowd.events_processed": "count",
    "crowd.assignment_useful_ratio": "ratio",
    "dispatch.self_s": "s",
    "dispatch.pick_task.calls": "count",
    "dispatch.probes_attempted": "count",
    "dispatch.probe_useful_ratio": "ratio",
    "maintainer.calls": "count",
    "maintainer.self_s": "s",
    "maintainer.workers_replaced": "count",
    "batcher.batches": "count",
    "batcher.self_s": "s",
    "learning.retrain.calls": "count",
    "learning.retrain.self_s": "s",
    "learning.propose.self_s": "s",
    "learning.accuracy_eval.self_s": "s",
    "api.submit_ms_p50": "ms",
    "api.queue_wait_ms_p50": "ms",
    "api.child_startup_ms_p50": "ms",
    "api.job_s_p50": "s",
    "api.events_per_job": "count",
    "api.wire_decode.self_s": "s",
    **{
        f"service.{route}.{what}": unit
        for route in ROUTES
        for what, unit in (("calls", "count"), ("handler_ms_p50", "ms"))
    },
    "service.transport_ms_p50": "ms",
    "host.cpu_s": "s",
    "host.pass_wall_s": "s",
    "mem.traced_peak_mb": "MB",
    "mem.bytes_per_label": "B",
    "trace.overhead_ratio": "ratio",
    "failed_ratio": "ratio",
}

#: Metrics that only spans inside the program can give; they read 0 on
#: ``process_fanout``, where that code runs in child processes.
CHILD_SIDE = (
    "crowd.queue.", "crowd.platform.", "dispatch.self_s", "dispatch.pick_task.",
    "maintainer.calls", "maintainer.self_s", "batcher.self_s", "learning.",
)


def _p50_ms(seconds: Sequence[float]) -> float:
    return 1000.0 * percentile(seconds, 50.0) if seconds else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _first_by_key(spans: Sequence[Span], name: str) -> dict[Hashable, Span]:
    first: dict[Hashable, Span] = {}
    for span in sorted((s for s in spans if s.name == name), key=lambda s: s.start):
        first.setdefault(span.key, span)
    return first


def _service_metrics(spans: Sequence[Span], passes: Sequence[Pass]) -> dict[str, float]:
    """Per-route handler time, and transport time = client time - handler time.

    A client request is paired with the handler call on the same route and
    tag; a closed-loop client sends a tag's requests one after another, so
    the n-th request pairs with the n-th call.  An event stream's handler
    time is the sum of its spans (the call and every frame produced).
    """
    calls: dict[tuple[str, Hashable], list[Span]] = defaultdict(list)
    for span in sorted(spans, key=lambda s: s.start):
        if span.name.startswith("service."):
            calls[(span.name, span.key)].append(span)
    handler_ms: dict[str, list[float]] = defaultdict(list)
    transport_ms: list[float] = []
    for request in (r for one in passes for r in one.requests if r.ok):
        queue = calls.get((ROUTES[request.route], request.tag))
        if queue:
            span = queue.pop(0)
            handler_ms[request.route].append(1000.0 * span.duration)
            transport_ms.append(request.ms - 1000.0 * span.duration)
    streams: dict[Hashable, float] = defaultdict(float)
    for span in spans:
        if span.name == "service.events":
            streams[span.key] += 1000.0 * span.duration
    handler_ms["events"] = list(streams.values())
    out: dict[str, float] = {}
    for route in ROUTES:
        samples = handler_ms.get(route, [])
        out[f"service.{route}.calls"] = len(samples) / len(passes)
        out[f"service.{route}.handler_ms_p50"] = percentile(samples, 50.0) if samples else 0.0
    out["service.transport_ms_p50"] = percentile(transport_ms, 50.0) if transport_ms else 0.0
    return out


def _api_metrics(spans: Sequence[Span], passes: Sequence[Pass]) -> dict[str, float]:
    submits = _first_by_key(spans, "api.submit")
    children = _first_by_key(spans, "api.child")
    first_emit: dict[Hashable, Span] = {}
    started_emit: dict[Hashable, Span] = {}
    for span in sorted((s for s in spans if s.name == "api.emit"), key=lambda s: s.start):
        job_id, run_started = span.key
        first_emit.setdefault(job_id, span)
        if run_started:
            started_emit.setdefault(job_id, span)
    queue_wait = [
        started_emit[job].start - submit.start
        for job, submit in submits.items() if job in started_emit
    ]
    child_startup = [
        first_emit[job].start - child.start
        for job, child in children.items() if job in first_emit
    ]
    jobs = [job for one in passes for job in one.jobs if job.ok]
    job_spans = [s.duration for s in spans if s.name == "api.job"]
    return {
        "api.submit_ms_p50": _p50_ms([s.duration for s in spans if s.name == "api.submit"]),
        "api.queue_wait_ms_p50": _p50_ms(queue_wait),
        "api.child_startup_ms_p50": _p50_ms(child_startup),
        "api.job_s_p50": percentile(job_spans, 50.0) if job_spans else 0.0,
        "api.events_per_job": _ratio(sum(job.events for job in jobs), len(jobs)),
    }


def layer_metrics(
    tracer: Tracer,
    traced: Sequence[Pass],
    untraced: Sequence[Pass],
    traced_peak_bytes: int,
    traced_peak_labels: int,
) -> dict[str, float]:
    """Every per-layer metric from the traced passes' spans and observations."""
    passes = len(traced)
    self_s = tracer.self_seconds()
    count: dict[str, int] = defaultdict(int)
    for span in tracer.spans:
        count[span.name] += 1

    def per_pass_counter(name: str) -> float:
        return sum(
            job.counters.get(name, 0.0) for one in traced for job in one.jobs if job.ok
        ) / passes

    started = per_pass_counter("assignments_started")
    probes = per_pass_counter("probes_attempted")
    attempted = sum(one.attempted for one in (*traced, *untraced))
    failed = sum(one.failed for one in (*traced, *untraced))
    out = {
        "crowd.queue.calls": count["crowd.queue"] / passes,
        "crowd.queue.self_s": self_s.get("crowd.queue", 0.0) / passes,
        "crowd.platform.calls": count["crowd.platform"] / passes,
        "crowd.platform.self_s": self_s.get("crowd.platform", 0.0) / passes,
        "crowd.events_processed": per_pass_counter("events_processed"),
        "crowd.assignment_useful_ratio": _ratio(
            per_pass_counter("assignments_completed"), started
        ),
        "dispatch.self_s": sum(
            self_s.get(name, 0.0)
            for name in ("dispatch.run_batch", "dispatch.pick_task", "dispatch.placeable_count")
        ) / passes,
        "dispatch.pick_task.calls": count["dispatch.pick_task"] / passes,
        "dispatch.probes_attempted": probes,
        "dispatch.probe_useful_ratio": _ratio(started, probes),
        "maintainer.calls": count["maintainer"] / passes,
        "maintainer.self_s": self_s.get("maintainer", 0.0) / passes,
        "maintainer.workers_replaced": per_pass_counter("workers_replaced"),
        "batcher.batches": sum(
            len(job.batch_latencies) for one in traced for job in one.jobs if job.ok
        ) / passes,
        "batcher.self_s": self_s.get("batcher", 0.0) / passes,
        "learning.retrain.calls": count["learning.retrain"] / passes,
        "learning.retrain.self_s": self_s.get("learning.retrain", 0.0) / passes,
        "learning.propose.self_s": self_s.get("learning.propose", 0.0) / passes,
        "learning.accuracy_eval.self_s": self_s.get("learning.accuracy_eval", 0.0) / passes,
        **_api_metrics(tracer.spans, traced),
        "api.wire_decode.self_s": self_s.get("api.wire_decode", 0.0) / passes,
        **_service_metrics(tracer.spans, traced),
        "host.cpu_s": median([one.cpu_s for one in untraced]),
        "host.pass_wall_s": median([one.wall_s for one in untraced]),
        "mem.traced_peak_mb": traced_peak_bytes / (1024.0 * 1024.0),
        "mem.bytes_per_label": _ratio(traced_peak_bytes, traced_peak_labels),
        "trace.overhead_ratio": _ratio(
            median([one.wall_s for one in traced]), median([one.wall_s for one in untraced])
        ),
        "failed_ratio": _ratio(failed, attempted),
    }
    return {name: out[name] for name in UNITS}


def unmeasured(metrics: dict[str, float], workload: str) -> Optional[str]:
    """A note naming the per-layer metrics that read 0, and why."""
    zero = [name for name, value in metrics.items() if value == 0.0 and name != "failed_ratio"]
    if not zero:
        return None
    if workload == "process_fanout":
        child = [name for name in zero if name.startswith(CHILD_SIDE)]
        rest = [name for name in zero if name not in child]
        note = (
            "runs in executor child processes, out of reach of the parent's trace shim: "
            + ", ".join(child)
        )
        return note + ("; not exercised: " + ", ".join(rest) if rest else "")
    return "not exercised by this workload: " + ", ".join(zero)
