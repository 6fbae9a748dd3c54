"""End-to-end metrics and output checks over a run's passes."""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from .stats import median, percentile, tail_percentile
from .workloads import Job, Pass, fingerprints

#: End-to-end metric -> unit, in report order.  ``BENCHMARK.json`` lists the
#: same names.  ``sim_s`` and ``usd`` are simulated seconds and dollars.
UNITS: dict[str, str] = {
    "setup_s": "s",
    "labels_per_s": "labels/s",
    "peak_rss_mb": "MB",
    "sim_batch_latency_p50_s": "sim_s",
    "sim_batch_latency_p90_s": "sim_s",
    "sim_cost_per_label_usd": "usd",
    "model_accuracy": "ratio",
    "request_ms_p50": "ms",
    "request_ms_p90": "ms",
    "first_event_ms_p50": "ms",
    "job_turnaround_ms_p50": "ms",
}


def _distinct_jobs(passes: Sequence[Pass]) -> list[Job]:
    """One finished job per input; passes agree, so any one will do."""
    chosen: dict[str, Job] = {}
    for one in passes:
        for job in one.jobs:
            if job.ok:
                chosen.setdefault(job.key, job)
    return list(chosen.values())


def _request_ms(one: Pass) -> list[float]:
    """Client-side latency of every non-streaming request of a pass,
    failures counted at the timeout.  Without HTTP, a request is the call
    that returns one job's outcome, timed from submission."""
    if one.requests:
        return [request.ms for request in one.requests]
    return _since_submit_ms(one, "finished_at")


def _since_submit_ms(one: Pass, attribute: str) -> list[float]:
    """Milliseconds from each job's submission to ``attribute``, at the
    reference host's speed."""
    out = []
    for job in one.jobs:
        at = getattr(job, attribute)
        if at is not None:
            out.append(1000.0 * (at - job.submitted_at) * job.host_speed)
    return out


def _per_pass(passes: Sequence[Pass], samples: Callable[[Pass], list[float]], p: float) -> float:
    """Median over passes of each pass's percentile ``p``."""
    return median([percentile(found, p) for found in map(samples, passes) if found])


def end_to_end(
    passes: Sequence[Pass], setup_samples: Sequence[float], peak_rss_mb: float
) -> dict[str, float]:
    """Every end-to-end metric of an untraced run.

    Throughput and wall-clock latency percentiles are medians over passes
    of each pass's figure.  Simulated quantities are taken over the
    distinct inputs, so they are a function of the seed alone.
    """
    distinct = _distinct_jobs(passes)
    latencies = [value for job in distinct for value in job.batch_latencies]
    labels = sum(len(job.labels) for job in distinct)
    learned = [job.final_accuracy for job in distinct if job.final_accuracy is not None]
    # Without a learner the crowd's consensus is the only model there is.
    accuracy = learned or [job.label_accuracy for job in distinct]
    return {
        "setup_s": median(setup_samples),
        "labels_per_s": median([one.labels / one.timed_s for one in passes]),
        "peak_rss_mb": peak_rss_mb,
        "sim_batch_latency_p50_s": percentile(latencies, 50.0),
        "sim_batch_latency_p90_s": percentile(latencies, 90.0),
        "sim_cost_per_label_usd": sum(job.total_cost for job in distinct) / labels,
        "model_accuracy": sum(accuracy) / len(accuracy),
        "request_ms_p50": _per_pass(passes, _request_ms, 50.0),
        "request_ms_p90": _per_pass(passes, _request_ms, 90.0),
        "first_event_ms_p50": _per_pass(
            passes, lambda one: _since_submit_ms(one, "first_event_at"), 50.0
        ),
        "job_turnaround_ms_p50": _per_pass(
            passes, lambda one: _since_submit_ms(one, "last_event_at"), 50.0
        ),
    }


def tail_note(passes: Sequence[Pass]) -> Optional[str]:
    """The highest request-latency percentile the run has samples for."""
    requests = [ms for one in passes for ms in _request_ms(one)]
    tail = tail_percentile(requests)
    if tail is None:
        return f"{len(requests)} requests: too few for any tail percentile"
    p, value = tail
    return f"{len(requests)} requests: highest supported tail is p{p:g} = {value:.3f} ms"


def check(passes: Sequence[Pass], reference: dict[str, str]) -> list[str]:
    """What is wrong with the outputs, as readable lines; empty if nothing.

    Every finished job must have labelled exactly the records it asked
    for; every pass must give each input the same fingerprint; and an
    input with a reference fingerprint (the same job run by another
    executor) must match it.
    """
    problems = []
    finished = [job for one in passes for job in one.jobs if job.ok]
    if not finished:
        problems.append("no job finished")
    for job in finished:
        if len(job.labels) != job.num_records:
            problems.append(f"{job.key}: {len(job.labels)} labels for {job.num_records} records")
    for key, seen in sorted(fingerprints(passes).items()):
        if len(seen) > 1:
            problems.append(f"{key}: {len(seen)} different outputs across passes")
        elif key in reference and reference[key] not in seen:
            problems.append(f"{key}: differs from the in-process run of the same job")
    return problems
