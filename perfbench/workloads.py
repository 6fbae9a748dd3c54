"""The four workloads: their inputs, made from a seed, and one pass of each.

The seed draws each job's records and the simulated platform's randomness.
The crowd is part of the workload: input slot ``i`` always recruits from
the same worker population (``mixed_speed_population(seed=i)``), so the
simulated latencies and costs vary with the seed by the platform's chance
alone, not by which crowd happened to be drawn.

A workload is set up once per measured run (inputs generated, engine or
server started, one warm-up job), then runs passes until the run's time is
up.  Every pass submits the same inputs, so every pass must produce the
same outputs; :class:`Job` records what the benchmark's client saw of one
job, and its :meth:`Job.fingerprint` is what passes are compared by.

``scale_sweep`` and ``paper_matrix`` run each job inline on the thread
that times it, and time passes and jobs by that thread's CPU time
(:data:`~perfbench.host.thread_clock`): on a shared host a job's wall time
also counts whatever ran while the job waited for a processor.  The
neighbours slow the thread's CPU time as well, so each such pass also times
a fixed calibration task before its first job and after every job
(:func:`~perfbench.host.calibration_seconds`), and scales each job's times
to the reference host's speed.  The other workloads spread over threads and
processes and use the wall clock, unscaled.

The program is driven only through its public API: ``Engine``, ``JobSpec``
and, for ``service_mix``, ``start_server`` plus HTTP.
"""

from __future__ import annotations

import hashlib
import subprocess
import sys
import threading
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

import numpy as np

from repro import (
    Engine,
    JobSpec,
    LearningStrategy,
    baseline_no_retainer,
    baseline_retainer,
    full_clamshell,
    make_classification,
)
from repro.experiments.common import make_labeling_workload, mixed_speed_population
from repro.service import LabelingService, start_server

from .host import (
    REFERENCE_CALIBRATION_S,
    calibration_seconds,
    clock,
    cpu_seconds,
    stop_multiprocessing_helpers,
    thread_clock,
)
from .httpclient import ClosedLoopClient, Request

#: What a fresh interpreter imports before it can run any workload.
_IMPORTS = "import repro, repro.service"


@dataclass
class Job:
    """One job as the benchmark's client saw it.

    ``key`` names the job's input; it is the same in every pass.  Times are
    readings of the workload's clock (see the module doc): when the client
    submitted the job, when it saw the first and the last progress event,
    and when the call that returned the job's outcome came back.
    """

    key: str
    num_records: int
    truth: np.ndarray
    submitted_at: float
    first_event_at: Optional[float] = None
    last_event_at: Optional[float] = None
    finished_at: Optional[float] = None
    events: int = 0
    ok: bool = False
    labels: dict[int, int] = field(default_factory=dict)
    total_cost: float = 0.0
    batch_latencies: list[float] = field(default_factory=list)
    final_accuracy: Optional[float] = None
    #: ``events_processed`` plus the platform counters of the run.
    counters: dict[str, float] = field(default_factory=dict)
    #: How fast the host ran the timing thread around this job, against the
    #: reference (see the module doc); the job's timings times this are what
    #: the reference host would have given.  1.0 where not measured.
    host_speed: float = 1.0

    def saw_event(self, now: float) -> None:
        if self.first_event_at is None:
            self.first_event_at = now
        self.last_event_at = now
        self.events += 1

    def fingerprint(self) -> str:
        """Digest of the job's labels, cost and simulated batch latencies."""
        text = repr((sorted(self.labels.items()), self.total_cost, self.batch_latencies))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    @property
    def label_accuracy(self) -> float:
        """Share of the consensus labels that match the ground truth."""
        hits = sum(1 for record, label in self.labels.items() if self.truth[record] == label)
        return hits / len(self.labels)


@dataclass
class Pass:
    """One pass over a workload's inputs.

    ``timed_s`` is the pass's duration on the clock its jobs were timed by,
    at the reference host's speed (see the module doc); ``wall_s`` is its
    wall time.
    """

    jobs: list[Job]
    wall_s: float
    timed_s: float
    cpu_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: Non-streaming HTTP requests (``service_mix`` only).
    requests: list[Request] = field(default_factory=list)

    @property
    def labels(self) -> int:
        return sum(len(job.labels) for job in self.jobs if job.ok)


def _fill_from_run(job: Job, result: Any, stats: Any) -> None:
    job.labels = {int(record): int(label) for record, label in result.labels.items()}
    job.total_cost = float(result.total_cost)
    job.batch_latencies = [float(outcome.batch_latency) for outcome in result.batch_outcomes]
    job.final_accuracy = result.final_accuracy
    job.counters = {"events_processed": float(stats.events_processed), **stats.counters}
    job.ok = True


def _time_imports() -> float:
    """Seconds a fresh interpreter takes to import the program."""
    started = clock()
    subprocess.run([sys.executable, "-c", _IMPORTS], check=True)
    return clock() - started


class Workload:
    """Base class: ``setup`` returns its own duration in seconds."""

    name = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> float:
        started = clock()
        imports = _time_imports()
        self._start()
        return imports + clock() - started

    def _start(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        """Stop whatever :meth:`setup` started."""

    def run_pass(self) -> Pass:
        raise NotImplementedError

    def reference(self) -> dict[str, str]:
        """Fingerprints another executor must reproduce, by job key."""
        return {}

    def _job_seed(self, index: int) -> int:
        return self.seed * 100 + index


class _InlineWorkload(Workload):
    """Jobs run one after another through ``Engine.run_with_stats``."""

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.engine = Engine()

    def specs(self) -> list[tuple[str, JobSpec, np.ndarray]]:
        """``(key, spec, ground truth)`` per job of one pass, fresh objects
        each call: populations are stateful, so no two runs share one."""
        raise NotImplementedError

    def run_pass(self) -> Pass:
        """Every job, with the calibration task timed between jobs; each
        job's host speed comes from the calibrations on either side of it."""
        jobs = []
        wall = timed = cpu = 0.0
        before = calibration_seconds()
        for key, spec, truth in self.specs():
            started, busy, used = clock(), thread_clock(), cpu_seconds()
            job = _run_inline(self.engine, key, spec, truth)
            wall += clock() - started
            busy = thread_clock() - busy
            cpu += cpu_seconds() - used
            after = calibration_seconds()
            job.host_speed = 2.0 * REFERENCE_CALIBRATION_S / (before + after)
            timed += busy * job.host_speed
            jobs.append(job)
            before = after
        return Pass(
            jobs, wall, timed, cpu,
            attempted=len(jobs), failed=sum(not job.ok for job in jobs),
        )


def _run_inline(engine: Engine, key: str, spec: JobSpec, truth: np.ndarray) -> Job:
    job = Job(key, spec.num_records, truth, submitted_at=thread_clock())
    try:
        result, stats = engine.run_with_stats(
            spec, on_event=lambda _: job.saw_event(thread_clock())
        )
    except Exception:  # a failed job is counted, and the run goes on
        traceback.print_exc()
        return job
    job.finished_at = thread_clock()
    _fill_from_run(job, result, stats)
    return job


class ScaleSweep(_InlineWorkload):
    """Pool size x records tiers, straggler mitigation on, learning and
    maintenance off: the load on the crowd simulator and on dispatch."""

    name = "scale_sweep"
    TIERS = ((25, 1000), (50, 2000), (100, 4000), (1000, 8000))

    def _start(self) -> None:
        self.datasets = [
            make_labeling_workload(num_records=records, seed=self._job_seed(tier))
            for tier, (_, records) in enumerate(self.TIERS)
        ]
        warm_up = self._spec(0, pool=25, records=200)
        _run_inline(self.engine, "warm-up", warm_up, self.datasets[0].y)

    def _spec(self, tier: int, pool: int, records: int) -> JobSpec:
        seed = self._job_seed(tier)
        return JobSpec(
            dataset=self.datasets[tier],
            config=full_clamshell(
                pool_size=pool,
                seed=seed,
                maintenance_threshold=None,
                learning_strategy=LearningStrategy.NONE,
            ),
            population=mixed_speed_population(seed=tier),
            num_records=records,
        )

    def specs(self) -> list[tuple[str, JobSpec, np.ndarray]]:
        return [
            (f"pool{pool}x{records}", self._spec(tier, pool, records), self.datasets[tier].y)
            for tier, (pool, records) in enumerate(self.TIERS)
        ]


class PaperMatrix(_InlineWorkload):
    """The paper's Base-NR, Base-R and full CLAMShell configurations at
    paper scale over several dataset seeds, one job after another."""

    name = "paper_matrix"
    CONFIGS = (
        ("base_nr", baseline_no_retainer),
        ("base_r", baseline_retainer),
        ("clamshell", full_clamshell),
    )
    DATASETS = 4
    POOL = 15
    RECORDS = 500

    def _start(self) -> None:
        self._make_datasets()
        warm_up = JobSpec(
            dataset=self.datasets[0],
            config=full_clamshell(pool_size=self.POOL, seed=self.seed),
            population=mixed_speed_population(seed=self.seed),
            num_records=50,
        )
        _run_inline(self.engine, "warm-up", warm_up, self.datasets[0].y)

    def _make_datasets(self) -> None:
        self.datasets = [
            make_classification(n_samples=1000, seed=self._job_seed(index))
            for index in range(self.DATASETS)
        ]

    def specs(self) -> list[tuple[str, JobSpec, np.ndarray]]:
        out = []
        for index, dataset in enumerate(self.datasets):
            seed = self._job_seed(index)
            for name, factory in self.CONFIGS:
                spec = JobSpec(
                    dataset=dataset,
                    config=factory(pool_size=self.POOL, seed=seed),
                    population=mixed_speed_population(seed=index),
                    num_records=self.RECORDS,
                )
                out.append((f"{name}/{index}", spec, dataset.y))
        return out


class ProcessFanout(PaperMatrix):
    """``paper_matrix``'s jobs submitted at once to a two-worker process
    executor and followed by two consumer threads."""

    name = "process_fanout"
    WORKERS = 2

    def _start(self) -> None:
        self._make_datasets()
        self.engine = Engine(max_workers=self.WORKERS, executor="process")
        warm_up = JobSpec(
            dataset=self.datasets[0],
            config=full_clamshell(
                pool_size=6, seed=self.seed, learning_strategy=LearningStrategy.NONE
            ),
            population=mixed_speed_population(seed=self.seed),
            num_records=20,
        )
        self.engine.run_many([warm_up])

    def teardown(self) -> None:
        self.engine.close()
        stop_multiprocessing_helpers()

    def run_pass(self) -> Pass:
        started, cpu = clock(), cpu_seconds()
        pending: deque = deque()
        jobs = []
        for key, spec, truth in self.specs():
            job = Job(key, spec.num_records, truth, submitted_at=clock())
            pending.append((job, self.engine.submit(spec)))
            jobs.append(job)
        consumers = [
            threading.Thread(target=_consume, args=(pending,)) for _ in range(self.WORKERS)
        ]
        for consumer in consumers:
            consumer.start()
        for consumer in consumers:
            consumer.join()
        wall = clock() - started
        return Pass(
            jobs, wall, wall, cpu_seconds() - cpu,
            attempted=len(jobs), failed=sum(not job.ok for job in jobs),
        )

    def reference(self) -> dict[str, str]:
        engine = Engine()
        return {
            key: _run_inline(engine, key, spec, truth).fingerprint()
            for key, spec, truth in self.specs()
        }


def _consume(pending: deque) -> None:
    """Follow submitted jobs in submission order until none are left."""
    while True:
        try:
            job, handle = pending.popleft()
        except IndexError:
            return
        try:
            for _ in handle.stream():
                job.saw_event(clock())
            result = handle.result()
            stats = handle.stats()
        except Exception:  # a failed job is counted, and the run goes on
            traceback.print_exc()
            continue
        job.finished_at = clock()
        _fill_from_run(job, result, stats)


class ServiceMix(Workload):
    """A live HTTP service and two closed-loop clients, each following its
    jobs through submit, event stream, label pages, a cached re-read, the
    job summary and delete.  A pass is one round over the job documents."""

    name = "service_mix"
    DOCUMENTS = 96
    RECORDS = 40
    POOL = 6
    PAGE = 16
    CLIENTS = 2
    WORKERS = 2
    TIMEOUT_S = 5.0

    def _start(self) -> None:
        self.documents = []
        self.truths = []
        for index in range(self.DOCUMENTS):
            seed = self._job_seed(index)
            dataset = make_labeling_workload(num_records=self.RECORDS, seed=seed)
            spec = JobSpec(
                dataset=dataset,
                config=full_clamshell(
                    pool_size=self.POOL, seed=seed, learning_strategy=LearningStrategy.NONE
                ),
                population=mixed_speed_population(seed=index),
                num_records=self.RECORDS,
                name=f"doc-{index}",
            )
            self.documents.append(spec.to_dict())
            self.truths.append(dataset.y)
        self.service = LabelingService(max_workers=self.WORKERS)
        self.server = start_server(self.service)
        host, port = self.server.server_address[:2]
        warm_up = ClosedLoopClient(host, port, self.TIMEOUT_S)
        try:
            warm_up.request("healthz", "GET", "/healthz")
            _follow(warm_up, "warm-up", self.documents[0], self.truths[0], self.PAGE)
        finally:
            warm_up.close()
        self.clients = [
            ClosedLoopClient(host, port, self.TIMEOUT_S) for _ in range(self.CLIENTS)
        ]

    def teardown(self) -> None:
        for client in self.clients:
            client.close()
        self.server.shutdown()
        self.server.server_close()
        self.service.close()

    def run_pass(self) -> Pass:
        jobs: list[list[Job]] = [[] for _ in self.clients]
        started, cpu = clock(), cpu_seconds()
        threads = [
            threading.Thread(target=self._drive, args=(index, jobs[index]))
            for index in range(self.CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall, cpu = clock() - started, cpu_seconds() - cpu
        all_jobs = [job for client_jobs in jobs for job in client_jobs]
        drained = [client.drain() for client in self.clients]
        return Pass(
            all_jobs, wall, wall, cpu,
            attempted=len(all_jobs) + sum(attempted for _, attempted, _ in drained),
            failed=sum(not job.ok for job in all_jobs) + sum(failed for _, _, failed in drained),
            requests=[request for requests, _, _ in drained for request in requests],
        )

    def _drive(self, client_index: int, out: list[Job]) -> None:
        client = self.clients[client_index]
        for index in range(client_index, self.DOCUMENTS, self.CLIENTS):
            document, truth = self.documents[index], self.truths[index]
            out.append(_follow(client, f"doc-{index}", document, truth, self.PAGE))


def _follow(
    client: ClosedLoopClient,
    key: str,
    document: dict[str, Any],
    truth: np.ndarray,
    page: int,
) -> Job:
    """Submit one job document and follow it to its deletion."""
    job = Job(key, document["num_records"], truth, submitted_at=clock())
    posted = client.request("post_jobs", "POST", "/jobs", tag=key, body=document, expect=(201,))
    if posted is None:
        return job
    job_id = posted.document["id"]
    stream = client.stream(f"/jobs/{job_id}/events")
    if stream is None:
        return job
    job.first_event_at, job.last_event_at = stream.first_frame_at, stream.last_frame_at
    job.events = len(stream.frames)
    job.batch_latencies = [
        float(frame["batch_latency"]) for frame in stream.frames
        if frame["kind"] == "batch_completed"
    ]
    labels, etag = _read_labels(client, job_id, page)
    if labels is None or etag is None:
        return job
    job.labels = labels
    cached = client.request(
        "labels_304", "GET", f"/jobs/{job_id}/labels?offset=0&limit={page}",
        tag=(job_id, 0), headers={"If-None-Match": etag}, expect=(304,),
    )
    summary = client.request("get_job", "GET", f"/jobs/{job_id}", tag=job_id)
    deleted = client.request("delete", "DELETE", f"/jobs/{job_id}", tag=job_id)
    job.finished_at = clock()
    if cached is None or summary is None or deleted is None:
        return job
    document = summary.document
    job.total_cost = float(document["result"]["total_cost"])
    job.final_accuracy = document["result"]["final_accuracy"]
    job.counters = {
        "events_processed": float(document["stats"]["events_processed"]),
        **document["stats"]["counters"],
    }
    job.ok = document["status"] == "succeeded"
    return job


def _read_labels(
    client: ClosedLoopClient, job_id: str, page: int
) -> tuple[Optional[dict[int, int]], Optional[str]]:
    """Every label of a finished job, page by page, and page 0's ETag."""
    labels: dict[int, int] = {}
    etag = None
    offset = 0
    while True:
        reply = client.request(
            "labels", "GET", f"/jobs/{job_id}/labels?offset={offset}&limit={page}",
            tag=(job_id, offset),
        )
        if reply is None:
            return None, None
        if offset == 0:
            etag = reply.etag
        rows = reply.document["labels"]
        labels.update((int(record), int(label)) for record, label in rows)
        offset += len(rows)
        if not rows or offset >= reply.document["total"]:
            return labels, etag


WORKLOADS: dict[str, type[Workload]] = {
    workload.name: workload for workload in (ScaleSweep, PaperMatrix, ProcessFanout, ServiceMix)
}


def fingerprints(passes: Sequence[Pass]) -> dict[str, set[str]]:
    """Every fingerprint seen per job key, over ``passes``."""
    seen: dict[str, set[str]] = {}
    for one in passes:
        for job in one.jobs:
            if job.ok:
                seen.setdefault(job.key, set()).add(job.fingerprint())
    return seen
