"""The labeling Engine: job specs, job handles, and concurrent execution.

The engine is the execution frontend of the redesigned API:

* :class:`JobSpec` — an immutable description of one labeling run (dataset,
  config, population, budget, backend name);
* :class:`LabelingJob` — a handle on a submitted run; ``stream()`` yields
  typed :class:`~repro.api.events.ProgressEvent`\\ s as batches complete and
  ``result()`` blocks for the final :class:`~repro.core.batcher.RunResult`;
* :class:`Engine` — ``run()`` executes a spec inline (zero thread overhead,
  what the legacy ``CLAMShell.run()`` facade delegates to), ``submit()`` /
  ``run_many()`` execute jobs concurrently on a thread pool, or — with
  ``executor="process"`` — in shared-nothing worker processes that stream
  each event back over a pipe as it is produced.

Every execution path — facade, CLI, experiment drivers, engine — funnels
through :func:`build_run`, which resolves the spec's backend name against the
registry and wires a fresh :class:`~repro.core.batcher.Batcher`.  One run,
one platform: repeated executions of the same spec are independent and
deterministic.  Because jobs are pure functions of (spec, seed), the two
executors are interchangeable: a process-pool run replays the exact event
sequence, labels, counters, and stats of its threaded twin (proven by the
executor axis of ``tests/equivalence.py``).
"""

from __future__ import annotations

import dataclasses
import itertools
import multiprocessing
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Any, Callable, ClassVar, Iterator, Mapping, Optional, Sequence

from ..core.batcher import Batcher, RunResult
from ..core.config import CLAMShellConfig, full_clamshell
from ..crowd.traces import default_simulation_population
from ..crowd.worker import WorkerPopulation
from ..learning.datasets import Dataset
from ..learning.learners import BaseLearner
from ..learning.retrainer import DecisionLatencyModel
from .backends import CrowdBackend, create_backend
from .events import ProgressEvent, drain_stream


@dataclass(frozen=True)
class JobSpec:
    """Everything needed to execute one labeling run.

    Specs are frozen so they can be submitted repeatedly and shared between
    threads.  Mutable collaborators are created per execution: when
    ``population`` is ``None`` a fresh default population is drawn from the
    job seed, and the learner is built per run (``learner_factory``).  If you
    do pass a ``population`` instance, note that it is stateful — sharing one
    instance across *concurrent* jobs makes recruitment draws race and the
    runs non-deterministic; give each concurrent spec its own.
    """

    dataset: Dataset
    config: CLAMShellConfig = field(default_factory=full_clamshell)
    population: Optional[WorkerPopulation] = None
    num_records: int = 500
    accuracy_target: Optional[float] = None
    max_batches: int = 1000
    #: Platform seed override; defaults to ``config.seed``.
    seed: Optional[int] = None
    #: Registered backend name; defaults to ``config.backend``.
    backend: Optional[str] = None
    #: Extra keyword arguments forwarded to the backend factory.
    backend_options: Optional[Mapping[str, Any]] = None
    #: Builds the learner for one run; ``None`` lets the Batcher construct
    #: the learner the config calls for.
    learner_factory: Optional[Callable[[], Optional[BaseLearner]]] = None
    decision_latency: Optional[DecisionLatencyModel] = None
    name: str = ""

    def __post_init__(self) -> None:
        if self.dataset is None:
            raise ValueError("a JobSpec requires a dataset")
        if self.num_records < 1:
            raise ValueError("num_records must be >= 1")
        if self.max_batches < 1:
            raise ValueError("max_batches must be >= 1")
        if self.seed is not None and self.seed < 0:
            raise ValueError("seed must be >= 0 or None")

    @property
    def backend_name(self) -> str:
        return self.backend or self.config.backend

    @property
    def platform_seed(self) -> int:
        return self.config.seed if self.seed is None else self.seed

    def with_overrides(self, **kwargs: Any) -> "JobSpec":
        """A copy of this spec with the given fields replaced.

        Raises ``TypeError`` naming any key that is not a ``JobSpec`` field,
        so a typo'd override fails loudly instead of vanishing.
        """
        valid = {spec_field.name for spec_field in dataclasses.fields(self)}
        unknown = sorted(set(kwargs) - valid)
        if unknown:
            raise TypeError(
                f"JobSpec.with_overrides() got unknown field(s) "
                f"{', '.join(map(repr, unknown))}; "
                f"valid fields: {', '.join(sorted(valid))}"
            )
        return replace(self, **kwargs)

    def to_dict(self) -> dict[str, Any]:
        """Serialise to the versioned JSON wire format (:mod:`repro.api.wire`).

        Raises ``ValueError`` if the spec holds process-local state the wire
        cannot carry (``learner_factory``, ``decision_latency``, or a
        dataset/population without generation provenance).
        """
        from .wire import spec_to_dict

        return spec_to_dict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "JobSpec":
        """Rebuild a spec from its wire document (see :mod:`repro.api.wire`)."""
        from .wire import spec_from_dict

        return spec_from_dict(data)


def build_run(spec: JobSpec) -> tuple[CrowdBackend, Batcher]:
    """Wire a fresh (backend, batcher) pair for one execution of ``spec``."""
    # `is None`, not truthiness: parametric populations have len() == 0.
    population = spec.population
    if population is None:
        population = default_simulation_population(seed=spec.platform_seed)
    options = dict(spec.backend_options or {})
    platform = create_backend(
        spec.backend_name,
        population=population,
        seed=spec.platform_seed,
        num_classes=spec.dataset.num_classes,
        abandonment_rate=spec.config.abandonment_rate,
        **options,
    )
    learner = spec.learner_factory() if spec.learner_factory is not None else None
    batcher = Batcher(
        config=spec.config,
        dataset=spec.dataset,
        platform=platform,
        learner=learner,
        decision_latency=spec.decision_latency,
    )
    return platform, batcher


@dataclass(frozen=True)
class ExecutionStats:
    """Simulator-side measurements of one completed run.

    Collected by :meth:`Engine.run_with_stats` from the platform after the
    run drains.  These are the quantities the benchmark subsystem
    (:mod:`repro.bench`) serialises: they describe how much simulation the
    run performed, independent of the wall-clock time it took.
    """

    #: Simulation seconds the run covered (the platform clock at the end).
    sim_seconds: float
    #: Events popped from the platform's event queue during the run.
    events_processed: int
    #: Events scheduled onto the queue during the run.
    events_scheduled: int
    #: Records the run produced consensus labels for.
    labels: int
    #: Total dollars spent (waiting + labeling + recruitment).
    total_cost: float
    #: Raw platform counters (assignments, recruitment, abandonment, ...)
    #: plus the pool's accrued waiting/working seconds.
    counters: dict[str, float]

    def merged_with(self, other: "ExecutionStats") -> "ExecutionStats":
        """Aggregate stats across independent runs (sums everywhere)."""
        counters = dict(self.counters)
        for key, value in other.counters.items():
            counters[key] = counters.get(key, 0) + value
        return ExecutionStats(
            sim_seconds=self.sim_seconds + other.sim_seconds,
            events_processed=self.events_processed + other.events_processed,
            events_scheduled=self.events_scheduled + other.events_scheduled,
            labels=self.labels + other.labels,
            total_cost=self.total_cost + other.total_cost,
            counters=counters,
        )


def collect_stats(platform: CrowdBackend, result: RunResult) -> ExecutionStats:
    """Read an :class:`ExecutionStats` off a platform after a finished run."""
    counters = {
        key: float(value)
        for key, value in dataclasses.asdict(platform.counters).items()
    }
    counters["waiting_seconds"] = float(platform.pool.total_waiting_seconds())
    counters["working_seconds"] = float(platform.pool.total_working_seconds())
    return ExecutionStats(
        sim_seconds=float(platform.now),
        events_processed=platform.queue.events_processed,
        events_scheduled=platform.queue.events_scheduled,
        labels=result.metrics.records_labeled,
        total_cost=float(result.total_cost),
        counters=counters,
    )


#: The execution modes :meth:`Engine.submit` accepts.  ``"thread"`` runs the
#: job on the engine's thread pool; ``"process"`` runs it in a shared-nothing
#: child process (same thread pool bounds how many run at once), shipping
#: each :class:`ProgressEvent`, the :class:`RunResult`, and the platform's
#: :class:`ExecutionStats` back over a pipe.
EXECUTORS: tuple[str, ...] = ("thread", "process")


def _validate_executor(executor: str) -> str:
    if executor not in EXECUTORS:
        raise ValueError(
            f"unknown executor {executor!r}; expected one of {EXECUTORS}"
        )
    return executor


#: Lazily-created multiprocessing context shared by every engine in the
#: process.  ``forkserver`` where available: engines start workers from pool
#: threads, and forking a multithreaded parent is unsafe (and a
#: DeprecationWarning from Python 3.12); the fork server stays single
#: threaded.  Plain assignment is GIL-atomic, and racing creators would only
#: build the same context twice, so no lock is needed.
_MP_CONTEXT: Optional[multiprocessing.context.BaseContext] = None


def _process_context() -> multiprocessing.context.BaseContext:
    global _MP_CONTEXT
    if _MP_CONTEXT is None:
        method = (
            "forkserver"
            if "forkserver" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        context = multiprocessing.get_context(method)
        if method == "forkserver":
            # Pre-import the engine (and its numpy/core dependency tree) in
            # the fork server so each worker forks warm instead of paying
            # the import bill per job.
            context.set_forkserver_preload(["repro.api.engine"])
        _MP_CONTEXT = context
    return _MP_CONTEXT


# Pipe message tags, worker -> parent.  A run is EVENT* (DONE | FAILED):
# one message per progress event, then either the terminal stats (the
# RunResult rides the final RUN_FINISHED event) or the pickled exception.
_MSG_EVENT = "event"
_MSG_DONE = "done"
_MSG_FAILED = "failed"


def _pooled_worker(
    conn: "multiprocessing.connection.Connection", spec: JobSpec
) -> None:
    """Child-process entry point for one pooled job.

    Executes the spec through the same single-construction path as every
    other mode (:meth:`Engine._open_run`) and sends each event back as it
    is produced, so the parent's ``stream()`` consumers observe a pooled
    run live, exactly like a threaded one.  The final ``RUN_FINISHED``
    event carries the :class:`RunResult`; the DONE message carries the
    :class:`ExecutionStats` read off the child's platform (the platform
    object itself never crosses the pipe).

    Failures ship the exception object itself so the parent surfaces the
    same type and message; unpicklable exceptions degrade to a
    ``RuntimeError`` carrying their repr.
    """
    try:
        platform, _, events = Engine()._open_run(spec)
        result = drain_stream(
            events, on_event=lambda event: conn.send((_MSG_EVENT, event))
        )
        conn.send((_MSG_DONE, collect_stats(platform, result)))
    except BaseException as error:
        try:
            conn.send((_MSG_FAILED, error))
        except Exception:
            conn.send(
                (_MSG_FAILED, RuntimeError(f"{type(error).__name__}: {error}"))
            )
    finally:
        conn.close()


class JobStatus(Enum):
    PENDING = "pending"
    RUNNING = "running"
    SUCCEEDED = "succeeded"
    FAILED = "failed"


class LabelingJob:
    """A handle on one submitted labeling run.

    Thread-safe: the engine's worker thread appends events while any number
    of consumers iterate :meth:`stream` (late subscribers replay the full
    event history first) or block in :meth:`result`.
    """

    #: Lock-discipline declaration, enforced by ``repro lint`` (REPRO-C301):
    #: the listed fields may only be read or written while holding
    #: ``self._cond``.  Helpers named ``*_locked`` document that their
    #: caller already holds it.  ``batcher``/``platform`` are deliberately
    #: unguarded: the worker thread writes them before any event is emitted
    #: and consumers read them only after ``result()`` returns, with the
    #: condition's acquire/release providing the happens-before edge.
    _GUARDED_BY: ClassVar[Mapping[str, tuple[str, ...]]] = {
        "_cond": ("_events", "_status", "_result", "_error", "_stats"),
    }

    def __init__(
        self, spec: JobSpec, job_id: str, executor: str = "thread"
    ) -> None:
        self.spec = spec
        #: Engine-allocated string id (``"job-<n>"``); the registry key a
        #: service client uses to address this job over the wire.
        self.job_id = job_id
        #: Which execution mode runs this job (see :data:`EXECUTORS`).
        self.executor = _validate_executor(executor)
        #: The batcher/platform of the (last) execution, for inspection.
        #: ``None`` for process-pool jobs — the run's platform lives and
        #: dies in the child; its stats arrive over the pipe instead.
        self.batcher: Optional[Batcher] = None
        self.platform: Optional[CrowdBackend] = None
        self._events: list[ProgressEvent] = []
        self._cond = threading.Condition()
        self._status = JobStatus.PENDING
        self._result: Optional[RunResult] = None
        self._error: Optional[BaseException] = None
        self._stats: Optional[ExecutionStats] = None

    @property
    def name(self) -> str:
        return self.spec.name or self.job_id

    @property
    def status(self) -> JobStatus:
        with self._cond:
            return self._status

    @property
    def done(self) -> bool:
        return self.status in (JobStatus.SUCCEEDED, JobStatus.FAILED)

    def events(self) -> list[ProgressEvent]:
        """Snapshot of the events emitted so far."""
        with self._cond:
            return list(self._events)

    def stream(
        self, stop: Optional[threading.Event] = None
    ) -> Iterator[ProgressEvent]:
        """Yield progress events as the run advances.

        Replays history for late subscribers, then blocks until new events
        arrive; ends when the run finishes.  Raises the job's error if the
        run failed.

        ``stop`` (optional) ends the stream early: once the event is set and
        the waiting consumer is woken (:meth:`interrupt_streams`), iteration
        returns cleanly instead of blocking for more events.  This is how a
        shutting-down service terminates in-flight SSE streams.
        """
        cursor = 0
        while True:
            with self._cond:
                while cursor >= len(self._events) and not self._is_done_locked():
                    if stop is not None and stop.is_set():
                        return
                    self._cond.wait()
                pending = self._events[cursor:]
                cursor = len(self._events)
                finished = not pending and self._is_done_locked()
                error = self._error
            for event in pending:
                yield event
            if finished:
                if error is not None:
                    raise error
                return

    def wait(self, timeout: Optional[float] = None) -> JobStatus:
        """Block until the job finishes (or ``timeout`` elapses)."""
        with self._cond:
            self._cond.wait_for(self._is_done_locked, timeout=timeout)
            return self._status

    def result(self, timeout: Optional[float] = None) -> RunResult:
        """Block for the final :class:`RunResult`; raises if the run failed."""
        with self._cond:
            if not self._cond.wait_for(self._is_done_locked, timeout=timeout):
                raise TimeoutError(f"{self.name} did not finish within {timeout}s")
            if self._error is not None:
                raise self._error
            assert self._result is not None
            return self._result

    def stats(self, timeout: Optional[float] = None) -> ExecutionStats:
        """Block for the run's simulator-side :class:`ExecutionStats`.

        The pooled counterpart of :meth:`Engine.run_with_stats`: once the
        job succeeds, either the stats that a worker process collected in
        the child and shipped over the pipe are returned, or — for
        thread-executed jobs, whose platform lives in this process — the
        event/cost counters are read off the (now idle) backend.  Both
        sources are :func:`collect_stats` on the run's private platform, so
        they are bit-identical for the same spec.  Raises like
        :meth:`result` on failure.
        """
        result = self.result(timeout=timeout)
        with self._cond:
            stats = self._stats
        if stats is not None:
            return stats
        assert self.platform is not None
        return collect_stats(self.platform, result)

    def interrupt_streams(self) -> None:
        """Wake every consumer blocked in :meth:`stream`.

        Pairs with the ``stop`` event: set the event first, then call this —
        woken consumers re-check it under the condition, so there is no
        missed-wakeup window.
        """
        with self._cond:
            self._cond.notify_all()

    # -- engine-side plumbing ---------------------------------------------

    def _is_done_locked(self) -> bool:
        return self._status in (JobStatus.SUCCEEDED, JobStatus.FAILED)

    def _mark_running(self) -> None:
        with self._cond:
            self._status = JobStatus.RUNNING
            self._cond.notify_all()

    def _emit(self, event: ProgressEvent) -> None:
        """Deliver one event the moment it is produced (both executors)."""
        self._emit_batch((event,))

    def _emit_batch(self, events: Sequence[ProgressEvent]) -> None:
        """Append events to the history and wake every ``stream()`` consumer.

        The single append point behind :meth:`_emit`.  Consumers drain
        everything past their cursor on each wakeup, so how the events were
        grouped into calls never changes what they observe.
        """
        if not events:
            return
        with self._cond:
            self._events.extend(events)
            self._cond.notify_all()

    def _finish(
        self, result: RunResult, stats: Optional[ExecutionStats] = None
    ) -> None:
        with self._cond:
            self._result = result
            self._stats = stats
            self._status = JobStatus.SUCCEEDED
            self._cond.notify_all()

    def _fail(self, error: BaseException) -> None:
        with self._cond:
            self._error = error
            self._status = JobStatus.FAILED
            self._cond.notify_all()


class Engine:
    """Executes labeling jobs — inline, on a thread pool, or in a process pool.

    The engine is cheap to construct; the thread pool is created lazily on
    the first :meth:`submit`.  Use it as a context manager (or call
    :meth:`close`) to tear the pool down deterministically.

    ``executor`` selects the default execution mode for submitted jobs:
    ``"thread"`` runs each job on a pool thread (GIL-bound, zero setup
    cost), ``"process"`` hands each job to a shared-nothing child process
    (true parallelism across cores; the thread pool still bounds how many
    children run at once).  Jobs are seed-deterministic pure functions of
    their spec, so the mode changes wall-clock only — labels, counters,
    event sequences, and stats are bit-identical either way.
    """

    #: Lock-discipline declaration, enforced by ``repro lint`` (REPRO-C301).
    #: ``_job_ids`` is deliberately unguarded: ``itertools.count`` is atomic
    #: under the GIL and ids only need uniqueness, not ordering.
    _GUARDED_BY: ClassVar[Mapping[str, tuple[str, ...]]] = {
        "_lock": (
            "_executor",
            "_closed",
            "_running",
            "_jobs",
            "concurrency_high_water",
        ),
    }

    #: Oracle-parity declaration, enforced by ``repro lint`` (REPRO-P501):
    #: the process-pool fast path must stay behaviour-identical to the
    #: in-process thread path, its reference oracle — the executor axis of
    #: ``tests/equivalence.py`` is the live check behind this registration.
    _SCAN_TWINS: ClassVar[Mapping[str, str]] = {
        "_run_job_process": "_run_job_thread",
    }

    def __init__(self, max_workers: int = 4, executor: str = "thread") -> None:
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.max_workers = max_workers
        #: Default execution mode for :meth:`submit` (overridable per call).
        self.executor = _validate_executor(executor)
        self._executor: Optional[ThreadPoolExecutor] = None
        self._closed = False
        self._lock = threading.Lock()
        self._job_ids = itertools.count()
        #: Submitted jobs by string id, in submission order — the registry a
        #: service front end resolves wire job-ids against.
        self._jobs: dict[str, LabelingJob] = {}
        self._running = 0
        #: Highest number of jobs observed executing simultaneously.
        self.concurrency_high_water = 0

    # -- synchronous execution --------------------------------------------

    def stream(self, spec: JobSpec) -> Iterator[ProgressEvent]:
        """Execute ``spec`` inline, yielding progress events as it runs."""
        _, _, events = self._open_run(spec)
        return events

    def run(
        self,
        spec: JobSpec,
        on_event: Optional[Callable[[ProgressEvent], None]] = None,
    ) -> RunResult:
        """Execute ``spec`` inline and return the final result.

        ``on_event`` (optional) observes every progress event as it is
        produced — the streaming and blocking APIs share one code path.
        """
        return self._run_collect(spec, on_event=on_event)[0]

    def run_with_stats(
        self,
        spec: JobSpec,
        on_event: Optional[Callable[[ProgressEvent], None]] = None,
    ) -> tuple[RunResult, ExecutionStats]:
        """Execute ``spec`` inline and also return simulator-side stats.

        This is the entry point the benchmark subsystem uses: it exposes the
        platform's event/cost counters without callers reaching into the
        backend's internals.
        """
        return self._run_collect(spec, on_event=on_event)

    # -- concurrent execution ---------------------------------------------

    def submit(
        self, spec: JobSpec, executor: Optional[str] = None
    ) -> LabelingJob:
        """Schedule ``spec`` for concurrent execution and return its handle.

        ``executor`` overrides the engine default for this job (see
        :data:`EXECUTORS`); either way a pool thread supervises the run, so
        ``max_workers`` bounds concurrency in both modes.  The job is
        registered under its engine-allocated string id; it stays reachable
        via :meth:`get_job` / :meth:`jobs` until :meth:`forget_job` drops it.
        """
        mode = _validate_executor(self.executor if executor is None else executor)
        with self._lock:
            if self._closed:
                raise RuntimeError("cannot submit to a closed Engine")
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.max_workers,
                    thread_name_prefix="repro-engine",
                )
            pool = self._executor
            job = LabelingJob(
                spec, job_id=f"job-{next(self._job_ids)}", executor=mode
            )
            self._jobs[job.job_id] = job
        pool.submit(self._run_job, job)
        return job

    def submit_many(
        self, specs: Sequence[JobSpec], executor: Optional[str] = None
    ) -> list[LabelingJob]:
        """Submit several specs; jobs execute concurrently as workers allow."""
        return [self.submit(spec, executor=executor) for spec in specs]

    def run_many(
        self,
        specs: Sequence[JobSpec],
        timeout: Optional[float] = None,
        executor: Optional[str] = None,
    ) -> list[RunResult]:
        """Execute several specs concurrently; results follow spec order.

        ``executor`` picks the execution mode (``"thread"`` / ``"process"``,
        defaulting to the engine's mode); results are bit-identical across
        modes.  ``timeout`` is a single deadline for the whole call, not per
        job.  On timeout the in-flight jobs keep running on the pool (they
        cannot be cancelled); resubmit with handles via :meth:`submit_many`
        if you need to keep observing them.
        """
        return self._await_jobs(
            self.submit_many(specs, executor=executor),
            timeout=timeout,
            with_stats=False,
        )

    def run_many_with_stats(
        self,
        specs: Sequence[JobSpec],
        timeout: Optional[float] = None,
        executor: Optional[str] = None,
    ) -> list[tuple[RunResult, ExecutionStats]]:
        """Concurrent :meth:`run_many` that also returns per-job stats.

        Results follow spec order; each tuple pairs the job's
        :class:`RunResult` with the :class:`ExecutionStats` read from its
        private platform after completion (shipped over the pipe for
        process-pool jobs).  Jobs are independent (one platform each), so
        the aggregate is deterministic regardless of how the pool
        interleaves them — and identical across executors.
        """
        return self._await_jobs(
            self.submit_many(specs, executor=executor),
            timeout=timeout,
            with_stats=True,
        )

    # -- job registry -------------------------------------------------------

    def get_job(self, job_id: str) -> LabelingJob:
        """Look up a submitted job by its string id (``KeyError`` if unknown)."""
        with self._lock:
            try:
                return self._jobs[job_id]
            except KeyError:
                raise KeyError(f"unknown job id: {job_id!r}") from None

    def jobs(self) -> list[LabelingJob]:
        """All registered jobs, in submission order."""
        with self._lock:
            return list(self._jobs.values())

    def forget_job(self, job_id: str) -> LabelingJob:
        """Drop a job from the registry and return its handle.

        The handle stays valid — an in-flight run keeps executing and can
        still be observed through it — but the id no longer resolves, so the
        engine releases its reference (and a service stops serving it).
        Raises ``KeyError`` for unknown ids.
        """
        with self._lock:
            try:
                return self._jobs.pop(job_id)
            except KeyError:
                raise KeyError(f"unknown job id: {job_id!r}") from None

    # -- lifecycle ----------------------------------------------------------

    def close(self, wait: bool = True) -> None:
        """Shut down the thread pool (in-flight jobs finish when ``wait``).

        Closing is terminal: further :meth:`submit` calls raise.  Inline
        execution (:meth:`run` / :meth:`stream`) never needs the pool and
        keeps working.
        """
        with self._lock:
            executor, self._executor = self._executor, None
            self._closed = True
        if executor is not None:
            executor.shutdown(wait=wait)

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- internals ----------------------------------------------------------

    def _open_run(
        self, spec: JobSpec
    ) -> tuple[CrowdBackend, Batcher, Iterator[ProgressEvent]]:
        """Wire one execution of ``spec`` and open its event stream.

        Single construction point shared by every execution path — inline
        (:meth:`stream` / :meth:`run` / :meth:`run_with_stats`) and pooled
        (:meth:`_run_job`) — so the run parameters are plumbed exactly once.
        """
        platform, batcher = build_run(spec)
        events = batcher.run_iter(
            num_records=spec.num_records,
            accuracy_target=spec.accuracy_target,
            max_batches=spec.max_batches,
        )
        return platform, batcher, events

    def _run_collect(
        self,
        spec: JobSpec,
        on_event: Optional[Callable[[ProgressEvent], None]] = None,
    ) -> tuple[RunResult, ExecutionStats]:
        """Execute ``spec`` inline and collect (result, stats) — the single
        blocking-execution path behind :meth:`run` and :meth:`run_with_stats`."""
        platform, _, events = self._open_run(spec)
        result = drain_stream(events, on_event=on_event)
        return result, collect_stats(platform, result)

    def _await_jobs(
        self,
        jobs: Sequence[LabelingJob],
        timeout: Optional[float],
        with_stats: bool,
    ) -> list[Any]:
        """Collect submitted jobs in order under one shared deadline — the
        single wait loop behind :meth:`run_many` and :meth:`run_many_with_stats`."""
        # repro: allow[REPRO-D104] -- caller-facing timeout deadlines; never sim state
        deadline = None if timeout is None else time.monotonic() + timeout
        collected: list[Any] = []
        for job in jobs:
            # repro: allow[REPRO-D104] -- remaining wall-clock budget for result()
            remaining = None if deadline is None else max(0.0, deadline - time.monotonic())
            result = job.result(timeout=remaining)
            collected.append((result, job.stats()) if with_stats else result)
        return collected

    def _run_job(self, job: LabelingJob) -> None:
        with self._lock:
            self._running += 1
            self.concurrency_high_water = max(
                self.concurrency_high_water, self._running
            )
        job._mark_running()
        try:
            if job.executor == "process":
                result, stats = self._run_job_process(job)
            else:
                result, stats = self._run_job_thread(job)
            job._finish(result, stats=stats)
        except BaseException as error:  # surface failures through the handle
            job._fail(error)
        finally:
            with self._lock:
                self._running -= 1

    def _run_job_thread(
        self, job: LabelingJob
    ) -> tuple[RunResult, Optional[ExecutionStats]]:
        """Execute one pooled job in-process, on the supervising thread.

        The reference executor (the oracle the process path is proven
        against): each event goes straight into the job's event list as it
        is produced, and the platform stays reachable on the handle for
        ``stats()`` to read lazily.
        """
        platform, batcher, events = self._open_run(job.spec)
        job.platform = platform
        job.batcher = batcher
        return drain_stream(events, on_event=job._emit), None

    def _run_job_process(
        self, job: LabelingJob
    ) -> tuple[RunResult, ExecutionStats]:
        """Execute one pooled job in a shared-nothing child process.

        The supervising pool thread starts the worker, then replays its pipe
        messages into the job handle: each event is delivered via
        :meth:`LabelingJob._emit` exactly as the thread path delivers its
        own, so ``stream()``/SSE consumers cannot tell the executors apart.
        The final ``RUN_FINISHED`` event carries the :class:`RunResult`; the
        DONE message carries the child-collected :class:`ExecutionStats`.  A
        child exception arrives pickled and is re-raised here, surfacing the
        original type and message through ``result()`` like any threaded
        failure; a child that dies without reporting (killed, crashed
        interpreter) raises ``RuntimeError`` with its exit code.
        """
        context = _process_context()
        receiver, sender = context.Pipe(duplex=False)
        worker = context.Process(
            target=_pooled_worker,
            args=(sender, job.spec),
            name=f"repro-worker-{job.job_id}",
            daemon=True,
        )
        worker.start()
        result: Optional[RunResult] = None
        stats: Optional[ExecutionStats] = None
        try:
            sender.close()
            while True:
                try:
                    message = receiver.recv()
                except EOFError:
                    worker.join()
                    raise RuntimeError(
                        f"worker process for {job.name} exited without "
                        f"reporting a result (exit code {worker.exitcode})"
                    ) from None
                if message[0] == _MSG_EVENT:
                    event: ProgressEvent = message[1]
                    if event.result is not None:
                        result = event.result
                    job._emit(event)
                elif message[0] == _MSG_DONE:
                    stats = message[1]
                    break
                else:  # _MSG_FAILED: re-raise the child's exception here
                    raise message[1]
        finally:
            receiver.close()
            worker.join()
        if result is None or stats is None:
            raise RuntimeError(
                f"worker process for {job.name} finished without a "
                "RUN_FINISHED event"
            )
        return result, stats
