"""The labeling Engine: job specs, job handles, and concurrent execution.

The engine is the execution frontend of the redesigned API:

* :class:`JobSpec` — an immutable description of one labeling run (dataset,
  config, population, record budget);
* :class:`LabelingJob` — a handle on a submitted run; ``stream()`` yields
  typed :class:`~repro.api.events.ProgressEvent`\\ s as batches complete and
  ``result()`` blocks for the final :class:`~repro.core.batcher.RunResult`;
* :class:`Engine` — ``run()`` executes a spec inline (zero thread
  overhead), ``submit()`` / ``run_many()`` execute jobs concurrently on a
  thread pool, or — on an ``Engine(executor="process")`` — in shared-nothing
  worker processes that stream each event back over a pipe as it is
  produced.  An engine runs every submitted job in its one mode.

Every execution path — CLI, experiment drivers, engine — funnels
through :func:`build_run`, which builds a fresh
:class:`~repro.crowd.platform.SimulatedCrowdPlatform` seeded with the config's
seed and wires a :class:`~repro.core.batcher.Batcher` to it; call it
directly to inspect a wired (platform, batcher) pair.  One run, one
platform: repeated executions of the same spec are independent and
deterministic.  Because jobs are pure functions of (spec, seed), the two
executors are interchangeable: a process-pool run replays the exact event
sequence, labels, counters, and stats of its threaded twin, so every entry
point gives the same :meth:`RunResult.fingerprint` (proven by the executor
axis of ``tests/equivalence.py``).
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
from ..core.metrics import ExecutionStats
from ..crowd.platform import SimulatedCrowdPlatform
from ..crowd.traces import default_simulation_population
from ..crowd.worker import WorkerPopulation
from ..learning.datasets import Dataset
from ..learning.learners import BaseLearner
from .events import ProgressEvent, drain_stream


@dataclass(frozen=True)
class JobSpec:
    """Everything needed to execute one labeling run.

    A spec is a value: submit it any number of times, to any executor,
    concurrently or not, and every run is the same run.  What a run changes
    is built per execution by :func:`build_run`: the platform, whose
    recruiter draws its own stream of workers from ``population`` (the
    default population for the config's seed when ``None``), and the
    learner (``learner_factory``).  The platform draws from ``config.seed``.
    """

    dataset: Dataset
    config: CLAMShellConfig = field(default_factory=full_clamshell)
    population: Optional[WorkerPopulation] = None
    num_records: int = 500
    #: Builds the learner for one run; ``None`` lets the Batcher construct
    #: the learner the config calls for.
    learner_factory: Optional[Callable[[], Optional[BaseLearner]]] = None
    name: str = ""

    def __post_init__(self) -> None:
        if self.dataset is None:
            raise ValueError("a JobSpec requires a dataset")
        if self.num_records < 1:
            raise ValueError("num_records must be >= 1")

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
        cannot carry (``learner_factory``, or a dataset/population without
        generation provenance).
        """
        from .wire import spec_to_dict

        return spec_to_dict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "JobSpec":
        """Rebuild a spec from its wire document (see :mod:`repro.api.wire`)."""
        from .wire import spec_from_dict

        return spec_from_dict(data)


def build_run(spec: JobSpec) -> tuple[SimulatedCrowdPlatform, Batcher]:
    """Wire a fresh (platform, batcher) pair for one execution of ``spec``.

    Every part of a run that changes as it runs is made here, so ``spec``
    never changes and building it again replays the same run.
    """
    seed = spec.config.seed
    population = spec.population
    if population is None:
        population = default_simulation_population(seed=seed)
    platform = SimulatedCrowdPlatform(
        population=population,
        seed=seed,
        num_classes=spec.dataset.num_classes,
        abandonment_rate=spec.config.abandonment_rate,
    )
    learner = spec.learner_factory() if spec.learner_factory is not None else None
    batcher = Batcher(
        config=spec.config,
        dataset=spec.dataset,
        platform=platform,
        learner=learner,
    )
    return platform, batcher


#: The execution modes an :class:`Engine` runs its submitted jobs in.
#: ``"thread"`` runs each job on the engine's thread pool; ``"process"`` runs
#: it in a shared-nothing child process (same thread pool bounds how many run
#: at once), shipping each :class:`ProgressEvent` back over a pipe; the last
#: one carries the :class:`RunResult`, stats included.
EXECUTORS: tuple[str, ...] = ("thread", "process")


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
            # the import bill per job.  SciPy is imported lazily, on the
            # first model fit, so it is named here too.
            context.set_forkserver_preload(["repro.api.engine", "scipy.optimize"])
        _MP_CONTEXT = context
    return _MP_CONTEXT


# Pipe message tags, worker -> parent.  A run is EVENT+ ending in the
# RUN_FINISHED event that carries the RunResult, or EVENT* FAILED carrying
# the pickled exception.
_MSG_EVENT = "event"
_MSG_FAILED = "failed"


def _pooled_worker(
    conn: "multiprocessing.connection.Connection", spec: JobSpec
) -> None:
    """Child-process entry point for one pooled job.

    Executes the spec through the same single-construction path as every
    other mode (:meth:`Engine.stream`) and sends each event back as it is
    produced, so the parent's ``stream()`` consumers observe a pooled
    run live, exactly like a threaded one.  The final ``RUN_FINISHED``
    event carries the :class:`RunResult` with its stats (the platform
    object itself never crosses the pipe).

    Failures ship the exception object itself so the parent surfaces the
    same type and message; unpicklable exceptions degrade to a
    ``RuntimeError`` carrying their repr.
    """
    try:
        for event in Engine().stream(spec):
            conn.send((_MSG_EVENT, event))
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
    event history first) or block in :meth:`result`.  The handle holds the
    run's events and outcome, never the live run: its platform and batcher
    stay with the executor (``build_run(spec)`` wires a run to inspect).
    """

    #: Lock-discipline declaration, enforced by ``repro lint`` (REPRO-C301):
    #: the listed fields may only be read or written while holding
    #: ``self._cond``.  Helpers named ``*_locked`` document that their
    #: caller already holds it.
    _GUARDED_BY: ClassVar[Mapping[str, tuple[str, ...]]] = {
        "_cond": ("_events", "_status", "_result", "_error", "_streams_closed"),
    }

    def __init__(self, spec: JobSpec, job_id: str) -> None:
        self.spec = spec
        #: Engine-allocated string id (``"job-<n>"``); the registry key a
        #: service client uses to address this job over the wire.
        self.job_id = job_id
        self._events: list[ProgressEvent] = []
        self._cond = threading.Condition()
        self._status = JobStatus.PENDING
        self._result: Optional[RunResult] = None
        self._error: Optional[BaseException] = None
        self._streams_closed = False

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

    def stream(self) -> Iterator[ProgressEvent]:
        """Yield progress events as the run advances.

        Replays history for late subscribers, then blocks until new events
        arrive; ends when the run finishes, or once :meth:`close_streams`
        was called and the history is drained.  Raises the job's error if
        the run failed.
        """
        cursor = 0
        while True:
            with self._cond:
                while cursor >= len(self._events) and not self._is_done_locked():
                    if self._streams_closed:
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
        """Block for the run's simulator-side :class:`ExecutionStats`:
        ``result(timeout).stats``, which raises like :meth:`result` on
        failure."""
        return _stats_of(self.result(timeout=timeout))

    def close_streams(self) -> None:
        """End every :meth:`stream`, open or opened later, once it has
        drained the history; the run itself carries on.

        The flag is set and the consumers woken under one lock, and they
        re-check it under that lock before waiting, so none sleeps through
        the close.  This is how a service ends the SSE streams of a deleted
        job or of its own shutdown.
        """
        with self._cond:
            self._streams_closed = True
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

    def _finish(self, result: RunResult) -> None:
        with self._cond:
            self._result = result
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

    ``executor`` selects the execution mode of every submitted job:
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
        if executor not in EXECUTORS:
            raise ValueError(
                f"unknown executor {executor!r}; expected one of {EXECUTORS}"
            )
        self.max_workers = max_workers
        #: Execution mode of every job :meth:`submit` schedules.
        self.executor = executor
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
        """Execute ``spec`` inline, yielding progress events as it runs;
        the last one carries the :class:`RunResult`.

        The one place a run starts: :meth:`run`, :meth:`run_with_stats` and
        both pooled executors all go through here, so the run parameters
        are plumbed exactly once.
        """
        _, batcher = build_run(spec)
        return batcher.run_iter(num_records=spec.num_records)

    def run(
        self,
        spec: JobSpec,
        on_event: Optional[Callable[[ProgressEvent], None]] = None,
    ) -> RunResult:
        """Execute ``spec`` inline and return the final result.

        ``on_event`` (optional) observes every progress event as it is
        produced — the streaming and blocking APIs share one code path.
        """
        return drain_stream(self.stream(spec), on_event=on_event)

    def run_with_stats(
        self,
        spec: JobSpec,
        on_event: Optional[Callable[[ProgressEvent], None]] = None,
    ) -> tuple[RunResult, ExecutionStats]:
        """Execute ``spec`` inline and return the result with its
        ``stats``, the platform's event/cost counters."""
        result = self.run(spec, on_event=on_event)
        return result, _stats_of(result)

    # -- concurrent execution ---------------------------------------------

    def submit(self, spec: JobSpec) -> LabelingJob:
        """Schedule ``spec`` for concurrent execution and return its handle.

        The job runs in the engine's execution mode (see :data:`EXECUTORS`);
        either way a pool thread supervises the run, so ``max_workers``
        bounds concurrency in both modes.  The job is registered under its
        engine-allocated string id; it stays reachable via :meth:`get_job` /
        :meth:`jobs` until :meth:`forget_job` drops it.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("cannot submit to a closed Engine")
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.max_workers,
                    thread_name_prefix="repro-engine",
                )
            pool = self._executor
            job = LabelingJob(spec, job_id=f"job-{next(self._job_ids)}")
            self._jobs[job.job_id] = job
        pool.submit(self._run_job, job)
        return job

    def submit_many(self, specs: Sequence[JobSpec]) -> list[LabelingJob]:
        """Submit several specs; jobs execute concurrently as workers allow."""
        return [self.submit(spec) for spec in specs]

    def run_many(
        self, specs: Sequence[JobSpec], timeout: Optional[float] = None
    ) -> list[RunResult]:
        """Execute several specs concurrently; results follow spec order.

        Results are bit-identical across execution modes.  ``timeout`` is a
        single deadline for the whole call, not per job.  On timeout the
        in-flight jobs keep running on the pool (they cannot be cancelled);
        resubmit with handles via :meth:`submit_many` if you need to keep
        observing them.
        """
        # repro: allow[REPRO-D104] -- caller-facing timeout deadline; never sim state
        deadline = None if timeout is None else time.monotonic() + timeout
        results = []
        for job in self.submit_many(specs):
            # repro: allow[REPRO-D104] -- remaining wall-clock budget for result()
            remaining = None if deadline is None else max(0.0, deadline - time.monotonic())
            results.append(job.result(timeout=remaining))
        return results

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

    def _run_job(self, job: LabelingJob) -> None:
        with self._lock:
            self._running += 1
            self.concurrency_high_water = max(
                self.concurrency_high_water, self._running
            )
        job._mark_running()
        try:
            if self.executor == "process":
                result = self._run_job_process(job)
            else:
                result = self._run_job_thread(job)
            job._finish(result)
        except BaseException as error:  # surface failures through the handle
            job._fail(error)
        finally:
            with self._lock:
                self._running -= 1

    def _run_job_thread(self, job: LabelingJob) -> RunResult:
        """Execute one pooled job in-process, on the supervising thread.

        The reference executor (the oracle the process path is proven
        against): each event goes straight into the job's event list as it
        is produced.
        """
        return drain_stream(self.stream(job.spec), on_event=job._emit)

    def _run_job_process(self, job: LabelingJob) -> RunResult:
        """Execute one pooled job in a shared-nothing child process.

        The supervising pool thread starts the worker, then replays its pipe
        messages into the job handle: each event is delivered via
        :meth:`LabelingJob._emit` exactly as the thread path delivers its
        own, so ``stream()``/SSE consumers cannot tell the executors apart.
        The final ``RUN_FINISHED`` event carries the :class:`RunResult`,
        stats included.  A child exception arrives pickled and is re-raised
        here, surfacing the original type and message through ``result()``
        like any threaded failure; a child that dies without reporting
        (killed, crashed interpreter) raises ``RuntimeError`` with its exit
        code.
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
        try:
            sender.close()
            while result is None:
                try:
                    tag, payload = receiver.recv()
                except EOFError:
                    worker.join()
                    raise RuntimeError(
                        f"worker process for {job.name} exited without "
                        f"reporting a result (exit code {worker.exitcode})"
                    ) from None
                if tag == _MSG_FAILED:  # re-raise the child's exception here
                    raise payload
                job._emit(payload)
                result = payload.result
        finally:
            receiver.close()
            worker.join()
        return result


def _stats_of(result: RunResult) -> ExecutionStats:
    """A finished run's stats, which the Batcher fills when the run settles."""
    assert result.stats is not None
    return result.stats
