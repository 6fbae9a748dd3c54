"""Transport-free service operations over an :class:`Engine`.

:class:`LabelingService` is everything the HTTP layer does that is not HTTP:
it validates and executes wire documents against an engine, shapes job
summaries/label pages as JSON-ready dicts, and owns the shutdown protocol
that lets in-flight event streams terminate cleanly.  Keeping it free of
sockets makes the behaviour directly unit-testable; ``server.py`` only maps
these methods onto routes and status codes.

Concurrency: one instance is shared by every request-handler thread.  The
service keeps no per-job state: the engine's job registry is lock-guarded
internally, and each job ends its own event streams
(:meth:`LabelingJob.close_streams`, under the job's condition).  The only
state added here is the ``_shutdown`` flag, a plain boolean that refuses new
submits; its write and reads are atomic under the GIL.
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping, Optional

from ..api.engine import Engine, JobStatus, LabelingJob
from ..api.wire import (
    event_to_dict,
    result_summary,
    spec_from_dict,
    spec_to_dict,
    stats_to_dict,
)

_TERMINAL = (JobStatus.SUCCEEDED, JobStatus.FAILED)


class JobNotFound(KeyError):
    """A job id that does not resolve in the engine's registry (HTTP 404)."""

    def __init__(self, job_id: str) -> None:
        super().__init__(job_id)
        self.job_id = job_id

    def __str__(self) -> str:
        return f"unknown job id: {self.job_id!r}"


class LabelingService:
    """Submit, observe, and tear down labeling jobs for remote clients.

    The service owns its engine and closes it on :meth:`close`.
    ``executor`` selects the engine's execution mode (``"thread"`` or
    ``"process"``) — submitted jobs behave identically either way,
    including their SSE event sequences; only wall-clock parallelism
    differs.
    """

    def __init__(self, max_workers: int = 8, executor: str = "thread") -> None:
        self._engine = Engine(max_workers=max_workers, executor=executor)
        self._shutdown = False

    @property
    def engine(self) -> Engine:
        return self._engine

    # -- job lifecycle ------------------------------------------------------

    def submit(self, payload: Mapping[str, Any]) -> dict[str, Any]:
        """Validate a wire document, schedule the job, and describe it.

        Raises ``ValueError`` (HTTP 400) on malformed documents and
        ``RuntimeError`` once the service is shutting down.
        """
        if self._shutdown:
            raise RuntimeError("service is shutting down; not accepting jobs")
        spec = spec_from_dict(payload)
        return self.job_summary(self._engine.submit(spec))

    def list_jobs(self) -> dict[str, Any]:
        """All registered jobs, newest last (submission order)."""
        return {"jobs": [self.job_summary(job) for job in self._engine.jobs()]}

    def get_job(self, job_id: str) -> dict[str, Any]:
        """One job's summary (:class:`JobNotFound` if the id is unknown)."""
        return self.job_summary(self._job(job_id))

    def delete(self, job_id: str) -> dict[str, Any]:
        """Unregister a job and end its open event streams.

        The underlying run cannot be cancelled (threads), but the id stops
        resolving immediately and streaming clients see end-of-stream.
        """
        try:
            job = self._engine.forget_job(job_id)
        except KeyError:
            raise JobNotFound(job_id) from None
        job.close_streams()
        return {"id": job_id, "deleted": True}

    # -- observation --------------------------------------------------------

    def job_summary(self, job: LabelingJob) -> dict[str, Any]:
        """JSON-ready description of a job's current state.

        Always carries id/name/status/progress; terminal jobs add the result
        summary and simulator stats (or the error).  The spec echo is best
        effort: specs submitted in-process may hold unserialisable state, in
        which case ``"spec"`` is ``null`` rather than the call failing.
        """
        status = job.status
        events = job.events()
        last = events[-1] if events else None
        summary: dict[str, Any] = {
            "id": job.job_id,
            "name": job.name,
            "status": status.value,
            "events_emitted": len(events),
            "records_labeled": last.records_labeled if last is not None else 0,
            "terminal": status in _TERMINAL,
        }
        try:
            summary["spec"] = spec_to_dict(job.spec)
        except ValueError:
            summary["spec"] = None
        if status is JobStatus.SUCCEEDED:
            result = job.result()
            summary["result"] = result_summary(result)
            summary["stats"] = stats_to_dict(job.stats())
        elif status is JobStatus.FAILED:
            try:
                job.result()
            except BaseException as error:
                summary["error"] = repr(error)
        return summary

    def labels_page(
        self, job_id: str, offset: int = 0, limit: Optional[int] = None
    ) -> dict[str, Any]:
        """One page of the job's labels, ordered by record id.

        For finished jobs this is the final consensus label set; for a
        running job it is the labels accumulated from progress events so
        far (later batches override earlier ones for the same record).
        ``offset`` past the end yields an empty page; ``limit=0`` is a
        valid "count only" probe; negatives raise ``ValueError`` (400).
        """
        if offset < 0:
            raise ValueError(f"offset must be >= 0, got {offset}")
        if limit is not None and limit < 0:
            raise ValueError(f"limit must be >= 0, got {limit}")
        job = self._job(job_id)
        status = job.status
        if status is JobStatus.SUCCEEDED:
            labels = dict(job.result().labels)
        else:
            labels = {}
            for event in job.events():
                labels.update(event.new_labels)
        ordered = sorted(labels.items())
        end = len(ordered) if limit is None else offset + limit
        page = ordered[offset:end]
        return {
            "job_id": job.job_id,
            "status": status.value,
            "terminal": status in _TERMINAL,
            "total": len(ordered),
            "offset": offset,
            "limit": limit,
            "labels": [[int(record), int(label)] for record, label in page],
        }

    def events(self, job_id: str) -> Iterator[dict[str, Any]]:
        """Open a live event stream as JSON-ready dicts.

        Resolves the id eagerly (so unknown jobs 404 before any bytes are
        streamed), then yields :func:`event_to_dict` frames as the run
        advances.  The stream ends when the run finishes, the job is
        deleted, or the service shuts down; a failed run ends with a
        synthetic ``job_failed`` frame instead of raising mid-stream.
        """
        return self._event_frames(self._job(job_id))

    @staticmethod
    def _event_frames(job: LabelingJob) -> Iterator[dict[str, Any]]:
        try:
            for event in job.stream():
                yield event_to_dict(event)
        except GeneratorExit:
            raise
        except BaseException as error:  # failed run: end the stream in-band
            yield {"kind": "job_failed", "error": repr(error)}

    # -- lifecycle ----------------------------------------------------------

    def close(self, wait: bool = True) -> None:
        """Stop accepting jobs, end every job's event streams, and close the
        engine (in-flight runs finish first when ``wait``)."""
        self._shutdown = True
        for job in self._engine.jobs():
            job.close_streams()
        self._engine.close(wait=wait)

    def __enter__(self) -> "LabelingService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- internals ----------------------------------------------------------

    def _job(self, job_id: str) -> LabelingJob:
        try:
            return self._engine.get_job(job_id)
        except KeyError:
            raise JobNotFound(job_id) from None
