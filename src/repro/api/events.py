"""Typed progress events emitted by streaming labeling runs.

A streaming run (``Batcher.run_iter``, ``CLAMShell.run_iter``, or
``LabelingJob.stream``) yields one :class:`ProgressEvent` when the run
starts, one after every completed batch, and a final one carrying the
:class:`~repro.core.batcher.RunResult`.  Consumers can plot labels-over-time
curves (Figure 3), drive dashboards, or implement their own early-stopping
policies without waiting for the blocking result.

This module is a dependency leaf: it is imported by both ``repro.core`` (the
producer) and ``repro.api.engine`` (the consumer) and must not import either.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Callable, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover - type-only import, avoids a cycle
    from ..core.batcher import RunResult


class ProgressKind(Enum):
    """What a :class:`ProgressEvent` reports."""

    #: The pool is seated and the first batch is about to be dispatched.
    RUN_STARTED = "run_started"
    #: One batch finished; labels and metrics below are cumulative.
    BATCH_COMPLETED = "batch_completed"
    #: The run is over; ``event.result`` holds the full :class:`RunResult`.
    RUN_FINISHED = "run_finished"


@dataclass(frozen=True)
class ProgressEvent:
    """One observation of a labeling run as it advances.

    ``wall_clock`` and ``records_labeled`` are cumulative since run start;
    ``new_labels`` holds only the consensus labels produced by the batch the
    event reports on (empty for run-level events).
    """

    kind: ProgressKind
    #: Index of the batch this event reports on (-1 for run-level events).
    batch_index: int
    #: Simulated seconds elapsed since the run started.
    wall_clock: float
    #: Cumulative number of records labeled so far.
    records_labeled: int
    #: Current retainer-pool size (shrinks on abandonment, grows on refills).
    pool_size: int
    #: Consensus labels produced by this batch (record id -> label).
    new_labels: dict[int, int] = field(default_factory=dict)
    #: Wall-clock latency of this batch, if the event reports on one.
    batch_latency: Optional[float] = None
    #: Test accuracy of the learner after folding in this batch, when a
    #: learning strategy is configured and the curve is being recorded.
    accuracy_estimate: Optional[float] = None
    #: Pool-maintenance replacements performed during this batch.
    workers_replaced: int = 0
    assignments_started: int = 0
    assignments_terminated: int = 0
    #: The complete run outcome; only set on the final event.
    result: Optional["RunResult"] = None

    @property
    def is_final(self) -> bool:
        return self.kind is ProgressKind.RUN_FINISHED


def drain_stream(
    events: "Iterable[ProgressEvent]",
    on_event: Optional[Callable[[ProgressEvent], None]] = None,
) -> "RunResult":
    """Consume an event stream and return the final event's ``RunResult``.

    The shared tail of every blocking entry point (``Batcher.run``,
    ``CLAMShell.run``, ``Engine.run``/``submit``): optionally observe each
    event, then hand back the result carried by the RUN_FINISHED event.
    """
    result: Optional["RunResult"] = None
    for event in events:
        if on_event is not None:
            on_event(event)
        if event.result is not None:
            result = event.result
    if result is None:
        raise RuntimeError("stream ended without a RUN_FINISHED event")
    return result
