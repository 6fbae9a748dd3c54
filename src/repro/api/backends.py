"""The crowd-backend protocol and the string-keyed backend registry.

``repro.core`` orchestrates labeling runs (batching, straggler mitigation,
pool maintenance, learning) against *some* crowd platform.  Historically that
platform was hard-wired to :class:`~repro.crowd.platform.SimulatedCrowdPlatform`;
this module is the seam that makes it swappable:

* :class:`CrowdBackend` is the structural protocol capturing exactly the
  surface the core consumes — seat workers, start/complete/terminate
  assignments, replace pool members, expose the clock/event queue and raw
  cost counters.  Core modules type against this protocol and never import
  the concrete simulated platform.
* :func:`register_backend` / :func:`create_backend` form a string-keyed
  registry so alternative platforms (a live MTurk adapter, a replay-from-trace
  platform, an instrumented test double) plug in without touching ``core``.

The ``"simulated"`` backend is registered by default and is the default
for every job (:attr:`repro.api.engine.JobSpec.backend`).

At run time this module imports only the crowd substrate, which imports
nothing from ``repro.api`` or ``repro.core``, so ``repro.core`` can import
it without creating a cycle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional, Protocol, runtime_checkable

from ..crowd.platform import SimulatedCrowdPlatform

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from ..crowd.events import EventQueue
    from ..crowd.platform import AssignmentObserver, PlatformCounters
    from ..crowd.pool import RetainerPool
    from ..crowd.recruitment import BackgroundReserve, Recruiter
    from ..crowd.tasks import Assignment, Task
    from ..crowd.worker import WorkerPopulation, WorkerProfile


@runtime_checkable
class CrowdBackend(Protocol):
    """Everything CLAMShell's core needs from a crowd platform.

    Implementations own the worker pool, the simulation/event clock, and the
    raw cost counters; they know nothing about batching policy, mitigation
    thresholds, or learning, which live in ``repro.core``.
    """

    population: "WorkerPopulation"
    pool: "RetainerPool"
    queue: "EventQueue"
    recruiter: "Recruiter"
    reserve: "BackgroundReserve"
    counters: "PlatformCounters"
    num_classes: int

    @property
    def now(self) -> float:
        """Current platform time in seconds."""
        ...

    # -- pool construction -------------------------------------------------

    def initialize_pool(self, size: int) -> float:
        """Recruit ``size`` workers; return total recruitment wall-clock."""
        ...

    def configure_reserve(self, target_size: int) -> None:
        """Set the background-recruitment reserve size."""
        ...

    # -- assignments -------------------------------------------------------

    def start_assignment(self, task: "Task", worker_id: int) -> "Assignment":
        """Assign ``task`` to the available pool worker ``worker_id``."""
        ...

    def complete_assignment(self, assignment: "Assignment") -> "Task":
        """Resolve a finished assignment; return its task.

        The assignment, now carrying its labels, is the task's next answer.
        """
        ...

    def terminate_assignment(
        self, assignment: "Assignment", terminator_latency: Optional[float] = None
    ) -> None:
        """Pre-empt an active assignment (mitigation or eviction)."""
        ...

    def active_assignment_for_worker(self, worker_id: int) -> Optional["Assignment"]:
        ...

    # -- assignment observers ----------------------------------------------

    def add_assignment_observer(self, observer: "AssignmentObserver") -> None:
        """Register for start/complete/terminate assignment notifications.

        The backend must notify observers for *every* assignment transition,
        including ones it performs internally (e.g. terminations triggered by
        :meth:`replace_worker` during pool maintenance); the mitigator's
        incremental active-task index depends on seeing the full stream.
        """
        ...

    def remove_assignment_observer(self, observer: "AssignmentObserver") -> None:
        """Unregister a previously-added observer (missing ones ignored)."""
        ...

    # -- pool maintenance --------------------------------------------------

    def replace_worker(self, worker_id: int) -> Optional["WorkerProfile"]:
        """Evict ``worker_id`` and seat a reserve worker, if one is ready."""
        ...

    def refill_pool(self, target_size: int) -> int:
        """Seat reserve workers until the pool reaches ``target_size``.

        Every seat refills one lost to abandonment or eviction, so each
        counts toward the backend's ``workers_replaced`` counter.
        """
        ...

    # -- bookkeeping -------------------------------------------------------

    def settle(self) -> None:
        """Finalise waiting-time accrual at the end of a run."""
        ...


#: A factory takes the keyword arguments ``population``, ``seed``,
#: ``num_classes`` and ``abandonment_rate`` (the engine passes exactly these)
#: and returns a ready-to-use backend.
BackendFactory = Callable[..., CrowdBackend]

#: Name of the backend every job defaults to.
DEFAULT_BACKEND = "simulated"

_REGISTRY: dict[str, BackendFactory] = {}


def register_backend(name: str, factory: BackendFactory) -> None:
    """Register ``factory`` under ``name``.

    Raises ``ValueError`` if the name is empty or already taken.
    """
    if not name or not isinstance(name, str):
        raise ValueError("backend name must be a non-empty string")
    if not callable(factory):
        raise TypeError("backend factory must be callable")
    if name in _REGISTRY:
        raise ValueError(f"backend {name!r} is already registered")
    _REGISTRY[name] = factory


def unregister_backend(name: str) -> None:
    """Remove a registered backend (the default backend cannot be removed)."""
    if name == DEFAULT_BACKEND:
        raise ValueError(f"the default backend {DEFAULT_BACKEND!r} cannot be removed")
    _REGISTRY.pop(name, None)


def backend_factory(name: str) -> BackendFactory:
    """Look up a registered factory by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "<none>"
        raise KeyError(
            f"unknown crowd backend {name!r}; registered backends: {known}"
        ) from None


def available_backends() -> tuple[str, ...]:
    """Names of all registered backends, sorted."""
    return tuple(sorted(_REGISTRY))


def create_backend(name: str, **kwargs: Any) -> CrowdBackend:
    """Instantiate the backend registered under ``name``."""
    return backend_factory(name)(**kwargs)


register_backend(DEFAULT_BACKEND, SimulatedCrowdPlatform)
