"""Crowd-platform substrate: simulated workers, retainer pools, and traces.

This package stands in for Amazon Mechanical Turk (and for the authors'
trace-driven simulator) in the CLAMShell reproduction.
"""

from .events import EventQueue
from .platform import PlatformCounters, SimulatedCrowdPlatform
from .pool import RetainerPool, Slot, pool_from_workers
from .recruitment import BackgroundReserve, Recruiter, RecruitmentParameters
from .tasks import (
    Assignment,
    AssignmentStatus,
    Batch,
    Task,
    TaskFactory,
    TaskState,
    group_into_batches,
)
from .traces import (
    CrowdTrace,
    MedicalDeploymentParameters,
    TraceRecord,
    TraceStatistics,
    default_simulation_population,
    generate_medical_trace,
    summarize_trace,
)
from .worker import (
    PopulationParameters,
    WorkerObservations,
    WorkerPopulation,
    WorkerProfile,
)

__all__ = [
    "Assignment",
    "AssignmentStatus",
    "BackgroundReserve",
    "Batch",
    "CrowdTrace",
    "EventQueue",
    "MedicalDeploymentParameters",
    "PlatformCounters",
    "PopulationParameters",
    "Recruiter",
    "RecruitmentParameters",
    "RetainerPool",
    "SimulatedCrowdPlatform",
    "Slot",
    "Task",
    "TaskFactory",
    "TaskState",
    "TraceRecord",
    "TraceStatistics",
    "WorkerObservations",
    "WorkerPopulation",
    "WorkerProfile",
    "default_simulation_population",
    "generate_medical_trace",
    "group_into_batches",
    "pool_from_workers",
    "summarize_trace",
]
