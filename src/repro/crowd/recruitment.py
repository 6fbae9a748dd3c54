"""Worker recruitment: posting retainer tasks and waiting for acceptances.

Recruitment is the dominant source of per-task latency on open marketplaces
(§2.1 reports a median of 36 minutes before a new task is accepted).  The
retainer model amortises recruitment across batches; pool maintenance
additionally keeps a *reserve* of background-recruited, pre-trained workers so
that evicting a slow worker never blocks on recruitment (§4.2).

This module models recruitment latency and the background reserve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .worker import WorkerPopulation, WorkerProfile


@dataclass(frozen=True)
class RecruitmentParameters:
    """Parameters of the recruitment-latency distribution.

    Recruitment latency is modelled as ``min_seconds`` plus a log-normal
    draw.  The defaults give a median around 2-3 minutes, which reflects the
    repeated-reposting strategy the live experiments use (recruitment tasks
    are re-posted every 3 minutes until enough workers join, §6.1); the
    medical-deployment numbers (median 36 minutes) correspond to a single
    non-reposted task and are used by the trace generator instead.
    """

    min_seconds: float = 30.0
    log_mean: float = np.log(120.0)
    log_std: float = 0.8
    #: Time spent on qualification and training once a worker accepts.
    qualification_seconds: float = 60.0

    def __post_init__(self) -> None:
        if self.min_seconds < 0:
            raise ValueError("min_seconds must be non-negative")
        if self.qualification_seconds < 0:
            raise ValueError("qualification_seconds must be non-negative")


class Recruiter:
    """Draws recruitment latencies and new workers from the population.

    The recruiter owns the run's stream of workers: it starts
    :meth:`WorkerPopulation.draw_workers` from the population's seed, so
    every run recruits the same workers in the same order.
    """

    def __init__(
        self,
        population: WorkerPopulation,
        parameters: Optional[RecruitmentParameters] = None,
        seed: int = 0,
    ) -> None:
        self.population = population
        self.parameters = parameters or RecruitmentParameters()
        self._rng = np.random.default_rng(seed)
        self._workers = population.draw_workers(
            np.random.default_rng(population.seed)
        )
        self._recruited_count = 0

    @property
    def recruited_count(self) -> int:
        """Total number of workers recruited through this recruiter."""
        return self._recruited_count

    def draw_recruitment_latency(self) -> float:
        """Seconds from posting a recruitment task until a worker is ready.

        Includes qualification/training time, since CLAMShell trains and
        verifies worker qualifications as part of recruitment (§2.2) so that
        pool members are immediately useful.
        """
        params = self.parameters
        latency = params.min_seconds + float(
            self._rng.lognormal(params.log_mean, params.log_std)
        )
        return latency + params.qualification_seconds

    def recruit(self) -> tuple[WorkerProfile, float]:
        """Recruit one worker; returns ``(worker, recruitment_latency_seconds)``."""
        worker = next(self._workers)
        latency = self.draw_recruitment_latency()
        self._recruited_count += 1
        return worker, latency


class BackgroundReserve:
    """A reserve of pre-recruited workers used by pool maintenance.

    The maintainer continuously recruits workers in the background so that a
    replacement is (usually) ready the moment a slow worker is evicted.  The
    reserve has a target size; `tick` tops it up and returns the recruitment
    latencies incurred (which happen off the critical path but still cost
    money, accounted by the metrics layer).
    """

    def __init__(
        self,
        recruiter: Recruiter,
        target_size: int = 2,
    ) -> None:
        if target_size < 0:
            raise ValueError("target_size must be non-negative")
        self.recruiter = recruiter
        self.target_size = target_size
        #: Workers ready to be seated, with the time they became ready.
        self._ready: list[tuple[WorkerProfile, float]] = []
        #: Workers currently being recruited: (worker, ready_at).
        self._in_flight: list[tuple[WorkerProfile, float]] = []
        self.total_recruitment_seconds = 0.0

    @property
    def ready_count(self) -> int:
        return len(self._ready)

    @property
    def in_flight_count(self) -> int:
        return len(self._in_flight)

    def tick(self, now: float) -> None:
        """Advance the reserve to time ``now``: land in-flight recruits, top up."""
        still_in_flight = []
        for worker, ready_at in self._in_flight:
            if ready_at <= now:
                self._ready.append((worker, ready_at))
            else:
                still_in_flight.append((worker, ready_at))
        self._in_flight = still_in_flight

        while len(self._ready) + len(self._in_flight) < self.target_size:
            worker, latency = self.recruiter.recruit()
            self.total_recruitment_seconds += latency
            self._in_flight.append((worker, now + latency))

    def next_ready_time(self) -> Optional[float]:
        """Earliest time an in-flight recruit becomes ready, or ``None``.

        Used by the scheduler to wait out a temporarily-shrunken pool instead
        of deadlocking when every remaining task needs a worker who has not
        yet arrived.
        """
        if not self._in_flight:
            return None
        return min(ready_at for _, ready_at in self._in_flight)

    def take_replacement(self, now: float) -> Optional[WorkerProfile]:
        """Pop a ready replacement worker, or ``None`` if none is ready yet."""
        self.tick(now)
        if not self._ready:
            return None
        worker, _ = self._ready.pop(0)
        return worker
