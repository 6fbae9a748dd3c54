"""Synthetic crowd traces calibrated to the paper's medical deployment.

The paper grounds its latency taxonomy in an MTurk deployment of roughly
60,000 tasks labeling medical publication abstracts (§2.1).  The statistics
it reports, and which this generator is calibrated to reproduce in shape, are:

* per-HIT completion latency: median ~4 minutes, std ~2 minutes, with 90th
  percentiles above an hour (a heavy upper tail);
* per-worker mean latency: spread from tens of seconds to hours (Figure 2);
  the fastest worker's mean was 28.5 seconds, the median worker's ~4 minutes;
* per-worker latency standard deviation: from ~4 minutes up to 2.7 hours;
* recruitment latency: min 5 minutes, median 36 minutes.

We do not have the raw trace, so :func:`generate_medical_trace` synthesises
one from a log-normal worker population and per-worker normal latency draws.
The resulting trace is used both to fit simulator worker profiles (exactly as
the authors fit profiles from their real trace) and to reproduce Table 1 and
Figure 2.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field, asdict
from pathlib import Path
from typing import Optional

import numpy as np

from .worker import PopulationParameters, WorkerPopulation, WorkerProfile


@dataclass(frozen=True)
class TraceRecord:
    """One completed assignment in a trace."""

    worker_id: int
    task_id: int
    accepted_at: float
    completed_at: float

    @property
    def latency(self) -> float:
        return self.completed_at - self.accepted_at


@dataclass
class CrowdTrace:
    """A collection of completed assignments plus recruitment observations."""

    records: list[TraceRecord] = field(default_factory=list)
    #: Observed recruitment latencies (seconds from posting to acceptance).
    recruitment_latencies: list[float] = field(default_factory=list)
    description: str = ""

    def __len__(self) -> int:
        return len(self.records)

    def latencies(self) -> np.ndarray:
        """All assignment latencies, in seconds."""
        return np.array([r.latency for r in self.records], dtype=float)

    def worker_ids(self) -> list[int]:
        return sorted({r.worker_id for r in self.records})

    def latencies_by_worker(self) -> dict[int, np.ndarray]:
        """Map worker id -> array of that worker's assignment latencies."""
        per_worker: dict[int, list[float]] = {}
        for record in self.records:
            per_worker.setdefault(record.worker_id, []).append(record.latency)
        return {wid: np.array(vals, dtype=float) for wid, vals in per_worker.items()}

    def worker_mean_latencies(self) -> np.ndarray:
        return np.array(
            [vals.mean() for vals in self.latencies_by_worker().values()], dtype=float
        )

    def worker_std_latencies(self) -> np.ndarray:
        stds = []
        for vals in self.latencies_by_worker().values():
            if len(vals) >= 2:
                stds.append(float(vals.std(ddof=1)))
        return np.array(stds, dtype=float)

    def fit_worker_profiles(
        self,
        accuracy_alpha: float = 18.0,
        accuracy_beta: float = 2.0,
        seed: int = 0,
        min_assignments: int = 2,
    ) -> list[WorkerProfile]:
        """Fit (mu_i, sigma_i, lambda_i) worker profiles from the trace.

        This mirrors §6.1: per-worker mean and std come from the trace; the
        trace does not record correctness, so accuracies are drawn from a
        Beta prior consistent with an 85%-approval qualification requirement.
        """
        rng = np.random.default_rng(seed)
        profiles = []
        for worker_id, vals in sorted(self.latencies_by_worker().items()):
            if len(vals) < min_assignments:
                continue
            accuracy = float(np.clip(rng.beta(accuracy_alpha, accuracy_beta), 0.5, 1.0))
            profiles.append(
                WorkerProfile(
                    worker_id=worker_id,
                    mean_latency=float(vals.mean()),
                    latency_std=float(vals.std(ddof=1)) if len(vals) > 1 else 1.0,
                    accuracy=accuracy,
                )
            )
        return profiles

    def to_population(self, seed: int = 0) -> WorkerPopulation:
        """Build a :class:`WorkerPopulation` whose profiles are fitted from the trace."""
        return WorkerPopulation(
            profiles=tuple(self.fit_worker_profiles(seed=seed)), seed=seed
        )

    def save(self, path: str | Path) -> None:
        """Serialise the trace to JSON."""
        payload = {
            "description": self.description,
            "recruitment_latencies": self.recruitment_latencies,
            "records": [asdict(r) for r in self.records],
        }
        Path(path).write_text(json.dumps(payload))

    @classmethod
    def load(cls, path: str | Path) -> "CrowdTrace":
        """Load a trace previously written by :meth:`save`."""
        payload = json.loads(Path(path).read_text())
        records = [TraceRecord(**r) for r in payload["records"]]
        return cls(
            records=records,
            recruitment_latencies=list(payload.get("recruitment_latencies", [])),
            description=payload.get("description", ""),
        )


@dataclass(frozen=True)
class MedicalDeploymentParameters:
    """Calibration knobs for the synthetic medical-deployment trace.

    Defaults are chosen so the generated trace matches the paper's reported
    statistics in shape: median HIT latency of a few minutes, a long upper
    tail reaching past an hour, per-worker means from tens of seconds to
    hours, and recruitment latencies with median around half an hour.
    """

    num_workers: int = 300
    num_tasks: int = 60_000
    #: Worker population: log-normal over per-worker mean latency (seconds).
    #: exp(5.0) ~ 148 s ~ 2.5 min median per-worker mean.
    population: PopulationParameters = field(
        default_factory=lambda: PopulationParameters(
            log_mean_latency=5.0,
            log_std_latency=1.0,
            relative_std=0.6,
            relative_std_noise=0.4,
        )
    )
    #: Recruitment latency log-normal: median exp(7.7) ~ 2200 s ~ 36 min.
    recruitment_log_mean: float = 7.7
    recruitment_log_std: float = 0.6
    recruitment_min_seconds: float = 300.0
    #: How unevenly tasks are spread over workers (Zipf-like skew); fast
    #: workers complete many more tasks, as observed in the deployment.
    task_share_skew: float = 1.2


def generate_medical_trace(
    parameters: Optional[MedicalDeploymentParameters] = None,
    seed: int = 0,
) -> CrowdTrace:
    """Generate a synthetic trace shaped like the paper's medical deployment."""
    params = parameters or MedicalDeploymentParameters()
    rng = np.random.default_rng(seed)
    population = WorkerPopulation(parameters=params.population, seed=seed)
    workers = list(
        itertools.islice(
            population.draw_workers(np.random.default_rng(population.seed)),
            params.num_workers,
        )
    )

    # Faster workers complete disproportionately many tasks: weight inversely
    # proportional to mean latency raised to the skew exponent.
    weights = np.array([1.0 / (w.mean_latency ** params.task_share_skew) for w in workers])
    weights = weights / weights.sum()

    records: list[TraceRecord] = []
    worker_clock = {w.worker_id: 0.0 for w in workers}
    worker_by_id = {w.worker_id: w for w in workers}
    assignments = rng.choice(
        [w.worker_id for w in workers], size=params.num_tasks, p=weights
    )
    for task_id, worker_id in enumerate(assignments):
        worker = worker_by_id[int(worker_id)]
        latency = worker.draw_latency(rng)
        accepted_at = worker_clock[worker.worker_id]
        completed_at = accepted_at + latency
        worker_clock[worker.worker_id] = completed_at
        records.append(
            TraceRecord(
                worker_id=worker.worker_id,
                task_id=task_id,
                accepted_at=accepted_at,
                completed_at=completed_at,
            )
        )

    recruitment = (
        params.recruitment_min_seconds
        + rng.lognormal(
            params.recruitment_log_mean, params.recruitment_log_std, size=params.num_workers
        )
    )
    return CrowdTrace(
        records=records,
        recruitment_latencies=[float(x) for x in recruitment],
        description="synthetic medical-abstract labeling deployment",
    )


@dataclass(frozen=True)
class TraceStatistics:
    """Summary statistics of a trace, mirroring the numbers quoted in §2.1."""

    num_assignments: int
    num_workers: int
    task_latency_median: float
    task_latency_std: float
    task_latency_p90: float
    worker_mean_latency_min: float
    worker_mean_latency_median: float
    worker_mean_latency_max: float
    worker_std_latency_min: float
    worker_std_latency_max: float
    recruitment_latency_min: float
    recruitment_latency_median: float
    recruitment_latency_std: float

    def as_dict(self) -> dict[str, float]:
        return asdict(self)


def summarize_trace(trace: CrowdTrace) -> TraceStatistics:
    """Compute the §2.1-style summary statistics for ``trace``."""
    if not trace.records:
        raise ValueError("cannot summarize an empty trace")
    latencies = trace.latencies()
    worker_means = trace.worker_mean_latencies()
    worker_stds = trace.worker_std_latencies()
    recruitment = np.array(trace.recruitment_latencies, dtype=float)
    if recruitment.size == 0:
        recruitment = np.array([float("nan")])
    return TraceStatistics(
        num_assignments=len(trace.records),
        num_workers=len(trace.worker_ids()),
        task_latency_median=float(np.median(latencies)),
        task_latency_std=float(latencies.std(ddof=1)),
        task_latency_p90=float(np.percentile(latencies, 90)),
        worker_mean_latency_min=float(worker_means.min()),
        worker_mean_latency_median=float(np.median(worker_means)),
        worker_mean_latency_max=float(worker_means.max()),
        worker_std_latency_min=float(worker_stds.min()) if worker_stds.size else 0.0,
        worker_std_latency_max=float(worker_stds.max()) if worker_stds.size else 0.0,
        recruitment_latency_min=float(np.nanmin(recruitment)),
        recruitment_latency_median=float(np.nanmedian(recruitment)),
        recruitment_latency_std=float(np.nanstd(recruitment)),
    )


def default_simulation_population(seed: int = 0, fast_pool: bool = False) -> WorkerPopulation:
    """A worker population sized for interactive simulation experiments.

    The full medical-deployment population has per-worker means measured in
    minutes, which is the right scale for Table 1 / Figure 2 but makes
    end-to-end learning experiments slow to simulate.  The evaluation section
    of the paper works with retainer pools whose workers answer in seconds
    (Figures 5 and 8 bucket per-label latencies at 4 and 8 seconds).  This
    helper returns a population on that scale: per-worker mean latency is
    log-normal with median ~8 s/record and a heavy tail.

    Parameters
    ----------
    seed:
        Random seed for the population.
    fast_pool:
        If true, return a tighter distribution (median ~5 s) approximating a
        well-qualified pool.
    """
    if fast_pool:
        params = PopulationParameters(
            log_mean_latency=np.log(5.0),
            log_std_latency=0.45,
            relative_std=0.35,
            relative_std_noise=0.3,
        )
    else:
        params = PopulationParameters(
            log_mean_latency=np.log(8.0),
            log_std_latency=0.75,
            relative_std=0.5,
            relative_std_noise=0.4,
        )
    # The "fast" wire registry entry is exactly this function with
    # fast_pool=True.
    return WorkerPopulation(
        parameters=params,
        seed=seed,
        source={"factory": "fast" if fast_pool else "default", "seed": seed},
    )
