"""Pool maintenance: evict slow workers and converge to a fast pool.

Pool maintenance (§4.2) continuously replaces workers whose empirical mean
latency is significantly above a latency threshold ``PM_ell``, drawing
replacements from a background-recruited reserve so eviction never blocks on
recruitment.  The analytic model predicts that after ``n`` maintenance steps
the pool's expected mean latency is::

    E[mu] = (1 - q**(n+1)) * mu_f + q**(n+1) * mu_s

where ``q`` is the population mass slower than the threshold and ``mu_f`` /
``mu_s`` the conditional means below / above it — i.e. the pool converges to
the mean of the fast side of the distribution.

When straggler mitigation is active, completed-task latencies understate slow
workers' true speed, so the maintainer can be configured to fold in TermEst
estimates (§4.3); the Figure 14 experiment ablates exactly that switch.

The maintainer can also optimise worker quality instead of speed (the
"Extensions" paragraph of §4.2): under
:attr:`~repro.core.config.MaintenanceObjective.AGREEMENT` a worker's score is
the rate at which their answers disagree with their tasks' consensus, and the
threshold is a disagreement rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..analysis.stats import one_sided_t_test
from ..crowd.platform import SimulatedCrowdPlatform
from ..crowd.worker import WorkerObservations
from .config import MaintenanceObjective
from .termest import NaiveLatencyEstimator, TermEst


#: A worker's observations, their (completed, terminated, terminator
#: latencies, votes compared, votes agreed) counts when last tested, and the
#: verdict of that test.
_Verdict = tuple[WorkerObservations, tuple[int, int, int, int, int], bool]


@dataclass(frozen=True)
class ReplacementEvent:
    """One eviction performed by the maintainer."""

    time: float
    evicted_worker_id: int
    replacement_worker_id: Optional[int]
    #: The evicted worker's score, in the threshold's unit.
    score: float
    threshold: float
    batch_index: Optional[int] = None


@dataclass(frozen=True)
class MaintenancePolicy:
    """Knobs of the maintenance decision rule."""

    #: Threshold PM_ell in the objective's unit: seconds per label (i.e. per
    #: record) for ``LATENCY``, a disagreement rate for ``AGREEMENT``.
    threshold: float
    #: The score compared with the threshold.
    objective: MaintenanceObjective = MaintenanceObjective.LATENCY
    #: One-sided significance level for flagging a worker as slow.
    significance: float = 0.05
    #: Minimum number of started tasks before a worker can be evaluated.
    min_observations: int = 2
    #: Use TermEst to correct for straggler-mitigation censoring.
    use_termest: bool = True
    #: TermEst smoothing constant.
    termest_alpha: float = 1.0

    def __post_init__(self) -> None:
        if self.threshold <= 0:
            raise ValueError("threshold must be positive")
        if not 0.0 < self.significance < 1.0:
            raise ValueError("significance must be in (0, 1)")
        if self.min_observations < 1:
            raise ValueError("min_observations must be >= 1")


class PoolMaintainer:
    """Flags slow (or disagreeing) workers and swaps in replacements from
    the reserve."""

    def __init__(self, policy: MaintenancePolicy, records_per_task: int = 1) -> None:
        """Create a maintainer.

        ``records_per_task`` converts observed per-task latencies to the
        per-label scale the latency threshold is expressed in (the paper's
        Figure 5 buckets per-label latency).
        """
        if records_per_task < 1:
            raise ValueError("records_per_task must be >= 1")
        self.policy = policy
        self.records_per_task = records_per_task
        self._estimator = (
            TermEst(alpha=policy.termest_alpha)
            if policy.use_termest
            else NaiveLatencyEstimator()
        )
        self.replacements: list[ReplacementEvent] = []
        #: Last verdict per pool worker, keyed on its observations object and
        #: that object's append-only counts (see :meth:`flag_slow_workers`).
        self._verdicts: dict[int, _Verdict] = {}

    # -- decision rule --------------------------------------------------------

    def score(self, observations: WorkerObservations) -> Optional[float]:
        """The worker's score in the threshold's unit; higher is worse.

        Under ``LATENCY`` the per-label latency estimate after TermEst
        correction, under ``AGREEMENT`` the disagreement rate.  ``None``
        while the evidence is too thin to score.
        """
        if self.policy.objective is MaintenanceObjective.AGREEMENT:
            return observations.disagreement_rate()
        estimate = self._estimator.estimated_mean_latency(observations)
        if estimate is None:
            return None
        return estimate / self.records_per_task

    def is_slow(self, observations: WorkerObservations) -> bool:
        """One-sided test: is the worker's score significantly above threshold?

        The point estimate must exceed the threshold.  Under ``AGREEMENT``
        it then decides alone.  Under ``LATENCY`` a t-test over few
        observations is underpowered, so the point estimate also decides
        alone when it is TermEst's and the worker has terminated tasks,
        or when the worker has too few completed observations for the test
        (this is what lets TermEst-flagged workers with mostly-terminated tasks
        be evicted at all).  Otherwise the one-sided t-test over completed
        per-label latencies must reject "mean <= threshold" at the configured
        significance.
        """
        if observations.started_count < self.policy.min_observations:
            return False
        estimate = self.score(observations)
        if estimate is None or estimate <= self.policy.threshold:
            return False
        if self.policy.objective is MaintenanceObjective.AGREEMENT:
            return True
        if self.policy.use_termest and observations.terminated_count > 0:
            # TermEst pushed the estimate over the threshold, and censoring is
            # exactly the case the correction exists for: trust it, whatever
            # the completed observations alone would say.
            return True
        per_label = np.array(observations.completed_latencies) / self.records_per_task
        if per_label.size >= 3 and per_label.std(ddof=1) > 0:
            _, p_value = one_sided_t_test(per_label, self.policy.threshold)
            return p_value <= self.policy.significance
        return True

    def flag_slow_workers(self, platform: SimulatedCrowdPlatform) -> list[int]:
        """Ids of current pool workers the decision rule flags as slow.

        Observations only ever grow by appending, so a worker whose counts
        have not moved since the last step keeps its last verdict and is not
        re-tested.  Only workers still in the pool are remembered.
        """
        pool_observations = platform.pool.all_observations()
        verdicts: dict[int, _Verdict] = {}
        flagged = []
        for worker_id, observations in pool_observations.items():
            counts = (
                observations.completed_count,
                observations.terminated_count,
                len(observations.terminator_latencies),
                observations.votes_compared,
                observations.votes_agreed,
            )
            last = self._verdicts.get(worker_id)
            if last is not None and last[0] is observations and last[1] == counts:
                slow = last[2]
            else:
                slow = self.is_slow(observations)
            verdicts[worker_id] = (observations, counts, slow)
            if slow:
                flagged.append(worker_id)
        self._verdicts = verdicts
        return flagged

    # -- maintenance step -----------------------------------------------------------

    def maintain(
        self,
        platform: SimulatedCrowdPlatform,
        batch_index: Optional[int] = None,
    ) -> list[ReplacementEvent]:
        """Evict every flagged worker, seating reserve replacements.

        Returns the replacement events performed in this step (also appended
        to ``self.replacements``).  Eviction proceeds even when no replacement
        is ready — the pool temporarily shrinks and is refilled on a later
        step, mirroring the asynchronous behaviour described in §4.2.
        """
        events = []
        for worker_id in self.flag_slow_workers(platform):
            observations = platform.pool.observations(worker_id)
            score = self.score(observations)
            replacement = platform.replace_worker(worker_id)
            self._verdicts.pop(worker_id, None)
            event = ReplacementEvent(
                time=platform.now,
                evicted_worker_id=worker_id,
                replacement_worker_id=replacement.worker_id if replacement else None,
                score=float(score) if score is not None else float("nan"),
                threshold=self.policy.threshold,
                batch_index=batch_index,
            )
            events.append(event)
            self.replacements.append(event)
        return events


def predicted_pool_latency(
    q: float, mu_fast: float, mu_slow: float, steps: int
) -> float:
    """The §4.2 convergence model: expected pool mean latency after ``steps``.

    ``q`` is the probability a randomly drawn worker is slower than the
    threshold, ``mu_fast`` / ``mu_slow`` the conditional means on either side.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be in [0, 1]")
    if steps < 0:
        raise ValueError("steps must be non-negative")
    remaining_slow_mass = q ** (steps + 1)
    return (1.0 - remaining_slow_mass) * mu_fast + remaining_slow_mass * mu_slow


def predicted_latency_series(
    q: float, mu_fast: float, mu_slow: float, num_steps: int
) -> list[float]:
    """The convergence model evaluated at steps 0..num_steps (Figure-6 overlay)."""
    return [predicted_pool_latency(q, mu_fast, mu_slow, n) for n in range(num_steps + 1)]


def threshold_from_population(
    mean_latency: float, std_latency: float, k_std_below_mean: float = 1.0
) -> float:
    """Pick PM_ell as ``k`` standard deviations below the population mean (§4.2)."""
    if std_latency < 0:
        raise ValueError("std_latency must be non-negative")
    return max(1e-6, mean_latency - k_std_below_mean * std_latency)
