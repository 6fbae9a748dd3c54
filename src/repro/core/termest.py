"""TermEst: estimating the latency of terminated (censored) assignments.

Straggler mitigation terminates slow replicas, so a slow worker's observable
completion times are biased toward the latency of the fast workers who beat
them — which blinds pool maintenance to who is actually slow (§4.3).  TermEst
reconstructs an estimate of the worker's true mean latency from how *often*
their assignments get terminated.

With ``N`` started tasks, ``N_t`` of them terminated and ``N_c = N - N_t``
completed, and ``l_f`` the mean latency of the workers whose completions
caused the terminations, the paper derives::

    l_s,Tt = l_f * (N + alpha) / (N_c + alpha)

where ``alpha`` smooths the estimate when ``N`` is small and avoids division
by zero when every task was terminated.  The worker's overall estimate is the
count-weighted average of the terminated-task estimate and the empirical mean
of their completed tasks::

    l_s = (N_t / N) * l_s,Tt + (N_c / N) * l_s,Tc
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..crowd.worker import WorkerObservations, sample_mean


@dataclass(frozen=True)
class TermEstimate:
    """The components of a TermEst latency estimate for one worker."""

    worker_id: int
    started: int
    completed: int
    terminated: int
    completed_mean: Optional[float]
    terminated_mean_estimate: Optional[float]
    overall_estimate: Optional[float]


class TermEst:
    """Terminated-task latency estimator (§4.3)."""

    def __init__(self, alpha: float = 1.0) -> None:
        if alpha < 0:
            raise ValueError("alpha must be non-negative")
        self.alpha = alpha

    def terminator_mean(self, observations: WorkerObservations) -> Optional[float]:
        """``l_f``: mean latency of the workers that out-raced this one.

        Estimated as the empirical mean of the completion latencies that
        caused this worker's assignments to terminate; ``None`` when the
        worker has never been terminated (or the latencies were not recorded).
        """
        if not observations.terminator_latencies:
            return None
        return sample_mean(observations.terminator_latencies)

    def terminated_mean_estimate(
        self, observations: WorkerObservations
    ) -> Optional[float]:
        """``l_s,Tt``: estimated mean latency of the worker's terminated tasks."""
        if observations.terminated_count == 0:
            return None
        l_f = self.terminator_mean(observations)
        if l_f is None:
            # Terminations happened but we never saw who caused them; fall
            # back to the worker's own completed mean (no correction).
            return observations.empirical_mean_latency()
        started = observations.started_count
        completed = observations.completed_count
        denominator = completed + self.alpha
        if denominator == 0:
            # Every task was terminated and no smoothing was requested: the
            # worker never finishes anything, so their latency is unbounded.
            return float("inf")
        return l_f * (started + self.alpha) / denominator

    def estimate(self, observations: WorkerObservations) -> TermEstimate:
        """Full TermEst estimate for one worker's observations."""
        started = observations.started_count
        completed = observations.completed_count
        terminated = observations.terminated_count
        completed_mean = observations.empirical_mean_latency()
        terminated_mean = self.terminated_mean_estimate(observations)

        if started == 0:
            overall = None
        elif terminated == 0:
            overall = completed_mean
        elif completed == 0:
            overall = terminated_mean
        else:
            assert completed_mean is not None and terminated_mean is not None
            overall = (
                (terminated / started) * terminated_mean
                + (completed / started) * completed_mean
            )
        return TermEstimate(
            worker_id=observations.worker_id,
            started=started,
            completed=completed,
            terminated=terminated,
            completed_mean=completed_mean,
            terminated_mean_estimate=terminated_mean,
            overall_estimate=overall,
        )

    def estimated_mean_latency(
        self, observations: WorkerObservations
    ) -> Optional[float]:
        """Convenience accessor for the overall estimate ``l_s``."""
        return self.estimate(observations).overall_estimate


class NaiveLatencyEstimator:
    """The no-correction estimator: mean of completed-assignment latencies only.

    Used as the ablation baseline in the Figure 14 experiment: without
    TermEst, straggler mitigation censors slow workers' latencies and the
    replacement rate collapses.
    """

    def estimated_mean_latency(
        self, observations: WorkerObservations
    ) -> Optional[float]:
        return observations.empirical_mean_latency()
