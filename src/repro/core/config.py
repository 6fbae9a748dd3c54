"""Configuration of a CLAMShell run.

:class:`CLAMShellConfig` collects the experimental parameters of Table 3 —
the pool-maintenance latency threshold ``PM_ell``, the straggler-mitigation
switch ``SM``, the pool size ``Np``, task complexity ``Ng``, the pool-to-batch
ratio ``R``, and the learning algorithm ``Alg`` — plus the knobs the paper
fixes in text (the active-learning fraction ``r = k/p = 0.5``, quality-control
redundancy, MTurk pay rates, and so on).

Factory helpers build the three end-to-end strategies compared in §6.6:

* :func:`baseline_no_retainer` — Base-NR: no retainer pool reuse, no
  mitigation, no maintenance, passive learning;
* :func:`baseline_retainer` — Base-R: retainer pool and active learning, but
  no per-batch optimisations;
* :func:`full_clamshell` — everything on.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Optional

from ..learning.samplers import UNCERTAINTY_MEASURES


class LearningStrategy(Enum):
    """The ``Alg`` parameter of Table 3."""

    NONE = "none"
    ACTIVE = "active"
    PASSIVE = "passive"
    HYBRID = "hybrid"


class StragglerRoutingPolicy(Enum):
    """Which active task an idle worker is routed to under straggler mitigation.

    The paper's simulation study (§4.1) finds that the choice does not affect
    end-to-end latency; ``RANDOM`` is the default.
    """

    RANDOM = "random"
    LONGEST_RUNNING = "longest_running"
    FEWEST_ACTIVE = "fewest_active"
    ORACLE_SLOWEST = "oracle_slowest"


class MaintenanceObjective(Enum):
    """What pool maintenance evicts workers for.

    ``LATENCY`` is §4.2's speed-maintained pool.  ``AGREEMENT`` is the
    "Extensions" paragraph of §4.2: a worker's score is the rate at which
    their answers disagree with the consensus of the quality-controlled
    tasks they answered, so it needs ``votes_required >= 2``.
    """

    LATENCY = "latency"
    AGREEMENT = "agreement"


@dataclass(frozen=True)
class PayRates:
    """MTurk pay rates used in the live experiments (§6.1)."""

    #: Dollars per minute paid to pool workers while they wait for work.
    waiting_per_minute: float = 0.05
    #: Dollars per record labeled.
    per_record: float = 0.02

    def __post_init__(self) -> None:
        if self.waiting_per_minute < 0 or self.per_record < 0:
            raise ValueError("pay rates must be non-negative")


@dataclass(frozen=True)
class CLAMShellConfig:
    """All knobs of a CLAMShell run.  Frozen so configs can be shared/hashed."""

    # --- pool (Task latency) -------------------------------------------------
    #: Np — number of workers in the retainer pool.
    pool_size: int = 15
    #: Whether workers are retained between batches.  When false (Base-NR),
    #: every batch pays recruitment latency before work can start, because
    #: tasks sit on the open marketplace until workers accept them.
    use_retainer_pool: bool = True
    #: Probability a worker abandons the pool after completing a task.
    abandonment_rate: float = 0.0

    # --- tasks ------------------------------------------------------------------
    #: Ng — records grouped into one HIT (1 = simple, 5 = medium, 10 = complex).
    records_per_task: int = 1
    #: Votes required per task by quality control (1 disables redundancy).
    votes_required: int = 1

    # --- batch (Per-batch latency) ----------------------------------------------
    #: R — ratio of pool size to batch size.  batch_size = round(Np / R).
    pool_batch_ratio: float = 1.0
    #: SM — straggler mitigation on/off.
    straggler_mitigation: bool = True
    #: Routing policy used when mitigation duplicates a task.
    straggler_routing: StragglerRoutingPolicy = StragglerRoutingPolicy.RANDOM
    #: Decouple mitigation duplicates from quality-control redundancy (§4.1).
    decouple_quality_control: bool = True
    #: Cap on concurrent mitigation duplicates per task, beyond the votes
    #: quality control still needs (§4.1's bounded duplication).  ``None``
    #: means unlimited; 0 disables duplication entirely (idle workers only
    #: revive starved or under-provisioned tasks).
    max_extra_assignments: Optional[int] = None
    #: Reference mode: run the brute-force twins of the dispatch fast paths —
    #: ``pick_task_scan`` dispatch and probing every available worker
    #: (LifeGuard and mitigator).  Same labels, cost counters, events and
    #: simulated clock as the default fast mode; only probe volume and wall
    #: time differ.  The equivalence sweeps and the committed
    #: ``BENCH_*.reference.json`` baselines compare the two modes.  A config
    #: field, chosen once at build time, so it survives the trip into a
    #: process-pool worker.
    reference: bool = False

    # --- maintenance -----------------------------------------------------------------
    #: PM_ell — the eviction threshold, in the objective's unit: seconds per
    #: label for ``LATENCY``, a disagreement rate in (0, 1) for
    #: ``AGREEMENT``.  ``None`` disables maintenance (PM∞).
    maintenance_threshold: Optional[float] = 8.0
    #: The score maintenance compares with the threshold.
    maintenance_objective: MaintenanceObjective = MaintenanceObjective.LATENCY
    #: Significance level of the one-sided test flagging a worker as slow.
    maintenance_significance: float = 0.05
    #: Minimum completed (or estimated) tasks before a worker can be flagged.
    maintenance_min_observations: int = 2
    #: Size of the background-recruitment reserve, which refills the seats
    #: maintenance evicts and workers abandon.  Must be >= 1 whenever
    #: maintenance is on or ``abandonment_rate > 0``.
    maintenance_reserve_size: int = 3
    #: Use TermEst to correct for latencies censored by straggler mitigation.
    use_termest: bool = True
    #: TermEst smoothing constant alpha (§4.3).
    termest_alpha: float = 1.0

    # --- learning (Full-run latency) ------------------------------------------------------
    #: Alg — which learning strategy drives point selection.
    learning_strategy: LearningStrategy = LearningStrategy.HYBRID
    #: r = k/p — fraction of the pool devoted to active selection (§5.2).
    active_fraction: float = 0.5
    #: Number of unlabeled candidates scored per uncertainty-sampling step.
    candidate_sample_size: int = 500
    #: Uncertainty measure: margin, entropy, or least_confidence.
    uncertainty_measure: str = "margin"
    #: Retrain asynchronously (pipelined with labeling) instead of blocking.
    asynchronous_retraining: bool = True

    # --- economics / misc ----------------------------------------------------------
    pay_rates: PayRates = field(default_factory=PayRates)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.pool_size < 1:
            raise ValueError("pool_size must be >= 1")
        if not 0.0 <= self.abandonment_rate < 1.0:
            raise ValueError("abandonment_rate must be in [0, 1)")
        if self.records_per_task < 1:
            raise ValueError("records_per_task must be >= 1")
        if self.votes_required < 1:
            raise ValueError("votes_required must be >= 1")
        if self.votes_required > self.pool_size:
            # A worker answers a task at most once, so no task could ever
            # collect its votes and every batch would stall.
            raise ValueError(
                f"votes_required ({self.votes_required}) must be <= "
                f"pool_size ({self.pool_size})"
            )
        if self.pool_batch_ratio <= 0:
            raise ValueError("pool_batch_ratio must be positive")
        if self.max_extra_assignments is not None and self.max_extra_assignments < 0:
            raise ValueError("max_extra_assignments must be >= 0 or None")
        if self.maintenance_threshold is not None and self.maintenance_threshold <= 0:
            raise ValueError("maintenance_threshold must be positive or None")
        if (
            self.maintenance_objective is MaintenanceObjective.AGREEMENT
            and self.maintenance_threshold is not None
        ):
            if self.maintenance_threshold >= 1.0:
                raise ValueError(
                    "maintenance_threshold is a disagreement rate under the "
                    "agreement objective and must be in (0, 1)"
                )
            if self.votes_required < 2:
                # Agreement is measured against the consensus of redundant
                # answers; with one answer per task there is none to measure.
                raise ValueError(
                    "maintenance_objective 'agreement' needs votes_required >= 2"
                )
        if not 0.0 < self.maintenance_significance < 1.0:
            raise ValueError("maintenance_significance must be in (0, 1)")
        if self.maintenance_min_observations < 1:
            raise ValueError("maintenance_min_observations must be >= 1")
        if self.maintenance_reserve_size < 0:
            raise ValueError("maintenance_reserve_size must be >= 0")
        if self.maintenance_reserve_size == 0 and (
            self.maintenance_enabled or self.abandonment_rate > 0
        ):
            # Evicted or abandoned seats are refilled only from the reserve,
            # so with none the pool can shrink until no task can finish.
            raise ValueError(
                "maintenance_reserve_size must be >= 1 when maintenance is on "
                "or abandonment_rate > 0"
            )
        if self.termest_alpha < 0:
            raise ValueError("termest_alpha must be non-negative")
        if not 0.0 < self.active_fraction <= 1.0:
            raise ValueError("active_fraction must be in (0, 1]")
        if self.candidate_sample_size < 1:
            raise ValueError("candidate_sample_size must be >= 1")
        if self.uncertainty_measure not in UNCERTAINTY_MEASURES:
            raise ValueError(
                f"uncertainty_measure must be one of {sorted(UNCERTAINTY_MEASURES)}"
            )
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

    # --- derived quantities -------------------------------------------------------------

    @property
    def batch_size(self) -> int:
        """Number of tasks per batch, derived from Np and R."""
        return max(1, int(round(self.pool_size / self.pool_batch_ratio)))

    @property
    def active_batch_size(self) -> int:
        """k — the active-learning batch size, as a fraction of the pool."""
        return max(1, int(round(self.active_fraction * self.pool_size)))

    @property
    def maintenance_enabled(self) -> bool:
        return self.maintenance_threshold is not None

    def with_overrides(self, **kwargs: object) -> "CLAMShellConfig":
        """A copy of this config with the given fields replaced."""
        return replace(self, **kwargs)  # type: ignore[arg-type]

    def describe(self) -> str:
        """Short human-readable summary, e.g. for benchmark output headers."""
        if self.maintenance_threshold is None:
            pm = "PMinf"
        elif self.maintenance_objective is MaintenanceObjective.AGREEMENT:
            pm = f"PM(agreement){self.maintenance_threshold:g}"
        else:
            pm = f"PM{self.maintenance_threshold:g}"
        if not self.straggler_mitigation:
            sm = "NoSM"
        elif self.max_extra_assignments is not None:
            sm = f"SM(cap={self.max_extra_assignments})"
        else:
            sm = "SM"
        return (
            f"{sm}/{pm} Np={self.pool_size} Ng={self.records_per_task} "
            f"R={self.pool_batch_ratio:g} Alg={self.learning_strategy.value}"
        )


def baseline_no_retainer(**overrides: object) -> CLAMShellConfig:
    """Base-NR (§6.6): a typical crowd deployment.

    All labels are sent out at once (one giant batch), there is no straggler
    mitigation or pool maintenance, and a passive learner infers the
    remaining labels.  Workers are not retained between tasks, which we model
    as a slow, unmaintained pool with a large effective batch.
    """
    config = CLAMShellConfig(
        straggler_mitigation=False,
        maintenance_threshold=None,
        # No mitigation, so no duplicates to cap.
        max_extra_assignments=None,
        learning_strategy=LearningStrategy.PASSIVE,
        pool_batch_ratio=0.25,
        asynchronous_retraining=False,
        use_retainer_pool=False,
    )
    return config.with_overrides(**overrides)


def baseline_retainer(**overrides: object) -> CLAMShellConfig:
    """Base-R (§6.6): retainer pool + batched active learning, no per-batch optimisations."""
    config = CLAMShellConfig(
        straggler_mitigation=False,
        maintenance_threshold=None,
        # No mitigation, so no duplicates to cap.
        max_extra_assignments=None,
        learning_strategy=LearningStrategy.ACTIVE,
        pool_batch_ratio=1.0,
        asynchronous_retraining=False,
    )
    return config.with_overrides(**overrides)


def full_clamshell(**overrides: object) -> CLAMShellConfig:
    """The full CLAMShell configuration: SM + PM8 + hybrid learning + async retraining."""
    config = CLAMShellConfig(
        straggler_mitigation=True,
        maintenance_threshold=8.0,
        # Bounded duplication (§4.1): at most two concurrent mitigation
        # duplicates per task keeps nearly all of the latency win while
        # avoiding the unlimited assignment tail at high pool-to-batch
        # ratios.  Pass ``max_extra_assignments=None`` for the unbounded
        # behaviour.
        max_extra_assignments=2,
        learning_strategy=LearningStrategy.HYBRID,
        pool_batch_ratio=1.0,
        asynchronous_retraining=True,
    )
    return config.with_overrides(**overrides)
