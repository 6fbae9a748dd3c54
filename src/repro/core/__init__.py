"""CLAMShell core: configuration, per-batch and full-run optimisations."""

from .batcher import Batcher, RunResult, SequentialSelector
from .config import (
    CLAMShellConfig,
    LearningStrategy,
    MaintenanceObjective,
    PayRates,
    StragglerRoutingPolicy,
    baseline_no_retainer,
    baseline_retainer,
    full_clamshell,
)
from .lifeguard import BatchOutcome, LifeGuard
from .maintainer import (
    MaintenancePolicy,
    PoolMaintainer,
    ReplacementEvent,
    predicted_latency_series,
    predicted_pool_latency,
    threshold_from_population,
)
from .metrics import (
    CostModel,
    ExecutionStats,
    ObjectiveValue,
    PoolSizeGuidance,
    RunFingerprint,
    collect_stats,
    crowd_labeling_objective,
    pool_size_guidance,
    speedup_factor,
    variance_reduction_factor,
)
from .mitigator import StragglerMitigator
from .quality import (
    QualityEstimate,
    VoteAggregator,
    WorkerQualityEstimator,
    inter_worker_agreement,
    majority_vote,
    votes_needed,
    weighted_vote,
)
from .termest import NaiveLatencyEstimator, TermEst, TermEstimate

__all__ = [
    "BatchOutcome",
    "Batcher",
    "CLAMShellConfig",
    "CostModel",
    "ExecutionStats",
    "LearningStrategy",
    "MaintenanceObjective",
    "LifeGuard",
    "MaintenancePolicy",
    "NaiveLatencyEstimator",
    "ObjectiveValue",
    "PayRates",
    "PoolMaintainer",
    "PoolSizeGuidance",
    "QualityEstimate",
    "ReplacementEvent",
    "RunFingerprint",
    "RunResult",
    "SequentialSelector",
    "StragglerMitigator",
    "StragglerRoutingPolicy",
    "TermEst",
    "TermEstimate",
    "VoteAggregator",
    "WorkerQualityEstimator",
    "baseline_no_retainer",
    "baseline_retainer",
    "collect_stats",
    "crowd_labeling_objective",
    "full_clamshell",
    "inter_worker_agreement",
    "majority_vote",
    "pool_size_guidance",
    "predicted_latency_series",
    "predicted_pool_latency",
    "speedup_factor",
    "threshold_from_population",
    "variance_reduction_factor",
    "votes_needed",
    "weighted_vote",
]
