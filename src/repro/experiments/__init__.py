"""Experiment drivers: one per figure/table in the paper's evaluation.

:data:`repro.experiments.artifacts.ARTIFACTS` declares each claimed table or
figure over these drivers at claim scale; ``repro run`` prints them and
``benchmarks/bench_*.py`` judge them (README, "Reproducing the paper").
"""

from .combined import (
    CombinedExperimentResult,
    TermEstComparison,
    run_combined_experiment,
    run_termest_experiment,
)
from .common import (
    fast_population,
    format_table,
    make_labeling_workload,
    mixed_speed_population,
    run_configuration,
)
from .end_to_end import (
    EndToEndComparison,
    EndToEndResult,
    HeadlineNumbers,
    headline_numbers,
    run_end_to_end_experiment,
    strategy_configs,
)
from .hybrid_learning import (
    HybridLearningResult,
    StrategyCurves,
    compare_strategies_on_dataset,
    run_generated_dataset_experiment,
    run_real_dataset_experiment,
)
from .pool_maintenance import (
    MaintenanceComparison,
    PoolMaintenanceExperimentResult,
    WorkerAgePoint,
    run_pool_maintenance_experiment,
    slow_task_fraction_by_age,
    worker_age_scatter,
)
from .simulation_claims import (
    ConvergenceResult,
    DecouplingResult,
    RatioSweepResult,
    RoutingPolicyResult,
    run_convergence_experiment,
    run_decoupling_experiment,
    run_ratio_sweep,
    run_routing_policy_experiment,
)
from .straggler import (
    StragglerComparison,
    StragglerExperimentResult,
    fastest_worker_share,
    run_straggler_experiment,
)
from .summary import TechniqueImpact, TechniqueMatrix, build_technique_matrix
from .taxonomy import (
    TaxonomyExperimentResult,
    fastest_vs_median_throughput_ratio,
    run_taxonomy_experiment,
)
from .threshold_sweep import (
    ThresholdRun,
    ThresholdSweepResult,
    run_threshold_sweep,
)

__all__ = [
    "CombinedExperimentResult",
    "ConvergenceResult",
    "DecouplingResult",
    "EndToEndComparison",
    "EndToEndResult",
    "HeadlineNumbers",
    "HybridLearningResult",
    "MaintenanceComparison",
    "PoolMaintenanceExperimentResult",
    "RatioSweepResult",
    "RoutingPolicyResult",
    "StragglerComparison",
    "StragglerExperimentResult",
    "StrategyCurves",
    "TaxonomyExperimentResult",
    "TechniqueImpact",
    "TechniqueMatrix",
    "TermEstComparison",
    "ThresholdRun",
    "ThresholdSweepResult",
    "WorkerAgePoint",
    "build_technique_matrix",
    "compare_strategies_on_dataset",
    "fast_population",
    "fastest_vs_median_throughput_ratio",
    "fastest_worker_share",
    "format_table",
    "headline_numbers",
    "make_labeling_workload",
    "mixed_speed_population",
    "run_combined_experiment",
    "run_configuration",
    "run_convergence_experiment",
    "run_decoupling_experiment",
    "run_end_to_end_experiment",
    "run_generated_dataset_experiment",
    "run_pool_maintenance_experiment",
    "run_ratio_sweep",
    "run_real_dataset_experiment",
    "run_routing_policy_experiment",
    "run_straggler_experiment",
    "run_taxonomy_experiment",
    "run_termest_experiment",
    "run_threshold_sweep",
    "slow_task_fraction_by_age",
    "strategy_configs",
    "worker_age_scatter",
]
