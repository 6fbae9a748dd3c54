"""Extension experiments: the paper's §4.2 "Extensions" and §7 future work.

Two extensions the paper sketches but does not evaluate are implemented and
measured here so their ablations can be benchmarked:

* **Quality-maintained pools** (§4.2 "Extensions"): pool maintenance can
  optimise an objective other than speed.  Under
  ``maintenance_objective=AGREEMENT`` the maintainer scores each worker by
  how often their answers disagree with the consensus of the redundantly
  labeled tasks they answered, an estimate of their *error rate*, and evicts
  workers whose rate is above a threshold.  The experiment compares label
  accuracy and latency against latency-maintained and unmaintained pools.
* **Hybrid re-weighting** (§5.1 / §7): hybrid learning trains on the union of
  actively- and passively-sampled points with weights derived from the active
  fraction ``r``.  The ``active_weight_boost`` knob emphasises active points
  further (the "difficulty hint"); this experiment sweeps it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..api.engine import Engine, JobSpec
from ..core.config import CLAMShellConfig, LearningStrategy, MaintenanceObjective
from ..crowd.worker import PopulationParameters, WorkerPopulation
from ..learning.datasets import make_cifar_like
from ..learning.learners import HybridLearner
from .common import make_labeling_workload


# --------------------------------------------------------------------------
# Quality-maintained pools
# --------------------------------------------------------------------------

def accuracy_population(seed: int = 0) -> WorkerPopulation:
    """A fast but *quality-diverse* population.

    Latencies are tight (so speed-based maintenance has little to do) while
    accuracies span 0.55-0.99, which is the regime where maintaining on
    quality instead of speed pays off.
    """
    rng = np.random.default_rng(seed)
    from ..crowd.worker import WorkerProfile

    profiles = []
    for index in range(60):
        accuracy = float(np.clip(rng.beta(4.0, 1.5), 0.55, 0.99))
        profiles.append(
            WorkerProfile(
                worker_id=index,
                mean_latency=float(rng.uniform(4.0, 8.0)),
                latency_std=1.0,
                accuracy=accuracy,
            )
        )
    return WorkerPopulation(profiles=tuple(profiles), seed=seed)


@dataclass
class QualityMaintenanceResult:
    """Outcome of the quality-maintained-pool experiment."""

    label_accuracy: dict[str, float] = field(default_factory=dict)
    total_latency: dict[str, float] = field(default_factory=dict)
    replacements: dict[str, int] = field(default_factory=dict)

    def rows(self) -> list[list[object]]:
        return [
            [
                name,
                round(self.label_accuracy[name], 3),
                round(self.total_latency[name], 1),
                self.replacements[name],
            ]
            for name in self.label_accuracy
        ]


def run_quality_maintenance_experiment(
    num_tasks: int = 90,
    pool_size: int = 12,
    votes_required: int = 3,
    disagreement_threshold: float = 0.25,
    seed: int = 0,
) -> QualityMaintenanceResult:
    """Compare unmaintained, latency-maintained, and quality-maintained pools.

    Every configuration labels the same redundant (3-vote) workload on a pool
    drawn from :func:`accuracy_population`; the measured outcome is the
    accuracy of the majority-vote labels, total latency, and eviction count.
    """
    result = QualityMaintenanceResult()
    workload = make_labeling_workload(num_records=num_tasks, num_classes=2, seed=seed)
    base = CLAMShellConfig(
        pool_size=pool_size,
        votes_required=votes_required,
        straggler_mitigation=True,
        learning_strategy=LearningStrategy.NONE,
        seed=seed,
    )
    arms = {
        "unmaintained": base.with_overrides(maintenance_threshold=None),
        "latency-maintained": base.with_overrides(maintenance_threshold=8.0),
        "quality-maintained": base.with_overrides(
            maintenance_threshold=disagreement_threshold,
            maintenance_objective=MaintenanceObjective.AGREEMENT,
        ),
    }
    population = accuracy_population(seed=seed)
    engine = Engine()
    for name, config in arms.items():
        run = engine.run(
            JobSpec(
                dataset=workload,
                config=config,
                population=population,
                num_records=num_tasks,
            )
        )
        correct = sum(
            1 for record_id, label in run.labels.items() if label == int(workload.y[record_id])
        )
        result.label_accuracy[name] = correct / max(1, len(run.labels))
        result.total_latency[name] = run.total_wall_clock
        result.replacements[name] = len(run.replacements)
    return result


# --------------------------------------------------------------------------
# Hybrid re-weighting ablation
# --------------------------------------------------------------------------

@dataclass
class ReweightingResult:
    """Final accuracy per active-weight boost."""

    accuracies: dict[float, float] = field(default_factory=dict)

    def rows(self) -> list[list[object]]:
        return [[boost, round(acc, 3)] for boost, acc in sorted(self.accuracies.items())]

    def best_boost(self) -> float:
        return max(self.accuracies, key=self.accuracies.get)


def run_reweighting_ablation(
    boosts: Sequence[float] = (0.5, 1.0, 2.0, 4.0),
    num_records: int = 150,
    pool_size: int = 10,
    seed: int = 0,
) -> ReweightingResult:
    """Sweep the hybrid learner's active-point weight boost on the CIFAR stand-in."""
    result = ReweightingResult()
    dataset = make_cifar_like(n_samples=1500, n_features=128, seed=seed)
    population = WorkerPopulation(
        parameters=PopulationParameters(log_mean_latency=np.log(6.0), log_std_latency=0.5),
        seed=seed,
    )
    for boost in boosts:
        config = CLAMShellConfig(
            pool_size=pool_size,
            straggler_mitigation=True,
            maintenance_threshold=None,
            learning_strategy=LearningStrategy.HYBRID,
            candidate_sample_size=200,
            seed=seed,
        )
        run = Engine().run(
            JobSpec(
                dataset=dataset,
                config=config,
                population=population,
                num_records=num_records,
                learner_factory=lambda b=boost: HybridLearner(
                    dataset, seed=seed, candidate_sample_size=200, active_weight_boost=b
                ),
            )
        )
        assert run.final_accuracy is not None
        result.accuracies[float(boost)] = run.final_accuracy
    return result
