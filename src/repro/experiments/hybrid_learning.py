"""Experiments F15/F16: active vs passive vs hybrid learning (§6.5).

Figure 15 runs the three strategies on generated datasets of increasing
hardness, with the active fraction of the pool r = k/p varied across columns;
the claim is that active learning wins on easy data, passive wins on hard
data, and hybrid matches or beats both everywhere.  Figure 16 repeats the
comparison on the MNIST-like and CIFAR-like datasets with crowd timing, where
hybrid trains better models faster because it uses the full pool parallelism.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..core.config import CLAMShellConfig, LearningStrategy
from ..crowd.worker import WorkerPopulation
from ..learning.datasets import Dataset, make_cifar_like, make_hardness_series, make_mnist_like
from ..learning.evaluation import LearningCurve
from .common import mixed_speed_population, run_configuration

STRATEGIES: tuple[LearningStrategy, ...] = (
    LearningStrategy.ACTIVE,
    LearningStrategy.PASSIVE,
    LearningStrategy.HYBRID,
)


@dataclass
class StrategyCurves:
    """Learning curves of the three strategies on one dataset at one r."""

    dataset_name: str
    active_fraction: float
    curves: dict[str, LearningCurve] = field(default_factory=dict)

    def accuracies_at_common_time(self) -> dict[str, float]:
        """Accuracy of each strategy at the earliest common wall-clock horizon.

        This is the paper's framing ("in the same amount of time, the hybrid
        strategy is always the preferred solution"): strategies acquire labels
        at very different rates, so comparing them at a fixed time — rather
        than after a fixed number of labels — is what Figures 15/16 plot.
        """
        horizon = min(curve.times()[-1] for curve in self.curves.values())
        return {
            name: curve.accuracy_at_time(horizon) for name, curve in self.curves.items()
        }

    def best_strategy_by_time(self) -> str:
        """Strategy with the highest accuracy at the common time horizon."""
        at_time = self.accuracies_at_common_time()
        best_value = max(at_time.values())
        if abs(at_time.get("hybrid", 0.0) - best_value) < 1e-9:
            return "hybrid"
        return max(at_time, key=at_time.get)

    def hybrid_competitive(self, tolerance: float = 0.05) -> bool:
        """Is hybrid within ``tolerance`` of the best strategy at the same wall-clock time?"""
        at_time = self.accuracies_at_common_time()
        return at_time["hybrid"] >= max(at_time.values()) - tolerance

    def time_to_accuracy(self, threshold: float) -> dict[str, Optional[float]]:
        return {
            name: curve.time_to_accuracy(threshold) for name, curve in self.curves.items()
        }


@dataclass
class HybridLearningResult:
    """A grid of strategy comparisons (datasets x active fractions)."""

    cells: list[StrategyCurves] = field(default_factory=list)

    def summary_rows(self) -> list[list[object]]:
        """Accuracy of each strategy at the common wall-clock horizon per cell."""
        rows = []
        for cell in self.cells:
            at_time = cell.accuracies_at_common_time()
            rows.append(
                [
                    cell.dataset_name,
                    cell.active_fraction,
                    at_time.get("active", float("nan")),
                    at_time.get("passive", float("nan")),
                    at_time.get("hybrid", float("nan")),
                    cell.best_strategy_by_time(),
                ]
            )
        return rows

    def hybrid_always_competitive(self, tolerance: float = 0.05) -> bool:
        return all(cell.hybrid_competitive(tolerance) for cell in self.cells)


def _learning_config(
    strategy: LearningStrategy,
    pool_size: int,
    active_fraction: float,
    seed: int,
) -> CLAMShellConfig:
    return CLAMShellConfig(
        pool_size=pool_size,
        records_per_task=1,
        pool_batch_ratio=1.0,
        straggler_mitigation=True,
        maintenance_threshold=None,
        learning_strategy=strategy,
        active_fraction=active_fraction,
        candidate_sample_size=300,
        seed=seed,
    )


def compare_strategies_on_dataset(
    dataset: Dataset,
    num_records: int = 150,
    pool_size: int = 10,
    active_fraction: float = 0.5,
    population: Optional[WorkerPopulation] = None,
    seed: int = 0,
) -> StrategyCurves:
    """Run all three strategies on one dataset and collect learning curves."""
    cell = StrategyCurves(dataset_name=dataset.name, active_fraction=active_fraction)
    for strategy in STRATEGIES:
        pop = population if population is not None else mixed_speed_population(seed=seed)
        run = run_configuration(
            _learning_config(strategy, pool_size, active_fraction, seed),
            dataset,
            population=pop,
            num_records=num_records,
            label=f"{dataset.name}/{strategy.value}",
            seed=seed,
        )
        curve = run.result.learning_curve
        assert curve is not None
        cell.curves[strategy.value] = curve
    return cell


def run_generated_dataset_experiment(
    hardness_levels: Sequence[int] = (20, 100, 400),
    active_fractions: Sequence[float] = (0.25, 0.5, 0.75),
    num_records: int = 150,
    pool_size: int = 10,
    n_samples: int = 1500,
    seed: int = 0,
) -> HybridLearningResult:
    """Figure 15: the hardness x active-fraction grid on generated datasets."""
    result = HybridLearningResult()
    datasets = make_hardness_series(
        hardness_levels=tuple(hardness_levels), n_samples=n_samples, seed=seed
    )
    for dataset in datasets:
        for fraction in active_fractions:
            result.cells.append(
                compare_strategies_on_dataset(
                    dataset,
                    num_records=num_records,
                    pool_size=pool_size,
                    active_fraction=fraction,
                    seed=seed,
                )
            )
    return result


def run_real_dataset_experiment(
    num_records: int = 200,
    pool_size: int = 10,
    active_fraction: float = 0.5,
    mnist_features: int = 256,
    cifar_features: int = 256,
    seed: int = 0,
) -> HybridLearningResult:
    """Figure 16: the three strategies on the MNIST-like and CIFAR-like datasets.

    The stand-in datasets default to 256 features to keep retraining fast;
    pass 784 / 3072 for the paper-scale dimensionalities.
    """
    result = HybridLearningResult()
    datasets = [
        make_mnist_like(n_samples=2500, n_features=mnist_features, seed=seed),
        make_cifar_like(n_samples=2000, n_features=cifar_features, seed=seed),
    ]
    for dataset in datasets:
        result.cells.append(
            compare_strategies_on_dataset(
                dataset,
                num_records=num_records,
                pool_size=pool_size,
                active_fraction=active_fraction,
                seed=seed,
            )
        )
    return result
