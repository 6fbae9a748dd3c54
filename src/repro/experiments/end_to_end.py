"""Experiments F17/F18 and the §6.6 headline numbers.

The end-to-end evaluation labels 500 points on MNIST and CIFAR with three
strategies:

* Base-NR — a typical deployment: no retainer pool (recruitment latency on
  every batch), no per-batch optimisation, passive learning;
* Base-R — the prior state of the art: retainer pool plus active learning;
* CLAMShell — everything: retainer pool, straggler mitigation, pool
  maintenance, hybrid learning, asynchronous retraining.

The paper reports (Figures 17/18 and §6.6 text): CLAMShell reaches 75%
accuracy 4-5x faster than Base-NR, dominates both baselines' learning
curves, raises raw labeling throughput 7.24x over Base-NR, and cuts the
standard deviation of batch labeling time by ~151x (3.1 s vs 475 s).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence


from ..api.events import ProgressEvent

from ..core.config import CLAMShellConfig, baseline_no_retainer, baseline_retainer, full_clamshell
from ..core.metrics import speedup_factor, variance_reduction_factor
from ..crowd.worker import WorkerPopulation
from ..learning.datasets import Dataset, make_cifar_like, make_mnist_like
from ..learning.evaluation import LearningCurve
from .common import ExperimentRun, mixed_speed_population, run_configuration

#: Accuracy thresholds reported in Figure 17.
DEFAULT_THRESHOLDS: tuple[float, ...] = (0.65, 0.70, 0.75, 0.80)


@dataclass
class EndToEndComparison:
    """The three strategies' outcomes on one dataset."""

    dataset_name: str
    runs: dict[str, ExperimentRun] = field(default_factory=dict)

    def curves(self) -> dict[str, LearningCurve]:
        curves = {}
        for name, run in self.runs.items():
            curve = run.result.learning_curve
            if curve is not None:
                curves[name] = curve
        return curves

    def time_to_accuracy_rows(
        self, thresholds: Sequence[float] = DEFAULT_THRESHOLDS
    ) -> list[list[object]]:
        """Figure-17-style rows: threshold x strategy -> wall-clock seconds (or never)."""
        rows = []
        curves = self.curves()
        for threshold in thresholds:
            row: list[object] = [f"{threshold:.0%}"]
            for name in ("clamshell", "base_r", "base_nr"):
                curve = curves.get(name)
                seconds = curve.time_to_accuracy(threshold) if curve else None
                row.append(round(seconds, 1) if seconds is not None else "never")
            rows.append(row)
        return rows

    def speedup_to_accuracy(self, threshold: float, baseline: str = "base_nr") -> float:
        """How much faster CLAMShell reaches ``threshold`` than the baseline.

        A run that never reaches ``threshold`` takes forever: the speedup is
        inf when only the baseline never does, 0 when only CLAMShell never
        does, and nan when neither does.
        """
        curves = self.curves()
        never = float("inf")
        clamshell_time = curves["clamshell"].time_to_accuracy(threshold)
        baseline_time = curves[baseline].time_to_accuracy(threshold)
        return speedup_factor(
            never if baseline_time is None else baseline_time,
            never if clamshell_time is None else clamshell_time,
        )

    def throughput_speedup(self, baseline: str = "base_nr") -> float:
        """Raw labeling throughput of CLAMShell relative to the baseline (§6.6: 7.24x)."""
        clamshell = self.runs["clamshell"].result.metrics.throughput_labels_per_second()
        base = self.runs[baseline].result.metrics.throughput_labels_per_second()
        if base <= 0:
            return float("inf")
        return clamshell / base

    def variance_reduction(self, baseline: str = "base_nr") -> float:
        """Batch-latency std-dev of the baseline over CLAMShell's (§6.6: ~151x)."""
        baseline_latencies = self.runs[baseline].result.metrics.batch_latencies()
        clamshell_latencies = self.runs["clamshell"].result.metrics.batch_latencies()
        if baseline_latencies.size < 2 or clamshell_latencies.size < 2:
            return float("nan")
        return variance_reduction_factor(baseline_latencies, clamshell_latencies)

    def clamshell_dominates(self, tolerance: float = 0.03) -> bool:
        """Does CLAMShell's curve reach at least the others' final accuracy (within tolerance)?"""
        curves = self.curves()
        clamshell_best = curves["clamshell"].best_accuracy()
        return all(
            clamshell_best >= curve.best_accuracy() - tolerance
            for name, curve in curves.items()
            if name != "clamshell"
        )


@dataclass
class EndToEndResult:
    """Both datasets' comparisons, the content of Figures 17/18."""

    comparisons: list[EndToEndComparison] = field(default_factory=list)

    def by_dataset(self, name: str) -> EndToEndComparison:
        for comparison in self.comparisons:
            if comparison.dataset_name == name:
                return comparison
        raise KeyError(name)


#: Sentinel meaning "keep each factory's own duplicate-cap default" —
#: distinct from an explicit ``None``, which means unlimited duplication.
FACTORY_CAP: object = object()


def strategy_configs(
    pool_size: int = 15,
    seed: int = 0,
    max_extra_assignments: object = FACTORY_CAP,
) -> dict[str, CLAMShellConfig]:
    """The three §6.6 strategies at a given pool size.

    ``max_extra_assignments`` overrides the CLAMShell strategy's mitigation
    duplicate cap (the baselines run without mitigation, so it does not
    apply to them); leave it at :data:`FACTORY_CAP` to keep the
    :func:`full_clamshell` default.
    """
    clamshell = full_clamshell(pool_size=pool_size, seed=seed)
    if max_extra_assignments is not FACTORY_CAP:
        clamshell = clamshell.with_overrides(
            max_extra_assignments=max_extra_assignments
        )
    return {
        "base_nr": baseline_no_retainer(pool_size=pool_size, seed=seed),
        "base_r": baseline_retainer(pool_size=pool_size, seed=seed),
        "clamshell": clamshell,
    }


def run_end_to_end_experiment(
    datasets: Optional[Sequence[Dataset]] = None,
    num_records: int = 200,
    pool_size: int = 10,
    population: Optional[WorkerPopulation] = None,
    seed: int = 0,
    on_event: Optional[Callable[[str, ProgressEvent], None]] = None,
    max_extra_assignments: object = FACTORY_CAP,
) -> EndToEndResult:
    """Run the §6.6 comparison.

    The paper labels 500 points per strategy; the default here is 200 to keep
    the benchmark quick — pass ``num_records=500`` for the paper-scale run.
    ``on_event`` (optional) observes every run's per-batch
    :class:`ProgressEvent` stream, called with the run label and the event.
    """
    if datasets is None:
        datasets = [
            make_mnist_like(n_samples=2500, n_features=256, seed=seed),
            make_cifar_like(n_samples=2000, n_features=256, seed=seed),
        ]
    result = EndToEndResult()
    for dataset in datasets:
        comparison = EndToEndComparison(dataset_name=dataset.name)
        for name, config in strategy_configs(
            pool_size=pool_size,
            seed=seed,
            max_extra_assignments=max_extra_assignments,
        ).items():
            pop = population if population is not None else mixed_speed_population(seed=seed)
            label = f"{dataset.name}/{name}"
            observer = None
            if on_event is not None:
                observer = lambda event, _label=label: on_event(_label, event)
            comparison.runs[name] = run_configuration(
                config,
                dataset,
                population=pop,
                num_records=num_records,
                label=label,
                seed=seed,
                on_event=observer,
            )
        result.comparisons.append(comparison)
    return result


@dataclass
class HeadlineNumbers:
    """The §6.6 headline comparisons for one dataset."""

    dataset_name: str
    throughput_speedup: float
    variance_reduction: float
    clamshell_batch_std: float
    baseline_batch_std: float
    speedup_to_75pct: float

    def rows(self) -> list[list[object]]:
        return [
            ["labeling throughput speedup vs Base-NR", self.throughput_speedup, 7.24],
            ["batch latency variance reduction", self.variance_reduction, 151.0],
            ["CLAMShell batch latency std (s)", self.clamshell_batch_std, 3.1],
            ["Base-NR batch latency std (s)", self.baseline_batch_std, 475.0],
            ["speedup to 75% accuracy vs Base-NR", self.speedup_to_75pct, 4.5],
        ]


def headline_numbers(comparison: EndToEndComparison) -> HeadlineNumbers:
    """Compute the §6.6 headline numbers for one dataset's comparison."""
    clamshell_std = comparison.runs["clamshell"].result.metrics.batch_latency_std()
    baseline_std = comparison.runs["base_nr"].result.metrics.batch_latency_std()
    return HeadlineNumbers(
        dataset_name=comparison.dataset_name,
        throughput_speedup=comparison.throughput_speedup(),
        variance_reduction=comparison.variance_reduction(),
        clamshell_batch_std=clamshell_std,
        baseline_batch_std=baseline_std,
        speedup_to_75pct=comparison.speedup_to_accuracy(0.75),
    )
