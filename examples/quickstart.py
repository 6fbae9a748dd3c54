"""Quickstart: label a dataset with CLAMShell on the simulated crowd.

Runs the full CLAMShell configuration (retainer pool + straggler mitigation +
pool maintenance + hybrid learning) against a baseline deployment, and prints
the latency, cost, and model-accuracy outcomes side by side.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import (
    Engine,
    JobSpec,
    baseline_no_retainer,
    full_clamshell,
    make_cifar_like,
)


def run_strategy(name, config, dataset, num_records=200):
    """Run one labeling strategy on a fresh simulated crowd and summarise it."""
    # With no population given, each run draws a fresh default crowd from
    # the config's seed.
    result = Engine().run(JobSpec(dataset=dataset, config=config, num_records=num_records))
    print(f"\n--- {name} ({config.describe()}) ---")
    print(f"records labeled     : {result.records_labeled}")
    print(f"wall-clock time     : {result.total_wall_clock:8.1f} s")
    print(f"mean batch latency  : {result.mean_batch_latency():8.1f} s")
    print(f"batch latency stddev: {result.batch_latency_std():8.1f} s")
    print(f"total cost          : $ {result.total_cost:6.2f}")
    if result.final_accuracy is not None:
        print(f"final model accuracy: {result.final_accuracy:8.3f}")
    return result


def main():
    # A CIFAR-like binary image-classification stand-in; 2,000 records, 256
    # raw features.
    dataset = make_cifar_like(n_samples=2000, n_features=256, seed=0)
    print(f"dataset: {dataset.name} with {dataset.num_records} records, "
          f"{dataset.num_features} features")

    clamshell = run_strategy("CLAMShell", full_clamshell(pool_size=10, seed=0), dataset)
    baseline = run_strategy("Base-NR baseline", baseline_no_retainer(pool_size=10, seed=0), dataset)

    speedup = baseline.total_wall_clock / clamshell.total_wall_clock
    print(f"\nCLAMShell labeled the same number of records {speedup:.1f}x faster "
          f"than the unoptimized deployment.")


if __name__ == "__main__":
    main()
