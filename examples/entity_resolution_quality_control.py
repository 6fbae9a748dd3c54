"""Crowdsourced entity resolution with quality control and fast crowds.

Data-cleaning systems (the paper cites CrowdER, Corleone, Wisteria) ask crowd
workers whether two records refer to the same real-world entity.  Answers are
noisy, so each pair is labeled by several workers and the votes are combined;
CLAMShell's contribution is making that redundant labeling *fast* without
breaking quality control (§4.1's decoupling of mitigation from redundancy).

This example:

1. builds a synthetic product-catalog matching workload (pairs of records,
   match / non-match ground truth);
2. labels every pair with 3-way redundancy on a simulated crowd, with and
   without straggler mitigation;
3. aggregates votes by majority and by EM-estimated worker accuracy, and
   reports both the label quality and the latency of each configuration.

Run with::

    python examples/entity_resolution_quality_control.py
"""

from __future__ import annotations

import numpy as np

from repro import Engine, JobSpec
from repro.core.config import CLAMShellConfig, LearningStrategy
from repro.core.quality import VoteAggregator
from repro.experiments.common import make_labeling_workload, mixed_speed_population

NUM_PAIRS = 120
VOTES_PER_PAIR = 3
POOL_SIZE = 12


def run_resolution(straggler_mitigation: bool):
    """Label all pairs with 3-vote redundancy; return (result, votes, dataset)."""
    pairs = make_labeling_workload(num_records=NUM_PAIRS, num_classes=2, seed=21)
    config = CLAMShellConfig(
        pool_size=POOL_SIZE,
        records_per_task=1,
        votes_required=VOTES_PER_PAIR,
        pool_batch_ratio=1.0,
        straggler_mitigation=straggler_mitigation,
        decouple_quality_control=True,
        maintenance_threshold=8.0,
        learning_strategy=LearningStrategy.NONE,
        seed=5,
    )
    result = Engine().run(
        JobSpec(
            dataset=pairs,
            config=config,
            population=mixed_speed_population(seed=13),
            num_records=NUM_PAIRS,
        )
    )

    votes = VoteAggregator(num_classes=2)
    for outcome in result.batch_outcomes:
        for task in outcome.batch.tasks:
            for answer in task.answers:
                for record_id, label in zip(task.record_ids, answer.labels):
                    votes.add_vote(record_id, answer.worker_id, label)
    return result, votes, pairs


def label_quality(consensus, dataset):
    correct = sum(
        1 for record_id, label in consensus.items() if label == int(dataset.y[record_id])
    )
    return correct / len(consensus)


def main():
    print(
        f"Matching {NUM_PAIRS} candidate record pairs with {VOTES_PER_PAIR} votes each "
        f"on a pool of {POOL_SIZE} workers.\n"
    )
    for name, mitigation in (("No straggler mitigation", False), ("Straggler mitigation", True)):
        result, votes, dataset = run_resolution(mitigation)
        majority = votes.consensus()
        quality = votes.estimate_quality()
        weighted = votes.consensus(worker_accuracy=quality.worker_accuracy)

        batch_latencies = result.batch_latencies()
        print(f"--- {name} ---")
        print(f"wall-clock time          : {result.total_wall_clock:8.1f} s")
        print(f"mean / max batch latency : {batch_latencies.mean():6.1f} s / {batch_latencies.max():6.1f} s")
        print(f"total cost               : $ {result.total_cost:6.2f}")
        print(f"majority-vote accuracy   : {label_quality(majority, dataset):8.3f}")
        print(f"EM-weighted accuracy     : {label_quality(weighted, dataset):8.3f}")
        estimated = np.array(list(quality.worker_accuracy.values()))
        print(f"estimated worker accuracy: mean {estimated.mean():.2f}, "
              f"min {estimated.min():.2f}, max {estimated.max():.2f}")
        print()

    print(
        "Straggler mitigation shortens the redundant-labeling batches without "
        "changing the quality-control pipeline: the same votes are collected, "
        "just sooner."
    )


if __name__ == "__main__":
    main()
