"""Live tweet-sentiment labeling during a political debate (Example 1, §3).

The paper motivates CLAMShell with a news outlet that wants to visualise the
public's reaction to a live debate: tweets stream in, a crowd labels their
sentiment ("positive" / "negative" / "neutral"), and the visualisation is only
useful if each batch of labels comes back within seconds and with predictable
latency.

This example simulates that pipeline.  Tweets arrive in small batches; each
batch is labeled by a retainer pool with straggler mitigation and pool
maintenance, and the script reports the per-batch latency distribution that
the dashboard would experience — with and without CLAMShell's per-batch
optimisations.

Run with::

    python examples/tweet_sentiment_stream.py
"""

from __future__ import annotations

import numpy as np

from repro import Engine, JobSpec
from repro.core.config import CLAMShellConfig, LearningStrategy
from repro.experiments.common import make_labeling_workload, mixed_speed_population

#: Sentiment classes the crowd chooses among.
SENTIMENTS = ("negative", "neutral", "positive")

#: How many tweets arrive per refresh of the dashboard.
TWEETS_PER_BATCH = 12

#: How many dashboard refreshes we simulate.
NUM_BATCHES = 12


def build_config(optimized: bool) -> CLAMShellConfig:
    """The streaming configuration: one batch per dashboard refresh."""
    return CLAMShellConfig(
        pool_size=TWEETS_PER_BATCH,
        records_per_task=1,
        pool_batch_ratio=1.0,
        straggler_mitigation=optimized,
        maintenance_threshold=8.0 if optimized else None,
        learning_strategy=LearningStrategy.NONE,
        seed=7,
    )


def run_stream(optimized: bool) -> list[float]:
    """Label NUM_BATCHES batches of tweets and return per-batch latencies."""
    total_tweets = TWEETS_PER_BATCH * NUM_BATCHES
    # Tweets with ground-truth sentiment, one class per entry of SENTIMENTS,
    # for the simulated workers.
    tweets = make_labeling_workload(
        num_records=total_tweets, num_classes=len(SENTIMENTS), seed=3
    )
    result = Engine().run(
        JobSpec(
            dataset=tweets,
            config=build_config(optimized),
            population=mixed_speed_population(seed=11),
            num_records=total_tweets,
        )
    )
    return [batch.batch_latency for batch in result.batch_outcomes]


def describe(name: str, latencies: list[float]) -> None:
    array = np.array(latencies)
    print(f"\n--- {name} ---")
    print(f"batches                  : {len(latencies)}")
    print(f"mean batch latency       : {array.mean():6.1f} s")
    print(f"worst batch latency      : {array.max():6.1f} s")
    print(f"batch latency std dev    : {array.std(ddof=1):6.1f} s")
    refreshes_within_30s = float(np.mean(array <= 30.0))
    print(f"refreshes within 30 s    : {refreshes_within_30s:6.0%}")


def main():
    print(
        f"Simulating a live sentiment dashboard: {NUM_BATCHES} refreshes of "
        f"{TWEETS_PER_BATCH} tweets each, labeled as {'/'.join(SENTIMENTS)}."
    )
    unoptimized = run_stream(optimized=False)
    optimized = run_stream(optimized=True)
    describe("Plain retainer pool (no SM, no maintenance)", unoptimized)
    describe("CLAMShell per-batch optimisations (SM + PM8)", optimized)

    variance_reduction = np.std(unoptimized, ddof=1) / max(np.std(optimized, ddof=1), 1e-9)
    print(
        f"\nWith straggler mitigation and pool maintenance the dashboard's batch "
        f"latency is {np.mean(unoptimized) / np.mean(optimized):.1f}x lower on average "
        f"and {variance_reduction:.1f}x more predictable."
    )


if __name__ == "__main__":
    main()
