"""Engine API: stream one labeling job, then run a seed sweep concurrently.

Demonstrates the service-shaped frontend introduced by the api_redesign:

* ``JobSpec`` describes a run (dataset, config, population, record budget);
* ``Engine.submit`` returns a ``LabelingJob`` whose ``stream()`` yields a
  typed ``ProgressEvent`` per batch — the labels-over-time view of Figure 3,
  observable while the run advances instead of after it finishes;
* ``Engine.run_many`` executes several jobs concurrently on a thread pool,
  each deterministic under its own seed.

Run with::

    python examples/engine_streaming_jobs.py
"""

from __future__ import annotations

from repro import Engine, JobSpec, ProgressKind, full_clamshell, make_mnist_like


def stream_one_job(engine: Engine, dataset) -> None:
    """Watch a single run batch by batch."""
    spec = JobSpec(
        dataset=dataset,
        config=full_clamshell(pool_size=10, seed=0),
        num_records=150,
        name="mnist-streaming",
    )
    job = engine.submit(spec)
    print(f"submitted {job.name}; streaming progress:")
    for event in job.stream():
        if event.kind is ProgressKind.BATCH_COMPLETED:
            accuracy = (
                f" acc={event.accuracy_estimate:.3f}"
                if event.accuracy_estimate is not None
                else ""
            )
            print(
                f"  batch {event.batch_index:>2}: +{len(event.new_labels):>2} labels "
                f"(total {event.records_labeled:>3}) "
                f"t={event.wall_clock:7.1f}s pool={event.pool_size}{accuracy}"
            )
    result = job.result()
    print(
        f"finished: {result.records_labeled} labels, "
        f"final accuracy {result.final_accuracy:.3f}, "
        f"cost ${result.total_cost:.2f}\n"
    )


def concurrent_seed_sweep(engine: Engine, dataset) -> None:
    """Four seeds of the full configuration, executed concurrently."""
    specs = [
        JobSpec(
            dataset=dataset,
            config=full_clamshell(pool_size=10, seed=seed),
            num_records=100,
            name=f"seed-{seed}",
        )
        for seed in range(4)
    ]
    print(f"running {len(specs)} jobs concurrently (max_workers={engine.max_workers})")
    results = engine.run_many(specs)
    for spec, result in zip(specs, results):
        print(
            f"  {spec.name}: {result.total_wall_clock:7.1f}s simulated, "
            f"accuracy {result.final_accuracy:.3f}"
        )
    print(f"peak concurrency observed: {engine.concurrency_high_water}")


def main() -> None:
    dataset = make_mnist_like(n_samples=2500, n_features=256, seed=0)
    with Engine(max_workers=4) as engine:
        stream_one_job(engine, dataset)
        concurrent_seed_sweep(engine, dataset)


if __name__ == "__main__":
    main()
