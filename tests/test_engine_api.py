"""Tests for the repro.api layer: backends registry, Engine, streaming jobs."""

from __future__ import annotations

import threading

import pytest

from repro.api import (
    CrowdBackend,
    Engine,
    JobSpec,
    JobStatus,
    LabelingJob,
    ProgressKind,
    available_backends,
    create_backend,
    register_backend,
    unregister_backend,
)
from repro.core.clamshell import CLAMShell
from repro.core.config import CLAMShellConfig, full_clamshell
from repro.crowd.worker import WorkerProfile, WorkerPopulation
from repro.learning.datasets import make_classification


def make_population(seed: int = 0) -> WorkerPopulation:
    """A fresh deterministic population (populations are stateful, so facade
    vs engine comparisons need equal-but-distinct instances)."""
    profiles = [
        WorkerProfile(
            worker_id=index,
            mean_latency=4.0 + (index % 5) * 6.0,
            latency_std=1.0 + 0.2 * (4.0 + (index % 5) * 6.0),
            accuracy=0.92,
        )
        for index in range(20)
    ]
    return WorkerPopulation(profiles=profiles, seed=seed)


@pytest.fixture
def dataset():
    return make_classification(
        n_samples=400, n_features=12, n_informative=6, class_sep=2.0, flip_y=0.0, seed=1
    )


class TestBackendRegistry:
    def test_simulated_backend_registered_by_default(self):
        assert "simulated" in available_backends()

    def test_created_backend_satisfies_protocol(self):
        platform = create_backend(
            "simulated", population=make_population(), seed=0, num_classes=2
        )
        assert isinstance(platform, CrowdBackend)

    def test_unknown_backend_is_a_helpful_error(self, dataset):
        with pytest.raises(KeyError, match="unknown crowd backend"):
            create_backend("mturk-live")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_backend("simulated", lambda **kw: None)

    def test_default_backend_cannot_be_removed(self):
        with pytest.raises(ValueError):
            unregister_backend("simulated")

    def test_config_carries_backend_name(self):
        assert full_clamshell().backend == "simulated"
        with pytest.raises(ValueError):
            CLAMShellConfig(backend="")


class TestStreaming:
    def test_stream_yields_one_event_per_batch_and_matches_facade(self, dataset):
        config = full_clamshell(pool_size=6, seed=3)
        blocking = CLAMShell(
            config=config, dataset=dataset, population=make_population()
        ).run(num_records=40)

        streaming = CLAMShell(
            config=config, dataset=dataset, population=make_population()
        )
        events = list(streaming.run_iter(num_records=40))

        assert events[0].kind is ProgressKind.RUN_STARTED
        final = events[-1]
        assert final.kind is ProgressKind.RUN_FINISHED
        batch_events = [e for e in events if e.kind is ProgressKind.BATCH_COMPLETED]
        assert len(batch_events) >= 1
        assert len(batch_events) == len(final.result.batch_outcomes)

        # The union of per-batch labels is the final label set, and labels
        # accumulate monotonically.
        streamed_labels: dict[int, int] = {}
        last_total = 0
        for event in batch_events:
            streamed_labels.update(event.new_labels)
            assert event.records_labeled >= last_total
            last_total = event.records_labeled
        assert streamed_labels == final.result.labels

        # Same seed, fresh equal populations: streaming == blocking facade.
        assert final.result.labels == blocking.labels
        assert final.result.final_accuracy == blocking.final_accuracy
        assert (
            final.result.metrics.total_wall_clock == blocking.metrics.total_wall_clock
        )

    def test_engine_run_matches_facade(self, dataset):
        config = full_clamshell(pool_size=6, seed=7)
        facade = CLAMShell(
            config=config, dataset=dataset, population=make_population()
        )
        blocking = facade.run(num_records=30)

        spec = CLAMShell(
            config=config, dataset=dataset, population=make_population()
        ).to_job_spec(num_records=30)
        engine_result = Engine().run(spec)
        assert engine_result.labels == blocking.labels
        assert engine_result.metrics.total_wall_clock == blocking.metrics.total_wall_clock

    def test_job_stream_replays_history_for_late_subscribers(self, dataset):
        spec = JobSpec(
            dataset=dataset,
            config=full_clamshell(pool_size=5, seed=1),
            population=make_population(),
            num_records=20,
        )
        with Engine(max_workers=2) as engine:
            job = engine.submit(spec)
            result = job.result(timeout=120)
            late_events = list(job.stream())
        assert job.status is JobStatus.SUCCEEDED
        assert late_events[-1].result is result
        assert late_events == job.events()

    def test_failed_job_raises_through_handle(self):
        bad_dataset = make_classification(n_samples=50, n_features=4, seed=0)
        spec = JobSpec(dataset=bad_dataset, num_records=10, backend="does-not-exist")
        with Engine(max_workers=1) as engine:
            job = engine.submit(spec)
            with pytest.raises(KeyError, match="unknown crowd backend"):
                job.result(timeout=60)
            assert job.status is JobStatus.FAILED


class TestRunMany:
    def test_run_many_is_deterministic_per_job(self, dataset):
        specs = [
            JobSpec(
                dataset=dataset,
                config=full_clamshell(pool_size=5, seed=s),
                num_records=20,
                name=f"job-{s}",
            )
            for s in range(4)
        ]
        with Engine(max_workers=4) as engine:
            first = engine.run_many(specs, timeout=300)
            second = engine.run_many(specs, timeout=300)
        assert len(first) == len(second) == 4
        for a, b in zip(first, second, strict=True):
            assert a.labels == b.labels
            assert a.final_accuracy == b.final_accuracy
            assert a.metrics.total_wall_clock == b.metrics.total_wall_clock

        # Concurrent execution equals isolated sequential execution.
        solo = Engine().run(specs[2])
        assert solo.labels == first[2].labels
        assert solo.metrics.total_wall_clock == first[2].metrics.total_wall_clock

    def test_four_jobs_run_concurrently_on_a_registered_backend(self, dataset):
        """A second backend registers without touching core, and the engine
        really does execute >= 4 jobs at once (the barrier would time out and
        break otherwise)."""
        barrier = threading.Barrier(4, timeout=60)
        created = []

        def gated_simulated(**kwargs):
            platform = create_backend("simulated", **kwargs)
            original = platform.initialize_pool

            def initialize_pool(size):
                barrier.wait()  # blocks until 4 jobs are inside initialize_pool
                return original(size)

            platform.initialize_pool = initialize_pool
            created.append(platform)
            return platform

        register_backend("gated-simulated", gated_simulated)
        try:
            specs = [
                JobSpec(
                    dataset=dataset,
                    config=full_clamshell(pool_size=4, seed=s),
                    num_records=10,
                    backend="gated-simulated",
                )
                for s in range(4)
            ]
            with Engine(max_workers=4) as engine:
                results = engine.run_many(specs, timeout=300)
                assert engine.concurrency_high_water >= 4
        finally:
            unregister_backend("gated-simulated")

        assert len(created) == 4
        assert all(r.metrics.records_labeled == 10 for r in results)


class TestEngineLifecycle:
    def test_submit_after_close_raises(self, dataset):
        engine = Engine(max_workers=1)
        engine.close()
        with pytest.raises(RuntimeError, match="closed Engine"):
            engine.submit(JobSpec(dataset=dataset, num_records=5))

    def test_inline_run_still_works_after_close(self, dataset):
        engine = Engine(max_workers=1)
        engine.close()
        spec = JobSpec(
            dataset=dataset,
            config=full_clamshell(pool_size=4, seed=0),
            population=make_population(),
            num_records=5,
        )
        assert engine.run(spec).metrics.records_labeled == 5


class TestJobRegistry:
    def test_submitted_jobs_get_string_ids_and_are_listed_in_order(self, dataset):
        with Engine(max_workers=2) as engine:
            jobs = [
                engine.submit(
                    JobSpec(
                        dataset=dataset,
                        config=full_clamshell(pool_size=4, seed=seed),
                        population=make_population(seed),
                        num_records=5,
                        name=f"registry-{seed}",
                    )
                )
                for seed in range(3)
            ]
            for job in jobs:
                assert isinstance(job.job_id, str)
                assert engine.get_job(job.job_id) is job
            assert engine.jobs() == jobs
            for job in jobs:
                job.result(timeout=60)

    def test_forget_job_removes_exactly_one(self, dataset):
        with Engine(max_workers=1) as engine:
            job = engine.submit(JobSpec(dataset=dataset, num_records=5))
            job.result(timeout=60)
            forgotten = engine.forget_job(job.job_id)
            assert forgotten is job
            assert engine.jobs() == []
            with pytest.raises(KeyError, match=job.job_id):
                engine.get_job(job.job_id)
            with pytest.raises(KeyError, match=job.job_id):
                engine.forget_job(job.job_id)

    def test_unknown_job_id_named_in_error(self):
        with Engine(max_workers=1) as engine:
            with pytest.raises(KeyError, match="job-999"):
                engine.get_job("job-999")

    def test_job_name_falls_back_to_id(self, dataset):
        with Engine(max_workers=1) as engine:
            anonymous = engine.submit(JobSpec(dataset=dataset, num_records=5))
            named = engine.submit(
                JobSpec(dataset=dataset, num_records=5, name="picked")
            )
            assert anonymous.name == anonymous.job_id
            assert named.name == "picked"
            anonymous.result(timeout=60)
            named.result(timeout=60)


class TestWithOverrides:
    def test_unknown_field_raises_type_error_naming_it(self, dataset):
        spec = JobSpec(dataset=dataset, num_records=5)
        with pytest.raises(TypeError, match="num_recordz"):
            spec.with_overrides(num_recordz=7)

    def test_valid_override_replaces_field(self, dataset):
        spec = JobSpec(dataset=dataset, num_records=5)
        assert spec.with_overrides(num_records=9).num_records == 9
        assert spec.num_records == 5


class TestLegacySubclassHooks:
    def test_overridden_build_platform_is_still_honoured(self, dataset):
        calls = []

        class CustomPlatform(CLAMShell):
            def build_platform(self):
                calls.append("platform")
                return create_backend(
                    "simulated",
                    population=self.population,
                    seed=self.config.seed,
                    num_classes=self.dataset.num_classes,
                )

        system = CustomPlatform(
            config=full_clamshell(pool_size=5, seed=0),
            dataset=dataset,
            population=make_population(),
        )
        result = system.run(num_records=10)
        assert calls == ["platform"]
        assert len(result.labels) == 10
        assert system.last_platform is not None


class TestRunWithStats:
    def test_stats_match_the_run(self, dataset):
        from repro.api.engine import ExecutionStats

        spec = JobSpec(
            dataset=dataset,
            config=full_clamshell(pool_size=5, seed=0),
            population=make_population(),
            num_records=20,
        )
        result, stats = Engine().run_with_stats(spec)
        assert isinstance(stats, ExecutionStats)
        assert stats.labels == result.metrics.records_labeled == 20
        assert stats.total_cost == pytest.approx(result.total_cost)
        assert stats.events_processed > 0
        assert stats.events_scheduled >= stats.events_processed
        assert stats.sim_seconds == pytest.approx(result.metrics.total_wall_clock)
        assert stats.counters["assignments_started"] >= stats.counters[
            "assignments_completed"
        ]
        assert "waiting_seconds" in stats.counters

    def test_merged_with_sums_counters(self, dataset):
        spec = JobSpec(
            dataset=dataset,
            config=full_clamshell(pool_size=5, seed=0),
            population=make_population(),
            num_records=10,
        )
        _, first = Engine().run_with_stats(spec)
        spec_again = JobSpec(
            dataset=dataset,
            config=full_clamshell(pool_size=5, seed=0),
            population=make_population(),
            num_records=10,
        )
        _, second = Engine().run_with_stats(spec_again)
        merged = first.merged_with(second)
        assert merged.labels == first.labels + second.labels
        assert merged.events_processed == (
            first.events_processed + second.events_processed
        )
        assert merged.counters["assignments_started"] == (
            first.counters["assignments_started"]
            + second.counters["assignments_started"]
        )


class TestDeprecations:
    def test_build_platform_and_batcher_warn(self, dataset):
        system = CLAMShell(dataset=dataset, population=make_population())
        with pytest.deprecated_call():
            system.build_platform()
        with pytest.deprecated_call():
            system.build_batcher()


class TestRunManyWithStats:
    def _specs(self, dataset, count=3):
        return [
            JobSpec(
                dataset=dataset,
                config=full_clamshell(pool_size=4, seed=s),
                num_records=15,
                name=f"stats-job-{s}",
            )
            for s in range(count)
        ]

    def test_pairs_follow_spec_order_with_per_job_stats(self, dataset):
        specs = self._specs(dataset)
        with Engine(max_workers=3) as engine:
            paired = engine.run_many_with_stats(specs, timeout=300)
        assert len(paired) == 3
        for result, stats in paired:
            assert result.metrics.records_labeled == 15
            assert stats.labels == 15
            assert stats.events_processed > 0
            assert stats.sim_seconds > 0
            assert stats.total_cost == pytest.approx(result.total_cost)

    def test_concurrent_stats_match_inline_run_with_stats(self, dataset):
        specs = self._specs(dataset, count=2)
        with Engine(max_workers=2) as engine:
            paired = engine.run_many_with_stats(specs, timeout=300)
        for spec, (_, concurrent_stats) in zip(specs, paired, strict=True):
            _, inline_stats = Engine().run_with_stats(spec)
            assert concurrent_stats == inline_stats

    def test_job_stats_requires_completion(self, dataset):
        spec = self._specs(dataset, count=1)[0]
        with Engine(max_workers=1) as engine:
            job = engine.submit(spec)
            stats = job.stats(timeout=300)
        assert stats.labels == 15


class TestLegacyBackendWithoutObservers:
    def test_backend_lacking_observer_hooks_falls_back_to_scan(self, dataset):
        """Backends written against the pre-observer CrowdBackend protocol
        must keep working: the LifeGuard skips the active-task index (brute
        scan path) instead of crashing on the missing hooks."""

        class MinimalBackend:
            def __init__(self, **kwargs):
                self._inner = create_backend("simulated", **kwargs)

            def __getattr__(self, name):
                if name in ("add_assignment_observer", "remove_assignment_observer"):
                    raise AttributeError(name)
                return getattr(self._inner, name)

        register_backend("minimal-legacy", MinimalBackend)
        try:
            spec = JobSpec(
                dataset=dataset,
                config=full_clamshell(pool_size=4, seed=0),
                num_records=10,
                backend="minimal-legacy",
            )
            legacy_result = Engine().run(spec)
            modern_result = Engine().run(spec.with_overrides(backend="simulated"))
        finally:
            unregister_backend("minimal-legacy")
        assert legacy_result.metrics.records_labeled == 10
        # Scan and indexed paths agree, so the backends' results match too.
        assert legacy_result.labels == modern_result.labels


class TestCoalescedEmission:
    """How events are grouped into ``_emit_batch`` calls is invisible to
    stream()/events() consumers."""

    def _recorded_run(self, dataset):
        """One real run's (spec, events, result) to replay into fresh handles."""
        spec = JobSpec(
            dataset=dataset,
            config=full_clamshell(pool_size=5, seed=2),
            population=make_population(),
            num_records=20,
        )
        with Engine(max_workers=1) as engine:
            job = engine.submit(spec)
            job.result(timeout=300)
            return spec, job.events(), job.result()

    def test_stream_sequence_identical_singly_vs_batched(self, dataset):
        spec, events, result = self._recorded_run(dataset)
        assert len(events) >= 4  # enough to split into uneven batches

        singly = LabelingJob(spec, "job-singly")
        for event in events:
            singly._emit(event)
        singly._finish(result)

        batched = LabelingJob(spec, "job-batched")
        batched._emit_batch(events[:1])
        batched._emit_batch([])  # empty deliveries are dropped, not recorded
        batched._emit_batch(events[1:4])
        batched._emit_batch(events[4:])
        batched._finish(result)

        assert list(batched.stream()) == list(singly.stream())
        assert batched.events() == singly.events() == events

    def test_stop_wakes_consumer_blocked_mid_batch(self, dataset):
        spec, events, _ = self._recorded_run(dataset)
        job = LabelingJob(spec, "job-midbatch")
        stop = threading.Event()
        seen = []
        drained = threading.Event()

        def consume():
            for event in job.stream(stop=stop):
                seen.append(event)
                if len(seen) == 3:
                    drained.set()

        consumer = threading.Thread(target=consume)
        consumer.start()
        # One delivery of three events; the consumer drains it and blocks again
        # (the job is not done), i.e. it is parked mid-run after a batch.
        job._emit_batch(events[:3])
        assert drained.wait(timeout=60), "consumer never saw the batch"
        # Stop-then-interrupt must end the blocked stream: the flag is set
        # before the wakeup and re-checked under the condition, so there is
        # no window where the consumer sleeps through the shutdown.
        stop.set()
        job.interrupt_streams()
        consumer.join(timeout=60)
        assert not consumer.is_alive()
        assert seen == events[:3]


class TestProcessExecutor:
    """The process pool behaves exactly like the thread pool, stats included."""

    def _spec(self, dataset, seed=0):
        return JobSpec(
            dataset=dataset,
            config=full_clamshell(pool_size=4, seed=seed),
            num_records=15,
            name=f"proc-job-{seed}",
        )

    def test_pooled_job_stats_match_inline_collect_stats(self, dataset):
        """Satellite regression: stats() for a process job must equal
        collect_stats on an in-process run of the same spec — the child
        ships its platform counters because the parent never sees the
        platform object."""
        spec = self._spec(dataset)
        with Engine(max_workers=1, executor="process") as engine:
            job = engine.submit(spec)
            pooled_stats = job.stats(timeout=300)
            assert job.platform is None  # the run lived in the child
        _, inline_stats = Engine().run_with_stats(spec)
        assert pooled_stats == inline_stats

    def test_run_many_process_matches_thread(self, dataset):
        specs = [self._spec(dataset, seed=s) for s in range(2)]
        with Engine(max_workers=2) as threaded:
            thread_results = threaded.run_many(specs, timeout=600)
        with Engine(max_workers=2) as pooled:
            process_results = pooled.run_many(specs, timeout=600, executor="process")
        for thread_result, process_result in zip(
            thread_results, process_results, strict=True
        ):
            assert process_result.labels == thread_result.labels
            assert process_result.total_cost == thread_result.total_cost
            assert (
                process_result.metrics.total_wall_clock
                == thread_result.metrics.total_wall_clock
            )

    def test_per_call_executor_override_beats_engine_default(self, dataset):
        with Engine(max_workers=1, executor="process") as engine:
            job = engine.submit(self._spec(dataset), executor="thread")
            job.result(timeout=300)
            assert job.executor == "thread"
            assert job.platform is not None  # ran in-process

    def test_unknown_executor_rejected_up_front(self, dataset):
        with pytest.raises(ValueError, match="unknown executor"):
            Engine(executor="fiber")
        with Engine(max_workers=1) as engine:
            with pytest.raises(ValueError, match="unknown executor"):
                engine.submit(self._spec(dataset), executor="fiber")
