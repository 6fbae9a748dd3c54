"""Tests for the repro.api layer: Engine, streaming jobs, composition root."""

from __future__ import annotations

import ast
import dataclasses
import functools
import importlib
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import experiments
from repro.api import Engine, JobSpec, JobStatus, LabelingJob, ProgressKind, build_run
from repro.core.config import full_clamshell
from repro.crowd.platform import SimulatedCrowdPlatform
from repro.crowd.traces import default_simulation_population
from repro.crowd.worker import WorkerProfile, WorkerPopulation
from repro.learning.datasets import make_classification
from repro.learning.learners import make_learner


#: A deterministic mixed-speed population: 20 workers at 4 to 28 s per record.
POPULATION = WorkerPopulation(
    profiles=[
        WorkerProfile(
            worker_id=index,
            mean_latency=4.0 + (index % 5) * 6.0,
            latency_std=1.0 + 0.2 * (4.0 + (index % 5) * 6.0),
            accuracy=0.92,
        )
        for index in range(20)
    ]
)


@pytest.fixture
def dataset():
    return make_classification(
        n_samples=400, n_features=12, n_informative=6, class_sep=2.0, flip_y=0.0, seed=1
    )


class TestStreaming:
    def test_stream_yields_one_event_per_batch(self, dataset):
        spec = JobSpec(
            dataset=dataset,
            config=full_clamshell(pool_size=6, seed=3),
            population=POPULATION,
            num_records=40,
        )
        events = list(Engine().stream(spec))

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

    def test_job_stream_replays_history_for_late_subscribers(self, dataset):
        spec = JobSpec(
            dataset=dataset,
            config=full_clamshell(pool_size=5, seed=1),
            population=POPULATION,
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
        spec = JobSpec(
            dataset=bad_dataset,
            num_records=10,
            learner_factory=functools.partial(make_learner, "no-such-strategy", bad_dataset),
        )
        with Engine(max_workers=1) as engine:
            job = engine.submit(spec)
            with pytest.raises(ValueError, match="unknown strategy"):
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
            assert a.fingerprint() == b.fingerprint()
            assert a.final_accuracy == b.final_accuracy

        # Concurrent execution equals isolated sequential execution.
        assert Engine().run(specs[2]).fingerprint() == first[2].fingerprint()

    def test_four_jobs_run_concurrently(self, dataset, monkeypatch):
        """The engine really does execute >= 4 jobs at once: each job's
        pool seating waits on a barrier that would time out and break
        otherwise."""
        barrier = threading.Barrier(4, timeout=60)
        gated = []
        original = SimulatedCrowdPlatform.initialize_pool

        def initialize_pool(platform, size):
            gated.append(platform)
            barrier.wait()  # blocks until 4 jobs are inside initialize_pool
            return original(platform, size)

        monkeypatch.setattr(SimulatedCrowdPlatform, "initialize_pool", initialize_pool)
        specs = [
            JobSpec(
                dataset=dataset,
                config=full_clamshell(pool_size=4, seed=s),
                num_records=10,
            )
            for s in range(4)
        ]
        with Engine(max_workers=4) as engine:
            results = engine.run_many(specs, timeout=300)
            assert engine.concurrency_high_water >= 4

        assert len(gated) == 4
        assert all(r.records_labeled == 10 for r in results)


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
            population=POPULATION,
            num_records=5,
        )
        assert engine.run(spec).records_labeled == 5


class TestJobRegistry:
    def test_submitted_jobs_get_string_ids_and_are_listed_in_order(self, dataset):
        with Engine(max_workers=2) as engine:
            jobs = [
                engine.submit(
                    JobSpec(
                        dataset=dataset,
                        config=full_clamshell(pool_size=4, seed=seed),
                        population=POPULATION,
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

    def test_decision_latency_is_not_a_spec_option(self, dataset):
        """The retrainer's decision-latency model is fixed per run, so a
        spec carries nothing the wire would have to refuse."""
        spec = JobSpec(dataset=dataset, num_records=5)
        with pytest.raises(TypeError, match="decision_latency"):
            spec.with_overrides(decision_latency=None)


class TestRunWithStats:
    def test_stats_match_the_run(self, dataset):
        from repro.api.engine import ExecutionStats

        spec = JobSpec(
            dataset=dataset,
            config=full_clamshell(pool_size=5, seed=0),
            population=POPULATION,
            num_records=20,
        )
        result, stats = Engine().run_with_stats(spec)
        assert isinstance(stats, ExecutionStats)
        assert stats.labels == result.records_labeled == 20
        assert stats.total_cost == pytest.approx(result.total_cost)
        assert stats.events_processed > 0
        assert stats.events_scheduled >= stats.events_processed
        assert stats.sim_seconds == pytest.approx(result.total_wall_clock)
        assert stats.counters["assignments_started"] >= stats.counters[
            "assignments_completed"
        ]
        assert "waiting_seconds" in stats.counters

    def test_merged_with_sums_counters(self, dataset):
        spec = JobSpec(
            dataset=dataset,
            config=full_clamshell(pool_size=5, seed=0),
            population=POPULATION,
            num_records=10,
        )
        _, first = Engine().run_with_stats(spec)
        _, second = Engine().run_with_stats(spec)
        merged = first.merged_with(second)
        assert merged.labels == first.labels + second.labels
        assert merged.events_processed == (
            first.events_processed + second.events_processed
        )
        assert merged.counters["assignments_started"] == (
            first.counters["assignments_started"]
            + second.counters["assignments_started"]
        )


class TestRunManyStats:
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
            results = engine.run_many(specs, timeout=300)
        assert len(results) == 3
        for result in results:
            stats = result.stats
            assert result.records_labeled == 15
            assert stats.labels == 15
            assert stats.events_processed > 0
            assert stats.sim_seconds > 0
            assert stats.total_cost == pytest.approx(result.total_cost)

    def test_concurrent_stats_match_inline_run_with_stats(self, dataset):
        specs = self._specs(dataset, count=2)
        with Engine(max_workers=2) as engine:
            results = engine.run_many(specs, timeout=300)
        for spec, result in zip(specs, results, strict=True):
            _, inline_stats = Engine().run_with_stats(spec)
            assert result.stats == inline_stats

    def test_job_stats_requires_completion(self, dataset):
        spec = self._specs(dataset, count=1)[0]
        with Engine(max_workers=1) as engine:
            job = engine.submit(spec)
            stats = job.stats(timeout=300)
        assert stats.labels == 15


class TestCoalescedEmission:
    """How events are grouped into ``_emit_batch`` calls is invisible to
    stream()/events() consumers."""

    def _recorded_run(self, dataset):
        """One real run's (spec, events, result) to replay into fresh handles."""
        spec = JobSpec(
            dataset=dataset,
            config=full_clamshell(pool_size=5, seed=2),
            population=POPULATION,
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

    def test_close_streams_wakes_consumer_blocked_mid_batch(self, dataset):
        spec, events, _ = self._recorded_run(dataset)
        job = LabelingJob(spec, "job-midbatch")
        seen = []
        drained = threading.Event()

        def consume():
            for event in job.stream():
                seen.append(event)
                if len(seen) == 3:
                    drained.set()

        consumer = threading.Thread(target=consume)
        consumer.start()
        # One delivery of three events; the consumer drains it and blocks again
        # (the job is not done), i.e. it is parked mid-run after a batch.
        job._emit_batch(events[:3])
        assert drained.wait(timeout=60), "consumer never saw the batch"
        # Closing must end the blocked stream: the flag is set and the
        # consumer woken under one lock, and re-checked under it before any
        # wait, so there is no window where the consumer sleeps through it.
        job.close_streams()
        consumer.join(timeout=60)
        assert not consumer.is_alive()
        assert seen == events[:3]

    def test_close_streams_ends_every_consumer_under_contention(self, dataset):
        """Eight consumers race an emitter with a short switch interval; a
        close after the emitter's last delivery must wake and end all of
        them, each having seen every event emitted before it."""
        spec, events, _ = self._recorded_run(dataset)
        job = LabelingJob(spec, "job-contended")
        seen = [[] for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            consumers = [
                threading.Thread(
                    target=lambda out=out: out.extend(job.stream()), daemon=True
                )
                for out in seen
            ]
            for consumer in consumers:
                consumer.start()
            emitter = threading.Thread(
                target=lambda: [job._emit(event) for event in events[:-1]]
            )
            emitter.start()
            emitter.join(timeout=60)
            assert not emitter.is_alive()
            deadline = time.monotonic() + 60
            # Close only once every consumer is parked in the condition's
            # wait, so the close itself must wake them.
            while len(job._cond._waiters) < len(consumers):
                assert time.monotonic() < deadline, "consumers never parked"
                time.sleep(0.001)
            job.close_streams()
            for consumer in consumers:
                consumer.join(timeout=max(0.0, deadline - time.monotonic()))
        finally:
            sys.setswitchinterval(interval)
        assert not any(consumer.is_alive() for consumer in consumers)
        assert seen == [events[:-1]] * len(seen)

    def test_stream_opened_after_close_replays_history_then_ends(self, dataset):
        """A closed job's streams still replay what was emitted, and the run
        itself carries on: later events and the result still land."""
        spec, events, result = self._recorded_run(dataset)
        job = LabelingJob(spec, "job-closed")
        job._emit_batch(events[:2])
        job.close_streams()
        assert list(job.stream()) == events[:2]
        job._emit_batch(events[2:])
        job._finish(result)
        assert list(job.stream()) == events
        assert job.result() is result


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
        """stats() for a process job must equal the stats of an in-process
        run of the same spec: they ride the RunResult over the pipe, since
        the parent never sees the child's platform."""
        spec = self._spec(dataset)
        with Engine(max_workers=1, executor="process") as engine:
            job = engine.submit(spec)
            pooled_stats = job.stats(timeout=300)
        _, inline_stats = Engine().run_with_stats(spec)
        assert pooled_stats == inline_stats

    def test_run_many_process_matches_thread(self, dataset):
        specs = [self._spec(dataset, seed=s) for s in range(2)]
        with Engine(max_workers=2) as threaded:
            thread_results = threaded.run_many(specs, timeout=600)
        with Engine(max_workers=2, executor="process") as pooled:
            process_results = pooled.run_many(specs, timeout=600)
        assert [result.fingerprint() for result in process_results] == [
            result.fingerprint() for result in thread_results
        ]

    def test_every_job_runs_in_its_engines_mode(self, dataset, monkeypatch):
        def refuse(self, job):
            raise AssertionError(f"{job.name} ran in-process on a process engine")

        monkeypatch.setattr(Engine, "_run_job_thread", refuse)
        with Engine(max_workers=1, executor="process") as engine:
            job = engine.submit(self._spec(dataset))
            assert job.result(timeout=300).records_labeled == 15

    def test_unknown_executor_rejected_up_front(self):
        with pytest.raises(ValueError, match="unknown executor"):
            Engine(executor="fiber")


class TestBuildRun:
    """``build_run`` wires the one crowd platform from the spec's config."""

    REMOVED_NAMES = (
        "CrowdBackend",
        "register_backend",
        "unregister_backend",
        "create_backend",
        "backend_factory",
        "available_backends",
        "BackendFactory",
        "DEFAULT_BACKEND",
    )

    def test_spec_fields_are_exactly_the_settable_values(self):
        names = tuple(spec_field.name for spec_field in dataclasses.fields(JobSpec))
        assert names == (
            "dataset", "config", "population", "num_records", "learner_factory", "name",
        )

    def test_platform_is_simulated_and_seeded_from_the_config(self, dataset):
        spec = JobSpec(
            dataset=dataset, config=full_clamshell(pool_size=4, seed=7),
            population=POPULATION, num_records=10,
        )
        platform, batcher = build_run(spec)
        assert type(platform) is SimulatedCrowdPlatform
        assert batcher.platform is platform
        assert platform._seed == 7
        assert platform.population is POPULATION
        assert platform.num_classes == dataset.num_classes

    def test_default_population_follows_the_config_seed(self, dataset):
        spec = JobSpec(dataset=dataset, config=full_clamshell(pool_size=4, seed=3))
        platform, _ = build_run(spec)
        assert platform.population == default_simulation_population(seed=3)

    def test_each_build_is_a_fresh_platform_and_batcher(self, dataset):
        spec = JobSpec(dataset=dataset, config=full_clamshell(pool_size=4, seed=0))
        first_platform, first_batcher = build_run(spec)
        second_platform, second_batcher = build_run(spec)
        assert first_platform is not second_platform
        assert first_batcher is not second_batcher
        assert first_platform.pool is not second_platform.pool

    def test_config_seed_is_the_only_seed_of_a_run(self, dataset):
        def digest(seed):
            spec = JobSpec(
                dataset=dataset, config=full_clamshell(pool_size=4, seed=seed),
                population=POPULATION, num_records=10,
            )
            return Engine().run(spec).fingerprint()

        assert digest(0) == digest(0)
        assert digest(0) != digest(1)

    @pytest.mark.parametrize("module", ["repro", "repro.api"])
    def test_backend_registry_is_gone(self, module):
        exported = importlib.import_module(module)
        assert [name for name in self.REMOVED_NAMES if hasattr(exported, name)] == []
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.api.backends")


class TestOneCompositionRoot:
    """Every experiment driver runs through ``JobSpec`` and the engine, so
    ``build_run`` is the one place a platform and a Batcher are wired."""

    WIRING_CALLS = {"Batcher", "SimulatedCrowdPlatform"}

    def test_no_experiment_wires_its_own_run(self):
        package = Path(experiments.__file__).parent
        modules = sorted(package.glob("*.py"))
        assert len(modules) > 5
        offenders = []
        for module in modules:
            for node in ast.walk(ast.parse(module.read_text(), filename=str(module))):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in self.WIRING_CALLS:
                    offenders.append(f"{module.name}:{node.lineno} {name}()")
        assert offenders == []
