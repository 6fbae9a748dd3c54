"""Unit tests for the LifeGuard per-batch scheduler."""

import dataclasses
import pickle

import pytest

from repro.api.engine import Engine, JobSpec
from repro.core.config import CLAMShellConfig, LearningStrategy, StragglerRoutingPolicy
from repro.core.lifeguard import LifeGuard, event_budget
from repro.core.maintainer import MaintenancePolicy, PoolMaintainer
from repro.core.quality import majority_vote
from repro.core.mitigator import StragglerMitigator
from repro.crowd import platform as platform_module
from repro.crowd.platform import SimulatedCrowdPlatform, split_probe_counters
from repro.crowd.tasks import Assignment, AssignmentStatus, Batch, Task, TaskFactory
from repro.crowd.worker import WorkerPopulation, WorkerProfile
from repro.experiments.common import make_labeling_workload, mixed_speed_population


def build_platform(num_workers=5, mean_latencies=None, seed=0):
    mean_latencies = mean_latencies or [5.0] * num_workers
    profiles = [
        WorkerProfile(worker_id=i, mean_latency=m, latency_std=0.5, accuracy=0.95)
        for i, m in enumerate(mean_latencies)
    ]
    population = WorkerPopulation(profiles=profiles, seed=seed)
    platform = SimulatedCrowdPlatform(population, seed=seed)
    platform.initialize_pool(num_workers)
    return platform


def build_batch(num_tasks, records_per_task=1, votes_required=1):
    factory = TaskFactory(records_per_task=records_per_task, votes_required=votes_required)
    record_ids = list(range(num_tasks * records_per_task))
    tasks = factory.build_tasks(record_ids, [1] * len(record_ids))
    return Batch(batch_id=0, tasks=tasks)


def lifeguard_for(platform, mitigation=True, maintainer=None, **kwargs):
    mitigator = StragglerMitigator(
        enabled=mitigation, policy=StragglerRoutingPolicy.RANDOM, seed=0
    )
    kwargs.setdefault("pool_target_size", len(platform.pool))
    return LifeGuard(platform, mitigator, maintainer, **kwargs)


class TestBasicBatch:
    def test_batch_completes_with_all_labels(self):
        platform = build_platform()
        guard = lifeguard_for(platform)
        batch = build_batch(num_tasks=10)
        outcome = guard.run_batch(batch, batch_index=0)
        assert batch.is_complete
        assert len(outcome.labels) == 10
        assert outcome.batch_latency > 0
        assert len(outcome.task_latencies) == 10

    def test_clock_advances_to_completion(self):
        platform = build_platform()
        guard = lifeguard_for(platform)
        guard.run_batch(build_batch(5), batch_index=0)
        assert platform.now > 0

    def test_multi_record_tasks_produce_labels_per_record(self):
        platform = build_platform()
        guard = lifeguard_for(platform)
        outcome = guard.run_batch(build_batch(num_tasks=4, records_per_task=3))
        assert len(outcome.labels) == 12

    def test_completion_times_monotone(self):
        platform = build_platform()
        guard = lifeguard_for(platform)
        outcome = guard.run_batch(build_batch(10))
        times = [t for t, _ in outcome.completion_times]
        assert times == sorted(times)

    def test_accurate_workers_produce_mostly_correct_labels(self):
        platform = build_platform(num_workers=5)
        guard = lifeguard_for(platform)
        outcome = guard.run_batch(build_batch(num_tasks=40))
        correct = sum(1 for label in outcome.labels.values() if label == 1)
        assert correct / len(outcome.labels) > 0.8

    def test_consecutive_batches_share_pool(self):
        platform = build_platform()
        guard = lifeguard_for(platform)
        first = guard.run_batch(build_batch(5), batch_index=0)
        second_batch = build_batch(5)
        second = guard.run_batch(second_batch, batch_index=1)
        assert second.dispatched_at >= first.completed_at


class TestStragglerMitigationBehaviour:
    def test_mitigation_beats_no_mitigation_with_one_slow_worker(self):
        latencies = [3.0, 3.0, 3.0, 3.0, 120.0]
        with_mitigation = lifeguard_for(build_platform(5, latencies, seed=1), mitigation=True)
        outcome_on = with_mitigation.run_batch(build_batch(5))
        without_mitigation = lifeguard_for(build_platform(5, latencies, seed=1), mitigation=False)
        outcome_off = without_mitigation.run_batch(build_batch(5))
        assert outcome_on.batch_latency < outcome_off.batch_latency

    def test_mitigation_creates_terminated_assignments(self):
        latencies = [3.0, 3.0, 3.0, 3.0, 120.0]
        platform = build_platform(5, latencies, seed=1)
        guard = lifeguard_for(platform, mitigation=True)
        outcome = guard.run_batch(build_batch(5))
        assert outcome.assignments_terminated >= 1
        assert outcome.assignments_started > 5

    def test_no_mitigation_starts_exactly_one_assignment_per_task(self):
        platform = build_platform(5, seed=2)
        guard = lifeguard_for(platform, mitigation=False)
        outcome = guard.run_batch(build_batch(5))
        assert outcome.assignments_started == 5
        assert outcome.assignments_terminated == 0

    def test_batch_larger_than_pool_completes(self):
        platform = build_platform(3)
        guard = lifeguard_for(platform, mitigation=True)
        outcome = guard.run_batch(build_batch(12))
        assert len(outcome.labels) == 12


class TestQualityControlledBatches:
    def test_votes_required_collects_multiple_answers(self):
        platform = build_platform(5)
        guard = lifeguard_for(platform, mitigation=True)
        batch = build_batch(num_tasks=3, votes_required=3)
        outcome = guard.run_batch(batch)
        assert all(task.votes_received >= 3 for task in batch.tasks)
        assert len(outcome.labels) == 3

    def test_majority_vote_fixes_single_bad_answer(self):
        platform = build_platform(5)
        guard = lifeguard_for(platform, mitigation=True)
        batch = build_batch(num_tasks=10, votes_required=3)
        outcome = guard.run_batch(batch)
        correct = sum(1 for label in outcome.labels.values() if label == 1)
        assert correct / len(outcome.labels) >= 0.9


class TestMaintenanceIntegration:
    def test_maintainer_replaces_slow_workers_during_run(self):
        latencies = [3.0, 3.0, 3.0, 60.0, 60.0]
        platform = build_platform(5, latencies, seed=3)
        platform.configure_reserve(3)
        maintainer = PoolMaintainer(MaintenancePolicy(threshold=8.0, min_observations=1))
        guard = lifeguard_for(platform, mitigation=False, maintainer=maintainer,
                              pool_target_size=5)
        guard.run_batch(build_batch(5), batch_index=0)
        guard.run_batch(build_batch(5), batch_index=1)
        assert len(maintainer.replacements) >= 1

    def test_outcome_workers_replaced_counter(self):
        latencies = [3.0, 3.0, 3.0, 60.0, 60.0]
        platform = build_platform(5, latencies, seed=3)
        platform.configure_reserve(3)
        maintainer = PoolMaintainer(MaintenancePolicy(threshold=8.0, min_observations=1))
        guard = lifeguard_for(platform, mitigation=False, maintainer=maintainer,
                              pool_target_size=5)
        guard.run_batch(build_batch(5), batch_index=0)
        outcome = guard.run_batch(build_batch(5), batch_index=1)
        assert outcome.workers_replaced >= 0

    def test_workers_replaced_is_the_platform_counter_delta(self):
        """Per-batch replacement counts must sum to the platform counter.

        Regression: the batch loop used to accumulate maintainer events and
        then ``max()`` with the counter delta, so an eviction that found no
        ready replacement was reported as a replacement, while a seat made
        later by ``refill_pool`` was attributed to whichever source was
        larger — the two batches' outcomes could double- or under-count.
        """
        latencies = [3.0, 3.0, 3.0, 60.0, 60.0]
        platform = build_platform(5, latencies, seed=3)
        platform.configure_reserve(3)
        maintainer = PoolMaintainer(MaintenancePolicy(threshold=8.0, min_observations=1))
        guard = lifeguard_for(platform, mitigation=False, maintainer=maintainer,
                              pool_target_size=5)
        outcomes = [
            guard.run_batch(build_batch(5), batch_index=index) for index in range(3)
        ]
        assert sum(o.workers_replaced for o in outcomes) == (
            platform.counters.workers_replaced
        )

    def test_abandonment_replacements_counted_exactly_once(self):
        """A seat made by ``refill_pool`` after abandonment is one replacement.

        Regression: ``refill_pool`` never incremented ``workers_replaced``,
        so abandonment-driven replacements were invisible to the batch
        outcome (the maintainer saw no eviction, the counter saw no
        replacement).
        """
        population = WorkerPopulation(
            profiles=[
                WorkerProfile(worker_id=i, mean_latency=5.0, latency_std=0.5,
                              accuracy=0.95)
                for i in range(30)
            ],
            seed=7,
        )
        platform = SimulatedCrowdPlatform(population, seed=7, abandonment_rate=0.25)
        platform.initialize_pool(4)
        platform.configure_reserve(4)
        guard = lifeguard_for(platform, mitigation=True, pool_target_size=4)
        # Long enough for background recruits to arrive and be seated.
        outcome = guard.run_batch(build_batch(80), batch_index=0)
        assert platform.counters.workers_abandoned > 0
        assert outcome.workers_replaced == platform.counters.workers_replaced
        assert outcome.workers_replaced > 0


def outcome_fingerprint(platform, outcome):
    """Everything the mode must not change about a batch run: a batch-level
    view, since a hand-wired LifeGuard has no run to fingerprint."""
    counters, _ = split_probe_counters(dataclasses.asdict(platform.counters))
    return {
        "labels": outcome.labels,
        "completed_at": outcome.completed_at,
        "completion_times": outcome.completion_times,
        "counters": counters,
        "sim_seconds": platform.now,
    }


class TestFastDispatchIntegration:
    """Fast-mode probe skipping in real batch runs against the simulated
    platform, checked against reference mode."""

    def test_probe_counter_invariant(self):
        """Every probe either places an assignment or is futile."""
        for reference in (False, True):
            platform = build_platform(6, seed=4)
            guard = lifeguard_for(platform, reference=reference)
            guard.mitigator.max_extra_assignments = 1
            guard.run_batch(build_batch(4))
            counters = platform.counters
            assert counters.probes_attempted == (
                counters.assignments_started + counters.probes_futile
            )

    def test_gate_skips_futile_probes_without_changing_the_run(self):
        """A saturated cap with surplus workers: the fast run must probe
        far less than the exhaustive reference and simulate exactly the
        same batch."""
        runs = {}
        for reference in (False, True):
            platform = build_platform(8, seed=5)
            guard = lifeguard_for(platform, reference=reference)
            guard.mitigator.max_extra_assignments = 0
            outcome = guard.run_batch(build_batch(4))
            runs[reference] = (
                outcome_fingerprint(platform, outcome),
                platform.counters.probes_attempted,
                platform.counters.probes_futile,
            )
        fast, reference = runs[False], runs[True]
        assert fast[0] == reference[0]
        assert fast[1] < reference[1]
        assert fast[2] < reference[2]

    @pytest.mark.parametrize("reference", [False, True])
    def test_quality_control_runs_no_placeable_scan(self, monkeypatch, reference):
        """Under quality control ``placeable_count`` reads zero only on a
        complete batch, and no batch dispatches after its last completion:
        fast dispatch never scans for it, probes as it did when it did, and
        reference mode no longer pays a futile sweep per batch."""
        scans = []
        scan = StragglerMitigator.placeable_count_scan

        def counting_scan(mitigator, batch):
            scans.append(batch.batch_id)
            return scan(mitigator, batch)

        monkeypatch.setattr(StragglerMitigator, "placeable_count_scan", counting_scan)
        config = CLAMShellConfig(
            pool_size=12,
            votes_required=3,
            max_extra_assignments=1,
            learning_strategy=LearningStrategy.NONE,
            maintenance_threshold=None,
            reference=reference,
            seed=3,
        )
        result = Engine().run(
            JobSpec(
                dataset=make_labeling_workload(num_records=240, seed=3),
                config=config,
                population=mixed_speed_population(seed=3),
                num_records=120,
            )
        )
        assert result.num_batches == 10
        assert scans == []
        # The fast-mode counts of the dispatch that still scanned; reference
        # mode reaches them by skipping one 12-worker sweep per batch.
        assert result.fingerprint().probes == {
            "probes_attempted": 761,
            "probes_futile": 342,
        }

    def test_reference_matches_fast_on_out_of_order_pool(self):
        """Hand-built pool seated out of id order: availability follows
        seating order, and the fast indexed run must still simulate
        exactly what the reference scan run does."""

        def run(reference):
            profiles = [
                WorkerProfile(
                    worker_id=wid, mean_latency=4.0 + wid, latency_std=0.5,
                    accuracy=0.95,
                )
                for wid in (5, 1, 7, 3)
            ]
            population = WorkerPopulation(profiles=profiles, seed=0)
            platform = SimulatedCrowdPlatform(population, seed=0)
            for profile in profiles:
                platform.pool.add_worker(profile, now=0.0)
            guard = lifeguard_for(platform, reference=reference)
            guard.mitigator.max_extra_assignments = 1
            outcome = guard.run_batch(build_batch(6))
            return outcome_fingerprint(platform, outcome)

        assert run(False) == run(True)

    @pytest.mark.parametrize("reference", [True, False])
    def test_loser_freed_at_completion_is_reassigned_in_the_same_event(
        self, reference, monkeypatch
    ):
        """Pin: a worker freed *during* an event's processing (their replica
        lost and ``TERMINATION_OVERHEAD_SECONDS`` is zero) is picked up by
        that same event's dispatch sweep, at the same timestamp, rather
        than deferred to the next event.  Identical in fast and reference
        mode."""
        profiles = [
            WorkerProfile(worker_id=0, mean_latency=3.0, latency_std=0.5,
                          accuracy=0.95),
            WorkerProfile(worker_id=1, mean_latency=300.0, latency_std=0.5,
                          accuracy=0.95),
            WorkerProfile(worker_id=2, mean_latency=200.0, latency_std=0.5,
                          accuracy=0.95),
        ]
        population = WorkerPopulation(profiles=profiles, seed=0)
        monkeypatch.setattr(platform_module, "TERMINATION_OVERHEAD_SECONDS", 0.0)
        platform = SimulatedCrowdPlatform(population, seed=0)
        # Seat the exact profiles (recruitment would re-sample them under
        # fresh ids); worker 1 must be the 300s straggler.
        for profile in profiles:
            platform.pool.add_worker(profile, now=0.0)
        mitigator = StragglerMitigator(
            enabled=True, policy=StragglerRoutingPolicy.ORACLE_SLOWEST, seed=0
        )
        guard = LifeGuard(
            platform, mitigator, pool_target_size=3, reference=reference
        )
        batch = build_batch(3)
        guard.run_batch(batch)

        # Worker 1's 300s attempt lost to worker 0's duplicate; freed with
        # zero acknowledgement overhead, they must start their next
        # assignment at the exact termination timestamp.
        w1_assignments = sorted(
            (
                a
                for task in batch.tasks
                for a in task.assignments
                if a.worker_id == 1
            ),
            key=lambda a: a.started_at,
        )
        assert len(w1_assignments) >= 2
        first, second = w1_assignments[0], w1_assignments[1]
        assert first.status is AssignmentStatus.TERMINATED
        assert second.started_at == first.ended_at

    def test_gate_reset_between_batches(self):
        """A batch that ended saturated (nothing placeable) must not keep
        the next batch on the same LifeGuard from dispatching."""
        platform = build_platform(6, seed=6)
        guard = lifeguard_for(platform)
        guard.mitigator.max_extra_assignments = 0
        first = guard.run_batch(build_batch(3), batch_index=0)
        second = guard.run_batch(build_batch(3), batch_index=1)
        assert len(first.labels) == 3
        assert len(second.labels) == 3

    def test_gate_disabled_matches_pre_gate_probe_volume(self):
        """Reference mode probes exhaustively: every event probes every
        available worker."""
        platform = build_platform(6, seed=7)
        guard = lifeguard_for(platform, reference=True)
        guard.mitigator.max_extra_assignments = 0
        guard.run_batch(build_batch(3))
        counters = platform.counters
        # Surplus workers + cap 0 guarantee futile probes in reference mode.
        assert counters.probes_futile > 0
        assert counters.probes_attempted == (
            counters.assignments_started + counters.probes_futile
        )


class TestDispatchEarlyExit:
    """The two early returns of one dispatch sweep, driven directly with a
    scripted mitigator so each exit is exercised in isolation."""

    NUM_WORKERS = 5

    def _sweep(self, monkeypatch, *, reference, votes_required=1, placeable=1):
        """One sweep in which the first available worker's probes always
        come back empty and every other worker gets the next unassigned
        task.  Returns the platform counters."""
        platform = build_platform(self.NUM_WORKERS, seed=3)
        guard = lifeguard_for(platform, reference=reference)
        batch = build_batch(self.NUM_WORKERS, votes_required=votes_required)
        refused = platform.pool.available_workers()[0].worker_id

        def scripted_pick(batch, worker_id, pool, now):
            if worker_id == refused:
                return None
            return batch.first_unassigned_task()

        mitigator = guard.mitigator
        monkeypatch.setattr(mitigator, "pick_task", scripted_pick)
        monkeypatch.setattr(mitigator, "placeable_count", lambda batch: placeable)
        guard._dispatch_available_workers(batch)
        return platform.counters

    def test_nothing_placeable_skips_the_sweep(self, monkeypatch):
        """``placeable_count == 0`` ends a fast sweep before any probe."""
        counters = self._sweep(monkeypatch, reference=False, placeable=0)
        assert counters.probes_attempted == 0
        assert counters.assignments_started == 0

    def test_first_futile_probe_ends_a_fast_sweep(self, monkeypatch):
        """Without quality control a probe's outcome is worker-independent,
        so the first empty probe ends the sweep."""
        counters = self._sweep(monkeypatch, reference=False)
        assert counters.probes_attempted == counters.probes_futile == 1
        assert counters.assignments_started == 0

    def test_quality_control_probes_past_a_futile_probe(self, monkeypatch):
        """Under quality control another worker may still be servable, so
        fast dispatch keeps probing after an empty probe, in one pass."""
        counters = self._sweep(monkeypatch, reference=False, votes_required=2)
        assert counters.assignments_started == self.NUM_WORKERS - 1
        assert counters.probes_attempted == self.NUM_WORKERS
        assert counters.probes_futile == 1

    @pytest.mark.parametrize("placeable", [0, 1])
    def test_reference_mode_probes_every_available_worker(
        self, monkeypatch, placeable
    ):
        """Reference mode takes neither early exit: one pass probes each
        available worker once."""
        counters = self._sweep(monkeypatch, reference=True, placeable=placeable)
        assert counters.assignments_started == self.NUM_WORKERS - 1
        assert counters.probes_attempted == self.NUM_WORKERS
        assert counters.probes_futile == 1


class TestOneSweepLeavesNothingPlaceable:
    """One pass over the available workers is enough: within a dispatch
    call a start only uses up unassigned work, ends starvation and raises
    active counts, so no worker a sweep left waiting could be placed by a
    second pass."""

    @pytest.mark.parametrize("reference", [False, True])
    @pytest.mark.parametrize("votes_required", [1, 2])
    @pytest.mark.parametrize("cap", [None, 0, 1])
    def test_every_waiting_worker_probes_empty(
        self, monkeypatch, reference, votes_required, cap
    ):
        platform = build_platform(
            8, mean_latencies=[3.0, 4.0, 5.0, 8.0, 12.0, 20.0, 40.0, 90.0], seed=2
        )
        guard = lifeguard_for(platform, reference=reference)
        mitigator = guard.mitigator
        mitigator.max_extra_assignments = cap
        dispatch = LifeGuard._dispatch_available_workers
        waiting_probes = []

        def dispatch_then_probe(self, batch):
            dispatch(self, batch)
            pool = platform.pool
            rng_state = mitigator._rng.bit_generator.state
            for slot in pool.available_workers():
                waiting_probes.append(
                    mitigator.pick_task(batch, slot.worker_id, pool, platform.now)
                )
            assert mitigator._rng.bit_generator.state == rng_state

        monkeypatch.setattr(LifeGuard, "_dispatch_available_workers", dispatch_then_probe)
        outcome = guard.run_batch(build_batch(5, votes_required=votes_required))
        assert len(outcome.labels) == 5
        if cap is None and votes_required == 1:
            # Uncapped duplication places every available worker while a
            # task is incomplete, and nothing dispatches after the last
            # completion, so this cell never leaves a worker waiting.
            assert not waiting_probes
        else:
            assert waiting_probes  # the sweep did leave workers waiting
        assert all(task is None for task in waiting_probes)


class TestOutcomeDetails:
    def test_run_assignments_cover_all_resolved_assignments(self):
        platform = build_platform(5)
        guard = lifeguard_for(platform, mitigation=True)
        batch = build_batch(8)
        outcome = guard.run_batch(batch)
        assignments = [a for task in batch.tasks for a in task.assignments]
        assert len(assignments) == outcome.assignments_started
        assert all(a.ended_at >= a.started_at for a in assignments)
        assert outcome.task_latencies == [
            task.completed_at - outcome.dispatched_at for task in batch.tasks
        ]

        # Assignments live on the batch's tasks, so a result that crossed a
        # process boundary (the process executor pickles it) still carries
        # them.
        result = Engine().run(
            JobSpec(
                dataset=make_labeling_workload(num_records=40, seed=1),
                config=CLAMShellConfig(
                    pool_size=6,
                    learning_strategy=LearningStrategy.NONE,
                    maintenance_threshold=None,
                    seed=1,
                ),
                population=mixed_speed_population(seed=1),
                num_records=20,
            )
        )
        resolved = list(result.assignments())
        assert len(resolved) == sum(
            o.assignments_started for o in result.batch_outcomes
        )
        assert list(pickle.loads(pickle.dumps(result)).assignments()) == resolved

    def test_run_assignments_follow_batch_then_task_then_start_order(self):
        result = Engine().run(
            JobSpec(
                dataset=make_labeling_workload(num_records=40, seed=2),
                config=CLAMShellConfig(
                    pool_size=6,
                    learning_strategy=LearningStrategy.NONE,
                    maintenance_threshold=None,
                    seed=2,
                ),
                population=mixed_speed_population(seed=2),
                num_records=24,
            )
        )
        expected = [
            a
            for outcome in result.batch_outcomes
            for task in outcome.batch.tasks
            for a in sorted(task.assignments, key=lambda a: a.assignment_id)
        ]
        assert [a.assignment_id for a in result.assignments()] == [
            a.assignment_id for a in expected
        ]

    def test_consensus_breaks_ties_by_the_first_completed_answer(self):
        """Answers are kept in completion order, not start order: with two
        disagreeing votes the later-started, earlier-finished one wins."""
        task = Task(task_id=0, record_ids=[7], true_labels=[0], votes_required=2)
        early = Assignment(
            assignment_id=0, task_id=0, worker_id=0, started_at=0.0, duration=9.0
        )
        late = Assignment(
            assignment_id=1, task_id=0, worker_id=1, started_at=1.0, duration=2.0
        )
        task.add_assignment(early)
        task.add_assignment(late)
        task.complete_assignment(late, at=3.0, labels=[1])
        task.complete_assignment(early, at=9.0, labels=[0])
        assert task.is_complete
        assert task.answers == [late, early]
        guard = lifeguard_for(build_platform(2))
        assert guard._aggregate_task_labels(task) == {7: 1}

    def test_votes_are_tallied_for_seated_workers(self):
        """Each answer's label for each record is compared with that
        record's consensus, on the record of a worker still seated."""
        platform = build_platform(2)
        first, second = platform.pool.worker_ids
        departed = 99
        assert departed not in platform.pool
        task = Task(task_id=0, record_ids=[7, 8], true_labels=[0, 0], votes_required=3)
        answers = [([1, 0], first), ([1, 1], second), ([0, 1], departed)]
        for index, (labels, worker_id) in enumerate(answers):
            assignment = Assignment(
                assignment_id=index,
                task_id=0,
                worker_id=worker_id,
                started_at=0.0,
                duration=1.0 + index,
            )
            task.add_assignment(assignment)
            task.complete_assignment(assignment, at=1.0 + index, labels=labels)
        guard = lifeguard_for(platform)
        assert guard._aggregate_task_labels(task) == {7: 1, 8: 1}
        tallies = {
            worker_id: (obs.votes_compared, obs.votes_agreed)
            for worker_id, obs in platform.pool.all_observations().items()
        }
        assert tallies == {first: (2, 1), second: (2, 2)}

    def test_single_answer_tasks_tally_no_votes(self):
        platform = build_platform(5)
        lifeguard_for(platform).run_batch(build_batch(num_tasks=10))
        assert all(
            obs.votes_compared == 0 for obs in platform.pool.all_observations().values()
        )

    def test_mean_pool_latency_positive(self):
        platform = build_platform(5)
        guard = lifeguard_for(platform)
        outcome = guard.run_batch(build_batch(5))
        assert outcome.mean_pool_latency is not None
        assert outcome.mean_pool_latency > 0

    def test_quality_controlled_labels_are_the_vote_over_the_answers(self):
        """Each task's answers are its completed assignments, and the batch's
        label for a record is the first-completed majority over them."""
        platform = build_platform(6, seed=3)
        guard = lifeguard_for(platform, mitigation=True)
        batch = build_batch(num_tasks=6, votes_required=3)
        outcome = guard.run_batch(batch)
        for task in batch.tasks:
            completed = [
                a for a in task.assignments if a.status is AssignmentStatus.COMPLETED
            ]
            assert sorted(task.answers, key=lambda a: a.assignment_id) == completed
            assert [a.ended_at for a in task.answers] == sorted(
                a.ended_at for a in task.answers
            )
            assert len(task.answers) == 3
            assert len({a.worker_id for a in task.answers}) == 3
            votes = [answer.labels[0] for answer in task.answers]
            assert outcome.labels[task.record_ids[0]] == majority_vote(
                votes, tie_break="first"
            )

    def test_stall_raises_runtime_error(self):
        """A batch that can never finish (more votes than workers) fails loudly."""
        platform = build_platform(2)
        guard = lifeguard_for(platform, mitigation=True)
        batch = build_batch(num_tasks=1, votes_required=3)
        with pytest.raises(RuntimeError, match="stalled"):
            guard.run_batch(batch)


class TestEventBudget:
    """The loop's deadlock guard is derived from the batch: at most one
    completion per required vote, and at most one recovery per completion."""

    def test_budget_admits_a_batch_beyond_the_old_fixed_cap(self):
        """250,000 single-vote tasks (``labeling_workload`` with 250,000
        records, pool 1000, R = 0.004) tripped the old fixed 200,000 cap."""
        tasks = [
            Task(task_id=i, record_ids=[i], true_labels=[0]) for i in range(250_000)
        ]
        assert event_budget(Batch(batch_id=0, tasks=tasks)) == 500_001

    def test_budget_counts_every_required_vote(self):
        assert event_budget(build_batch(num_tasks=4, votes_required=3)) == 25

    @pytest.mark.parametrize("abandonment_rate", [0.0, 0.3])
    def test_quality_controlled_run_stays_within_its_budget(
        self, monkeypatch, abandonment_rate
    ):
        population = WorkerPopulation(
            profiles=[
                WorkerProfile(worker_id=i, mean_latency=5.0, latency_std=2.0,
                              accuracy=0.9)
                for i in range(40)
            ],
            seed=5,
        )
        platform = SimulatedCrowdPlatform(
            population, seed=5, abandonment_rate=abandonment_rate
        )
        platform.initialize_pool(5)
        platform.configure_reserve(3)
        guard = lifeguard_for(platform, mitigation=True, pool_target_size=5)
        batch = build_batch(num_tasks=12, votes_required=3)
        iterations = []
        for owner, name in ((platform.queue, "pop"), (guard, "_recover_starvation")):
            original = getattr(owner, name)

            def counted(*args, _original=original, **kwargs):
                iterations.append(1)
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        guard.run_batch(batch)
        assert batch.is_complete
        assert platform.counters.assignments_completed <= 3 * 12
        assert len(iterations) <= event_budget(batch)

    def test_forced_stall_raises_the_deadlock_error(self, monkeypatch):
        """A loop that completes assignments without ever completing a
        task spins until the budget runs out, then names the deadlock."""
        monkeypatch.setattr(
            Task,
            "complete_assignment",
            lambda self, assignment, at, labels: self.terminate_assignment(
                assignment, at
            ),
        )
        guard = lifeguard_for(build_platform(3))
        with pytest.raises(RuntimeError, match="event budget"):
            guard.run_batch(build_batch(num_tasks=3))
