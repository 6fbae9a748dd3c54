"""Equivalence layer: fast dispatch vs the brute-force oracle.

For RANDOM routing on batches without quality control, the straggler
mitigator serves dispatch from an incrementally-maintained
:class:`~repro.core.active_index.ActiveTaskIndex`, and the LifeGuard ends a
probe sweep as soon as no probe can place work (``placeable_count`` is zero,
or a probe came back empty).  Quality-controlled batches and non-RANDOM
routing dispatch through the brute-force candidate scan
(:meth:`StragglerMitigator.pick_task_scan`) in both modes.  Reference mode
(``CLAMShellConfig.reference``) runs the scan for every available worker.
These tests hold the contract the fast path was built under — see
``tests/equivalence.py``, the reusable harness that runs every sweep cell in
both modes and asserts bit-identical labels, platform cost counters,
simulation clocks, and dollar costs.  :class:`TestGateDecisions` checks the
early exit's own input directly: at every fast dispatch the index's
placeability summary must agree with the scan's.

A mismatch here means the fast path's view of the batch diverged from the
task objects (a missed callback, a wrong count, a reordered candidate list,
a sweep that stopped while something was still placeable) and would
silently change every published benchmark number.

The sweep classes carry the ``equivalence`` marker so CI can run the sweep
standalone: ``pytest -m equivalence``.
"""

import pytest

from equivalence import (
    DEFAULT_VARIANTS,
    assert_equivalent,
    labeling_config,
    run_fingerprint,
)
from repro.core.active_index import ActiveTaskIndex
from repro.core.config import StragglerRoutingPolicy
from repro.core.mitigator import StragglerMitigator
from repro.crowd.tasks import Assignment, Batch, Task


@pytest.mark.equivalence
class TestPropertySweep:
    """Seeds x pool sizes x batch configurations, fast vs reference."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("pool_size", [3, 9, 17])
    def test_plain_mitigation(self, seed, pool_size):
        assert_equivalent(labeling_config(pool_size=pool_size, seed=seed))

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("pool_batch_ratio", [0.5, 2.0])
    def test_batch_ratio_regimes(self, seed, pool_batch_ratio):
        assert_equivalent(
            labeling_config(
                pool_size=8, pool_batch_ratio=pool_batch_ratio, seed=seed
            )
        )

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("votes_required", [2, 3])
    def test_quality_control_redundancy(self, seed, votes_required):
        """Redundancy makes the involvement filter non-vacuous, so a sweep
        may only be skipped on an empty live set — never on a futile probe."""
        assert_equivalent(
            labeling_config(pool_size=8, votes_required=votes_required, seed=seed),
            num_records=40,
        )

    @pytest.mark.parametrize("seed", [0, 4])
    def test_grouped_records_per_task(self, seed):
        assert_equivalent(
            labeling_config(pool_size=6, records_per_task=5, seed=seed)
        )

    @pytest.mark.parametrize("seed", [0, 1, 5])
    def test_maintenance_and_abandonment(self, seed):
        """Evictions terminate assignments from inside the platform — the
        path only the index's assignment observers see."""
        assert_equivalent(
            labeling_config(
                pool_size=10,
                maintenance_threshold=8.0,
                abandonment_rate=0.05,
                seed=seed,
            )
        )

    @pytest.mark.parametrize("max_extra", [0, 1, 3])
    def test_duplicate_caps(self, max_extra):
        """Capped RANDOM routing without QC rides the duplicable fast path;
        a saturated cap is also where fast dispatch skips the most probes."""
        assert_equivalent(
            labeling_config(pool_size=9, seed=2),
            max_extra_assignments=max_extra,
        )

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("max_extra", [0, 1, 2])
    def test_duplicate_caps_from_config(self, seed, max_extra):
        """The cap plumbed through CLAMShellConfig, not set on the mitigator."""
        assert_equivalent(
            labeling_config(
                pool_size=9, max_extra_assignments=max_extra, seed=seed
            )
        )

    @pytest.mark.parametrize("votes_required", [2, 3])
    @pytest.mark.parametrize("max_extra", [0, 1])
    def test_duplicate_caps_with_quality_control(self, votes_required, max_extra):
        """Capped + redundant: quality control dispatches by scan."""
        assert_equivalent(
            labeling_config(
                pool_size=8,
                votes_required=votes_required,
                max_extra_assignments=max_extra,
                seed=1,
            ),
            num_records=40,
        )

    @pytest.mark.parametrize(
        "policy",
        [
            StragglerRoutingPolicy.LONGEST_RUNNING,
            StragglerRoutingPolicy.FEWEST_ACTIVE,
            StragglerRoutingPolicy.ORACLE_SLOWEST,
        ],
    )
    @pytest.mark.parametrize("max_extra", [1, 2])
    def test_duplicate_caps_with_non_random_routing(self, policy, max_extra):
        assert_equivalent(
            labeling_config(
                pool_size=9,
                straggler_routing=policy,
                max_extra_assignments=max_extra,
                seed=1,
            )
        )

    def test_duplicate_cap_with_maintenance_and_abandonment(self):
        """Evictions/abandonment churn active counts under a cap — the
        duplicable Fenwick layer must track the platform-side terminations."""
        assert_equivalent(
            labeling_config(
                pool_size=10,
                maintenance_threshold=8.0,
                abandonment_rate=0.05,
                max_extra_assignments=1,
                seed=2,
            )
        )

    def test_duplicate_cap_with_decoupling_disabled(self):
        assert_equivalent(
            labeling_config(
                pool_size=8,
                votes_required=2,
                decouple_quality_control=False,
                max_extra_assignments=1,
                seed=1,
            ),
            num_records=40,
        )

    def test_mitigator_override_wins_over_config_cap(self):
        """Setting the cap directly on the mitigator overrides the config's."""
        assert_equivalent(
            labeling_config(pool_size=9, max_extra_assignments=3, seed=2),
            max_extra_assignments=1,
        )

    @pytest.mark.parametrize(
        "policy",
        [
            StragglerRoutingPolicy.LONGEST_RUNNING,
            StragglerRoutingPolicy.FEWEST_ACTIVE,
            StragglerRoutingPolicy.ORACLE_SLOWEST,
        ],
    )
    def test_non_random_routing_policies(self, policy):
        assert_equivalent(
            labeling_config(pool_size=9, straggler_routing=policy, seed=1)
        )

    def test_mitigation_disabled(self):
        """NoSM: placeability collapses to unassigned + starved, so fast
        dispatch skips the whole straggler tail — the behaviour must not move."""
        assert_equivalent(
            labeling_config(pool_size=8, straggler_mitigation=False, seed=3)
        )

    def test_quality_control_without_decoupling(self):
        assert_equivalent(
            labeling_config(
                pool_size=8,
                votes_required=2,
                decouple_quality_control=False,
                seed=1,
            ),
            num_records=40,
        )


@pytest.mark.equivalence
class TestProbeSkipSweep:
    """Cells chosen so fast dispatch skips many probes and then resumes."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("max_extra", [0, 1])
    def test_saturating_caps_with_surplus_workers(self, seed, max_extra):
        """Pool much larger than the batch + a tight cap: the cap saturates
        within the first event and stays saturated, so nearly every
        reference-mode probe is futile — the regime probe skipping exists
        for."""
        runs = assert_equivalent(
            labeling_config(
                pool_size=17, max_extra_assignments=max_extra, seed=seed
            ),
            num_records=30,
        )
        fast = runs["fast"].probes
        reference = runs["reference"].probes
        assert fast["probes_futile"] < reference["probes_futile"]
        assert fast["probes_attempted"] < reference["probes_attempted"]

    @pytest.mark.parametrize("seed", [0, 2])
    def test_no_mitigation_with_surplus_workers(self, seed):
        """NoSM with idle workers: every post-assignment event used to probe
        the whole idle pool for nothing."""
        assert_equivalent(
            labeling_config(pool_size=12, straggler_mitigation=False, seed=seed),
            num_records=30,
        )

    def test_capped_quality_control_saturation(self):
        """QC keeps placeability worker-dependent: fast dispatch may only
        skip on an empty live set, and futile involvement probes must
        survive."""
        assert_equivalent(
            labeling_config(
                pool_size=12,
                votes_required=2,
                max_extra_assignments=0,
                seed=3,
            ),
            num_records=30,
        )

    @pytest.mark.parametrize(
        "policy",
        [
            StragglerRoutingPolicy.LONGEST_RUNNING,
            StragglerRoutingPolicy.FEWEST_ACTIVE,
            StragglerRoutingPolicy.ORACLE_SLOWEST,
        ],
    )
    def test_gate_with_non_random_routing_and_cap(self, policy):
        """Non-RANDOM routing dispatches by scan; the scan's placeability
        summary must agree with it about saturation."""
        assert_equivalent(
            labeling_config(
                pool_size=14,
                straggler_routing=policy,
                max_extra_assignments=1,
                seed=4,
            ),
            num_records=30,
        )

    def test_gate_with_maintenance_abandonment_and_cap(self):
        """Pool churn (evictions, abandonment, refills) must reach the index
        through the observer hooks — a missed callback deadlocks or defers
        work and shifts every downstream timestamp."""
        assert_equivalent(
            labeling_config(
                pool_size=12,
                maintenance_threshold=8.0,
                abandonment_rate=0.08,
                max_extra_assignments=1,
                seed=5,
            ),
            num_records=40,
        )

    def test_gate_only_grid_with_grouped_tasks(self):
        """Multi-record tasks under a saturating cap."""
        assert_equivalent(
            labeling_config(
                pool_size=13,
                records_per_task=5,
                max_extra_assignments=1,
                seed=6,
            ),
            num_records=40,
        )

    def test_default_grid_shape(self):
        """The default grid pits fast mode against reference mode."""
        assert [v.reference for v in DEFAULT_VARIANTS] == [False, True]


class TestGateDecisions:
    """Fast dispatch without QC skips its sweep on ``placeable_count == 0``,
    served by the index for RANDOM routing.  The scan twin must reach the
    same verdict at every such dispatch; the other batches prime no index,
    and a QC batch's snapshot sweep never asks."""

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(pool_size=17, max_extra_assignments=0, seed=0),
            dict(pool_size=17, max_extra_assignments=1, seed=1),
            dict(pool_size=12, straggler_mitigation=False, seed=2),
            dict(pool_size=12, votes_required=2, max_extra_assignments=0, seed=3),
            dict(
                pool_size=14,
                straggler_routing=StragglerRoutingPolicy.LONGEST_RUNNING,
                max_extra_assignments=1,
                seed=4,
            ),
            dict(
                pool_size=12,
                maintenance_threshold=8.0,
                abandonment_rate=0.08,
                max_extra_assignments=1,
                seed=5,
            ),
        ],
        ids=["cap0", "cap1", "nosm", "qc", "routing", "churn"],
    )
    def test_index_and_scan_agree_at_every_gated_dispatch(
        self, monkeypatch, request, overrides
    ):
        indexed_count = StragglerMitigator.placeable_count
        # Quality control and non-RANDOM routing have no indexed path.
        scan_only = request.node.callspec.id in ("qc", "routing")
        verdicts = []

        def checked(mitigator, batch):
            if scan_only:
                assert mitigator._index is None
            else:
                assert mitigator._index is not None
                assert mitigator._index.batch is batch
            count = indexed_count(mitigator, batch)
            scan = mitigator.placeable_count_scan(batch)
            assert (count == 0) == (scan == 0), (count, scan)
            verdicts.append(count == 0)
            return count

        monkeypatch.setattr(StragglerMitigator, "placeable_count", checked)
        run_fingerprint(labeling_config(**overrides), num_records=30)
        if request.node.callspec.id == "qc":
            # Under QC the count is positive until the batch completes, and
            # nothing dispatches after that, so no dispatch consults it.
            assert verdicts == []
        else:
            # Some dispatch must have found nothing placeable, or the sweep
            # never tested the verdict that matters.
            assert any(verdicts)


class TestIndexUnit:
    """Direct checks of the index's incremental view against task state."""

    @staticmethod
    def _task(task_id, votes_required=1):
        return Task(
            task_id=task_id,
            record_ids=[task_id],
            true_labels=[0],
            votes_required=votes_required,
        )

    @staticmethod
    def _assign(task, worker_id, assignment_id):
        assignment = Assignment(
            assignment_id=assignment_id,
            task_id=task.task_id,
            worker_id=worker_id,
            started_at=0.0,
            duration=10.0,
        )
        task.add_assignment(assignment)
        return assignment

    def test_tasks_enter_on_dispatch_and_leave_on_completion(self):
        tasks = [self._task(i) for i in range(4)]
        batch = Batch(batch_id=0, tasks=tasks)
        index = ActiveTaskIndex(batch)
        assert index.duplicable_count == 0
        assert index.first_starved() is None

        a0 = self._assign(tasks[0], worker_id=1, assignment_id=0)
        index.assignment_started(tasks[0], a0)
        a2 = self._assign(tasks[2], worker_id=2, assignment_id=1)
        index.assignment_started(tasks[2], a2)
        assert index.duplicable_count == 2
        assert index.kth_duplicable_task(0) is tasks[0]
        assert index.kth_duplicable_task(1) is tasks[2]

        tasks[0].complete_assignment(a0, at=5.0, labels=[0])
        index.assignment_completed(tasks[0], a0)
        assert index.duplicable_count == 1
        assert index.kth_duplicable_task(0) is tasks[2]
        assert index.first_starved() is None

    def test_completion_callback_sees_the_task_complete(self):
        """The task completes inside ``complete_assignment``, so the index's
        completion callback drops it from the duplicable set for good: a
        later termination of its losing replica leaves it out, and a
        complete task is never starved."""
        tasks = [self._task(i) for i in range(2)]
        index = ActiveTaskIndex(Batch(batch_id=0, tasks=tasks))
        a0 = self._assign(tasks[0], worker_id=0, assignment_id=0)
        index.assignment_started(tasks[0], a0)
        a1 = self._assign(tasks[1], worker_id=1, assignment_id=1)
        index.assignment_started(tasks[1], a1)
        assert index.duplicable_count == 2

        loser = self._assign(tasks[0], worker_id=2, assignment_id=2)
        index.assignment_started(tasks[0], loser)
        assert index.duplicable_count == 2

        tasks[0].complete_assignment(a0, at=5.0, labels=[0])
        assert tasks[0].is_complete
        index.assignment_completed(tasks[0], a0)
        assert index.duplicable_count == 1
        assert index.kth_duplicable_task(0) is tasks[1]
        assert index.first_starved() is None

        tasks[0].terminate_assignment(loser, at=5.0)
        index.assignment_terminated(tasks[0], loser)
        assert index.duplicable_count == 1
        assert index.kth_duplicable_task(0) is tasks[1]
        assert index.first_starved() is None

    def test_active_counts_track_assignment_status(self):
        """Per-task active counts drive the duplicable layer: under cap 1 a
        task with one active assignment may take a duplicate, with two it
        may not, and a termination frees the slot again."""
        task = self._task(0)
        batch = Batch(batch_id=0, tasks=[task])
        index = ActiveTaskIndex(batch, max_extra_assignments=1)
        a0 = self._assign(task, worker_id=1, assignment_id=0)
        index.assignment_started(task, a0)
        assert task.active == 1
        assert index.duplicable_count == 1
        assert index.kth_duplicable_task(0) is task

        a1 = self._assign(task, worker_id=2, assignment_id=1)
        index.assignment_started(task, a1)
        assert task.active == 2
        assert index.duplicable_count == 0

        task.terminate_assignment(a1, at=3.0)
        index.assignment_terminated(task, a1)
        assert task.active == 1
        assert index.duplicable_count == 1
        assert index.first_starved() is None

    def test_starved_task_surfaces_in_batch_order(self):
        tasks = [self._task(i) for i in range(3)]
        batch = Batch(batch_id=0, tasks=tasks)
        index = ActiveTaskIndex(batch)
        assignments = [
            self._assign(tasks[i], worker_id=i, assignment_id=i) for i in range(3)
        ]
        for task, assignment in zip(tasks, assignments, strict=True):
            index.assignment_started(task, assignment)
        assert index.first_starved() is None

        # Terminate tasks 2 then 1: the *first in batch order* must win.
        tasks[2].terminate_assignment(assignments[2], at=1.0)
        index.assignment_terminated(tasks[2], assignments[2])
        tasks[1].terminate_assignment(assignments[1], at=1.0)
        index.assignment_terminated(tasks[1], assignments[1])
        assert index.first_starved() is tasks[1]

        # Reviving task 1 moves the starved pointer to task 2.
        revived = self._assign(tasks[1], worker_id=4, assignment_id=10)
        index.assignment_started(tasks[1], revived)
        assert index.first_starved() is tasks[2]

    def test_duplicable_layer_tracks_cap_crossings(self):
        """Tasks drop out of the duplicable set when active − 1 reaches the
        cap, and re-enter when a termination brings them back under it."""
        tasks = [self._task(i) for i in range(3)]
        batch = Batch(batch_id=0, tasks=tasks)
        index = ActiveTaskIndex(batch, max_extra_assignments=1)
        assignments = []
        for i, task in enumerate(tasks):
            assignment = self._assign(task, worker_id=i, assignment_id=i)
            index.assignment_started(task, assignment)
            assignments.append(assignment)
        # One active assignment each: all under the cap (0 extras < 1).
        assert index.duplicable_count == 3
        assert index.kth_duplicable_task(0) is tasks[0]
        assert index.kth_duplicable_task(2) is tasks[2]

        # A duplicate on task 1 saturates its cap (1 extra == cap).
        dup = self._assign(tasks[1], worker_id=5, assignment_id=10)
        index.assignment_started(tasks[1], dup)
        assert index.duplicable_count == 2
        assert index.kth_duplicable_task(0) is tasks[0]
        assert index.kth_duplicable_task(1) is tasks[2]

        # Terminating the duplicate brings task 1 back under the cap.
        tasks[1].terminate_assignment(dup, at=2.0)
        index.assignment_terminated(tasks[1], dup)
        assert index.duplicable_count == 3
        assert index.kth_duplicable_task(1) is tasks[1]

    def test_duplicable_layer_removes_completed_tasks(self):
        tasks = [self._task(i) for i in range(2)]
        batch = Batch(batch_id=0, tasks=tasks)
        index = ActiveTaskIndex(batch, max_extra_assignments=2)
        for i, task in enumerate(tasks):
            index.assignment_started(
                task, self._assign(task, worker_id=i, assignment_id=i)
            )
        assert index.duplicable_count == 2

        a0 = tasks[0].assignments[0]
        tasks[0].complete_assignment(a0, at=5.0, labels=[0])
        index.assignment_completed(tasks[0], a0)
        assert index.duplicable_count == 1
        assert index.kth_duplicable_task(0) is tasks[1]
        assert index.first_starved() is None
        with pytest.raises(IndexError):
            index.kth_duplicable_task(1)

    def test_duplicable_layer_cap_zero_counts_only_starved(self):
        """With cap 0 a task with any active work is never duplicable; a
        starved one (0 active) still is, but dispatch returns starved tasks
        before ever drawing, so the draw population matches the scan."""
        task = self._task(0)
        batch = Batch(batch_id=0, tasks=[task])
        index = ActiveTaskIndex(batch, max_extra_assignments=0)
        a0 = self._assign(task, worker_id=1, assignment_id=0)
        index.assignment_started(task, a0)
        assert index.duplicable_count == 0
        task.terminate_assignment(a0, at=1.0)
        index.assignment_terminated(task, a0)
        assert index.duplicable_count == 1
        assert index.first_starved() is task

    def test_uncapped_index_counts_every_live_task_as_duplicable(self):
        """Uncapped duplication is the capped rule at cap = infinity: any
        number of active assignments leaves a live task duplicable."""
        tasks = [self._task(i) for i in range(2)]
        index = ActiveTaskIndex(Batch(batch_id=0, tasks=tasks))
        for assignment_id in range(3):
            index.assignment_started(
                tasks[0],
                self._assign(tasks[0], worker_id=assignment_id, assignment_id=assignment_id),
            )
        assert index.duplicable_count == 1
        assert index.kth_duplicable_task(0) is tasks[0]
        a1 = self._assign(tasks[1], worker_id=9, assignment_id=9)
        index.assignment_started(tasks[1], a1)
        assert index.duplicable_count == 2
        assert index.kth_duplicable_task(1) is tasks[1]

        tasks[1].complete_assignment(a1, at=5.0, labels=[0])
        index.assignment_completed(tasks[1], a1)
        assert index.duplicable_count == 1
        assert index.kth_duplicable_task(0) is tasks[0]
        assert index.first_starved() is None

    def test_quality_controlled_batch_is_refused(self):
        """QC batches dispatch by scan; the index never serves them."""
        task = self._task(0, votes_required=2)
        batch = Batch(batch_id=0, tasks=[task])
        with pytest.raises(ValueError, match="quality control"):
            ActiveTaskIndex(batch)
        assert StragglerMitigator().begin_batch(batch) is None

    def test_non_random_routing_primes_no_index(self):
        mitigator = StragglerMitigator(
            policy=StragglerRoutingPolicy.FEWEST_ACTIVE
        )
        assert mitigator.begin_batch(Batch(batch_id=0, tasks=[self._task(0)])) is None


class TestPlaceableCountUnit:
    """The index's O(1) placeability summary against hand-built states."""

    @staticmethod
    def _batch(num_tasks, votes_required=1):
        tasks = [
            Task(
                task_id=i,
                record_ids=[i],
                true_labels=[0],
                votes_required=votes_required,
            )
            for i in range(num_tasks)
        ]
        return Batch(batch_id=0, tasks=tasks), tasks

    @staticmethod
    def _assign(task, worker_id, assignment_id):
        assignment = Assignment(
            assignment_id=assignment_id,
            task_id=task.task_id,
            worker_id=worker_id,
            started_at=0.0,
            duration=10.0,
        )
        task.add_assignment(assignment)
        return assignment

    def test_unassigned_tasks_are_placeable(self):
        batch, _ = self._batch(3)
        index = ActiveTaskIndex(batch)
        assert index.placeable_count(enabled=True) > 0
        assert index.placeable_count(enabled=False) > 0

    def test_saturated_cap_reaches_zero(self):
        batch, tasks = self._batch(2)
        mitigator = StragglerMitigator(max_extra_assignments=0)
        index = mitigator.begin_batch(batch)
        for i, task in enumerate(tasks):
            index.assignment_started(task, self._assign(task, i, i))
        # Every task assigned once; cap 0 forbids duplicates: nothing left.
        assert index.placeable_count(enabled=True) == 0
        assert mitigator.placeable_count(batch) == 0
        # Lifting the cap after begin_batch falls back to the scan, which
        # sees the live tasks as duplicable again.
        mitigator.max_extra_assignments = None
        assert mitigator.placeable_count(batch) > 0
        assert mitigator.pick_task(batch, 9, pool=None, now=0.0) in tasks

    def test_termination_restores_placeability(self):
        batch, tasks = self._batch(1)
        index = ActiveTaskIndex(batch, max_extra_assignments=0)
        assignment = self._assign(tasks[0], worker_id=0, assignment_id=0)
        index.assignment_started(tasks[0], assignment)
        assert index.placeable_count(enabled=True) == 0
        tasks[0].terminate_assignment(assignment, at=1.0)
        index.assignment_terminated(tasks[0], assignment)
        # The task is now starved: placeable even with mitigation disabled.
        assert index.placeable_count(enabled=False) > 0

    def test_index_placeable_count_reads_its_own_cap(self):
        """The cap is fixed when the index is built: one duplicate fits
        under cap 1, a second saturates it, and the mitigator serving the
        same cap agrees with its scan twin at each step."""
        batch, tasks = self._batch(1)
        mitigator = StragglerMitigator(max_extra_assignments=1)
        index = mitigator.begin_batch(batch)
        assert index.max_extra_assignments == 1
        first = self._assign(tasks[0], worker_id=0, assignment_id=0)
        index.assignment_started(tasks[0], first)
        assert index.placeable_count(enabled=True) > 0
        assert mitigator.placeable_count_scan(batch) > 0
        second = self._assign(tasks[0], worker_id=1, assignment_id=1)
        index.assignment_started(tasks[0], second)
        assert index.placeable_count(enabled=True) == 0
        assert mitigator.placeable_count(batch) == 0
        assert mitigator.placeable_count_scan(batch) == 0

    def test_mitigation_disabled_ignores_duplicable_live_tasks(self):
        batch, tasks = self._batch(2)
        index = ActiveTaskIndex(batch)
        for i, task in enumerate(tasks):
            index.assignment_started(task, self._assign(task, i, i))
        assert index.placeable_count(enabled=False) == 0
        assert index.placeable_count(enabled=True) > 0

    def test_quality_control_keeps_live_batches_placeable(self):
        """Worker-dependent involvement: only an empty live set is futile."""
        batch, tasks = self._batch(1, votes_required=2)
        mitigator = StragglerMitigator(max_extra_assignments=0)
        assert mitigator.begin_batch(batch) is None
        self._assign(tasks[0], worker_id=0, assignment_id=0)
        assert mitigator.placeable_count(batch) > 0

    def test_completed_batch_reaches_zero(self):
        batch, tasks = self._batch(1)
        index = ActiveTaskIndex(batch)
        assignment = self._assign(tasks[0], worker_id=0, assignment_id=0)
        index.assignment_started(tasks[0], assignment)
        tasks[0].complete_assignment(assignment, at=5.0, labels=[0])
        index.assignment_completed(tasks[0], assignment)
        assert index.duplicable_count == 0
        assert index.first_starved() is None
        assert index.placeable_count(enabled=True) == 0
        assert index.placeable_count(enabled=False) == 0
