"""Executor-axis equivalence sweep: process-pool runs vs their threaded twins.

The process executor is a fast path over the threaded oracle (the
``_SCAN_TWINS`` registration on ``Engine``): a job handed to a shared-nothing
worker process must replay the exact labels, platform counters, stats, and
event-for-event progress sequence of the same spec run on a pool thread.
These cells sweep {thread, process} x {fast, reference} across seeds and
pool sizes through the reusable harness (``tests/equivalence.py``), plus
the delivery knob that must never matter (engine pool width), one spec
object rerun on every executor, the one digest every entry point reports
for a spec, and the failure contract (a child exception surfaces with the
same type and message as a threaded one).

Marked ``equivalence`` so the dedicated CI job runs them alongside the
fast-vs-reference sweep; the tier-1 matrix deselects the marker.
"""

from __future__ import annotations

import functools

import pytest

from equivalence import (
    EXECUTOR_VARIANTS,
    assert_executors_equivalent,
    engine_run_fingerprint,
    labeling_config,
    labeling_spec,
)
from repro.api.engine import EXECUTORS, Engine, JobSpec, JobStatus, build_run
from repro.api.wire import spec_from_dict
from repro.core.config import MaintenanceObjective
from repro.experiments.common import make_labeling_workload, mixed_speed_population
from repro.learning.datasets import make_classification
from repro.learning.learners import make_learner
from repro.service import LabelingService, start_server
from test_service import job_payload, read_sse, request

pytestmark = pytest.mark.equivalence


class TestExecutorSweep:
    """{thread, process} x {fast, reference} across seeds and pool sizes."""

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("pool_size", [7, 15])
    def test_process_pool_matches_thread_pool(self, seed, pool_size):
        assert_executors_equivalent(
            labeling_config(seed=seed, pool_size=pool_size), num_records=40
        )

    def test_sweep_grid_shape(self):
        runs = assert_executors_equivalent(labeling_config(seed=1), num_records=30)
        assert set(runs) == {variant.name for variant in EXECUTOR_VARIANTS}
        fast = runs["thread"].probes["probes_attempted"]
        reference = runs["thread-reference"].probes["probes_attempted"]
        # The mode axis is live inside the sweep: reference mode must probe
        # at least as much as fast mode (strictly more whenever any probe is
        # provably futile), or the grid is comparing four identical runs.
        assert reference >= fast

    def test_capped_mitigation_cell(self):
        # The production default (bounded duplication) saturates the cap and
        # leans hardest on fast dispatch's probe skipping — the regime where
        # a process worker diverging on placeability would show first.
        assert_executors_equivalent(
            labeling_config(seed=2, pool_size=10, max_extra_assignments=2),
            num_records=40,
        )

    def test_agreement_maintenance_cell(self):
        # Three votes under agreement maintenance: the LifeGuard tallies each
        # task's votes after its batch, and the evictions they trigger must
        # replay on every executor in both modes.
        runs = assert_executors_equivalent(
            labeling_config(
                seed=2,
                pool_size=8,
                votes_required=3,
                maintenance_threshold=0.15,
                maintenance_objective=MaintenanceObjective.AGREEMENT,
            ),
            num_records=40,
        )
        assert runs["thread"].behaviour["counters"]["workers_replaced"] >= 1


class TestDeliveryKnobs:
    """Engine pool width must never change outcomes."""

    @pytest.mark.parametrize("max_workers", [1, 4])
    def test_pool_width_is_invisible(self, max_workers):
        spec = labeling_spec(labeling_config(seed=5), 40)
        wide = engine_run_fingerprint(spec, executor="process", max_workers=max_workers)
        narrow = engine_run_fingerprint(spec, executor="thread", max_workers=2)
        assert wide == narrow


class TestSpecIsAValue:
    """A spec holding an explicit population is a value: every run of the
    one object, on any executor and after a wire round trip, is the same
    run."""

    def _spec(self):
        return JobSpec(
            dataset=make_labeling_workload(60, seed=0),
            config=labeling_config(seed=0, pool_size=5),
            population=mixed_speed_population(0),
            num_records=60,
        )

    def test_one_digest_across_executors_and_reruns(self):
        spec = self._spec()
        digests = []
        for executor in EXECUTORS:
            with Engine(max_workers=1, executor=executor) as engine:
                for _ in range(2):
                    result = engine.submit(spec).result(timeout=300)
                    digests.append(result.fingerprint().digest)
        rebuilt = JobSpec.from_dict(spec.to_dict())
        digests.append(Engine().run(rebuilt).fingerprint().digest)
        assert len(digests) == 5
        assert len(set(digests)) == 1, digests

    def test_inline_reruns_agree(self):
        spec = self._spec()
        engine = Engine()
        first = engine.run(spec).fingerprint().digest
        assert engine.run(spec).fingerprint().digest == first


class TestOneDigestPerSpec:
    """A spec's fingerprint digest is the same on every entry point: an
    inline run, ``Engine.stream``'s final result, a hand-wired
    ``build_run`` + ``Batcher.run``, a thread job, a process job, and the
    service's final SSE frame and ``GET /jobs/{id}``.  The configs are the
    ones that once caught a removed facade drifting from the engine:
    mitigation with maintenance, and a duplicate cap."""

    @pytest.mark.parametrize(
        "seed,config",
        [
            (0, {"maintenance_threshold": 8.0}),
            (1, {"maintenance_threshold": None, "max_extra_assignments": 1}),
        ],
        ids=["maintenance", "duplicate-cap"],
    )
    def test_every_entry_point_reports_the_same_digest(self, seed, config):
        document = job_payload(seed=seed, num_records=60)
        document["config"].update(pool_size=6, **config)
        spec = spec_from_dict(document)
        digests = {
            "inline": Engine().run(spec).fingerprint().digest,
            "stream": list(Engine().stream(spec))[-1].result.fingerprint().digest,
            "batcher": build_run(spec)[1].run(num_records=60).fingerprint().digest,
        }
        for executor in EXECUTORS:
            with Engine(max_workers=1, executor=executor) as engine:
                result = engine.submit(spec).result(timeout=300)
            digests[executor] = result.fingerprint().digest
        with LabelingService(max_workers=1) as service:
            server = start_server(service, port=0)
            try:
                host, port = server.server_address[:2]
                _, job, _ = request(host, port, "POST", "/jobs", body=document)
                _, frames = read_sse(host, port, f"/jobs/{job['id']}/events")
                _, detail, _ = request(host, port, "GET", f"/jobs/{job['id']}")
            finally:
                server.shutdown()
                server.server_close()
        digests["SSE final frame"] = frames[-1]["result"]["fingerprint"]
        digests["GET /jobs/{id}"] = detail["result"]["fingerprint"]
        assert len(set(digests.values())) == 1, digests


class TestErrorPropagation:
    """A job that raises in the child fails the parent handle identically."""

    def _failing_spec(self):
        dataset = make_classification(n_samples=50, n_features=4, seed=0)
        return JobSpec(
            dataset=dataset,
            num_records=10,
            learner_factory=functools.partial(make_learner, "no-such-strategy", dataset),
        )

    def test_child_exception_surfaces_like_threaded_one(self):
        spec = self._failing_spec()
        errors = {}
        for executor in ("thread", "process"):
            with Engine(max_workers=2, executor=executor) as engine:
                job = engine.submit(spec)
                with pytest.raises(ValueError, match="unknown strategy"):
                    job.result(timeout=300)
                assert job.status is JobStatus.FAILED
                errors[executor] = job._error
        assert type(errors["process"]) is type(errors["thread"])
        assert str(errors["process"]) == str(errors["thread"])
