"""Executor-axis equivalence sweep: process-pool runs vs their threaded twins.

The process executor is a fast path over the threaded oracle (the
``_SCAN_TWINS`` registration on ``Engine``): a job handed to a shared-nothing
worker process must replay the exact labels, platform counters, stats, and
event-for-event progress sequence of the same spec run on a pool thread.
These cells sweep {thread, process} x {dispatch gate on, off} across seeds
and pool sizes through the reusable harness (``tests/equivalence.py``), plus
the delivery knob that must never matter (engine pool width) and the
failure contract (a child exception surfaces with the same
type and message as a threaded one).

Marked ``equivalence`` so the dedicated CI job runs them alongside the
index/gate sweep; the tier-1 matrix deselects the marker.
"""

from __future__ import annotations

import pytest

from equivalence import (
    EXECUTOR_VARIANTS,
    assert_executors_equivalent,
    behavioural_view,
    engine_run_fingerprint,
    labeling_config,
)
from repro.api.engine import Engine, JobSpec, JobStatus
from repro.learning.datasets import make_classification

pytestmark = pytest.mark.equivalence


class TestExecutorSweep:
    """{thread, process} x {gated, ungated} across seeds and pool sizes."""

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("pool_size", [7, 15])
    def test_process_pool_matches_thread_pool(self, seed, pool_size):
        assert_executors_equivalent(
            labeling_config(seed=seed, pool_size=pool_size), num_records=40
        )

    def test_sweep_grid_shape(self):
        runs = assert_executors_equivalent(labeling_config(seed=1), num_records=30)
        assert set(runs) == {variant.name for variant in EXECUTOR_VARIANTS}
        gated = runs["thread+gate"]["probes"]["probes_attempted"]
        ungated = runs["thread-ungated"]["probes"]["probes_attempted"]
        # The gate axis is live inside the sweep: gate-off must probe at
        # least as much as gate-on (strictly more whenever any probe is
        # provably futile), or the grid is comparing four identical runs.
        assert ungated >= gated

    def test_capped_mitigation_cell(self):
        # The production default (bounded duplication) saturates the cap and
        # leans hardest on the dispatch gate — the regime where a process
        # worker diverging on gate decisions would show first.
        assert_executors_equivalent(
            labeling_config(seed=2, pool_size=10, max_extra_assignments=2),
            num_records=40,
        )


class TestDeliveryKnobs:
    """Engine pool width must never change outcomes."""

    @pytest.mark.parametrize("max_workers", [1, 4])
    def test_pool_width_is_invisible(self, max_workers):
        wide = engine_run_fingerprint(
            labeling_config(seed=5), 40, executor="process", max_workers=max_workers
        )
        narrow = engine_run_fingerprint(
            labeling_config(seed=5), 40, executor="thread", max_workers=2
        )
        assert behavioural_view(wide) == behavioural_view(narrow)


class TestErrorPropagation:
    """A job that raises in the child fails the parent handle identically."""

    def _failing_spec(self):
        dataset = make_classification(n_samples=50, n_features=4, seed=0)
        return JobSpec(dataset=dataset, num_records=10, backend="does-not-exist")

    def test_child_exception_surfaces_like_threaded_one(self):
        spec = self._failing_spec()
        errors = {}
        for executor in ("thread", "process"):
            with Engine(max_workers=2, executor=executor) as engine:
                job = engine.submit(spec)
                with pytest.raises(KeyError, match="unknown crowd backend"):
                    job.result(timeout=300)
                assert job.status is JobStatus.FAILED
                errors[executor] = job._error
        assert type(errors["process"]) is type(errors["thread"])
        assert str(errors["process"]) == str(errors["thread"])
