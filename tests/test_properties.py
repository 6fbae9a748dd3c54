"""Property-based tests (hypothesis) for core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.maintainer import predicted_pool_latency
from repro.core.metrics import crowd_labeling_objective
from repro.core.quality import majority_vote, votes_needed, weighted_vote
from repro.core.termest import TermEst
from repro.crowd.events import EventQueue
from repro.crowd.tasks import TaskFactory, group_into_batches
from repro.crowd.worker import WorkerDrawBlock, WorkerObservations, WorkerProfile
from repro.learning.models import (
    uncertainty_entropy,
    uncertainty_least_confidence,
    uncertainty_margin,
)
from repro.learning.samplers import RandomSampler


# --------------------------------------------------------------------------
# Event queue: pops are always in non-decreasing time order.
# --------------------------------------------------------------------------

@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50))
@settings(max_examples=60, deadline=None)
def test_event_queue_pops_in_time_order(times):
    queue = EventQueue()
    for t in times:
        queue.schedule(t, t)
    popped = [queue.pop() for _ in range(len(times))]
    assert popped == sorted(popped)
    assert queue.now == popped[-1]


#: Operations on one queue: schedule ``offset`` seconds after the clock
#: (small integers, so ties are common), cancel the handle at an index
#: (wrapped; cancelled and popped handles included), pop, or schedule
#: ``offset`` seconds before the clock.
_QUEUE_OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), st.integers(min_value=0, max_value=4)),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=40)),
        st.tuples(st.just("pop"), st.just(0)),
        st.tuples(st.just("past"), st.integers(min_value=1, max_value=3)),
    ),
    max_size=60,
)


@given(_QUEUE_OPERATIONS)
@settings(max_examples=100, deadline=None)
def test_event_queue_handles_follow_a_reference_model(operations):
    """Pops come in time order with ties in schedule order; cancelled
    entries never pop; cancelling twice or after the pop is a no-op; ``len``
    and ``bool`` count live entries only; ``events_processed`` counts
    returned pops only; scheduling in the past raises and changes nothing."""
    queue = EventQueue()
    handles = []
    #: Schedule order -> time, for entries neither cancelled nor popped.
    live: dict[int, float] = {}
    returned = 0
    for operation, argument in operations:
        if operation == "schedule":
            order = len(handles)
            live[order] = queue.now + argument
            handles.append(queue.schedule(live[order], order))
        elif operation == "cancel" and handles:
            order = argument % len(handles)
            queue.cancel(handles[order])
            live.pop(order, None)
        elif operation == "pop":
            if not live:
                with pytest.raises(IndexError):
                    queue.pop()
            else:
                expected = min(live, key=lambda order: (live[order], order))
                assert queue.pop() == expected
                assert queue.now == live.pop(expected)
                returned += 1
        elif operation == "past":
            with pytest.raises(ValueError):
                queue.schedule(queue.now - argument, "never")
        assert len(queue) == len(live)
        assert bool(queue) is bool(live)
        assert queue.events_processed == returned
        assert queue.events_scheduled == len(handles)


# --------------------------------------------------------------------------
# Task factory: grouping preserves every record exactly once, in order.
# --------------------------------------------------------------------------

@given(
    st.integers(min_value=1, max_value=200),
    st.integers(min_value=1, max_value=12),
)
@settings(max_examples=60, deadline=None)
def test_task_factory_partitions_records(num_records, records_per_task):
    factory = TaskFactory(records_per_task=records_per_task)
    record_ids = list(range(num_records))
    tasks = factory.build_tasks(record_ids, [0] * num_records)
    regrouped = [r for task in tasks for r in task.record_ids]
    assert regrouped == record_ids
    assert all(task.num_records <= records_per_task for task in tasks)


@given(
    st.integers(min_value=1, max_value=100),
    st.integers(min_value=1, max_value=17),
)
@settings(max_examples=60, deadline=None)
def test_group_into_batches_partitions_tasks(num_tasks, batch_size):
    factory = TaskFactory()
    tasks = factory.build_tasks(list(range(num_tasks)), [0] * num_tasks)
    batches = group_into_batches(tasks, batch_size)
    assert sum(len(b) for b in batches) == num_tasks
    assert all(len(b) <= batch_size for b in batches)


# --------------------------------------------------------------------------
# Worker draws: latency always positive and scales with record count.
# --------------------------------------------------------------------------

@given(
    st.floats(min_value=0.5, max_value=600.0),
    st.floats(min_value=0.0, max_value=300.0),
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=80, deadline=None)
def test_worker_latency_draws_positive(mean, std, num_records, seed):
    worker = WorkerProfile(0, mean_latency=mean, latency_std=std, accuracy=0.9)
    rng = np.random.default_rng(seed)
    latency = worker.draw_latency(rng, num_records)
    assert latency >= num_records * 1.0  # at least the per-record floor


@given(
    st.floats(min_value=0.5, max_value=1.0),
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=60, deadline=None)
def test_worker_labels_in_range(accuracy, num_classes, seed):
    worker = WorkerProfile(0, mean_latency=5.0, latency_std=1.0, accuracy=accuracy)
    (label,) = WorkerDrawBlock(worker, seed=seed).draw_labels([0], num_classes)
    assert 0 <= label < num_classes


# --------------------------------------------------------------------------
# Voting: majority vote returns an answer that was actually cast, and the
# consensus of a unanimous vote is that label.
# --------------------------------------------------------------------------

@given(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=30))
@settings(max_examples=100, deadline=None)
def test_majority_vote_returns_cast_label(answers):
    assert majority_vote(answers) in answers
    assert majority_vote(answers, tie_break="first") in answers


@given(st.integers(min_value=0, max_value=5), st.integers(min_value=1, max_value=20))
@settings(max_examples=60, deadline=None)
def test_unanimous_vote_wins(label, count):
    assert majority_vote([label] * count) == label


@given(
    st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=15),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_weighted_vote_returns_cast_label(answers, data):
    weights = data.draw(
        st.lists(
            st.floats(min_value=0.0, max_value=10.0),
            min_size=len(answers),
            max_size=len(answers),
        )
    )
    if sum(weights) == 0:
        weights = [1.0] * len(answers)
    assert weighted_vote(answers, weights) in answers


@given(st.integers(min_value=1, max_value=10), st.integers(min_value=0, max_value=20))
@settings(max_examples=60, deadline=None)
def test_votes_needed_never_negative(required, received):
    assert 0 <= votes_needed(required, received) <= required


# --------------------------------------------------------------------------
# TermEst: the overall estimate lies between (or at) the component estimates,
# and is always positive when any observation exists.
# --------------------------------------------------------------------------

@given(
    st.lists(st.floats(min_value=1.0, max_value=500.0), min_size=0, max_size=20),
    st.lists(st.floats(min_value=1.0, max_value=500.0), min_size=0, max_size=20),
    st.floats(min_value=0.0, max_value=5.0),
)
@settings(max_examples=100, deadline=None)
def test_termest_estimate_positive_and_bounded(completed, terminators, alpha):
    obs = WorkerObservations(worker_id=0)
    for latency in completed:
        obs.record_completion(latency)
    for terminator in terminators:
        obs.record_termination(terminator_latency=terminator)
    estimate = TermEst(alpha=alpha).estimated_mean_latency(obs)
    if not completed and not terminators:
        assert estimate is None
    else:
        assert estimate is not None
        assert estimate > 0
        components = []
        if completed:
            components.append(float(np.mean(completed)))
        terminated_est = TermEst(alpha=alpha).terminated_mean_estimate(obs)
        if terminated_est is not None:
            components.append(terminated_est)
        assert min(components) - 1e-9 <= estimate <= max(components) + 1e-9


# --------------------------------------------------------------------------
# Pool-maintenance convergence model: monotone in steps, bounded by the
# conditional means, and converges to the fast mean.
# --------------------------------------------------------------------------

@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.1, max_value=100.0),
    st.floats(min_value=0.0, max_value=1000.0),
    st.integers(min_value=0, max_value=50),
)
@settings(max_examples=100, deadline=None)
def test_convergence_model_bounds(q, mu_fast, extra, steps):
    mu_slow = mu_fast + extra
    value = predicted_pool_latency(q, mu_fast, mu_slow, steps)
    next_value = predicted_pool_latency(q, mu_fast, mu_slow, steps + 1)
    assert mu_fast - 1e-9 <= value <= mu_slow + 1e-9
    assert next_value <= value + 1e-9  # monotone non-increasing in steps


# --------------------------------------------------------------------------
# Problem-1 objective: reciprocal relationship and monotonicity in latency.
# --------------------------------------------------------------------------

@given(
    st.floats(min_value=0.0, max_value=1e6),
    st.floats(min_value=0.0, max_value=1e5),
    st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=100, deadline=None)
def test_objective_consistency(latency, cost, beta):
    objective = crowd_labeling_objective(latency, cost, beta)
    assert objective.weighted_sum >= 0
    if objective.weighted_sum > 0 and np.isfinite(objective.paper_metric):
        assert np.isclose(objective.paper_metric * objective.weighted_sum, 1.0)
    # Holding cost fixed, a slower run never scores a lower weighted sum.
    slower = crowd_labeling_objective(latency + 10.0, cost, beta)
    assert slower.weighted_sum >= objective.weighted_sum


# --------------------------------------------------------------------------
# Samplers and uncertainty measures.
# --------------------------------------------------------------------------

@given(
    st.lists(st.integers(min_value=0, max_value=10_000), min_size=0, max_size=100, unique=True),
    st.integers(min_value=0, max_value=120),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=80, deadline=None)
def test_random_sampler_subset_without_replacement(candidates, count, seed):
    chosen = RandomSampler(seed=seed).select(candidates, count)
    assert len(chosen) == min(count, len(candidates))
    assert len(set(chosen)) == len(chosen)
    assert set(chosen) <= set(candidates)


@given(
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=80, deadline=None)
def test_uncertainty_measures_non_negative_and_ordered(n_samples, n_classes, seed):
    rng = np.random.default_rng(seed)
    probabilities = rng.dirichlet(np.ones(n_classes), size=n_samples)
    for measure in (uncertainty_margin, uncertainty_entropy, uncertainty_least_confidence):
        scores = measure(probabilities)
        assert scores.shape == (n_samples,)
        assert (scores >= -1e-9).all()
    uniform = np.full((1, n_classes), 1.0 / n_classes)
    confident = np.zeros((1, n_classes))
    confident[0, 0] = 1.0
    for measure in (uncertainty_margin, uncertainty_entropy, uncertainty_least_confidence):
        assert measure(uniform)[0] >= measure(confident)[0]
