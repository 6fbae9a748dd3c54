"""Standing properties over the config space: every accepted config finishes.

A :class:`CLAMShellConfig` the constructor accepts is a promise that the run
can finish.  So for any accepted config, under every learning strategy and
with synchronous or asynchronous retraining, a labeling run must (a) return
one consensus label per requested record, (b) label at least one new record
in every batch, which is what bounds a run to ``num_records`` batches, and
(c) fingerprint bit-identically in fast and reference mode
(:func:`equivalence.run_fingerprint`), whatever the reference run's
draw-block size.  A config that can strand a batch must be refused by the
constructor with a named ``ValueError`` instead.

The property's example budget is small in tier-1.  The CI equivalence job
raises it by loading the ``config-sweep`` hypothesis profile registered in
``conftest.py``: ``pytest tests/test_config_property.py
--hypothesis-profile=config-sweep``.
"""

import itertools

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from equivalence import labeling_config, labeling_spec, run_fingerprint
from repro.api.engine import Engine
from repro.api.events import ProgressKind
from repro.core.config import LearningStrategy, StragglerRoutingPolicy

#: Tier-1 runs 30 examples; any other loaded profile (the CI equivalence
#: job's ``config-sweep``) supplies its own budget.
PROPERTY_SETTINGS = (
    settings(max_examples=30, deadline=None)
    if settings.get_current_profile_name() == "default"
    else settings(deadline=None)
)


#: Draw-block sizes for the reference run: one value per refill, sizes
#: around a typical assignment count, the default and a block no run drains.
DRAW_BLOCK_SIZES = [1, 2, 3, 7, 64, 1024]


@st.composite
def config_and_records(draw):
    """Any labeling config's knobs, learning included, a record count of
    1-120 and the reference run's draw-block size."""
    overrides = dict(
        pool_size=draw(st.integers(1, 30)),
        records_per_task=draw(st.integers(1, 10)),
        votes_required=draw(st.integers(1, 5)),
        pool_batch_ratio=draw(st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0, 4.0])),
        straggler_mitigation=draw(st.booleans()),
        straggler_routing=draw(st.sampled_from(list(StragglerRoutingPolicy))),
        max_extra_assignments=draw(st.none() | st.integers(0, 3)),
        maintenance_threshold=draw(st.none() | st.floats(2.0, 60.0)),
        maintenance_reserve_size=draw(st.integers(0, 5)),
        abandonment_rate=draw(st.just(0.0) | st.floats(0.0, 0.9)),
        learning_strategy=draw(st.sampled_from(list(LearningStrategy))),
        asynchronous_retraining=draw(st.booleans()),
        seed=draw(st.integers(0, 1000)),
    )
    return overrides, draw(st.integers(1, 120)), draw(st.sampled_from(DRAW_BLOCK_SIZES))


def accepted_config(overrides):
    """The config, or ``None`` where the constructor refuses it."""
    try:
        return labeling_config(**overrides)
    except ValueError:
        return None


def learning_example(strategy, asynchronous):
    """A fixed draw that runs ``strategy`` with the given retraining mode."""
    overrides = dict(
        pool_size=6,
        learning_strategy=strategy,
        asynchronous_retraining=asynchronous,
        candidate_sample_size=60,
        seed=3,
    )
    return overrides, 40, 7


def with_every_learning_mode(test):
    """Pin one example per learning strategy x retraining mode, so every
    budget covers all of them whatever the random draws."""
    for strategy, asynchronous in itertools.product(LearningStrategy, (True, False)):
        test = example(learning_example(strategy, asynchronous))(test)
    return test


@PROPERTY_SETTINGS
@given(config_and_records())
@with_every_learning_mode
def test_every_accepted_config_finishes_identically_in_both_modes(drawn):
    overrides, num_records, draw_block_size = drawn
    config = accepted_config(overrides)
    assume(config is not None)
    events = list(Engine().stream(labeling_spec(config, num_records)))
    fast = events[-1].result.fingerprint()
    assert len(fast.behaviour["labels"]) == num_records
    for before, event in zip(events, events[1:]):
        if event.kind is ProgressKind.BATCH_COMPLETED:
            assert event.records_labeled > before.records_labeled, event.batch_index
    reference = run_fingerprint(
        config, num_records, reference=True, draw_block_size=draw_block_size
    )
    assert reference.behaviour == fast.behaviour


class TestAbandonmentWithoutMaintenance:
    """Abandoned seats are refilled from the reserve even with maintenance
    off; before, the reserve stayed empty and small pools stalled."""

    @pytest.mark.parametrize(
        "pool_size,abandonment_rate", [(5, 0.05), (5, 0.1), (15, 0.3)]
    )
    def test_runs_finish(self, pool_size, abandonment_rate):
        for seed in range(10):
            config = labeling_config(
                pool_size=pool_size, abandonment_rate=abandonment_rate, seed=seed
            )
            result = run_fingerprint(config, 60)
            assert len(result.behaviour["labels"]) == 60, f"seed {seed}"
