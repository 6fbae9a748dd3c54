"""Regression pins for the determinism findings fixed by the lint pass.

The `repro lint` ordering rule (REPRO-O401) surfaced two hash-order hazards
in ``repro.core.quality``: ``inter_worker_agreement`` iterated a
``set(own) & set(other)`` intersection, and the weighted-consensus path
iterated ``record_votes.keys()``.  Both were rewritten to deterministic
dict-order iteration.  The rewrites are *behaviour-preserving* — agreement
sums are commutative and ``.keys()`` shares the dict's insertion order — and
these tests pin that claim two ways:

* unit level: exact agreement/consensus values on hand-built vote sets;
* system level: a full engine-path run fingerprint (labels, every platform
  counter, simulation clock, dollar cost) pinned to the values the
  brute-force oracle produced before the rewrite, and its digest pinned
  to the hex it gives under the canonical encoding.  Any future change that
  perturbs consensus keying or iteration order, or the encoding, breaks
  these pins loudly.
"""

import pytest

from equivalence import labeling_config, run_fingerprint
from repro.core.quality import VoteAggregator, inter_worker_agreement


class TestInterWorkerAgreementPin:
    def test_exact_values_on_overlapping_votes(self):
        labels_by_worker = {
            1: {10: 0, 11: 1},
            2: {10: 0, 11: 0},
            3: {11: 1},
        }
        agreement = inter_worker_agreement(labels_by_worker)
        # worker 1: agrees with 2 on record 10, with 3 on 11; disagrees
        # with 2 on 11 -> 2/3.  worker 2: 1/3.  worker 3: 1/2.
        assert agreement == {
            1: pytest.approx(2 / 3),
            2: pytest.approx(1 / 3),
            3: pytest.approx(1 / 2),
        }

    def test_agreement_is_insertion_order_invariant(self):
        forward = {1: {10: 0, 11: 1}, 2: {11: 1, 10: 0}}
        backward = {2: {10: 0, 11: 1}, 1: {11: 1, 10: 0}}
        assert inter_worker_agreement(forward) == inter_worker_agreement(backward)


class TestWeightedConsensusPin:
    def test_weights_follow_vote_insertion_order(self):
        aggregator = VoteAggregator(num_classes=2)
        aggregator.add_vote(record_id=0, worker_id=1, label=0)
        aggregator.add_vote(record_id=0, worker_id=2, label=1)
        aggregator.add_vote(record_id=0, worker_id=3, label=1)
        # Worker 1 is near-perfect; 2 and 3 are weak: the weighted vote must
        # pair each weight with its own worker's label (0.99 > 0.3 + 0.3).
        consensus = aggregator.consensus(
            worker_accuracy={1: 0.99, 2: 0.3, 3: 0.3}
        )
        assert consensus == {0: 0}


class TestEnginePathFingerprintPin:
    """Full-run pin: quality-controlled labeling through the engine path."""

    #: Pinned run: seed 7, 3 votes, pool 12, 30 records.  Re-pinned when
    #: latency/label draws moved from the shared platform generator to the
    #: per-worker ``WorkerDrawBlock`` streams (seeded ``[seed, worker_id,
    #: stream]``): the simulated crowd's draws re-keyed, so the trajectory
    #: legitimately changed once.  Recruitment (the seed+1 stream) was
    #: untouched, which is why ``recruitment_seconds_total`` kept its
    #: original pinned value — that carry-over is itself part of the pin.
    EXPECTED_COUNTERS = {
        "assignments_started": 168,
        "assignments_completed": 90,
        "assignments_terminated": 78,
        "records_labeled_paid": 168,
        "workers_recruited": 12,
        "workers_replaced": 0,
        "workers_abandoned": 0,
    }
    #: ``RunFingerprint.digest`` of the pinned run: sha256 over the sorted
    #: labels and every stat but the probe counters, as canonical JSON.
    EXPECTED_DIGEST = "b8d22630836e35039f75bee782e40c0421ca3a165f1e23e93d2047cd655a6ef3"

    def test_pinned_fingerprint(self):
        config = labeling_config(seed=7, votes_required=3, pool_size=12)
        fingerprint = run_fingerprint(config, num_records=30)
        behaviour = fingerprint.behaviour
        for counter, expected in self.EXPECTED_COUNTERS.items():
            assert behaviour["counters"][counter] == expected, counter
        assert len(behaviour["labels"]) == 30
        assert sum(label for _, label in behaviour["labels"]) == 17
        assert behaviour["events_processed"] == 90
        assert behaviour["sim_seconds"] == pytest.approx(
            42.54417987576907, rel=1e-9
        )
        assert behaviour["total_cost"] == pytest.approx(
            3.3608333333333333, rel=1e-9
        )
        assert behaviour["counters"]["recruitment_seconds_total"] == pytest.approx(
            2665.3954346291775, rel=1e-9
        )
        assert fingerprint.digest == self.EXPECTED_DIGEST
