"""Equivalence layer: simulator state — in-flight assignments and draw blocks.

The simulated platform keeps only in-flight assignments in one table and
draws every latency/label value from per-worker pre-drawn
:class:`~repro.crowd.worker.WorkerDrawBlock` streams.  Fast and reference
dispatch consume the same worker streams, so every run must be
bit-identical across modes and RNG-block sizes.  These tests are what
makes that by-construction claim falsifiable: a mismatch means an
assignment transition diverged (a lost event handle, a draw pulled from
the wrong stream) and would silently change every published benchmark
number.

Block size gets its own axis (the harness patches the platform's
``DEFAULT_DRAW_BLOCK_SIZE`` for one run) because it is the one constant that
*looks* like it could perturb the stream: blocks are a prefetch window over
per-worker sequential streams, so ``draw_block_size`` 1, 3, 64, or 1024 — including
sizes that do not divide the number of draws, blocks exhausted mid-run, and
workers replaced mid-block by pool maintenance — must all fingerprint
identically to a reference-mode run refilling on every draw
(``draw_block_size=1``).

The sweep classes carry the ``equivalence`` marker so CI can run the sweep
standalone: ``pytest -m equivalence``.
"""

import pytest

from equivalence import (
    DEFAULT_VARIANTS,
    Variant,
    assert_equivalent,
    labeling_config,
    run_fingerprint,
)

#: The {fast, reference} grid plus a fast arm whose draw blocks refill on
#: every draw, so each state cell also crosses the block-size axis.
STATE_VARIANTS = DEFAULT_VARIANTS + (Variant("fast-unit-blocks", draw_block_size=1),)


@pytest.mark.equivalence
class TestStateSweep:
    """Seeds x pool sizes x batch configurations over the state grid."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("pool_size", [3, 9, 17])
    def test_plain_mitigation(self, seed, pool_size):
        assert_equivalent(
            labeling_config(pool_size=pool_size, seed=seed), variants=STATE_VARIANTS
        )

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("votes_required", [2, 3])
    def test_quality_control_redundancy(self, seed, votes_required):
        assert_equivalent(
            labeling_config(pool_size=8, votes_required=votes_required, seed=seed),
            num_records=40,
            variants=STATE_VARIANTS,
        )

    @pytest.mark.parametrize("seed", [0, 4])
    def test_capped_mitigation(self, seed):
        """Termination caps exercise terminations without eviction."""
        assert_equivalent(
            labeling_config(pool_size=8, max_extra_assignments=1, seed=seed),
            variants=STATE_VARIANTS,
        )

    @pytest.mark.parametrize("seed", [0, 4])
    def test_grouped_records_per_task(self, seed):
        """Ng > 1 routes draws through the vectorized block take path."""
        assert_equivalent(
            labeling_config(pool_size=6, records_per_task=5, seed=seed),
            variants=STATE_VARIANTS,
        )

    @pytest.mark.parametrize("seed", [0, 1, 5])
    def test_maintenance_and_abandonment(self, seed):
        """Workers depart mid-run (eviction + abandonment): their draw
        blocks are dropped mid-stream and replacements open fresh ones —
        reference dispatch must still replay fast dispatch event for
        event."""
        assert_equivalent(
            labeling_config(
                pool_size=10,
                maintenance_threshold=8.0,
                abandonment_rate=0.05,
                seed=seed,
            ),
            variants=STATE_VARIANTS,
        )


@pytest.mark.equivalence
class TestBlockBoundaries:
    """RNG-block boundary coverage: block size is a non-observable."""

    #: Sizes chosen to force every boundary shape: 1 refills on each draw,
    #: 3 never divides the multi-record takes below, 64 is the default,
    #: 1024 outlives most workers' draw counts entirely.
    BLOCK_SIZES = (1, 3, 64, 1024)

    def _reference(self, config, num_records=60):
        return run_fingerprint(
            config, num_records, reference=True, draw_block_size=1
        ).behaviour

    @pytest.mark.parametrize("block_size", BLOCK_SIZES)
    def test_block_size_invariance(self, block_size):
        """Every block size fingerprints identically to the reference."""
        config = labeling_config(pool_size=9, seed=2)
        reference = self._reference(config)
        run = run_fingerprint(config, 60, draw_block_size=block_size)
        assert run.behaviour == reference

    @pytest.mark.parametrize("block_size", [3, 7])
    def test_block_not_dividing_draw_count(self, block_size):
        """Ng=5 with small odd blocks: every multi-record take straddles a
        refill boundary somewhere in the run."""
        config = labeling_config(pool_size=6, records_per_task=5, seed=4)
        reference = self._reference(config)
        run = run_fingerprint(config, 60, draw_block_size=block_size)
        assert run.behaviour == reference

    @pytest.mark.parametrize("block_size", [1, 2, 64])
    def test_profile_replaced_mid_block(self, block_size):
        """Pool maintenance evicts workers with unconsumed block values;
        the replacement's fresh stream must not shift anyone else's."""
        config = labeling_config(
            pool_size=10,
            maintenance_threshold=8.0,
            abandonment_rate=0.05,
            seed=5,
        )
        reference = self._reference(config)
        run = run_fingerprint(config, 60, draw_block_size=block_size)
        assert run.behaviour == reference

    def test_exhausted_block_refill(self):
        """A run long enough to exhaust the default block repeatedly: the
        refill path itself is stream-transparent."""
        config = labeling_config(pool_size=3, seed=1)
        reference = self._reference(config, num_records=120)
        run = run_fingerprint(config, 120, draw_block_size=4)
        assert run.behaviour == reference

    def test_block_size_axis_inside_state_sweep(self):
        """The variant grid itself can carry the block-size axis."""
        variants = DEFAULT_VARIANTS + (
            Variant("fast-tiny-blocks", draw_block_size=1),
            Variant("fast-huge-blocks", draw_block_size=1024),
        )
        assert_equivalent(
            labeling_config(pool_size=8, seed=3), variants=variants
        )
