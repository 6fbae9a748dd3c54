"""Pins for the pre-drawn RNG blocks and the scalar-vs-vectorized parity.

Two layers of claims are pinned here:

* :class:`~repro.crowd.worker.WorkerDrawBlock` is a pure prefetch window
  over per-worker sequential streams seeded ``[seed, worker_id, stream]``:
  the values a worker sees depend only on the draw index, never on the
  block size or on how draws batch into refills.  This is what makes fast
  and reference dispatch bit-identical by construction.

* ``WorkerProfile.draw_latency`` still keeps a scalar fast path for Ng=1
  and a ``size=n`` vectorized path for grouped tasks.  Its docstring used
  to claim the two "consume the generator identically" as if numpy
  guaranteed it; numpy's ziggurat normal is rejection-based and documents
  no such contract, so the claim was demoted to an implementation detail —
  and the *empirical* parity the fast path leans on is pinned here, where
  a numpy upgrade that breaks it fails a test instead of silently skewing
  a distribution.
"""

import numpy as np
import pytest

from repro.crowd.worker import (
    DEFAULT_DRAW_BLOCK_SIZE,
    MIN_TASK_LATENCY_SECONDS,
    WorkerDrawBlock,
    WorkerProfile,
    _draw_wrong_label,
)

SEED = 11


def profile(worker_id=3, mean=12.0, std=4.0, accuracy=0.8):
    return WorkerProfile(
        worker_id=worker_id, mean_latency=mean, latency_std=std, accuracy=accuracy
    )


def latency_stream(worker_id, count):
    """The raw standard-normal stream a worker's latency block consumes."""
    return np.random.default_rng([SEED, worker_id, 0]).standard_normal(count)


class TestScalarVsBlockParity:
    """Satellite pin: block draws == scalar draws, draw for draw."""

    def test_normal_is_affine_standard_normal(self):
        """``rng.normal(mu, sigma)`` consumes exactly one standard normal:
        the affine identity WorkerDrawBlock's scaling relies on."""
        scalar = np.random.default_rng(SEED)
        affine = np.random.default_rng(SEED)
        for _ in range(200):
            expected = 12.0 + 4.0 * affine.standard_normal()
            assert scalar.normal(12.0, 4.0) == expected

    def test_vectorized_fill_matches_scalar_sequence(self):
        """``standard_normal(size=n)`` == n scalar draws on today's numpy —
        the empirical parity ``WorkerProfile.draw_latency``'s two paths and
        every block refill lean on (not a numpy API guarantee)."""
        vector = np.random.default_rng(SEED).standard_normal(257)
        scalar_rng = np.random.default_rng(SEED)
        scalars = np.array([scalar_rng.standard_normal() for _ in range(257)])
        np.testing.assert_array_equal(vector, scalars)

    def test_block_latency_matches_direct_stream(self):
        """n block draws == the same worker stream scaled by hand."""
        prof = profile()
        block = WorkerDrawBlock(prof, seed=SEED, block_size=5)
        draws = [block.draw_latency() for _ in range(23)]
        raw = latency_stream(prof.worker_id, 23)
        expected = [
            max(float(prof.mean_latency + prof.latency_std * value),
                MIN_TASK_LATENCY_SECONDS)
            for value in raw
        ]
        assert draws == expected

    def test_profile_and_block_agree_given_same_stream(self):
        """WorkerProfile.draw_latency fed the worker's stream generator
        produces the block's exact draws: the block changed *where* the
        randomness comes from, not *what* is done with it."""
        prof = profile()
        block = WorkerDrawBlock(prof, seed=SEED, block_size=DEFAULT_DRAW_BLOCK_SIZE)
        stream_rng = np.random.default_rng([SEED, prof.worker_id, 0])
        for _ in range(50):
            assert block.draw_latency() == prof.draw_latency(stream_rng)

    def test_multi_record_matches_profile_given_same_stream(self):
        prof = profile()
        block = WorkerDrawBlock(prof, seed=SEED, block_size=7)
        stream_rng = np.random.default_rng([SEED, prof.worker_id, 0])
        for num_records in (5, 1, 12, 3):
            assert block.draw_latency(num_records) == prof.draw_latency(
                stream_rng, num_records=num_records
            )

    def test_labels_match_profile_given_same_streams(self):
        """draw_labels == the accuracy rule applied draw by draw, with the
        uniform and wrong-label draws split onto the block's two streams."""
        prof = profile(accuracy=0.6)
        block = WorkerDrawBlock(prof, seed=SEED, block_size=4)
        label_rng = np.random.default_rng([SEED, prof.worker_id, 1])
        wrong_rng = np.random.default_rng([SEED, prof.worker_id, 2])
        true_labels = [0, 1, 2, 3, 0, 1, 2, 3, 1, 2] * 5
        expected = []
        for true_label in true_labels:
            if label_rng.random() < prof.accuracy:
                expected.append(true_label)
            else:
                expected.append(_draw_wrong_label(wrong_rng, true_label, 4))
        got = []
        for chunk_start in range(0, len(true_labels), 7):
            got.extend(
                block.draw_labels(true_labels[chunk_start:chunk_start + 7], 4)
            )
        assert got == expected


class TestStdlibArrayBlocks:
    """Blocks hold each refill as a stdlib ``array("d")``, which indexes to
    Python floats, and make each generator on its stream's first draw;
    neither may change a value."""

    #: Takes that cross refill boundaries at every block size below.
    TAKES = (1, 2, 5, 1, 64, 3, 1, 70, 1)

    @pytest.mark.parametrize("block_size", [1, 3, 64])
    def test_normals_are_the_generators_values(self, block_size):
        prof = profile()
        window = WorkerDrawBlock(prof, seed=SEED, block_size=block_size)
        taken = np.concatenate([window._take_normals(n) for n in self.TAKES])
        np.testing.assert_array_equal(
            taken, latency_stream(prof.worker_id, sum(self.TAKES))
        )

        block = WorkerDrawBlock(prof, seed=SEED, block_size=block_size)
        raw = latency_stream(prof.worker_id, sum(self.TAKES))
        position = 0
        for num_records in self.TAKES:
            values = raw[position:position + num_records]
            position += num_records
            if num_records == 1:
                expected = max(
                    float(prof.mean_latency + prof.latency_std * values[0]),
                    MIN_TASK_LATENCY_SECONDS,
                )
            else:
                scaled = prof.mean_latency + prof.latency_std * values
                expected = float(np.maximum(scaled, MIN_TASK_LATENCY_SECONDS).sum())
            draw = block.draw_latency(num_records)
            assert type(draw) is float
            assert draw == expected

    @pytest.mark.parametrize("block_size", [1, 3, 64])
    @pytest.mark.parametrize("accuracy", [0.1, 0.5, 0.9])
    def test_uniforms_are_the_generators_values(self, block_size, accuracy):
        """Each label follows ``Generator.random``'s value against the
        accuracy, draw for draw, across refills."""
        prof = profile(accuracy=accuracy)
        block = WorkerDrawBlock(prof, seed=SEED, block_size=block_size)
        uniforms = np.random.default_rng([SEED, prof.worker_id, 1])
        wrong = np.random.default_rng([SEED, prof.worker_id, 2])
        for count in self.TAKES:
            true_labels = [index % 3 for index in range(count)]
            expected = [
                label if uniforms.random() < accuracy
                else _draw_wrong_label(wrong, label, 3)
                for label in true_labels
            ]
            assert block.draw_labels(true_labels, 3) == expected

    def test_lazy_wrong_label_generator_matches_an_eager_one(self):
        """Worker 5's first fifteen uniforms are all below 0.8, so its
        wrong-label generator is made on the sixteenth draw; its wrong
        labels are the ones a generator made up front gives."""
        prof = profile(worker_id=5, accuracy=0.8)
        block = WorkerDrawBlock(prof, seed=SEED, block_size=4)
        eager = np.random.default_rng([SEED, prof.worker_id, 2])
        uniforms = np.random.default_rng([SEED, prof.worker_id, 1]).random(40)
        misses = 0
        for index, uniform in enumerate(uniforms):
            if misses == 0:
                assert block._wrong_rng is None
            label = block.draw_labels([index % 4], 4)[0]
            if uniform < prof.accuracy:
                assert label == index % 4
                continue
            misses += 1
            assert label == _draw_wrong_label(eager, index % 4, 4)
        assert misses > 1
        assert uniforms[:15].max() < prof.accuracy <= uniforms[15]


class TestBlockSizeInvariance:
    """Block size is a prefetch knob: streams never depend on it."""

    @pytest.mark.parametrize("block_size", [1, 2, 3, 64, 1024])
    def test_latency_stream_invariant(self, block_size):
        prof = profile()
        reference = WorkerDrawBlock(prof, seed=SEED, block_size=17)
        other = WorkerDrawBlock(prof, seed=SEED, block_size=block_size)
        for _ in range(40):
            assert other.draw_latency() == reference.draw_latency()

    @pytest.mark.parametrize("block_size", [1, 3, 1024])
    def test_mixed_take_sizes_invariant(self, block_size):
        """Interleaved scalar and multi-record takes (sizes that never
        align with the block) still walk the same stream."""
        prof = profile()
        reference = WorkerDrawBlock(prof, seed=SEED, block_size=5)
        other = WorkerDrawBlock(prof, seed=SEED, block_size=block_size)
        for num_records in (1, 4, 1, 9, 2, 1, 13, 1):
            assert other.draw_latency(num_records) == reference.draw_latency(
                num_records
            )

    def test_take_spanning_multiple_refills(self):
        """A single take larger than several whole blocks drains and
        refills mid-call without skipping or repeating a value."""
        prof = profile()
        block = WorkerDrawBlock(prof, seed=SEED, block_size=3)
        first = block.draw_latency(10)
        tail = [block.draw_latency() for _ in range(4)]
        raw = latency_stream(prof.worker_id, 14)
        scaled = np.maximum(
            prof.mean_latency + prof.latency_std * raw, MIN_TASK_LATENCY_SECONDS
        )
        assert first == float(scaled[:10].sum())
        assert tail == [float(value) for value in scaled[10:]]

    def test_label_stream_invariant(self):
        prof = profile(accuracy=0.55)
        reference = WorkerDrawBlock(prof, seed=SEED, block_size=2)
        other = WorkerDrawBlock(prof, seed=SEED, block_size=256)
        labels = [1, 0] * 30
        assert other.draw_labels(labels, 3) == reference.draw_labels(labels, 3)


class TestStreamIndependence:
    def test_workers_do_not_share_streams(self):
        fast = WorkerDrawBlock(profile(worker_id=1), seed=SEED, block_size=8)
        slow = WorkerDrawBlock(profile(worker_id=2), seed=SEED, block_size=8)
        assert [fast.draw_latency() for _ in range(8)] != [
            slow.draw_latency() for _ in range(8)
        ]

    def test_interleaving_does_not_shift_streams(self):
        """Worker A's draws are the same whether or not worker B draws in
        between — the property the shared platform generator never had."""
        solo = WorkerDrawBlock(profile(worker_id=1), seed=SEED, block_size=8)
        expected = [solo.draw_latency() for _ in range(10)]
        interleaved_a = WorkerDrawBlock(profile(worker_id=1), seed=SEED, block_size=8)
        interleaved_b = WorkerDrawBlock(profile(worker_id=2), seed=SEED, block_size=8)
        got = []
        for _ in range(10):
            got.append(interleaved_a.draw_latency())
            interleaved_b.draw_latency(3)
            interleaved_b.draw_labels([0, 1], 2)
        assert got == expected

    def test_label_draws_do_not_shift_latency_stream(self):
        plain = WorkerDrawBlock(profile(), seed=SEED, block_size=8)
        expected = [plain.draw_latency() for _ in range(6)]
        mixed = WorkerDrawBlock(profile(), seed=SEED, block_size=8)
        got = []
        for _ in range(6):
            mixed.draw_labels([0, 1, 1], 2)
            got.append(mixed.draw_latency())
        assert got == expected


class TestValidationAndFloor:
    def test_block_size_must_be_positive(self):
        with pytest.raises(ValueError, match="block_size"):
            WorkerDrawBlock(profile(), seed=SEED, block_size=0)

    def test_num_records_must_be_positive(self):
        block = WorkerDrawBlock(profile(), seed=SEED)
        with pytest.raises(ValueError, match="num_records"):
            block.draw_latency(0)

    def test_num_classes_must_be_at_least_two(self):
        block = WorkerDrawBlock(profile(), seed=SEED)
        with pytest.raises(ValueError, match="num_classes"):
            block.draw_labels([0], 1)

    def test_truncation_floor_applies(self):
        """A near-zero-mean worker's draws clamp at the floor, exactly as
        the profile's own draw method clamps them."""
        prof = profile(mean=1.01, std=5.0)
        block = WorkerDrawBlock(prof, seed=SEED, block_size=16)
        draws = [block.draw_latency() for _ in range(64)]
        assert min(draws) == MIN_TASK_LATENCY_SECONDS
        assert all(draw >= MIN_TASK_LATENCY_SECONDS for draw in draws)

    def test_draws_are_plain_floats(self):
        """Durations land in JSON artifacts; numpy scalars must not leak."""
        block = WorkerDrawBlock(profile(), seed=SEED)
        assert type(block.draw_latency()) is float
        assert type(block.draw_latency(4)) is float
        assert all(type(label) is int for label in block.draw_labels([0, 1], 2))
