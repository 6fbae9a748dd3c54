"""Seed keys for the simulated workers' draw streams, a whole seating at once.

Each seated worker draws from three generators, seeded like
``np.random.default_rng([seed, worker_id, stream])`` (see
:class:`~repro.crowd.worker.WorkerDrawBlock`).  Most of ``default_rng``'s cost
is NumPy's ``SeedSequence`` hashing, one sequence at a time.  This module
hashes every stream of a seating in one vectorised pass and hands each
``PCG64`` its words through NumPy's :class:`ISeedSequence` interface, which
bit generators accept from any object that implements it.  The generators
are the ones ``default_rng`` makes, state for state.

It is a module of its own because it loads ``numpy.random``, which importing
``repro`` does not need; the platform imports it when it seats a pool.
"""

from __future__ import annotations

import functools
import operator
from typing import Any, Optional, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

#: A worker's latency, label and wrong-label streams.
_NUM_STREAMS = 3

# NumPy's ``SeedSequence`` (O'Neill's ``seed_seq_fe``, as NumPy implements it
# in ``numpy/random/bit_generator.pyx``) hashes its entropy words into a pool
# of four 32-bit words, then hashes the pool out into the bit generator's
# state.  Each hash multiplies by a constant that advances by a fixed factor
# per use, so the constants depend only on how many hashes came before,
# never on the data, and a whole seating's keys hash as columns of one array.
# The names are NumPy's.

_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_XSHIFT = 16
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """``init * mult**k`` modulo 2**32, for ``k < count``."""
    constants = [init]
    for _ in range(count - 1):
        constants.append(constants[-1] * mult & _MASK32)
    values = np.array(constants, dtype=np.uint32)
    values.flags.writeable = False
    return values


#: The constants of ``generate_state``: one per uint32 state word, and one
#: more.
_STATE_CONSTANTS = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE + 1)


@functools.lru_cache(maxsize=None)
def _entropy_constants(num_words: int) -> np.ndarray:
    """The constants ``mix_entropy`` uses on ``num_words`` entropy words.

    It hashes the first four entropy words (zeros past the last) into the
    pool, then each pool word into every other, then each entropy word past
    the fourth into every pool word.  Each hash takes one constant and the
    next, so ``n`` hashes use ``n + 1``.
    """
    hashes = _POOL_SIZE * _POOL_SIZE + _POOL_SIZE * max(0, num_words - _POOL_SIZE)
    return _hash_constants(_INIT_A, _MULT_A, hashes + 1)


def _hash(value: np.ndarray, constants: np.ndarray) -> np.ndarray:
    """``hashmix`` of each row of ``value`` with the next of ``constants``
    (a column): each hash takes one constant and the one after it."""
    value = (value ^ constants[:-1]) * constants[1:]
    return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def _pcg64_seed_words(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(column).generate_state(4, np.uint64)`` per column.

    ``entropy`` is an ``(L, m)`` uint32 array, one column of assembled
    entropy words per sequence; the result is ``(m, 4)`` uint64.  Every
    operation is uint32 array arithmetic, which wraps modulo 2**32 as the C
    code's does.  The pool is four rows, and each step hashes one of them
    into the other three at once: NumPy's loop over those three reads the
    one row, which none of them changes.
    """
    num_words = len(entropy)
    constants = _entropy_constants(num_words)[:, None]
    pool = np.zeros((_POOL_SIZE, entropy.shape[1]), dtype=np.uint32)
    used = min(num_words, _POOL_SIZE)
    pool[:used] = entropy[:used]
    pool = _hash(pool, constants[: _POOL_SIZE + 1])
    position = _POOL_SIZE
    for source in range(_POOL_SIZE):
        targets = [target for target in range(_POOL_SIZE) if target != source]
        hashed = _hash(pool[source], constants[position : position + _POOL_SIZE])
        pool[targets] = _mix(pool[targets], hashed)
        position += _POOL_SIZE - 1
    for source in range(_POOL_SIZE, num_words):
        hashed = _hash(entropy[source], constants[position : position + _POOL_SIZE + 1])
        pool = _mix(pool, hashed)
        position += _POOL_SIZE
    # Two passes over the pool make eight uint32 state words; each uint64
    # word is a pair of them, low word first.
    state = _hash(np.concatenate([pool, pool]), _STATE_CONSTANTS[:, None])
    state = state.astype(np.uint64)
    return (state[0::2] | state[1::2] << np.uint64(32)).T


def _entropy_words(value: int) -> list[int]:
    """``value`` as ``SeedSequence`` reads an int: little-endian 32-bit
    words, and one word for 0."""
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def worker_stream_keys(seed: int, worker_ids: Sequence[int]) -> np.ndarray:
    """The PCG64 seed words of each worker's three draw streams.

    Returns an ``(n, 3, 4)`` uint64 array whose ``[row, stream]`` entry is
    ``np.random.SeedSequence([seed, worker_ids[row],
    stream]).generate_state(4, np.uint64)``: the state that
    ``np.random.default_rng([seed, worker_id, stream])`` seeds its PCG64
    with.  One pass hashes every worker, and a generator seeded from these
    words is the one ``default_rng`` makes, without a ``SeedSequence``.  A
    negative seed or id raises ``ValueError``, as ``default_rng`` does.
    """
    prefix = _entropy_words(operator.index(seed))
    ids = [operator.index(worker_id) for worker_id in worker_ids]
    keys = np.empty((len(ids), _NUM_STREAMS, 4), dtype=np.uint64)
    if not ids:
        return keys
    if min(ids) < 0:
        raise ValueError("expected non-negative integer")
    # An id takes as many words as it needs, so ids of different widths make
    # entropy of different lengths: pad every id to the widest, then hash
    # the rows of each width with their own words.
    widths = np.array([(worker_id.bit_length() + 31) // 32 or 1 for worker_id in ids])
    widest = int(widths.max())
    limbs = np.frombuffer(
        b"".join([worker_id.to_bytes(4 * widest, "little") for worker_id in ids]),
        dtype="<u4",
    ).reshape(len(ids), widest)
    for width in range(1, widest + 1):
        rows = np.flatnonzero(widths == width)
        if not len(rows):
            continue
        # One column per (worker, stream): the seed's words, the id's, the
        # stream's.
        entropy = np.empty(
            (len(prefix) + width + 1, len(rows), _NUM_STREAMS), dtype=np.uint32
        )
        entropy[: len(prefix)] = np.array(prefix, dtype=np.uint32)[:, None, None]
        entropy[len(prefix) : -1] = limbs[rows, :width].T[:, :, None]
        entropy[-1] = np.arange(_NUM_STREAMS)
        keys[rows] = _pcg64_seed_words(
            entropy.reshape(len(entropy), -1)
        ).reshape(len(rows), _NUM_STREAMS, 4)
    return keys


class _StreamKey(ISeedSequence):
    """A seed sequence whose state words were computed ahead of time.

    NumPy's bit generators accept any :class:`ISeedSequence`; ``PCG64``
    asks it for four uint64 words, which this one holds.
    """

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words: int, dtype: Any = np.uint32) -> np.ndarray:
        if n_words > len(self.words) or np.dtype(dtype) != np.uint64:
            raise ValueError(f"the key holds {len(self.words)} uint64 words")
        return self.words[:n_words]


class SeatingKeys:
    """The stream keys of workers seated together.

    One :func:`worker_stream_keys` pass hashes them all, on the first draw
    any of the seated workers makes, so seating itself hashes nothing.
    """

    __slots__ = ("seed", "worker_ids", "_keys", "_rows")

    def __init__(self, seed: int, worker_ids: Sequence[int]) -> None:
        self.seed = seed
        self.worker_ids = list(worker_ids)
        self._keys: Optional[np.ndarray] = None
        self._rows: dict[int, int] = {}

    def generator(self, worker_id: int, stream: int) -> np.random.Generator:
        """A fresh generator for ``worker_id``'s ``stream``: the one
        ``np.random.default_rng([seed, worker_id, stream])`` makes."""
        keys = self._keys
        if keys is None:
            keys = self._keys = worker_stream_keys(self.seed, self.worker_ids)
            self._rows = {seated: row for row, seated in enumerate(self.worker_ids)}
        words = keys[self._rows[worker_id], stream]
        return np.random.Generator(np.random.PCG64(_StreamKey(words)))
