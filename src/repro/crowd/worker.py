"""Worker models for the simulated crowd.

The paper's simulator (§6.1) characterises each crowd worker by three latent
parameters measured from MTurk traces: a mean labeling latency ``mu``, a
latency variance ``sigma**2``, and a mean accuracy ``lam``.  A worker's
latency on an assignment is drawn i.i.d. from ``N(mu, sigma**2)`` (truncated
below at a small positive floor), and the produced label is correct with
probability ``lam``.

This module provides :class:`WorkerProfile` (the latent parameters),
:class:`WorkerDrawBlock` (one seated worker's latency and label draws) and
:class:`WorkerPopulation` (the global distribution ``W`` from which retainer
pools and replacement workers are sampled, as in the pool maintenance
convergence model of §4.2).  A population is an immutable value; the stream
of workers drawn from it belongs to each run's
:class:`~repro.crowd.recruitment.Recruiter`.
"""

from __future__ import annotations

import itertools
from array import array
from dataclasses import dataclass, field, replace
from typing import Iterator, Optional, Sequence

import numpy as np

#: Minimum latency (seconds) a simulated worker can take on any assignment.
#: Live workers need a few seconds just to read a task and click, so the
#: truncation floor prevents the normal draw from producing nonsense.
MIN_TASK_LATENCY_SECONDS = 1.0

#: Minimum accuracy we allow a simulated worker to have.  Below 0.5 a binary
#: labeler is actively adversarial, which the paper's deployments screen out
#: with a qualification requirement (85% approval).
MIN_WORKER_ACCURACY = 0.5


@dataclass(frozen=True)
class WorkerProfile:
    """Latent parameters of a single simulated crowd worker.

    Attributes
    ----------
    worker_id:
        Unique identifier within a population.
    mean_latency:
        Mean per-assignment latency ``mu_i`` in seconds.
    latency_std:
        Standard deviation ``sigma_i`` of per-assignment latency in seconds.
    accuracy:
        Probability ``lambda_i`` that a produced label is correct.
    """

    worker_id: int
    mean_latency: float
    latency_std: float
    accuracy: float

    def __post_init__(self) -> None:
        if self.mean_latency <= 0:
            raise ValueError(f"mean_latency must be positive, got {self.mean_latency}")
        if self.latency_std < 0:
            raise ValueError(f"latency_std must be non-negative, got {self.latency_std}")
        if not 0.0 <= self.accuracy <= 1.0:
            raise ValueError(f"accuracy must be in [0, 1], got {self.accuracy}")

    def draw_latency(self, rng: np.random.Generator, num_records: int = 1) -> float:
        """Sample the latency (seconds) for one assignment of this worker.

        ``num_records`` models task complexity ``Ng``: a HIT that groups
        several records takes proportionally longer, with per-record noise.

        The single-record case (the dominant one: Ng=1 is the paper's
        "simple" complexity and the default) avoids array allocation with a
        scalar draw; multi-record tasks use one vectorized call.  With
        numpy's current ziggurat sampler a ``size=n`` fill consumes the bit
        stream exactly like ``n`` scalar draws, so the two paths happen to
        agree draw for draw — but the sampler is rejection-based and numpy
        documents no such contract, so this is an implementation detail,
        not a guarantee.  The simulated platform therefore routes every
        latency/label draw through :class:`WorkerDrawBlock` (one sequential
        per-worker stream, so block and scalar consumption are identical by
        construction), and ``tests/test_draw_blocks.py`` pins the empirical
        scalar-vs-vectorized parity this method's fast path still leans on.
        """
        if num_records < 1:
            raise ValueError(f"num_records must be >= 1, got {num_records}")
        if num_records == 1:
            draw = float(rng.normal(self.mean_latency, self.latency_std))
            return draw if draw > MIN_TASK_LATENCY_SECONDS else MIN_TASK_LATENCY_SECONDS
        draws = rng.normal(self.mean_latency, self.latency_std, size=num_records)
        np.maximum(draws, MIN_TASK_LATENCY_SECONDS, out=draws)
        return float(draws.sum())

    def with_id(self, worker_id: int) -> "WorkerProfile":
        """Return a copy of this profile under a different id."""
        return replace(self, worker_id=worker_id)


def _draw_wrong_label(
    rng: np.random.Generator, true_label: int, num_classes: int
) -> int:
    """Uniform draw over the labels != ``true_label``.

    Index arithmetic replaces ``rng.choice`` over a materialised list;
    ``Generator.choice`` resolves a no-``p`` draw to one ``integers`` call,
    so the stream consumption is identical.
    """
    if 0 <= true_label < num_classes:
        offset = int(rng.integers(num_classes - 1))
        return offset if offset < true_label else offset + 1
    # True label outside the class range: every class is "wrong", which is
    # what the original choice() over the filtered list produced.
    return int(rng.integers(num_classes))


#: Default number of values pre-drawn per RNG-block refill.  Big enough to
#: amortise the per-call numpy dispatch overhead across a typical worker's
#: assignment count, small enough that a 100k-worker pool stays cheap.
DEFAULT_DRAW_BLOCK_SIZE = 64

#: Stream discriminators mixed into each worker's block seeds.  Latency
#: normals, label uniforms, and wrong-label integers are three independent
#: streams so a draw on one never shifts the others.
_LATENCY_STREAM = 0
_LABEL_STREAM = 1
_WRONG_LABEL_STREAM = 2


#: Shared zero-length block: every fresh :class:`WorkerDrawBlock` starts
#: exhausted and fills on first draw.  Blocks are only ever sliced, never
#: changed in place.
_EMPTY_BLOCK = array("d")


def _worker_stream(seed: int, worker_id: int, stream: int) -> np.random.Generator:
    """A fresh generator for one of a worker's three draw streams."""
    return np.random.default_rng([seed, worker_id, stream])


def _as_block(values: np.ndarray) -> "array[float]":
    """The same doubles in a stdlib array, which indexes to Python floats."""
    return array("d", values.tobytes())


class WorkerDrawBlock:
    """Pre-drawn RNG blocks for one seated worker: the single source of draws.

    Instead of paying one ``Generator.normal``/``Generator.random`` call per
    assignment, the platform pre-draws each worker's randomness in vectorized
    chunks and consumes it sequentially.  Three independent generators are
    seeded ``[seed, worker_id, stream]``:

    * latency standard normals (``draw_latency`` scales by ``mu``/``sigma``);
    * label-accuracy uniforms (``draw_labels`` compares against ``lambda``);
    * wrong-label integers (the rare miss path, drawn scalar on demand).

    Because each stream belongs to one worker and is consumed strictly in
    order, the values a worker sees depend only on ``(seed, worker_id,
    draw index)`` — never on the block size, on how draws batch into refills,
    or on how other workers' events interleave.  That is what makes fast
    and reference dispatch bit-identical by construction: both consume the
    same blocks in the same order.  The block-boundary and scalar-vs-vectorized parity pins live in
    ``tests/test_draw_blocks.py`` and ``tests/test_state_equivalence.py``.

    Each generator is made on its stream's first draw (its seed is a pure
    function of the key, so when it is made cannot change a value), and each
    refilled block is kept as a stdlib ``array("d")`` of the same doubles:
    indexing it gives a Python float, so a draw is plain float arithmetic
    instead of NumPy-scalar arithmetic, while the block stays eight bytes a
    value (a list of floats would take four times the memory).  Both are
    IEEE double operations on the same values, so the results are the same
    bits.

    A block must never be shared between two distinct workers: the stream is
    keyed by ``worker_id``, and a population's worker stream hands out fresh
    ids even when the same trace profile is re-recruited.
    """

    __slots__ = (
        "profile",
        "_seed",
        "_block_size",
        "_latency_rng",
        "_latency_block",
        "_latency_pos",
        "_label_rng",
        "_label_block",
        "_label_pos",
        "_wrong_rng",
    )

    def __init__(
        self,
        profile: WorkerProfile,
        seed: int,
        block_size: int = DEFAULT_DRAW_BLOCK_SIZE,
    ) -> None:
        if block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        self.profile = profile
        self._seed = seed
        self._block_size = int(block_size)
        # Generators and blocks are made on first use, so seating a worker
        # who never draws (reserve churn, tail-of-run recruits) or never
        # misses a label costs no generator and no vector fill.
        self._latency_rng: Optional[np.random.Generator] = None
        self._label_rng: Optional[np.random.Generator] = None
        self._wrong_rng: Optional[np.random.Generator] = None
        self._latency_block = _EMPTY_BLOCK
        self._latency_pos = 0
        self._label_block = _EMPTY_BLOCK
        self._label_pos = 0

    def _next_normals(self) -> "array[float]":
        """The next whole block of the latency stream."""
        rng = self._latency_rng
        if rng is None:
            rng = self._latency_rng = _worker_stream(
                self._seed, self.profile.worker_id, _LATENCY_STREAM
            )
        return _as_block(rng.standard_normal(self._block_size))

    def _take_normals(self, count: int) -> np.ndarray:
        """The next ``count`` standard normals, refilling across boundaries.

        Consumption is strictly sequential: a request that straddles a block
        boundary drains the current block, pulls whole blocks as needed, and
        leaves the final partial block positioned mid-way — so the returned
        values are exactly the ones ``count`` scalar draws would have seen.
        """
        block = self._latency_block
        position = self._latency_pos
        end = position + count
        if end <= len(block):
            self._latency_pos = end
            return np.array(block[position:end])
        values = block[position:]
        needed = count - len(values)
        while needed > self._block_size:
            values += self._next_normals()
            needed -= self._block_size
        block = self._latency_block = self._next_normals()
        self._latency_pos = needed
        values += block[:needed]
        return np.array(values)

    def draw_latency(self, num_records: int = 1) -> float:
        """Block-fed equivalent of :meth:`WorkerProfile.draw_latency`.

        Same distribution, same truncation floor, same multi-record sum —
        but the normals come from this worker's pre-drawn block instead of a
        shared per-platform generator.  The multi-record sum runs over an
        array, so it stays NumPy's pairwise sum.
        """
        if num_records < 1:
            raise ValueError(f"num_records must be >= 1, got {num_records}")
        profile = self.profile
        if num_records == 1:
            block = self._latency_block
            position = self._latency_pos
            if position >= len(block):
                block = self._latency_block = self._next_normals()
                position = 0
            self._latency_pos = position + 1
            draw = profile.mean_latency + profile.latency_std * block[position]
            return draw if draw > MIN_TASK_LATENCY_SECONDS else MIN_TASK_LATENCY_SECONDS
        draws = profile.mean_latency + profile.latency_std * self._take_normals(
            num_records
        )
        np.maximum(draws, MIN_TASK_LATENCY_SECONDS, out=draws)
        return float(draws.sum())

    def draw_labels(
        self, true_labels: Sequence[int], num_classes: int = 2
    ) -> list[int]:
        """Sample one label per record of a task (one completed assignment).

        Each label is the true label with probability ``accuracy`` (compared
        against this worker's pre-drawn uniforms), else a uniform draw over
        the wrong labels from the worker's wrong-label stream.
        """
        if num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {num_classes}")
        accuracy = self.profile.accuracy
        labels: list[int] = []
        block = self._label_block
        position = self._label_pos
        for true_label in true_labels:
            if position >= len(block):
                rng = self._label_rng
                if rng is None:
                    rng = self._label_rng = _worker_stream(
                        self._seed, self.profile.worker_id, _LABEL_STREAM
                    )
                block = self._label_block = _as_block(rng.random(self._block_size))
                position = 0
            uniform = block[position]
            position += 1
            true_label = int(true_label)
            if uniform < accuracy:
                labels.append(true_label)
            else:
                wrong_rng = self._wrong_rng
                if wrong_rng is None:
                    wrong_rng = self._wrong_rng = _worker_stream(
                        self._seed, self.profile.worker_id, _WRONG_LABEL_STREAM
                    )
                labels.append(_draw_wrong_label(wrong_rng, true_label, num_classes))
        self._label_pos = position
        return labels


@dataclass(frozen=True)
class PopulationParameters:
    """Parameters of the global worker-latency distribution ``W``.

    Mean worker latencies are drawn from a log-normal distribution, which
    matches the heavy-tailed spread observed in the medical deployment
    (Figure 2: per-worker means range from tens of seconds to hours).
    Per-worker latency standard deviations are drawn proportional to the mean
    with log-normal noise, and accuracies from a Beta distribution.
    """

    #: Log-space mean of per-worker mean latency.  exp(3.9) ~ 49 s/record.
    log_mean_latency: float = 3.9
    #: Log-space standard deviation of per-worker mean latency.
    log_std_latency: float = 0.85
    #: Multiplier relating a worker's latency std to their mean.
    relative_std: float = 0.45
    #: Log-space noise on the relative std.
    relative_std_noise: float = 0.35
    #: Beta distribution parameters for worker accuracy.
    accuracy_alpha: float = 18.0
    accuracy_beta: float = 2.0

    def __post_init__(self) -> None:
        if self.log_std_latency <= 0:
            raise ValueError("log_std_latency must be positive")
        if self.relative_std <= 0:
            raise ValueError("relative_std must be positive")
        if self.accuracy_alpha <= 0 or self.accuracy_beta <= 0:
            raise ValueError("accuracy Beta parameters must be positive")


@dataclass(frozen=True)
class WorkerPopulation:
    """The global distribution ``W`` of crowd workers.

    A population either wraps explicit profiles (e.g. fitted from a trace)
    or generates workers from :class:`PopulationParameters`.  Pool
    recruitment and pool-maintenance replacement both draw from it, matching
    the model in §4.2.  It is a value: it holds the distribution and its
    seed, never a sampling position.  Each draw of workers starts its own
    stream (:meth:`draw_workers`), so one population serves any number of
    runs, concurrent or not, and each seats the same workers.
    """

    #: Profiles explicitly known to this population (trace workers).
    profiles: tuple[WorkerProfile, ...] = ()
    #: The parametric distribution; the default one when neither it nor
    #: ``profiles`` is given.
    parameters: Optional[PopulationParameters] = None
    #: Seed of every worker stream drawn from this population.
    seed: int = 0
    #: Factory provenance — ``{"factory": <registered name>, "seed": ...}``
    #: — recorded by the registered factories so the population can be
    #: rebuilt elsewhere (the wire format serialises this recipe).  ``None``
    #: for hand-built populations.
    source: Optional[dict] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "profiles", tuple(self.profiles))
        if not self.profiles and self.parameters is None:
            object.__setattr__(self, "parameters", PopulationParameters())

    def draw_workers(self, rng: np.random.Generator) -> Iterator[WorkerProfile]:
        """An endless stream of workers drawn from ``rng``, with fresh ids.

        With explicit profiles each worker is one of them, chosen uniformly
        at random and renumbered, so the same trace worker can be
        "re-recruited" as a distinct pool member.  Otherwise each worker is
        synthesised from the population parameters.  Ids continue after the
        largest explicit one.
        """
        profiles = self.profiles
        first_id = max((p.worker_id for p in profiles), default=-1) + 1
        for worker_id in itertools.count(first_id):
            if profiles:
                yield profiles[int(rng.integers(len(profiles)))].with_id(worker_id)
            else:
                yield self._generate_profile(rng, worker_id)

    def mean_latency(self) -> float:
        """Population mean of per-worker mean latency (``Gamma`` in §4.2).

        For explicit populations this is the empirical mean; for parametric
        ones it is the log-normal analytic mean.
        """
        if self.profiles:
            return float(np.mean([p.mean_latency for p in self.profiles]))
        params = self.parameters
        assert params is not None
        return float(
            np.exp(params.log_mean_latency + 0.5 * params.log_std_latency**2)
        )

    def split_by_threshold(self, threshold: float) -> tuple[float, float, float]:
        """Split the population at ``threshold`` seconds of mean latency.

        Returns ``(q, mu_fast, mu_slow)`` where ``q`` is the probability mass
        of workers slower than the threshold, and ``mu_fast`` / ``mu_slow``
        are the conditional means below / above it.  These are the quantities
        in the pool-maintenance convergence model
        ``E[mu] = (1 - q**(n+1)) * mu_f + q**(n+1) * mu_s``.

        For parametric populations a large Monte-Carlo sample is used, drawn
        from its own stream seeded with the population's seed.
        """
        if threshold <= 0:
            raise ValueError(f"threshold must be positive, got {threshold}")
        if self.profiles:
            means = np.array([p.mean_latency for p in self.profiles])
        else:
            means = _sampled_mean_latencies(self, self.seed)
        slow = means > threshold
        q = float(slow.mean())
        mu_fast = float(means[~slow].mean()) if (~slow).any() else float(threshold)
        mu_slow = float(means[slow].mean()) if slow.any() else float(threshold)
        return q, mu_fast, mu_slow

    def _generate_profile(
        self, rng: np.random.Generator, worker_id: int
    ) -> WorkerProfile:
        params = self.parameters
        assert params is not None, "parametric generation requires parameters"
        mean_latency = float(
            rng.lognormal(params.log_mean_latency, params.log_std_latency)
        )
        rel = params.relative_std * float(
            rng.lognormal(0.0, params.relative_std_noise)
        )
        latency_std = max(0.5, mean_latency * rel)
        accuracy = float(
            np.clip(
                rng.beta(params.accuracy_alpha, params.accuracy_beta),
                MIN_WORKER_ACCURACY,
                1.0,
            )
        )
        return WorkerProfile(
            worker_id=worker_id,
            mean_latency=mean_latency,
            latency_std=latency_std,
            accuracy=accuracy,
        )


def _sampled_mean_latencies(population: WorkerPopulation, seed: int) -> np.ndarray:
    """Mean latencies of the first 20,000 workers of a stream drawn from
    ``population`` with a generator seeded ``seed``."""
    workers = population.draw_workers(np.random.default_rng(seed))
    return np.array([worker.mean_latency for worker in itertools.islice(workers, 20_000)])


def sample_mean(values: Sequence[float]) -> float:
    """Mean of a non-empty sample: the same float as ``float(np.mean(values))``.

    NumPy's mean is the pairwise ``np.add.reduce`` divided by the count, and
    so is this, without ``np.mean``'s dispatch on every call.  Pool
    maintenance takes a worker's mean after each completed assignment.
    """
    return float(np.add.reduce(values) / len(values))


@dataclass
class WorkerObservations:
    """Empirical observations about one pool worker, used by maintenance.

    Pool maintenance (§4.2) flags a worker for removal when the worker's
    *observed* mean latency is significantly above the threshold ``PM_ell``.
    Straggler mitigation censors observations (terminated assignments do not
    reveal their true latency), so completed and terminated counts are kept
    separately; TermEst (§4.3) uses them to correct the estimate.  Under
    quality control the record also tallies how often the worker's answers
    agreed with their tasks' consensus, the evidence agreement-maintained
    pools evict on.
    """

    worker_id: int
    completed_latencies: list[float] = field(default_factory=list)
    terminated_count: int = 0
    #: Mean latency of the workers whose completions caused this worker's
    #: assignments to terminate (the ``l_f`` quantity in TermEst).
    terminator_latencies: list[float] = field(default_factory=list)
    #: Answered records compared with their consensus, and how many agreed.
    votes_compared: int = 0
    votes_agreed: int = 0

    @property
    def completed_count(self) -> int:
        return len(self.completed_latencies)

    @property
    def started_count(self) -> int:
        return self.completed_count + self.terminated_count

    def record_completion(self, latency: float) -> None:
        if latency < 0:
            raise ValueError(f"latency must be non-negative, got {latency}")
        self.completed_latencies.append(float(latency))

    def record_termination(self, terminator_latency: Optional[float] = None) -> None:
        self.terminated_count += 1
        if terminator_latency is not None:
            self.terminator_latencies.append(float(terminator_latency))

    def record_vote(self, agreed: bool) -> None:
        self.votes_compared += 1
        if agreed:
            self.votes_agreed += 1

    def disagreement_rate(self) -> Optional[float]:
        """Share of compared answers that missed the consensus; ``None``
        below two comparisons."""
        if self.votes_compared < 2:
            return None
        return 1.0 - self.votes_agreed / self.votes_compared

    def empirical_mean_latency(self) -> Optional[float]:
        """Mean of completed-assignment latencies; ``None`` if no completions."""
        if not self.completed_latencies:
            return None
        return sample_mean(self.completed_latencies)

    def empirical_std_latency(self) -> Optional[float]:
        """Sample std of completed latencies; ``None`` below two observations.

        Delegates to :func:`repro.analysis.stats.empirical_std` so the
        <2-observations sentinel cannot drift from the zero-variance
        fallback inside ``one_sided_mean_test`` (they disagreed before the
        helper existed).
        """
        # Imported lazily: ``repro.analysis`` imports ``repro.crowd.traces``
        # at package load, so a module-level import here would be a cycle.
        from ..analysis.stats import empirical_std

        return empirical_std(self.completed_latencies)
