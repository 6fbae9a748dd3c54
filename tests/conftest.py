"""Shared fixtures and marker registration for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.crowd.platform import SimulatedCrowdPlatform
from repro.crowd.worker import PopulationParameters, WorkerPopulation, WorkerProfile
from repro.learning.datasets import make_classification


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "equivalence: oracle-vs-fast-path RNG-stream equivalence sweep "
        "(run standalone with `pytest -m equivalence`)",
    )
    # A test whose helper thread crashed has failed, whatever it asserted.
    config.addinivalue_line(
        "filterwarnings", "error::pytest.PytestUnhandledThreadExceptionWarning"
    )


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def fast_worker():
    return WorkerProfile(worker_id=0, mean_latency=3.0, latency_std=0.5, accuracy=0.95)


@pytest.fixture
def slow_worker():
    return WorkerProfile(worker_id=1, mean_latency=60.0, latency_std=20.0, accuracy=0.9)


@pytest.fixture
def small_population_factory():
    """Builds the deterministic mixed-speed population, fresh per call.

    Populations are stateful (sampling advances their RNG and id counter),
    so replay-style tests that run the same scenario twice need a fresh
    instance per run instead of sharing one fixture object.
    """

    def build() -> WorkerPopulation:
        profiles = []
        for index in range(20):
            mean = 4.0 + (index % 5) * 6.0  # 4, 10, 16, 22, 28 seconds
            profiles.append(
                WorkerProfile(
                    worker_id=index,
                    mean_latency=mean,
                    latency_std=1.0 + 0.2 * mean,
                    accuracy=0.92,
                )
            )
        return WorkerPopulation(profiles=profiles, seed=0)

    return build


@pytest.fixture
def small_population(small_population_factory):
    """A deterministic explicit population of mixed-speed workers."""
    return small_population_factory()


@pytest.fixture
def parametric_population():
    return WorkerPopulation(
        parameters=PopulationParameters(
            log_mean_latency=np.log(8.0), log_std_latency=0.6
        ),
        seed=1,
    )


@pytest.fixture
def platform(small_population):
    """A platform with a 5-worker pool already seated."""
    platform = SimulatedCrowdPlatform(population=small_population, seed=0)
    platform.initialize_pool(5)
    return platform


@pytest.fixture
def tiny_dataset():
    """A small, easy binary classification dataset."""
    return make_classification(
        n_samples=300,
        n_features=8,
        n_informative=4,
        n_redundant=2,
        class_sep=2.0,
        flip_y=0.0,
        seed=0,
    )
