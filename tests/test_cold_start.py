"""Cold start: importing ``repro`` loads no SciPy; the first fit does, and
pool maintenance's t-test never does.

Each check runs in a fresh interpreter, because the test process itself has
long since imported SciPy through other tests.
"""

import multiprocessing
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.api import engine

SRC = Path(__file__).resolve().parent.parent / "src"


def run_fresh(code: str) -> str:
    completed = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env={"PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


def test_importing_repro_loads_no_scipy():
    out = run_fresh(
        """
        import sys
        import repro, repro.service, repro.cli
        print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
        """
    )
    assert out.strip() == "[]"


def test_importing_repro_loads_no_numpy_random():
    """Seating's key hashing (``repro.crowd.seeding``) loads ``numpy.random``
    when a pool is seated, not when ``repro`` is imported."""
    out = run_fresh(
        """
        import sys
        import repro, repro.service, repro.cli
        print("numpy.random" in sys.modules, "repro.crowd.seeding" in sys.modules)
        """
    )
    assert out.strip() == "False False"


def test_fit_and_maintainer_t_test_load_scipy_on_first_use():
    """The first fit loads ``scipy.optimize``; the maintainer's t-test runs
    on NumPy and loads no SciPy at all."""
    out = run_fresh(
        """
        import sys
        import numpy as np
        from repro.core.maintainer import MaintenancePolicy, PoolMaintainer
        from repro.crowd.worker import WorkerObservations
        from repro.learning.models import LogisticRegressionModel

        def loaded():
            return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

        obs = WorkerObservations(worker_id=0)
        for latency in (30.0, 35.0, 40.0, 32.0):
            obs.record_completion(latency)
        print(PoolMaintainer(MaintenancePolicy(threshold=8.0)).is_slow(obs))
        print(loaded())
        X = np.array([[-2.0], [-1.0], [1.0], [2.0]])
        model = LogisticRegressionModel().fit(X, np.array([0, 0, 1, 1]))
        print(model.predict(X).tolist())
        print("scipy.optimize" in sys.modules, "scipy.stats" in sys.modules)
        """
    )
    assert out.split("\n")[:4] == ["True", "[]", "[0, 0, 1, 1]", "True False"]


def test_maintained_learning_free_job_loads_no_scipy():
    """A job shaped like perfbench's ``service_mix`` documents (full
    CLAMShell, learning off, a mixed-speed pool) runs worker t-tests and ends
    with no SciPy module loaded."""
    out = run_fresh(
        """
        import sys
        from repro import Engine, JobSpec, LearningStrategy, full_clamshell
        from repro.core import maintainer
        from repro.experiments.common import make_labeling_workload, mixed_speed_population

        t_tests = []
        t_test = maintainer.one_sided_t_test

        def counted(values, threshold):
            t_tests.append(len(values))
            return t_test(values, threshold)

        maintainer.one_sided_t_test = counted
        seed = 19
        spec = JobSpec(
            dataset=make_labeling_workload(num_records=40, seed=seed),
            config=full_clamshell(
                pool_size=6, seed=seed, learning_strategy=LearningStrategy.NONE
            ),
            population=mixed_speed_population(seed=seed),
            num_records=40,
        )
        with Engine() as engine:
            result = engine.run(spec)
        print(len(result.labels), len(result.replacements) > 0, len(t_tests) > 0)
        print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
        """
    )
    assert out.split("\n")[:2] == ["40 True True", "[]"]


@pytest.mark.skipif(
    "forkserver" not in multiprocessing.get_all_start_methods(),
    reason="no fork server on this platform",
)
def test_fork_server_preloads_scipy(monkeypatch):
    preloaded: list[list[str]] = []
    monkeypatch.setattr(engine, "_MP_CONTEXT", None)
    monkeypatch.setattr(
        multiprocessing.context.ForkServerContext,
        "set_forkserver_preload",
        lambda self, names: preloaded.append(list(names)),
    )
    engine._process_context()
    assert len(preloaded) == 1
    assert {"repro.api.engine", "scipy.optimize"} <= set(preloaded[0])
    assert "scipy.stats" not in preloaded[0]
