"""Cold start: importing ``repro`` loads no SciPy; the first fit or t-test does.

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


def test_fit_and_maintainer_t_test_load_scipy_on_first_use():
    out = run_fresh(
        """
        import sys
        import numpy as np
        from repro.core.maintainer import MaintenancePolicy, PoolMaintainer
        from repro.crowd.worker import WorkerObservations
        from repro.learning.models import LogisticRegressionModel

        def loaded():
            return "scipy.optimize" in sys.modules, "scipy.stats" in sys.modules

        print(loaded())
        X = np.array([[-2.0], [-1.0], [1.0], [2.0]])
        model = LogisticRegressionModel().fit(X, np.array([0, 0, 1, 1]))
        print(model.predict(X).tolist())
        print(loaded()[0])
        obs = WorkerObservations(worker_id=0)
        for latency in (30.0, 35.0, 40.0, 32.0):
            obs.record_completion(latency)
        print(PoolMaintainer(MaintenancePolicy(threshold=8.0)).is_slow(obs))
        print(loaded()[1])
        """
    )
    assert out.split("\n")[:5] == ["(False, False)", "[0, 0, 1, 1]", "True", "True", "True"]


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
    assert {"repro.api.engine", "scipy.optimize", "scipy.stats"} <= set(preloaded[0])
