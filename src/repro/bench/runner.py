"""Benchmark execution and the stable ``BENCH_<workload>.json`` schema.

The runner executes a registered workload with warmup/repeat control, checks
that every repeat's runs fingerprint identically (the determinism contract),
and serialises a machine-readable result:

.. code-block:: json

    {
      "schema_version": 1,
      "workload": "scale",
      "seed": 0,
      "git_sha": "abc1234",
      "created_at": "2026-07-31T12:00:00+00:00",
      "repeat": 3,
      "warmup": 1,
      "params": {"sweep": [[25, 1000], [50, 2000], [100, 4000]]},
      "wall_seconds": {"all": [..], "best": 1.9, "mean": 2.0},
      "sim_seconds": 51234.5,
      "sim_real_ratio": 26600.1,
      "events_processed": 21500,
      "events_per_second": 11315.8,
      "labels": 7000,
      "labels_per_second": 3684.2,
      "cost": {"total_dollars": 312.4, "records_labeled_paid": 9100, ...},
      "dispatch": {"probes_attempted": 21000, "probes_futile": 96},
      "details": {...}
    }

Throughput fields (``events_per_second``, ``labels_per_second``,
``sim_real_ratio``) are computed from the *best* wall time — the repeat
least disturbed by scheduler noise — which is also what the comparator and
the CI regression gate read.  The schema is stable: fields are only added,
never renamed, and ``schema_version`` is bumped on any incompatible change.
"""

from __future__ import annotations

import json
import subprocess
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Mapping, Optional, Union

from ..crowd.platform import split_probe_counters
from .registry import WorkloadOutcome, get_workload

#: Version of the ``BENCH_*.json`` schema produced by this module.
SCHEMA_VERSION = 1

#: Keys every schema-valid benchmark JSON must contain.
REQUIRED_KEYS = (
    "schema_version",
    "workload",
    "seed",
    "git_sha",
    "created_at",
    "repeat",
    "warmup",
    "params",
    "wall_seconds",
    "sim_seconds",
    "sim_real_ratio",
    "events_processed",
    "events_per_second",
    "labels",
    "labels_per_second",
    "cost",
    "details",
)


@dataclass(frozen=True)
class BenchmarkResult:
    """One workload's timed execution, ready to serialise."""

    workload: str
    seed: int
    repeat: int
    warmup: int
    params: dict[str, Any]
    wall_seconds: list[float]
    outcome: WorkloadOutcome
    git_sha: str = "unknown"
    created_at: str = ""
    schema_version: int = SCHEMA_VERSION

    @property
    def best_wall_seconds(self) -> float:
        return min(self.wall_seconds)

    @property
    def mean_wall_seconds(self) -> float:
        return sum(self.wall_seconds) / len(self.wall_seconds)

    @property
    def events_per_second(self) -> float:
        return self.outcome.events_processed / self.best_wall_seconds

    @property
    def labels_per_second(self) -> float:
        return self.outcome.labels / self.best_wall_seconds

    @property
    def sim_real_ratio(self) -> float:
        """Simulated seconds covered per real second of execution."""
        return self.outcome.sim_seconds / self.best_wall_seconds

    def to_dict(self) -> dict[str, Any]:
        """The stable JSON document (see module docstring)."""
        # Dispatch-probe counters are diagnostics, not monetary quantities:
        # they get their own section so the strict comparator's cost check
        # keeps meaning "same simulated behaviour" while fast and reference
        # documents remain comparable (probe volume is exactly what fast
        # dispatch is supposed to change).
        behaviour, probes = split_probe_counters(self.outcome.counters)
        cost = {"total_dollars": round(self.outcome.cost, 6)}
        cost.update(sorted(behaviour.items()))
        dispatch = dict(sorted(probes.items()))
        return {
            "schema_version": self.schema_version,
            "workload": self.workload,
            "seed": self.seed,
            "git_sha": self.git_sha,
            "created_at": self.created_at,
            "repeat": self.repeat,
            "warmup": self.warmup,
            "params": _jsonable(self.params),
            "wall_seconds": {
                "all": [round(w, 6) for w in self.wall_seconds],
                "best": round(self.best_wall_seconds, 6),
                "mean": round(self.mean_wall_seconds, 6),
            },
            "sim_seconds": round(self.outcome.sim_seconds, 6),
            "sim_real_ratio": round(self.sim_real_ratio, 3),
            "events_processed": self.outcome.events_processed,
            "events_per_second": round(self.events_per_second, 3),
            "labels": self.outcome.labels,
            "labels_per_second": round(self.labels_per_second, 3),
            "cost": cost,
            "dispatch": dispatch,
            "details": _jsonable(self.outcome.details),
        }

    def summary_lines(self) -> list[str]:
        """Human-readable summary printed by the CLI."""
        return [
            f"workload:          {self.workload} (seed={self.seed}, "
            f"repeat={self.repeat}, warmup={self.warmup})",
            f"wall seconds:      best={self.best_wall_seconds:.3f} "
            f"mean={self.mean_wall_seconds:.3f}",
            f"events processed:  {self.outcome.events_processed} "
            f"({self.events_per_second:,.0f}/s)",
            f"labels:            {self.outcome.labels} "
            f"({self.labels_per_second:,.0f}/s)",
            f"sim/real ratio:    {self.sim_real_ratio:,.0f}x",
            f"total cost:        ${self.outcome.cost:,.2f}",
            "dispatch probes:   "
            f"{self.outcome.counters.get('probes_attempted', 0):,.0f} attempted, "
            f"{self.outcome.counters.get('probes_futile', 0):,.0f} futile",
        ]


def run_benchmark(
    name: str,
    seed: int = 0,
    repeat: int = 3,
    warmup: int = 1,
    params: Optional[Mapping[str, Any]] = None,
    check_determinism: bool = True,
) -> BenchmarkResult:
    """Execute workload ``name`` ``repeat`` times and collect timings.

    ``warmup`` extra executions run first and are discarded (they pay JIT-ish
    one-time costs: imports, numpy buffer pools, branch caches).  With
    ``check_determinism`` every repeat's run fingerprints (digests and probe
    counters, run by run) must match the first repeat's; a mismatch raises
    ``RuntimeError`` because a nondeterministic workload cannot back a
    regression gate.
    """
    if repeat < 1:
        raise ValueError("repeat must be >= 1")
    if warmup < 0:
        raise ValueError("warmup must be >= 0")
    spec = get_workload(name)
    params = dict(params or {})

    for _ in range(warmup):
        spec.execute(seed=seed, **params)

    outcomes: list[WorkloadOutcome] = []
    walls: list[float] = []
    for _ in range(repeat):
        # repro: allow[REPRO-D104] -- the bench harness times the wall, by design
        start = time.perf_counter()
        outcome = spec.execute(seed=seed, **params)
        # repro: allow[REPRO-D104] -- the bench harness times the wall, by design
        walls.append(time.perf_counter() - start)
        outcomes.append(outcome)

    if check_determinism:
        first = outcomes[0].fingerprints
        for index, outcome in enumerate(outcomes[1:], start=2):
            if outcome.fingerprints != first:
                raise RuntimeError(
                    f"workload {name!r} is nondeterministic: repeat {index} "
                    f"produced a different outcome for seed {seed}"
                )

    recorded_params = {**spec.defaults, **params}
    return BenchmarkResult(
        workload=name,
        seed=seed,
        repeat=repeat,
        warmup=warmup,
        params=recorded_params,
        wall_seconds=walls,
        outcome=outcomes[0],
        git_sha=_git_sha(),
        # repro: allow[REPRO-D104] -- provenance stamp on the BENCH document only
        created_at=datetime.now(timezone.utc).isoformat(timespec="seconds"),
    )


def write_result(result: BenchmarkResult, path: Union[str, Path]) -> Path:
    """Serialise ``result`` to ``path`` (parents created), return the path."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    document = result.to_dict()
    validate_document(document)
    target.write_text(json.dumps(document, indent=2, sort_keys=False) + "\n")
    return target


def load_result(path: Union[str, Path]) -> dict[str, Any]:
    """Load and schema-validate a ``BENCH_*.json`` document."""
    document = json.loads(Path(path).read_text())
    validate_document(document)
    return document


def validate_document(document: Any) -> None:
    """Raise ``ValueError`` unless ``document`` is a schema-valid result."""
    if not isinstance(document, dict):
        raise ValueError("benchmark document must be a JSON object")
    missing = [key for key in REQUIRED_KEYS if key not in document]
    if missing:
        raise ValueError(f"benchmark document missing keys: {', '.join(missing)}")
    if document["schema_version"] != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported schema_version {document['schema_version']!r} "
            f"(this build reads version {SCHEMA_VERSION})"
        )
    wall = document["wall_seconds"]
    if not isinstance(wall, dict) or not {"all", "best", "mean"} <= set(wall):
        raise ValueError("wall_seconds must contain 'all', 'best' and 'mean'")
    for key in ("events_per_second", "labels_per_second", "sim_seconds"):
        if not isinstance(document[key], (int, float)):
            raise ValueError(f"{key} must be numeric")
    if not isinstance(document["cost"], dict) or "total_dollars" not in document["cost"]:
        raise ValueError("cost must be an object containing 'total_dollars'")


def default_json_path(workload: str, directory: Union[str, Path] = ".") -> Path:
    """The conventional output filename for a workload."""
    return Path(directory) / f"BENCH_{workload}.json"


def _git_sha() -> str:
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            check=False,
        )
    except OSError:
        return "unknown"
    sha = completed.stdout.strip()
    return sha if completed.returncode == 0 and sha else "unknown"


def _jsonable(value: Any) -> Any:
    """Best-effort conversion to JSON-serialisable structures."""
    if isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)
