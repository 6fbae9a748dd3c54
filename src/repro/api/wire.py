"""The versioned JSON wire format for the engine API.

This module is what lets a labeling run cross a process boundary: every
object a service client needs to describe a run (:class:`JobSpec` and its
collaborators) or to observe one (:class:`ProgressEvent`,
:class:`ExecutionStats`, :class:`~repro.core.batcher.RunResult`) has a
JSON-serialisable dict form here.  The HTTP front end (:mod:`repro.service`)
speaks exactly this format; nothing in it is service-specific, so the same
dicts work as on-disk job descriptions or test fixtures.

Design rules:

* **Versioned.**  Every spec document carries ``"wire_version"``; a reader
  rejects versions it does not understand instead of guessing.
* **Provenance, not payloads.**  A dataset is serialised as the *recipe*
  that generated it (generator name + parameters), not as feature matrices;
  worker populations serialise as (factory name, seed).  Rebuilding from the
  recipe is deterministic, so a round-tripped spec produces a bit-identical
  run — the property the equivalence suite pins.
* **Sentinels survive.**  Config fields whose ``None`` means "off/unlimited"
  (``max_extra_assignments``, ``maintenance_threshold``) map to JSON
  ``null`` and back; enum fields (``learning_strategy``,
  ``straggler_routing``, ``maintenance_objective``) map to their string
  values.
* **Strict reads.**  Unknown keys, unknown enum values, unknown generator or
  factory names, and unsupported versions all raise ``ValueError`` naming
  the offender — a service must not silently drop half a client's request.
* **Typed numbers.**  Python's ``json`` decodes ``NaN`` and ``Infinity``,
  and ``true`` is an ``int`` subclass, so every field is checked against
  its declared type before anything is built: integer fields take only
  JSON integers (never booleans or floats), float fields only finite
  numbers, flags only booleans.  A refusal is a ``ValueError`` naming the
  field, so a service answers 400 instead of queuing a run that hangs or
  fails later.  Integer size fields are capped (:data:`SIZE_CEILINGS`).
* **Only what a run sets.**  A spec document holds the dataset, config,
  population, record budget and name.  Every job runs on the simulated
  crowd platform, seeded with the config's ``seed``, and stops when its
  budget is spent or its record source has nothing left to propose.

Fields that cannot cross a process boundary (``learner_factory``,
populations or datasets built without provenance)
make :func:`spec_to_dict` raise; the engine API keeps accepting them for
in-process use.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import typing
from enum import Enum
from typing import Any, Callable, Mapping, Union

from ..core.batcher import RunResult
from ..core.config import CLAMShellConfig, PayRates
from ..core.metrics import ExecutionStats
from ..crowd.worker import WorkerPopulation
from ..learning.datasets import Dataset
from .engine import JobSpec
from .events import ProgressEvent

#: Version of the spec wire format produced by this module.  Bumped on any
#: incompatible change; readers reject documents from other versions.
#: Version 2 replaced the dispatch-gate config field with ``reference``;
#: version 3 dropped the config's unused objective weight (beta); version 4
#: dropped the config's backend name (a job names its backend once, in
#: ``JobSpec.backend``); version 5 dropped the per-job backend constructor
#: options (every backend is built from the same four engine arguments);
#: version 6 added the config's ``maintenance_objective``; version 7 dropped
#: the spec's ``backend``, its platform-seed override ``seed`` (the platform
#: draws from the config's seed) and its ``accuracy_target`` and
#: ``max_batches`` stop rules.
WIRE_VERSION = 7

#: Ceilings on the integer size fields of a document, by field name, wherever
#: the field appears (config, spec, dataset params).  Above
#: them a run would recruit, or a dataset allocate, for as long as the host
#: allows.  Every workload in the repo sits far below: the largest are a
#: 1000-worker pool labeling 8000 records (``repro bench scale``) and 5000
#: records (Figs 3/4).
SIZE_CEILINGS: dict[str, int] = {
    "pool_size": 10_000,
    "maintenance_reserve_size": 10_000,
    "records_per_task": 1_000,
    "votes_required": 1_000,
    "candidate_sample_size": 100_000,
    "num_records": 1_000_000,
    "num_classes": 100,
    "n_classes": 100,
    "n_samples": 100_000,
    "n_features": 1_000,
    "n_informative": 1_000,
    "n_redundant": 1_000,
    "clusters_per_class": 100,
}


# ---------------------------------------------------------------------------
# registries: dataset generators and population factories
# ---------------------------------------------------------------------------


def dataset_generators() -> dict[str, Callable[..., Dataset]]:
    """Named dataset generators the wire format can rebuild from.

    Imported lazily: ``labeling_workload`` lives in the experiments layer,
    which itself imports the engine.
    """
    from ..experiments.common import make_labeling_workload
    from ..learning.datasets import make_classification

    return {
        "classification": make_classification,
        "labeling_workload": make_labeling_workload,
    }


def population_factories() -> dict[str, Callable[..., WorkerPopulation]]:
    """Named population factories the wire format can rebuild from."""
    from ..crowd.traces import default_simulation_population
    from ..experiments.common import fast_population, mixed_speed_population

    return {
        "default": default_simulation_population,
        "fast": fast_population,
        "mixed_speed": mixed_speed_population,
    }


@functools.lru_cache(maxsize=None)
def _declared_types(target: Any) -> dict[str, tuple[Any, bool]]:
    """Name -> (type, takes ``None``) of a class's fields or a function's
    parameters, with ``Optional[T]`` unwrapped to ``T``.

    Cached: resolving string annotations costs more than a whole decode.
    """
    declared = {}
    for name, hint in typing.get_type_hints(target).items():
        args = typing.get_args(hint)
        optional = typing.get_origin(hint) is Union and type(None) in args
        if optional:
            (hint,) = [arg for arg in args if arg is not type(None)]
        declared[name] = (hint, optional)
    return declared


def _check_value(
    value: Any, declared: tuple[Any, bool], owner: str, name: str
) -> None:
    """Refuse ``owner``'s ``name`` unless its value fits a declared
    ``(type, takes None)``.

    Types other than ``bool``, ``int``, ``float`` and ``str`` (enums, nested
    documents) are checked where they decode.
    """
    hint, optional = declared
    if value is None and optional:
        return
    if hint is bool:
        valid, expected = isinstance(value, bool), "true or false"
    elif hint is int:
        valid = isinstance(value, int) and not isinstance(value, bool)
        expected = "an integer"
    elif hint is float:
        valid = (
            isinstance(value, (int, float))
            and not isinstance(value, bool)
            and math.isfinite(value)
        )
        expected = "a finite number"
    elif hint is str:
        valid, expected = isinstance(value, str), "a string"
    else:
        return
    if not valid:
        raise ValueError(f"{owner} {name!r} must be {expected}, got {value!r}")
    ceiling = SIZE_CEILINGS.get(name)
    if hint is int and ceiling is not None and value > ceiling:
        raise ValueError(f"{owner} {name!r} must be at most {ceiling}, got {value}")


def _reject_unknown_keys(
    data: Mapping[str, Any], known: set[str], what: str
) -> None:
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValueError(
            f"{what} has unknown key(s): {', '.join(map(repr, unknown))}; "
            f"known keys: {', '.join(sorted(known))}"
        )


# ---------------------------------------------------------------------------
# dataset
# ---------------------------------------------------------------------------


def dataset_to_dict(dataset: Dataset) -> dict[str, Any]:
    """Serialise a dataset as its generation recipe.

    Requires the dataset to carry ``source`` provenance (every built-in
    generator records one); hand-assembled datasets cannot cross the wire.
    """
    if dataset.source is None:
        raise ValueError(
            f"dataset {dataset.name!r} carries no generation provenance and "
            "cannot be serialised; build it with a registered generator "
            f"({', '.join(sorted(dataset_generators()))})"
        )
    return {
        "generator": dataset.source["generator"],
        "params": dict(dataset.source.get("params", {})),
    }


def dataset_from_dict(data: Mapping[str, Any]) -> Dataset:
    """Rebuild a dataset from its generation recipe."""
    _reject_unknown_keys(data, {"generator", "params"}, "dataset document")
    generators = dataset_generators()
    name = data.get("generator")
    if not isinstance(name, str) or name not in generators:
        raise ValueError(
            f"unknown dataset generator {name!r}; registered generators: "
            f"{', '.join(sorted(generators))}"
        )
    params = data.get("params") or {}
    if not isinstance(params, Mapping):
        raise ValueError("dataset 'params' must be an object")
    declared = _declared_types(generators[name])
    for key, value in params.items():
        if key in declared:
            _check_value(value, declared[key], "dataset param", key)
    try:
        return generators[name](**params)
    except TypeError as error:
        raise ValueError(
            f"dataset generator {name!r} rejected params {dict(params)!r}: "
            f"{error}"
        ) from None


# ---------------------------------------------------------------------------
# population
# ---------------------------------------------------------------------------


def population_to_dict(population: WorkerPopulation) -> dict[str, Any]:
    """Serialise a population as its (factory, seed) provenance."""
    source = population.source
    if source is None:
        raise ValueError(
            "population carries no factory provenance and cannot be "
            "serialised; build it with a registered factory "
            f"({', '.join(sorted(population_factories()))}) or submit the "
            "spec with population=None to draw the default from the job seed"
        )
    return dict(source)


def population_from_dict(data: Mapping[str, Any]) -> WorkerPopulation:
    """Rebuild a population from a (factory, seed) reference."""
    _reject_unknown_keys(data, {"factory", "seed"}, "population document")
    factories = population_factories()
    name = data.get("factory")
    if not isinstance(name, str) or name not in factories:
        raise ValueError(
            f"unknown population factory {name!r}; registered factories: "
            f"{', '.join(sorted(factories))}"
        )
    seed = data.get("seed", 0)
    _check_value(seed, (int, False), "population", "seed")
    return factories[name](seed=seed)


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

_CONFIG_FIELDS = {field.name for field in dataclasses.fields(CLAMShellConfig)}
_PAY_RATE_FIELDS = {field.name for field in dataclasses.fields(PayRates)}


def config_to_dict(config: CLAMShellConfig) -> dict[str, Any]:
    """Every config knob, JSON-ready: enums by value, sentinels as null."""
    payload: dict[str, Any] = {}
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        if isinstance(value, Enum):
            value = value.value
        elif isinstance(value, PayRates):
            value = {
                name: getattr(value, name) for name in sorted(_PAY_RATE_FIELDS)
            }
        payload[field.name] = value
    return payload


def _enum_from_value(enum_type: Any, value: Any, field: str) -> Any:
    try:
        return enum_type(value)
    except ValueError:
        choices = ", ".join(repr(member.value) for member in enum_type)
        raise ValueError(
            f"config field {field!r} must be one of {choices}, got {value!r}"
        ) from None


def config_from_dict(data: Mapping[str, Any]) -> CLAMShellConfig:
    """Rebuild a config; absent keys keep their defaults, unknown keys raise."""
    _reject_unknown_keys(data, _CONFIG_FIELDS, "config document")
    declared = _declared_types(CLAMShellConfig)
    kwargs: dict[str, Any] = dict(data)
    for key, value in data.items():
        _check_value(value, declared[key], "config field", key)
        hint = declared[key][0]
        if isinstance(hint, type) and issubclass(hint, Enum):
            kwargs[key] = _enum_from_value(hint, value, key)
    if "pay_rates" in kwargs:
        rates = kwargs["pay_rates"]
        if not isinstance(rates, Mapping):
            raise ValueError("config field 'pay_rates' must be an object")
        _reject_unknown_keys(rates, _PAY_RATE_FIELDS, "pay_rates document")
        declared = _declared_types(PayRates)
        for key, value in rates.items():
            _check_value(value, declared[key], "pay_rates field", key)
        kwargs["pay_rates"] = PayRates(**rates)
    return CLAMShellConfig(**kwargs)


# ---------------------------------------------------------------------------
# spec
# ---------------------------------------------------------------------------

_SPEC_KEYS = {
    "wire_version",
    "dataset",
    "config",
    "population",
    "num_records",
    "name",
}


def spec_to_dict(spec: JobSpec) -> dict[str, Any]:
    """Serialise a spec to the versioned wire document.

    Raises ``ValueError`` when the spec holds process-local state the wire
    cannot carry (``learner_factory``, or a dataset / population without
    provenance).
    """
    if spec.learner_factory is not None:
        raise ValueError(
            "JobSpec.learner_factory is a process-local callable and cannot "
            "be serialised; configure learning through config.learning_strategy"
        )
    return {
        "wire_version": WIRE_VERSION,
        "dataset": dataset_to_dict(spec.dataset),
        "config": config_to_dict(spec.config),
        "population": (
            None if spec.population is None else population_to_dict(spec.population)
        ),
        "num_records": spec.num_records,
        "name": spec.name,
    }


def spec_from_dict(data: Mapping[str, Any]) -> JobSpec:
    """Rebuild a spec from a wire document (absent keys keep spec defaults)."""
    if not isinstance(data, Mapping):
        raise ValueError("a JobSpec document must be a JSON object")
    version = data.get("wire_version", WIRE_VERSION)
    if version != WIRE_VERSION:
        raise ValueError(
            f"unsupported wire_version {version!r} "
            f"(this build reads version {WIRE_VERSION})"
        )
    # After the version: a document from another version is refused for
    # its version, not for the keys that version carried.
    _reject_unknown_keys(data, _SPEC_KEYS, "JobSpec document")
    if "dataset" not in data:
        raise ValueError("a JobSpec document requires a 'dataset' recipe")
    dataset_doc = data["dataset"]
    if not isinstance(dataset_doc, Mapping):
        raise ValueError("JobSpec 'dataset' must be an object")
    kwargs: dict[str, Any] = {"dataset": dataset_from_dict(dataset_doc)}
    if data.get("config") is not None:
        config_doc = data["config"]
        if not isinstance(config_doc, Mapping):
            raise ValueError("JobSpec 'config' must be an object")
        kwargs["config"] = config_from_dict(config_doc)
    if data.get("population") is not None:
        population_doc = data["population"]
        if not isinstance(population_doc, Mapping):
            raise ValueError("JobSpec 'population' must be an object")
        kwargs["population"] = population_from_dict(population_doc)
    for key in ("num_records", "name"):
        if key in data and data[key] is not None:
            _check_value(data[key], _declared_types(JobSpec)[key], "JobSpec field", key)
            kwargs[key] = data[key]
    try:
        return JobSpec(**kwargs)
    except TypeError as error:
        raise ValueError(f"invalid JobSpec document: {error}") from None


# ---------------------------------------------------------------------------
# run observation: events, stats, results
# ---------------------------------------------------------------------------


def result_summary(result: RunResult) -> dict[str, Any]:
    """The scalar outcome of a finished run (labels travel via pagination),
    with the digest of :meth:`RunResult.fingerprint`: a rerun of the same
    spec, on any executor, reports the same one."""
    return {
        "records_labeled": result.records_labeled,
        "num_batches": result.num_batches,
        "total_wall_clock": result.total_wall_clock,
        "total_cost": result.total_cost,
        "final_accuracy": result.final_accuracy,
        "fingerprint": result.fingerprint().digest,
    }


def event_to_dict(event: ProgressEvent) -> dict[str, Any]:
    """One progress event, JSON-ready (label keys become strings)."""
    payload: dict[str, Any] = {
        "kind": event.kind.value,
        "batch_index": event.batch_index,
        "wall_clock": event.wall_clock,
        "records_labeled": event.records_labeled,
        "pool_size": event.pool_size,
        "new_labels": {
            str(record): int(label) for record, label in event.new_labels.items()
        },
        "batch_latency": event.batch_latency,
        "accuracy_estimate": event.accuracy_estimate,
        "workers_replaced": event.workers_replaced,
        "assignments_started": event.assignments_started,
        "assignments_terminated": event.assignments_terminated,
    }
    if event.result is not None:
        payload["result"] = result_summary(event.result)
    return payload


def stats_to_dict(stats: ExecutionStats) -> dict[str, Any]:
    """Simulator-side stats of a finished run, JSON-ready."""
    return {
        "sim_seconds": stats.sim_seconds,
        "events_processed": stats.events_processed,
        "events_scheduled": stats.events_scheduled,
        "labels": stats.labels,
        "total_cost": stats.total_cost,
        "counters": {key: stats.counters[key] for key in sorted(stats.counters)},
    }
