"""Tests for the JSON wire format (repro.api.wire).

The contract under test: a :class:`JobSpec` serialised with
``spec_to_dict`` and rebuilt with ``spec_from_dict`` — through an actual
JSON string — describes the *same run*, bit for bit.  Recipes (generator
params, factory seeds), not payloads, cross the wire, so equality is
proven by executing both specs and comparing behavioural fingerprints,
not by comparing arrays.
"""

from __future__ import annotations

import collections.abc
import copy
import json
import math
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equivalence import labeling_config
from repro.api.engine import Engine, JobSpec
from repro.api.wire import (
    WIRE_VERSION,
    config_from_dict,
    config_to_dict,
    dataset_from_dict,
    dataset_to_dict,
    event_to_dict,
    population_from_dict,
    population_to_dict,
    spec_from_dict,
    spec_to_dict,
    stats_to_dict,
)
from repro.core.config import (
    CLAMShellConfig,
    LearningStrategy,
    MaintenanceObjective,
    PayRates,
    StragglerRoutingPolicy,
    full_clamshell,
)
from repro.crowd.worker import PopulationParameters, WorkerPopulation
from repro.experiments.common import make_labeling_workload, mixed_speed_population
from repro.learning.datasets import Dataset, make_classification, make_mnist_like


def json_round_trip(document: dict) -> dict:
    """Through an actual JSON string, as the HTTP layer would."""
    return json.loads(json.dumps(document))


#: A classification recipe whose ``class_sep`` is finite but far out of range.
HUGE_CLASS_SEP_DATASET = {
    "generator": "classification",
    "params": {"n_samples": 200, "n_features": 6, "class_sep": 1e300},
}


class TestConfigWire:
    def test_round_trips_every_field(self) -> None:
        config = CLAMShellConfig(
            pool_size=7,
            straggler_mitigation=True,
            straggler_routing=StragglerRoutingPolicy.FEWEST_ACTIVE,
            max_extra_assignments=3,
            maintenance_threshold=6.5,
            learning_strategy=LearningStrategy.ACTIVE,
            pay_rates=PayRates(waiting_per_minute=0.07, per_record=0.03),
            seed=11,
        )
        clone = config_from_dict(json_round_trip(config_to_dict(config)))
        assert clone == config

    def test_none_sentinels_survive(self) -> None:
        config = labeling_config(
            max_extra_assignments=None, maintenance_threshold=None
        )
        document = json_round_trip(config_to_dict(config))
        assert document["max_extra_assignments"] is None
        assert document["maintenance_threshold"] is None
        clone = config_from_dict(document)
        assert clone.max_extra_assignments is None
        assert clone.maintenance_threshold is None

    def test_integer_cap_sentinel_survives(self) -> None:
        config = labeling_config(max_extra_assignments=0)
        assert config_from_dict(
            json_round_trip(config_to_dict(config))
        ).max_extra_assignments == 0

    def test_enums_serialise_by_value(self) -> None:
        document = config_to_dict(full_clamshell())
        assert document["learning_strategy"] == "hybrid"
        assert isinstance(document["straggler_routing"], str)

    def test_partial_document_keeps_defaults(self) -> None:
        config = config_from_dict({"pool_size": 3})
        assert config.pool_size == 3
        assert config.learning_strategy is CLAMShellConfig().learning_strategy

    def test_unknown_key_named_in_error(self) -> None:
        with pytest.raises(ValueError, match="pool_sizee"):
            config_from_dict({"pool_sizee": 3})

    def test_bad_enum_value_named_in_error(self) -> None:
        with pytest.raises(ValueError, match="learning_strategy"):
            config_from_dict({"learning_strategy": "psychic"})

    def test_maintenance_objective_round_trips(self) -> None:
        config = labeling_config(
            votes_required=3,
            maintenance_threshold=0.25,
            maintenance_objective=MaintenanceObjective.AGREEMENT,
        )
        document = json_round_trip(config_to_dict(config))
        assert document["maintenance_objective"] == "agreement"
        assert config_from_dict(document) == config

    @pytest.mark.parametrize("field", ["straggler_routing", "maintenance_objective"])
    def test_every_enum_field_names_its_choices(self, field) -> None:
        with pytest.raises(ValueError, match=f"{field}.*must be one of"):
            config_from_dict({field: "psychic"})

    def test_bad_pay_rates_key_rejected(self) -> None:
        with pytest.raises(ValueError, match="per_minute_x"):
            config_from_dict({"pay_rates": {"per_minute_x": 1.0}})


class TestDatasetWire:
    def test_generated_dataset_round_trips(self) -> None:
        dataset = make_classification(n_samples=60, n_features=6, seed=5)
        clone = dataset_from_dict(json_round_trip(dataset_to_dict(dataset)))
        assert clone.name == dataset.name
        assert (clone.X == dataset.X).all()
        assert (clone.y == dataset.y).all()
        assert (clone.train_indices == dataset.train_indices).all()

    def test_labeling_workload_round_trips(self) -> None:
        dataset = make_labeling_workload(num_records=30, seed=9)
        clone = dataset_from_dict(json_round_trip(dataset_to_dict(dataset)))
        assert (clone.y == dataset.y).all()

    def test_derived_generators_carry_provenance(self) -> None:
        # make_mnist_like delegates to make_classification, which records
        # the full resolved recipe.
        dataset = make_mnist_like(n_samples=120, seed=2)
        clone = dataset_from_dict(dataset_to_dict(dataset))
        assert (clone.y == dataset.y).all()

    def test_hand_assembled_dataset_is_rejected(self) -> None:
        import numpy as np

        dataset = Dataset(
            name="adhoc",
            X=np.zeros((4, 2)),
            y=np.array([0, 1, 0, 1]),
            train_indices=np.arange(4),
            test_indices=np.arange(1),
            num_classes=2,
        )
        with pytest.raises(ValueError, match="provenance"):
            dataset_to_dict(dataset)

    def test_unknown_generator_rejected(self) -> None:
        with pytest.raises(ValueError, match="mystery"):
            dataset_from_dict({"generator": "mystery", "params": {}})

    def test_bad_generator_params_rejected(self) -> None:
        with pytest.raises(ValueError, match="labeling_workload"):
            dataset_from_dict(
                {"generator": "labeling_workload", "params": {"bogus": 1}}
            )

    def test_huge_class_sep_rejected(self) -> None:
        """A finite ``class_sep`` this large used to overflow and run to a
        degenerate 0.5 accuracy; the generator refuses it by name."""
        with pytest.raises(ValueError, match="class_sep"):
            dataset_from_dict(copy.deepcopy(HUGE_CLASS_SEP_DATASET))


class TestPopulationWire:
    def test_factory_population_round_trips(self) -> None:
        population = mixed_speed_population(seed=4)
        document = json_round_trip(population_to_dict(population))
        assert document == {"factory": "mixed_speed", "seed": 4}
        assert population_from_dict(document) == population

    def test_hand_built_population_is_rejected(self) -> None:
        population = WorkerPopulation(
            parameters=PopulationParameters(), seed=0
        )
        with pytest.raises(ValueError, match="provenance"):
            population_to_dict(population)

    def test_unknown_factory_rejected(self) -> None:
        with pytest.raises(ValueError, match="martian"):
            population_from_dict({"factory": "martian", "seed": 0})

    def test_bad_seed_rejected(self) -> None:
        with pytest.raises(ValueError, match="seed"):
            population_from_dict({"factory": "mixed_speed", "seed": "zero"})


def wire_spec(seed: int, num_records: int = 12, **config_overrides) -> JobSpec:
    """A serialisable labeling spec."""
    config_overrides.setdefault("pool_size", 5)
    return JobSpec(
        dataset=make_labeling_workload(num_records=2 * num_records, seed=seed),
        config=labeling_config(seed=seed, **config_overrides),
        population=mixed_speed_population(seed=seed),
        num_records=num_records,
        name=f"wire-{seed}",
    )


class TestSpecWire:
    def test_document_shape(self) -> None:
        document = spec_to_dict(wire_spec(seed=1))
        assert document["wire_version"] == WIRE_VERSION
        assert document["dataset"]["generator"] == "labeling_workload"
        assert document["population"] == {"factory": "mixed_speed", "seed": 1}
        assert document["num_records"] == 12

    def test_from_dict_requires_dataset(self) -> None:
        with pytest.raises(ValueError, match="dataset"):
            spec_from_dict({"num_records": 5})

    @pytest.mark.parametrize(
        "key,value",
        [
            ("surprise", True),
            ("backend", "simulated"),
            ("seed", 1),
            ("accuracy_target", 0.9),
            ("max_batches", 10),
        ],
    )
    def test_unknown_top_level_key_rejected(self, key, value) -> None:
        """Version 7 dropped ``backend``, ``seed``, ``accuracy_target`` and
        ``max_batches``: a document carrying one is refused naming it."""
        document = spec_to_dict(wire_spec(seed=1))
        document[key] = value
        with pytest.raises(ValueError, match=key):
            spec_from_dict(document)

    @pytest.mark.parametrize(
        "version,retired",
        [
            (6, {}),
            # A version-6 document as version 6 wrote it: the version is
            # named, not the keys version 7 dropped.
            (6, {"accuracy_target": None, "max_batches": 1000, "seed": None,
                 "backend": "simulated"}),
            (4, {"backend_options": {}}),
            (WIRE_VERSION + 1, {}),
        ],
        ids=["version-6", "version-6-as-written", "version-4-as-written", "next-version"],
    )
    def test_unsupported_version_rejected(self, version, retired) -> None:
        document = {**spec_to_dict(wire_spec(seed=1)), **retired}
        document["wire_version"] = version
        with pytest.raises(ValueError, match="unsupported wire_version"):
            spec_from_dict(document)

    def test_process_local_state_is_rejected(self) -> None:
        spec = wire_spec(seed=1).with_overrides(learner_factory=lambda: None)
        with pytest.raises(ValueError, match="learner_factory"):
            spec_to_dict(spec)

    def test_absent_population_stays_default(self) -> None:
        document = spec_to_dict(wire_spec(seed=1))
        document["population"] = None
        assert spec_from_dict(document).population is None

    def test_job_spec_methods_delegate(self) -> None:
        spec = wire_spec(seed=2)
        clone = JobSpec.from_dict(json_round_trip(spec.to_dict()))
        assert clone.num_records == spec.num_records
        assert clone.config == spec.config

    @pytest.mark.parametrize(
        "options", [None, {}, {"draw_block_size": 8}, {"seed": 1}]
    )
    def test_backend_options_are_refused(self, options) -> None:
        """Version 5 dropped ``backend_options``: a current document
        carrying the key is refused naming it."""
        document = spec_to_dict(wire_spec(seed=1))
        document["backend_options"] = options
        with pytest.raises(ValueError, match="backend_options"):
            spec_from_dict(document)

    @pytest.mark.parametrize(
        "path,value",
        [
            (("config", "pool_size"), 1_000_000_000),
            (("num_records",), 10**12),
            (("num_records",), 10**15),
            (("dataset", "params", "num_records"), 10**10),
        ],
        ids=lambda part: ".".join(part) if isinstance(part, tuple) else str(part),
    )
    def test_size_above_its_ceiling_is_refused(self, path, value) -> None:
        """Huge sizes would recruit or allocate for as long as the host
        allows (10**10 records used to raise ``MemoryError`` inside decode):
        a ``ValueError`` naming the field, before anything is built."""
        document = spec_to_dict(wire_spec(seed=1))
        *parents, key = path
        resolve(document, tuple(parents))[key] = value
        with pytest.raises(ValueError, match=f"{key}.*at most"):
            spec_from_dict(document)

    def test_ceilings_sit_above_the_largest_workloads(self) -> None:
        document = spec_to_dict(wire_spec(seed=1))
        document["config"]["pool_size"] = 1000
        document["num_records"] = 8000
        document["dataset"]["params"]["num_records"] = 8000
        spec = spec_from_dict(document)
        assert (spec.config.pool_size, spec.num_records) == (1000, 8000)

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        pool_size=st.integers(min_value=3, max_value=8),
        cap=st.one_of(st.none(), st.integers(min_value=0, max_value=3)),
    )
    def test_round_tripped_spec_runs_bit_identically(
        self, seed: int, pool_size: int, cap
    ) -> None:
        """The tentpole property: serialise, ship as JSON, rebuild, run —
        the clone's fingerprint equals the original's."""
        original = wire_spec(seed=seed, pool_size=pool_size, max_extra_assignments=cap)
        clone = spec_from_dict(json_round_trip(spec_to_dict(original)))
        assert Engine().run(clone).fingerprint() == Engine().run(original).fingerprint()


#: Tier-1 fuzzes 60 documents; any other loaded profile (the CI equivalence
#: job's ``config-sweep``) supplies its own budget.
FUZZ_SETTINGS = (
    settings(max_examples=60, deadline=None)
    if settings.get_current_profile_name() == "default"
    else settings(deadline=None)
)

#: Leaf replacements: every JSON type, plus the numbers Python's ``json``
#: decodes (``NaN``, ``Infinity``) that no typed field may accept, and
#: integers far above every size ceiling.
FUZZ_LEAVES = [
    None, "text", [1], {"key": 1}, True, 1e30, -1e30,
    float("nan"), float("inf"), float("-inf"), 2.5, 10**12, 10**15,
]


def fuzz_base_documents() -> list[dict]:
    """Valid current-version documents, one per dataset generator."""
    labeling = spec_to_dict(wire_spec(seed=1))
    classification = spec_to_dict(
        wire_spec(seed=2).with_overrides(
            dataset=make_classification(n_samples=60, n_features=6, seed=2)
        )
    )
    return [json_round_trip(labeling), json_round_trip(classification)]


def document_paths(document: dict, prefix: tuple = ()) -> tuple[list, list]:
    """(paths of every object, paths of every non-object value) in ``document``."""
    objects, leaves = [prefix], []
    for key, value in document.items():
        if isinstance(value, dict):
            nested_objects, nested_leaves = document_paths(value, prefix + (key,))
            objects += nested_objects
            leaves += nested_leaves
        else:
            leaves.append(prefix + (key,))
    return objects, leaves


def resolve(document: dict, path: tuple) -> dict:
    for key in path:
        document = document[key]
    return document


@st.composite
def mutated_documents(draw):
    """A valid document with one key dropped, one unknown key added, or one
    leaf replaced by a value of another type."""
    document = copy.deepcopy(draw(st.sampled_from(fuzz_base_documents())))
    objects, leaves = document_paths(document)
    keyed = [path for path in objects + leaves if path]
    mutation = draw(st.sampled_from(["drop", "add", "replace"]))
    if mutation == "drop":
        *parent, key = draw(st.sampled_from(keyed))
        del resolve(document, tuple(parent))[key]
    elif mutation == "add":
        resolve(document, draw(st.sampled_from(objects)))["fuzz_unknown"] = 1
    else:
        *parent, key = draw(st.sampled_from(leaves))
        resolve(document, tuple(parent))[key] = draw(st.sampled_from(FUZZ_LEAVES))
    return document


def assert_declared_types(instance: object) -> None:
    """Every bool, int, float, str and mapping field of a dataclass holds a
    value of its declared type, and every float is finite."""
    for name, hint in typing.get_type_hints(type(instance)).items():
        value = getattr(instance, name)
        args = typing.get_args(hint)
        if type(None) in args:
            if value is None:
                continue
            (hint,) = [arg for arg in args if arg is not type(None)]
        if hint is bool:
            assert type(value) is bool, (name, value)
        elif hint is int:
            assert type(value) is int, (name, value)
        elif hint is float:
            assert type(value) in (int, float) and math.isfinite(value), (name, value)
        elif hint is str:
            assert type(value) is str, (name, value)
        elif typing.get_origin(hint) is collections.abc.Mapping:
            assert isinstance(value, collections.abc.Mapping), (name, value)


class TestWireFuzz:
    """Any mutation of a valid document is refused with a named
    ``ValueError``/``TypeError`` (a 400 from the service) or decodes to a
    spec whose numbers are finite and of their declared type.

    The CI equivalence job raises the budget with
    ``--hypothesis-profile=config-sweep``.
    """

    def test_base_documents_decode(self) -> None:
        for document in fuzz_base_documents():
            assert_declared_types(spec_from_dict(document))

    @FUZZ_SETTINGS
    @given(mutated_documents())
    def test_mutated_document_is_refused_or_well_typed(self, document) -> None:
        try:
            spec = spec_from_dict(document)
        except (ValueError, TypeError):
            return
        assert_declared_types(spec)
        assert_declared_types(spec.config)
        assert_declared_types(spec.config.pay_rates)


class TestObservationWire:
    def test_event_and_stats_serialise_to_json(self) -> None:
        spec = wire_spec(seed=3)
        engine = Engine()
        result, stats = engine.run_with_stats(spec)
        events = list(engine.stream(wire_spec(seed=3)))
        documents = [json_round_trip(event_to_dict(event)) for event in events]
        assert documents[0]["kind"] == "run_started"
        assert documents[-1]["kind"] == "run_finished"
        assert documents[-1]["result"]["records_labeled"] == 12
        assert documents[-1]["result"]["fingerprint"] == result.fingerprint().digest
        # Label keys are stringified record ids.
        batch = next(d for d in documents if d["kind"] == "batch_completed")
        assert all(isinstance(key, str) for key in batch["new_labels"])
        stats_document = json_round_trip(stats_to_dict(stats))
        assert stats_document["labels"] == result.records_labeled
        assert stats_document["counters"] == {
            key: stats.counters[key] for key in sorted(stats.counters)
        }
