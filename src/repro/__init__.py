"""repro — a reproduction of CLAMShell (Haas et al., VLDB 2015).

CLAMShell is a system for acquiring crowd labels at interactive speed.  This
package implements the full system on top of a simulated crowd platform:

* ``repro.crowd`` — the crowd substrate (simulated MTurk, retainer pools,
  worker populations, synthetic traces);
* ``repro.learning`` — the learning substrate (logistic regression, dataset
  generators, active/passive/hybrid learners, asynchronous retraining);
* ``repro.core`` — CLAMShell itself (straggler mitigation, pool maintenance,
  TermEst, quality control, the Batcher/LifeGuard orchestration, metrics);
* ``repro.api`` — the service-shaped frontend: the :class:`Engine` /
  :class:`JobSpec` / :class:`LabelingJob` API with streaming
  :class:`ProgressEvent`\\ s, and the JSON wire format the HTTP service
  speaks;
* ``repro.analysis`` — latency profiling and statistics;
* ``repro.experiments`` — drivers reproducing every figure and table in the
  paper's evaluation.

Quickstart::

    from repro import Engine, JobSpec, full_clamshell, make_cifar_like

    dataset = make_cifar_like(seed=0)
    spec = JobSpec(dataset=dataset, config=full_clamshell(), num_records=200)
    print(Engine().run(spec).final_accuracy)

    # or concurrently, streaming one event per batch
    job = Engine(max_workers=4).submit(spec)
    for event in job.stream():
        print(event.kind.value, event.records_labeled)
    print(job.result().final_accuracy)
"""

from .api import (
    WIRE_VERSION,
    Engine,
    ExecutionStats,
    JobSpec,
    JobStatus,
    LabelingJob,
    ProgressEvent,
    ProgressKind,
    RunFingerprint,
    event_to_dict,
    spec_from_dict,
    spec_to_dict,
    stats_to_dict,
)
from .core import (
    CLAMShellConfig,
    LearningStrategy,
    MaintenanceObjective,
    PayRates,
    RunResult,
    StragglerRoutingPolicy,
    baseline_no_retainer,
    baseline_retainer,
    crowd_labeling_objective,
    full_clamshell,
    speedup_factor,
    variance_reduction_factor,
)
from .crowd import (
    SimulatedCrowdPlatform,
    WorkerPopulation,
    WorkerProfile,
    default_simulation_population,
    generate_medical_trace,
    summarize_trace,
)
from .learning import (
    Dataset,
    LearningCurve,
    LogisticRegressionModel,
    make_cifar_like,
    make_classification,
    make_hardness_series,
    make_learner,
    make_mnist_like,
)

__version__ = "16.0.0"

__all__ = [
    "CLAMShellConfig",
    "Dataset",
    "Engine",
    "ExecutionStats",
    "JobSpec",
    "JobStatus",
    "LabelingJob",
    "LearningCurve",
    "LearningStrategy",
    "MaintenanceObjective",
    "LogisticRegressionModel",
    "PayRates",
    "ProgressEvent",
    "ProgressKind",
    "RunFingerprint",
    "RunResult",
    "SimulatedCrowdPlatform",
    "StragglerRoutingPolicy",
    "WIRE_VERSION",
    "WorkerPopulation",
    "WorkerProfile",
    "__version__",
    "baseline_no_retainer",
    "baseline_retainer",
    "crowd_labeling_objective",
    "default_simulation_population",
    "event_to_dict",
    "full_clamshell",
    "generate_medical_trace",
    "make_cifar_like",
    "make_classification",
    "make_hardness_series",
    "make_learner",
    "make_mnist_like",
    "spec_from_dict",
    "spec_to_dict",
    "speedup_factor",
    "stats_to_dict",
    "summarize_trace",
    "variance_reduction_factor",
]
