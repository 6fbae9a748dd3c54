"""Learning substrate: models, datasets, samplers, learners, and evaluation."""

from .datasets import (
    Dataset,
    make_cifar_like,
    make_classification,
    make_hardness_series,
    make_mnist_like,
)
from .evaluation import (
    LearningCurve,
    LearningCurvePoint,
    accuracy,
    cross_validate,
    summarize_curves,
)
from .learners import (
    ActiveLearner,
    BaseLearner,
    BatchProposal,
    HybridLearner,
    LabelCache,
    PassiveLearner,
    make_learner,
)
from .models import (
    LogisticRegressionModel,
    MajorityClassModel,
    uncertainty_entropy,
    uncertainty_least_confidence,
    uncertainty_margin,
)
from .retrainer import AsynchronousRetrainer, DecisionLatencyModel
from .samplers import (
    HybridSampler,
    RandomSampler,
    UncertaintySampler,
    make_hybrid_sampler,
)

__all__ = [
    "ActiveLearner",
    "AsynchronousRetrainer",
    "BaseLearner",
    "BatchProposal",
    "Dataset",
    "DecisionLatencyModel",
    "HybridLearner",
    "HybridSampler",
    "LabelCache",
    "LearningCurve",
    "LearningCurvePoint",
    "LogisticRegressionModel",
    "MajorityClassModel",
    "PassiveLearner",
    "RandomSampler",
    "UncertaintySampler",
    "accuracy",
    "cross_validate",
    "make_cifar_like",
    "make_classification",
    "make_hardness_series",
    "make_hybrid_sampler",
    "make_learner",
    "make_mnist_like",
    "summarize_curves",
    "uncertainty_entropy",
    "uncertainty_least_confidence",
    "uncertainty_margin",
]
