"""The unified model API: protocol, registry and the built-in models.

Any predictor -- the paper's Diffusive Logistic model, each of its
baselines, or a model registered at runtime -- is addressed by name
through one registry and speaks one protocol
(:class:`~repro.models.base.PredictionModel` /
:class:`~repro.models.base.FittedModel`), so the whole serving stack
(:class:`~repro.service.service.PredictionService`, the daemon, the CLI)
is model-agnostic:

>>> from repro.models import get_model
>>> fitted = get_model("logistic").fit(observed)            # doctest: +SKIP
>>> fitted.evaluate(observed).overall_accuracy              # doctest: +SKIP

Registered on import:

* ``dl`` -- the Diffusive Logistic PDE model (bit-identical to the classic
  ``DiffusionPredictor`` / ``BatchPredictor`` paths, batched corpus solves).
* ``logistic`` -- per-distance independent logistic curves.
* ``sis`` -- the SIS epidemic baseline.
* ``linear-influence`` -- the Linear-Influence-style counting baseline.

Graph-seeded IC / LT adapters need a graph, so they register per graph via
:func:`~repro.models.graph.register_graph_models`.  Third-party models
register a factory in :data:`MODELS`; :func:`~repro.models.compare.compare_models`
scores one corpus under several models (``repro compare``).
"""

from repro.core.config import ModelSpec, SolverConfig
from repro.core.errors import NotFittedError
from repro.models.base import (
    BatchFitter,
    FittedModel,
    ModelParameters,
    PredictionModel,
    SequentialBatchFitter,
)
from repro.models.compare import ModelComparison, compare_models
from repro.models.dl import DiffusiveLogisticPredictionModel
from repro.models.graph import GraphSeededModel, register_graph_models
from repro.models.registry import MODELS, get_model
from repro.models.temporal import (
    LinearInfluenceModel,
    PerDistanceLogisticModel,
    SISModel,
)

# Built-in registrations.  overwrite=True keeps module re-imports (e.g.
# importlib.reload in tests) from tripping the duplicate guard.
MODELS.register("dl", DiffusiveLogisticPredictionModel, overwrite=True)
MODELS.register("logistic", PerDistanceLogisticModel, overwrite=True)
MODELS.register("sis", SISModel, overwrite=True)
MODELS.register("linear-influence", LinearInfluenceModel, overwrite=True)

__all__ = [
    "PredictionModel",
    "FittedModel",
    "BatchFitter",
    "SequentialBatchFitter",
    "ModelParameters",
    "ModelSpec",
    "SolverConfig",
    "NotFittedError",
    "MODELS",
    "get_model",
    "DiffusiveLogisticPredictionModel",
    "PerDistanceLogisticModel",
    "SISModel",
    "LinearInfluenceModel",
    "GraphSeededModel",
    "register_graph_models",
    "ModelComparison",
    "compare_models",
]
