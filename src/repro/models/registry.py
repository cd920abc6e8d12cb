"""The model registry: named factories for every registered predictor.

:data:`MODELS` is a :class:`~repro.core.registry.Registry` of
zero-argument factories.  The package registers ``dl``, ``logistic``,
``sis`` and ``linear-influence`` on import of :mod:`repro.models`;
graph-seeded IC/LT adapters are registered per graph via
:func:`repro.models.graph.register_graph_models`.

Factories (not instances) are stored so every :func:`get_model` call
returns a fresh, stateless model object -- shard solves on worker threads
never share fitted state through the registry.
"""

from __future__ import annotations

from typing import Callable

from repro.core.registry import Registry
from repro.models.base import PredictionModel

#: name -> zero-argument factory returning a fresh :class:`PredictionModel`
#: (a model class itself works).
MODELS: "Registry[Callable[[], PredictionModel]]" = Registry("model")


def get_model(name: str) -> PredictionModel:
    """A fresh instance of the model registered under ``name``."""
    return MODELS.get(name)()
