"""The Diffusive Logistic model behind the unified model protocol.

A thin adapter over the classic predictor pair: single stories go through
:class:`~repro.core.prediction.DiffusionPredictor`, corpora through
:class:`~repro.core.prediction.BatchPredictor` -- so results through the
registry are **bit-identical** to the pre-registry code paths, and the
corpus path keeps the batched spatial-group solve (stories sharing a
distance interval and initial time advance as columns of one batched PDE
solve with shared cached operator factorizations).  A shard's calibrations
refine in lock-step (:meth:`DLBatchFitter.fit_shard`).

Spec params understood (``ModelSpec.params``):

``parameters``
    ``None`` to calibrate each story from its training window, one
    :class:`~repro.core.parameters.DLParameters` shared by every story, or
    a mapping from story name to its parameters.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.cascade.density import DensitySurface
from repro.core.config import ModelSpec
from repro.core.prediction import (
    BatchPredictor,
    DiffusionPredictor,
    PredictionResult,
    ShardFit,
)
from repro.models.base import BatchFitter, FittedModel, PredictionModel, coerce_spec

_DL_PARAMS = ("parameters",)


class DLFittedModel(FittedModel):
    """One fitted story, wrapping a :class:`DiffusionPredictor`."""

    model_name = "dl"

    def __init__(self, predictor: DiffusionPredictor) -> None:
        self._predictor = predictor

    @property
    def parameters(self):
        return self._predictor.parameters

    @property
    def calibration_details(self) -> dict:
        return self._predictor.calibration_details

    @property
    def initial_density(self):
        """The phi the predictor built from the first training hour."""
        return self._predictor.initial_density

    def predict(
        self,
        times: Sequence[float],
        distances: "Sequence[float] | None" = None,
    ) -> DensitySurface:
        return self._predictor.predict(times, distances)

    def evaluate(
        self,
        actual: DensitySurface,
        times: "Sequence[float] | None" = None,
        distances: "Sequence[float] | None" = None,
    ) -> PredictionResult:
        # Delegate to the classic evaluate (full DL diagnostics, dense
        # solution for Figure 7) instead of the generic surface scoring.
        return self._predictor.evaluate(actual, times, distances)


class DLBatchFitter(BatchFitter):
    """Corpus fitter wrapping a :class:`BatchPredictor` verbatim.

    Every call forwards to the classic batched path, so shard solves
    through the registry stay bit-identical to ``BatchPredictor`` and keep
    its spatial-group batching.
    """

    model_name = "dl"

    def __init__(self, predictor: BatchPredictor) -> None:
        self._predictor = predictor

    @property
    def predictor(self) -> BatchPredictor:
        """The underlying classic predictor (for spatial-group introspection)."""
        return self._predictor

    def fit_story(
        self,
        name: str,
        observed: DensitySurface,
        training_times: "Sequence[float] | None" = None,
    ) -> None:
        self._predictor.fit_story(name, observed, training_times)

    def fit_shard(
        self,
        surfaces: "Mapping[str, DensitySurface]",
        training_times: "Sequence[float] | None" = None,
    ) -> ShardFit:
        # The shard's calibrations share their LM refinement.
        return self._predictor.fit_shard(surfaces, training_times)

    @property
    def story_names(self) -> tuple[str, ...]:
        return self._predictor.story_names

    def parameters_for(self, name: str):
        return self._predictor.parameters_for(name)

    def evaluate(
        self,
        actuals,
        times: "Sequence[float] | None" = None,
        distances: "Sequence[float] | None" = None,
    ) -> "dict[str, PredictionResult]":
        return self._predictor.evaluate(actuals, times, distances).results


class DiffusiveLogisticPredictionModel(PredictionModel):
    """Registry adapter for the paper's Diffusive Logistic model."""

    name = "dl"
    description = (
        "Diffusive Logistic PDE model (the paper's model): logistic growth "
        "plus spatial diffusion, calibrated per story, batched corpus solves"
    )

    def fit(
        self,
        observed: DensitySurface,
        spec: "ModelSpec | None" = None,
        training_times: "Sequence[float] | None" = None,
    ) -> DLFittedModel:
        spec = coerce_spec(spec, self.name, _DL_PARAMS)
        predictor = DiffusionPredictor(
            parameters=spec.params.get("parameters"),
            solver=spec.solver,
            calibration=spec.calibration,
        )
        return DLFittedModel(predictor.fit(observed, training_times))

    def batch_fitter(self, spec: "ModelSpec | None" = None) -> DLBatchFitter:
        spec = coerce_spec(spec, self.name, _DL_PARAMS)
        return DLBatchFitter(
            BatchPredictor(
                parameters=spec.params.get("parameters"),
                solver=spec.solver,
                calibration=spec.calibration,
            )
        )
