"""The unified prediction-model protocol.

Every predictor in the package -- the paper's Diffusive Logistic model and
each of its baselines -- speaks the same three-stage protocol:

* :meth:`PredictionModel.fit` turns one observed
  :class:`~repro.cascade.density.DensitySurface` (plus a
  :class:`~repro.core.config.ModelSpec`) into a :class:`FittedModel`;
* :meth:`FittedModel.predict` produces a predicted ``DensitySurface`` at
  requested times;
* :meth:`FittedModel.evaluate` scores the prediction against the observed
  surface with the paper's accuracy metric and returns a
  :class:`~repro.core.prediction.PredictionResult`.

For corpus workloads :meth:`PredictionModel.batch_fitter` returns a
:class:`BatchFitter` that accumulates stories incrementally (the shape the
service layer's shard solver needs: per-story fit failures must not poison
shard-mates) and evaluates them together; :meth:`PredictionModel.fit_batch`
is the convenience wrapper over it, and :meth:`BatchFitter.fit_shard` fits
a whole shard at once.  The default :class:`SequentialBatchFitter` simply
loops; models with a genuinely batched path (the DL model's spatial-group
solve and lock-step calibration) override :meth:`PredictionModel.batch_fitter`.

All models raise the same typed errors:
:class:`~repro.core.errors.NotFittedError` on predict-before-fit and
``ValueError`` on spec mismatches.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Mapping, Sequence

import numpy as np

from repro.cascade.density import DensitySurface
from repro.core.accuracy import build_accuracy_table
from repro.core.config import ModelSpec
from repro.core.errors import NotFittedError
from repro.core.prediction import (
    PredictionResult,
    ShardFit,
    _resolve_evaluation_times,
    fit_story_by_story,
)


def _jsonify(value):
    """Coerce numpy scalars (and containers of them) into plain JSON types."""
    if isinstance(value, (np.floating, np.integer)):
        return float(value)
    if isinstance(value, np.ndarray):
        return [_jsonify(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {str(key): _jsonify(val) for key, val in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    return value


class ModelParameters:
    """Generic fitted-parameter container for non-DL models.

    Mirrors the two capabilities the result pipeline relies on from
    :class:`~repro.core.parameters.DLParameters`: a readable ``repr`` for
    human summaries and :meth:`to_json_dict` for machine-readable payloads
    (``predict-batch --json``, serve-batch / daemon result events).
    """

    def __init__(self, model: str, **values) -> None:
        self.model = model
        self._values = dict(values)

    def __getitem__(self, key: str):
        return self._values[key]

    def __contains__(self, key: str) -> bool:
        return key in self._values

    def to_json_dict(self) -> dict:
        """Plain JSON-able form: the model name plus every fitted value."""
        return {"model": self.model, **_jsonify(self._values)}

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ModelParameters)
            and self.model == other.model
            and self.to_json_dict() == other.to_json_dict()
        )

    def __repr__(self) -> str:
        summary = ", ".join(
            f"{key}={value!r}"
            for key, value in self._values.items()
            if isinstance(value, (int, float, str, bool))
        )
        prefix = f"ModelParameters(model={self.model!r}"
        return f"{prefix}, {summary})" if summary else f"{prefix})"


def coerce_spec(
    spec: "ModelSpec | None",
    model_name: str,
    allowed_params: "tuple[str, ...]" = (),
) -> ModelSpec:
    """Validate / default the spec every model adapter receives.

    ``None`` becomes the model's default spec; a spec naming a *different*
    model is rejected (the registry dispatched it to the wrong adapter);
    unknown ``params`` keys are rejected rather than silently dropped.
    """
    if spec is None:
        return ModelSpec(name=model_name)
    if spec.name != model_name:
        raise ValueError(
            f"spec is for model {spec.name!r}, but it was passed to the "
            f"{model_name!r} model"
        )
    unknown = sorted(set(spec.params) - set(allowed_params))
    if unknown:
        raise ValueError(
            f"model {model_name!r} does not understand params {unknown}; "
            f"expected a subset of {sorted(allowed_params)}"
        )
    return spec


class FittedModel(ABC):
    """One story's fitted state: predicts forward and scores itself."""

    #: Registry name of the model that produced this fit.
    model_name: str = "abstract"

    @property
    @abstractmethod
    def parameters(self):
        """The fitted parameters (``to_json_dict``-capable)."""

    @property
    def calibration_details(self) -> dict:
        """Diagnostics from the fitting stage (empty when not applicable)."""
        return {}

    @abstractmethod
    def predict(
        self,
        times: Sequence[float],
        distances: "Sequence[float] | None" = None,
    ) -> DensitySurface:
        """Predicted density surface at the requested times (and distances)."""

    def evaluate(
        self,
        actual: DensitySurface,
        times: "Sequence[float] | None" = None,
        distances: "Sequence[float] | None" = None,
    ) -> PredictionResult:
        """Predict and score against the observed surface (paper Equation 8).

        ``times=None`` defaults to hours 2..6 relative to the first observed
        hour, the window the paper reports -- identical to the DL predictor's
        convention, so every model is scored on the same cells.
        """
        times = _resolve_evaluation_times(actual, times)
        target = (
            np.asarray(distances, dtype=float)
            if distances is not None
            else actual.distances
        )
        predicted = self.predict(times, distances=target)
        actual_restricted = actual.restrict_times(times).restrict_distances(target)
        table = build_accuracy_table(
            predicted,
            actual_restricted,
            times=times,
            distances=[float(d) for d in target],
            metadata={"model": self.model_name, "parameters": repr(self.parameters)},
        )
        return PredictionResult(
            predicted=predicted,
            actual=actual_restricted,
            accuracy_table=table,
            parameters=self.parameters,
            diagnostics={"calibration": self.calibration_details},
            model=self.model_name,
        )


class BatchFitter(ABC):
    """Accumulates story fits and evaluates them together.

    The incremental shape the service layer needs: ``fit_story`` may raise
    per story (isolating bad surfaces from shard-mates), then ``evaluate``
    scores every successfully fitted story -- in one joint batched solve
    when the model supports it.
    """

    #: Registry name of the model this fitter belongs to.
    model_name: str = "abstract"

    @abstractmethod
    def fit_story(
        self,
        name: str,
        observed: DensitySurface,
        training_times: "Sequence[float] | None" = None,
    ) -> None:
        """Fit one story; re-fitting an existing name replaces its state."""

    def fit_shard(
        self,
        surfaces: "Mapping[str, DensitySurface]",
        training_times: "Sequence[float] | None" = None,
    ) -> ShardFit:
        """Fit every story of a shard; a story that fails fails alone.

        The default is :meth:`fit_story` story by story.  Models that can
        fit a shard's stories together (the DL model's lock-step
        calibration) override it; each story's fit must still equal
        :meth:`fit_story` on it alone.
        """
        return fit_story_by_story(self.fit_story, surfaces, training_times)

    @property
    @abstractmethod
    def story_names(self) -> tuple[str, ...]:
        """Names of every fitted story, in insertion order."""

    @abstractmethod
    def parameters_for(self, name: str):
        """Fitted parameters of one story (after :meth:`fit_story`)."""

    @abstractmethod
    def evaluate(
        self,
        actuals: "Mapping[str, DensitySurface]",
        times: "Sequence[float] | None" = None,
        distances: "Sequence[float] | None" = None,
    ) -> "dict[str, PredictionResult]":
        """Score every fitted story against its observed surface."""


class SequentialBatchFitter(BatchFitter):
    """Default corpus path: one :meth:`PredictionModel.fit` per story.

    Models without a cross-story batched solve get corpus scoring for free
    through this fitter; each story is fitted and evaluated independently,
    which makes service results trivially bit-identical to the direct
    ``fit`` + ``evaluate`` path.
    """

    def __init__(self, model: "PredictionModel", spec: "ModelSpec | None") -> None:
        self._model = model
        self._spec = spec
        self.model_name = model.name
        self._fitted: "dict[str, FittedModel]" = {}

    def fit_story(
        self,
        name: str,
        observed: DensitySurface,
        training_times: "Sequence[float] | None" = None,
    ) -> None:
        self._fitted[name] = self._model.fit(observed, self._spec, training_times)

    @property
    def story_names(self) -> tuple[str, ...]:
        return tuple(self._fitted)

    def parameters_for(self, name: str):
        self._require_fitted()
        return self._fitted[name].parameters

    def fitted_for(self, name: str) -> FittedModel:
        """The per-story :class:`FittedModel` (after :meth:`fit_story`)."""
        self._require_fitted()
        return self._fitted[name]

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise NotFittedError.for_model(f"the {self.model_name!r} batch fitter")

    def evaluate(
        self,
        actuals: "Mapping[str, DensitySurface]",
        times: "Sequence[float] | None" = None,
        distances: "Sequence[float] | None" = None,
    ) -> "dict[str, PredictionResult]":
        self._require_fitted()
        missing = [name for name in self._fitted if name not in actuals]
        if missing:
            raise KeyError(f"no observed surface supplied for stories {missing}")
        return {
            name: fitted.evaluate(actuals[name], times, distances)
            for name, fitted in self._fitted.items()
        }


class PredictionModel(ABC):
    """A named, registrable prediction model.

    Subclasses set :attr:`name` / :attr:`description` and implement
    :meth:`fit`; models with a batched corpus path additionally override
    :meth:`batch_fitter`.
    """

    #: Registry name (``repro models`` lists it; ``--model`` selects it).
    name: str = "abstract"
    #: One-line summary shown by ``repro models``.
    description: str = ""

    @abstractmethod
    def fit(
        self,
        observed: DensitySurface,
        spec: "ModelSpec | None" = None,
        training_times: "Sequence[float] | None" = None,
    ) -> FittedModel:
        """Fit one story from its training window; returns the fitted state.

        ``training_times=None`` defaults to the story's first six observed
        hours (every model shares the DL predictor's convention).
        """

    def batch_fitter(self, spec: "ModelSpec | None" = None) -> BatchFitter:
        """A fresh corpus fitter; override for a genuinely batched fast path."""
        return SequentialBatchFitter(self, spec)

    def fit_batch(
        self,
        surfaces: "Mapping[str, DensitySurface]",
        spec: "ModelSpec | None" = None,
        training_times: "Sequence[float] | None" = None,
    ) -> BatchFitter:
        """Fit every story of a corpus; the optional fast path of the protocol.

        Returns the populated :class:`BatchFitter`, ready to ``evaluate``.
        """
        if not surfaces:
            raise ValueError("at least one story surface is required")
        fitter = self.batch_fitter(spec)
        for name, observed in surfaces.items():
            fitter.fit_story(name, observed, training_times)
        return fitter
