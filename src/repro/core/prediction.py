"""End-to-end prediction pipeline: observe the first hour, predict the rest.

This is the workflow of Section III-C of the paper:

1. take the observed density surface of a story,
2. build the initial density function phi from the hour-1 snapshot,
3. choose (or calibrate) the DL parameters,
4. integrate the DL equation forward,
5. compare the prediction against the actual densities at hours 2..6 with the
   paper's accuracy metric (Tables I and II).

:class:`DiffusionPredictor` packages steps 2-4;
:meth:`DiffusionPredictor.evaluate` adds step 5 and returns a
:class:`PredictionResult` that the benchmarks and examples render.

:class:`BatchPredictor` runs the same workflow for *many* stories in one
call: phi is built per story, parameters are supplied or calibrated per
story, and the forward solves of all stories sharing a spatial setup are
advanced together as columns of one batched PDE solve.  Both predictors fit
a story through one function, :func:`fit_story_state`, so a story gets the
same phi and parameters from either.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.cascade.density import (
    DensitySurface,
    default_training_times,
    first_match_indices,
    materialize_surface,
)
from repro.core.accuracy import AccuracyTable, build_accuracy_table
from repro.core.calibration import (
    CalibrationResult,
    FitPhase,
    calibrate_dl_model,
    calibrate_dl_shard,
)
from repro.core.config import SolverConfig
from repro.core.dl_model import DiffusiveLogisticModel, DLSolution, solve_dl_batch
from repro.core.errors import NotFittedError
from repro.core.initial_density import InitialDensity
from repro.core.parameters import DLParameters
from repro.core.properties import check_solution_bounds, check_strictly_increasing


@dataclass
class PredictionResult:
    """Everything produced by one prediction run.

    Attributes
    ----------
    predicted:
        The model's predicted density surface at the evaluation times.
    actual:
        The observed surface restricted to the same times.
    accuracy_table:
        Per-distance, per-time accuracies (the paper's Tables I / II).
    parameters:
        The parameters used: :class:`DLParameters` for the DL model, any
        object with ``to_json_dict()`` (e.g.
        :class:`repro.models.ModelParameters`) for registry baselines.
    initial_density:
        The phi the prediction started from (DL model only; ``None`` for
        models without an initial-density construction).
    solution:
        The full DL solution (dense in space), for plotting Figure 7;
        ``None`` for non-PDE models.
    diagnostics:
        Self-checks: bounds / monotonicity of the computed solution.
    model:
        Registry name of the model that produced the result (``"dl"`` for
        the classic predictor path).
    """

    predicted: DensitySurface
    actual: DensitySurface
    accuracy_table: AccuracyTable
    parameters: "DLParameters | object"
    initial_density: "InitialDensity | None" = None
    solution: "DLSolution | None" = None
    diagnostics: dict = field(default_factory=dict)
    model: str = "dl"

    @property
    def overall_accuracy(self) -> float:
        """Average accuracy over all scored cells (the paper's headline number)."""
        return self.accuracy_table.overall_average

    def accuracy_at_distance(self, distance: float) -> float:
        """Average accuracy over the prediction times for one distance."""
        return self.accuracy_table.row_average(distance)


class DiffusionPredictor:
    """Predict a story's density surface from its initial spreading phase.

    Parameters
    ----------
    parameters:
        DL parameters to use.  When omitted, :meth:`fit` calibrates them from
        the training window.
    solver:
        A :class:`~repro.core.config.SolverConfig` describing the grid
        resolution, time step and backend of every solve.  Calibration
        (:func:`~repro.core.calibration.calibrate_dl_model`) runs on the
        solver's backend at its own coarser grid.
    """

    def __init__(
        self,
        parameters: "DLParameters | None" = None,
        *,
        solver: "SolverConfig | None" = None,
    ) -> None:
        self._configured_parameters = parameters
        self._solver = solver if solver is not None else SolverConfig()
        self._fitted_parameters: "DLParameters | None" = None
        self._initial_density: "InitialDensity | None" = None
        self._calibration_details: dict = {}

    @property
    def solver_config(self) -> SolverConfig:
        """The solver configuration every solve of this predictor uses."""
        return self._solver

    # ------------------------------------------------------------------ #
    # Fitting
    # ------------------------------------------------------------------ #
    def fit(
        self,
        observed: DensitySurface,
        training_times: "Sequence[float] | None" = None,
    ) -> "DiffusionPredictor":
        """Build phi from the first observed hour and resolve the parameters.

        When the predictor was constructed without explicit parameters, the
        training window (default: the first six observed hours) is used to
        calibrate them; otherwise the supplied parameters are kept and only
        phi is (re)built.  See :func:`fit_story_state`.
        """
        (
            self._initial_density,
            self._fitted_parameters,
            self._calibration_details,
        ) = fit_story_state(
            observed, training_times, self._configured_parameters, self._solver.backend
        )
        return self

    @property
    def parameters(self) -> DLParameters:
        """The parameters that will be used for prediction (after :meth:`fit`)."""
        if self._fitted_parameters is None:
            raise NotFittedError.for_model("the predictor")
        return self._fitted_parameters

    @property
    def initial_density(self) -> InitialDensity:
        """The phi built by :meth:`fit`."""
        if self._initial_density is None:
            raise NotFittedError.for_model("the predictor")
        return self._initial_density

    @property
    def calibration_details(self) -> dict:
        """Diagnostics from the calibration step (empty before fit)."""
        return dict(self._calibration_details)

    # ------------------------------------------------------------------ #
    # Prediction & evaluation
    # ------------------------------------------------------------------ #
    def _build_model(self) -> DiffusiveLogisticModel:
        return DiffusiveLogisticModel(
            self.parameters,
            points_per_unit=self._solver.points_per_unit,
            max_step=self._solver.max_step,
            backend=self._solver.backend,
        )

    def predict(
        self,
        times: Sequence[float],
        distances: "Sequence[float] | None" = None,
    ) -> DensitySurface:
        """Predict densities at the requested times (and integer distances)."""
        solution = self.solve(times)
        target = distances if distances is not None else self.initial_density.distances
        return solution.to_surface(np.asarray(target, dtype=float))

    def solve(self, times: Sequence[float]) -> DLSolution:
        """Run the DL solve and return the dense solution."""
        model = self._build_model()
        return model.solve(self.initial_density, list(times))

    def evaluate(
        self,
        actual: DensitySurface,
        times: "Sequence[float] | None" = None,
        distances: "Sequence[float] | None" = None,
    ) -> PredictionResult:
        """Predict and score against the observed surface.

        Parameters
        ----------
        actual:
            The full observed surface (must contain the evaluation times).
        times:
            Evaluation times; default is hours 2..6 relative to the first
            observed hour, the window the paper reports.
        distances:
            Distances to score; default is every distance of the observed
            surface.
        """
        times = _resolve_evaluation_times(actual, times)
        solution = self.solve(times)
        return _score_solution(
            solution, actual, times, distances, self.calibration_details
        )


def fit_story_state(
    observed: DensitySurface,
    training_times: "Sequence[float] | None",
    parameters: "DLParameters | None",
    backend: str,
    calibrated: "CalibrationResult | Exception | None" = None,
) -> "tuple[InitialDensity, DLParameters, dict]":
    """One story's phi, parameters and calibration details.

    phi is the observed profile at the first training time
    (``training_times=None``: the story's first six observed hours).  The
    parameters are ``parameters`` when given; otherwise ``calibrated``, the
    story's calibration if already computed (an exception re-raises), or
    else :func:`~repro.core.calibration.calibrate_dl_model` on ``backend``.
    """
    if training_times is None:
        training_times = default_training_times(observed)
    training_times = sorted(float(t) for t in training_times)
    if not training_times:
        raise ValueError("at least one training time is required")
    initial_time = training_times[0]
    phi = InitialDensity(
        distances=observed.distances,
        densities=observed.profile(initial_time),
        initial_time=initial_time,
    )
    if parameters is not None:
        return phi, parameters, {"calibrated": False}
    if isinstance(calibrated, Exception):
        raise calibrated
    if calibrated is None:
        calibrated = calibrate_dl_model(
            observed, training_times=training_times, backend=backend
        )
    details = {
        "calibrated": True,
        "loss": calibrated.loss,
        "details": calibrated.details,
    }
    return phi, calibrated.parameters, details


def _resolve_evaluation_times(
    actual: DensitySurface, times: "Sequence[float] | None"
) -> "list[float]":
    """Default to hours 2..6 relative to the first observed hour (the paper's window)."""
    if times is None:
        start = float(actual.times[0])
        candidates = [start + offset for offset in range(1, 6)]
        present = first_match_indices(actual.times, candidates) >= 0
        times = [t for t, found in zip(candidates, present) if found]
        if not times:
            raise ValueError("the observed surface has no evaluation times after the first hour")
    return sorted(float(t) for t in times)


def _score_solution(
    solution: DLSolution,
    actual: DensitySurface,
    times: "list[float]",
    distances: "Sequence[float] | None",
    calibration_details: dict,
) -> PredictionResult:
    """Score one solved story against its observed surface (paper Equation 8).

    ``actual`` may be a corpus store's lazy handle; it is loaded here, once.
    """
    actual = materialize_surface(actual)
    target_distances = (
        np.asarray(distances, dtype=float) if distances is not None else actual.distances
    )
    predicted = solution.to_surface(target_distances, unit=actual.unit)
    actual_restricted = actual.restrict_times(
        [solution.initial_density.initial_time] + times
    ).restrict_distances(target_distances)

    table = build_accuracy_table(
        predicted,
        actual_restricted,
        times=times,
        distances=target_distances,
        metadata={"parameters": repr(solution.parameters)},
    )
    diagnostics = {
        "bounds_ok": check_solution_bounds(solution),
        "monotone_in_time": check_strictly_increasing(solution),
        "calibration": calibration_details,
    }
    return PredictionResult(
        predicted=predicted,
        actual=actual_restricted,
        accuracy_table=table,
        parameters=solution.parameters,
        initial_density=solution.initial_density,
        solution=solution,
        diagnostics=diagnostics,
    )


# ---------------------------------------------------------------------- #
# Batched multi-story prediction
# ---------------------------------------------------------------------- #
@dataclass
class ShardFit:
    """What fitting a shard did: the stories that failed and the timed phases.

    ``failures`` maps a failed story to its exception; ``phases`` are
    :class:`~repro.core.calibration.FitPhase` records whose ``stories`` are
    story names.
    """

    failures: "dict[str, Exception]" = field(default_factory=dict)
    phases: "list[FitPhase]" = field(default_factory=list)


def fit_story_by_story(
    fit_story: "Callable[[str, DensitySurface, Sequence[float] | None], object]",
    surfaces: "Mapping[str, DensitySurface]",
    training_times: "Sequence[float] | None" = None,
) -> ShardFit:
    """Fit a shard one story at a time, each timed as one ``"fit"`` phase."""
    shard = ShardFit()
    for name, observed in surfaces.items():
        start, t0 = time.time(), time.perf_counter()
        try:
            fit_story(name, observed, training_times)
        except Exception as error:  # noqa: BLE001 - fails this story alone
            shard.failures[name] = error
        shard.phases.append(FitPhase("fit", (name,), start, time.perf_counter() - t0))
    return shard


@dataclass
class BatchPredictionResult:
    """Per-story :class:`PredictionResult` objects plus fleet-level summaries.

    Attributes
    ----------
    results:
        Mapping from story name to its :class:`PredictionResult`.
    """

    results: "dict[str, PredictionResult]"

    def __getitem__(self, name: str) -> PredictionResult:
        return self.results[name]

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    @property
    def story_names(self) -> tuple[str, ...]:
        """Names of every scored story, in insertion order."""
        return tuple(self.results)

    @property
    def overall_accuracy(self) -> float:
        """Mean of the per-story overall accuracies."""
        if not self.results:
            raise ValueError("no stories were scored")
        return float(
            np.mean([result.overall_accuracy for result in self.results.values()])
        )

    def summary_rows(self) -> "list[dict]":
        """One row per story, ready for :func:`repro.io.tables.format_table`."""
        return [
            {"story": name, "overall_accuracy": result.overall_accuracy}
            for name, result in self.results.items()
        ]


class BatchPredictor:
    """Fit and score many stories in one call, with batched forward solves.

    The per-story workflow is identical to :class:`DiffusionPredictor` --
    phi from the first observed hour, parameters supplied or calibrated from
    the training window, DL equation integrated forward -- but the forward
    solves of every story sharing a spatial setup (same distance interval and
    initial time) are advanced together as the columns of one batched PDE
    solve.  Each story is fitted by the same :func:`fit_story_state` as
    :meth:`DiffusionPredictor.fit`, so both give a story the same parameters.

    Parameters
    ----------
    parameters:
        ``None`` to calibrate each story from its own training window, one
        :class:`DLParameters` shared by every story, or a mapping from story
        name to its parameters.
    solver:
        A :class:`~repro.core.config.SolverConfig`, as for
        :class:`DiffusionPredictor`.
    """

    def __init__(
        self,
        parameters: "DLParameters | Mapping[str, DLParameters] | None" = None,
        *,
        solver: "SolverConfig | None" = None,
    ) -> None:
        self._configured_parameters = parameters
        self._solver = solver if solver is not None else SolverConfig()
        self._initial_densities: "dict[str, InitialDensity]" = {}
        self._parameters: "dict[str, DLParameters]" = {}
        self._calibration_details: "dict[str, dict]" = {}

    @property
    def solver_config(self) -> SolverConfig:
        """The solver configuration every batched solve uses."""
        return self._solver

    # ------------------------------------------------------------------ #
    # Fitting
    # ------------------------------------------------------------------ #
    def _supplied_parameters(self, name: str) -> "DLParameters | None":
        """The story's supplied parameters, or ``None`` to calibrate it."""
        configured = self._configured_parameters
        if isinstance(configured, Mapping):
            if name not in configured:
                raise KeyError(
                    f"no parameters supplied for story {name!r}; the mapping has "
                    f"{sorted(configured)}"
                )
            return configured[name]
        return configured

    def fit_story(
        self,
        name: str,
        observed: DensitySurface,
        training_times: "Sequence[float] | None" = None,
    ) -> "BatchPredictor":
        """Build phi and resolve parameters for one story, incrementally.

        This is the per-story stage of :meth:`fit`; the service layer uses it
        to fill a predictor shard by shard.  Re-fitting an existing story name
        replaces its state.  ``training_times=None`` defaults to the story's
        own first six observed hours.
        """
        return self._fit_story(name, observed, training_times)

    def _fit_story(
        self,
        name: str,
        observed: DensitySurface,
        training_times: "Sequence[float] | None",
        calibrated: "CalibrationResult | Exception | None" = None,
    ) -> "BatchPredictor":
        """:meth:`fit_story`, with the story's calibration if already computed."""
        phi, parameters, details = fit_story_state(
            observed,
            training_times,
            self._supplied_parameters(name),
            self._solver.backend,
            calibrated,
        )
        # Commit only after every stage succeeded, so a failed fit (e.g. a
        # calibration error) leaves no half-fitted story behind and the
        # predictor remains usable for its other stories.
        self._initial_densities[name] = phi
        self._parameters[name] = parameters
        self._calibration_details[name] = details
        return self

    def fit_shard(
        self,
        surfaces: "Mapping[str, DensitySurface]",
        training_times: "Sequence[float] | None" = None,
    ) -> "ShardFit":
        """:meth:`fit_story` of every story, with calibrations refined in lock-step.

        The shard's calibrations run first, together
        (:func:`~repro.core.calibration.calibrate_dl_shard`); then each
        story is fitted as by :meth:`fit_story`, with its calibration taken
        from that run instead of calibrating again.  Each story's result
        therefore equals :meth:`fit_story` on it alone (only the
        refinement's wall-clock ``seconds`` differ), and a story that fails
        is reported in ``failures`` and leaves no state behind.  Stories
        with supplied parameters have nothing to share and are fitted one by
        one.
        """
        if self._configured_parameters is not None:
            return fit_story_by_story(self.fit_story, surfaces, training_times)
        calibrations, phases = calibrate_dl_shard(
            list(surfaces.values()),
            training_times=training_times,
            backend=self._solver.backend,
        )
        by_name = dict(zip(surfaces, calibrations))
        shard = fit_story_by_story(
            lambda name, observed, times: self._fit_story(name, observed, times, by_name[name]),
            surfaces,
            training_times,
        )
        names = list(surfaces)
        shard.phases[:0] = [
            FitPhase(phase.name, tuple(names[i] for i in phase.stories), phase.start, phase.seconds)
            for phase in phases
        ]
        return shard

    def fit(
        self,
        surfaces: "Mapping[str, DensitySurface]",
        training_times: "Sequence[float] | None" = None,
    ) -> "BatchPredictor":
        """Build phi and resolve parameters for every story.

        ``training_times`` applies to every story; when omitted, each story
        defaults to its own first six observed hours.
        """
        if not surfaces:
            raise ValueError("at least one story surface is required")
        self._initial_densities = {}
        self._parameters = {}
        self._calibration_details = {}
        for name, observed in surfaces.items():
            self.fit_story(name, observed, training_times)
        return self

    @property
    def story_names(self) -> tuple[str, ...]:
        """Names of every fitted story."""
        return tuple(self._initial_densities)

    def parameters_for(self, name: str) -> DLParameters:
        """Resolved parameters of one story (after :meth:`fit`)."""
        self._require_fitted()
        return self._parameters[name]

    def calibration_details_for(self, name: str) -> dict:
        """Calibration diagnostics of one story (after :meth:`fit`)."""
        self._require_fitted()
        return dict(self._calibration_details[name])

    def _require_fitted(self) -> None:
        if not self._initial_densities:
            raise NotFittedError.for_model("the predictor")

    # ------------------------------------------------------------------ #
    # Prediction & evaluation
    # ------------------------------------------------------------------ #
    def spatial_groups(self) -> "dict[tuple, list[str]]":
        """Fitted stories grouped by spatial signature (interval, initial time).

        Each group's stories can be advanced as columns of one batched solve
        sharing every cached operator factorization; this is also the
        signature :class:`repro.service.CorpusSharder` shards a corpus by.
        """
        self._require_fitted()
        groups: "dict[tuple, list[str]]" = {}
        for name, phi in self._initial_densities.items():
            key = (phi.lower, phi.upper, phi.initial_time)
            groups.setdefault(key, []).append(name)
        return groups

    def solve(self, times: Sequence[float]) -> "dict[str, DLSolution]":
        """Integrate every story forward, batching compatible stories together.

        Stories are grouped by (distance interval, initial time); each group
        becomes one batched solve whose columns share every cached operator
        factorization.  Solutions come back keyed by story name.
        """
        solutions: "dict[str, DLSolution]" = {}
        for names in self.spatial_groups().values():
            solved = solve_dl_batch(
                [self._parameters[name] for name in names],
                [self._initial_densities[name] for name in names],
                list(times),
                points_per_unit=self._solver.points_per_unit,
                max_step=self._solver.max_step,
                backend=self._solver.backend,
            )
            solutions.update(zip(names, solved))
        return {name: solutions[name] for name in self._initial_densities}

    def predict(
        self,
        times: Sequence[float],
        distances: "Sequence[float] | None" = None,
    ) -> "dict[str, DensitySurface]":
        """Predicted density surfaces for every story at the requested times."""
        solutions = self.solve(times)
        return {
            name: solution.to_surface(
                np.asarray(distances, dtype=float) if distances is not None else None
            )
            for name, solution in solutions.items()
        }

    def evaluate(
        self,
        actuals: "Mapping[str, DensitySurface]",
        times: "Sequence[float] | None" = None,
        distances: "Sequence[float] | None" = None,
    ) -> BatchPredictionResult:
        """Predict and score every story against its observed surface.

        ``times=None`` defaults to each story's hours 2..6 (relative to its
        first observed hour); stories in the same spatial group are solved on
        the union of their evaluation times, in one batched solve per group.
        """
        self._require_fitted()
        missing = [name for name in self._initial_densities if name not in actuals]
        if missing:
            raise KeyError(f"no observed surface supplied for stories {missing}")

        story_times = {
            name: _resolve_evaluation_times(actuals[name], times)
            for name in self._initial_densities
        }
        union_times = sorted({t for values in story_times.values() for t in values})
        solutions = self.solve(union_times)

        results = {
            name: _score_solution(
                solutions[name],
                actuals[name],
                story_times[name],
                distances,
                self._calibration_details[name],
            )
            for name in self._initial_densities
        }
        return BatchPredictionResult(results=results)
