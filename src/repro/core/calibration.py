"""Calibration of the DL-model parameters from early observations.

Section II-D of the paper gives guidelines for choosing the parameters
("growth rate r controls the gap between I(x, t) and I(x, t+1) ...; diffusion
rate d controls the slope of I; carrying capacity K controls the upper bound
of I") and the evaluation section then reports hand-chosen values for story
s1.  To make the reproduction usable on arbitrary cascades, this module adds
automated calibration:

* :func:`choose_carrying_capacity` -- the paper's heuristic ("K is set to 25
  since ... the density of s1 is always below 25"), generalised to any
  observed surface.
* :func:`calibrate_dl_model` -- joint fit of (d, a, b, c) for
  ``r(t) = a e^{-b (t - 1)} + c``, with K chosen by the heuristic.  Every
  point of a coarse (d, a, b, c) seed grid is one column of a single
  batched PDE solve, and the best grid points are then polished together
  by a batched multi-start Levenberg-Marquardt refinement
  (:func:`repro.numerics.optimization.grouped_multi_start_least_squares`)
  whose residual and finite-difference Jacobian evaluations are themselves
  columns of batched solves.  The ``engine`` knob switches between the
  batched evaluation and a candidate-by-candidate sequential reference of
  the same algorithm, which the tests use to verify the two agree to ~1e-8.
* :func:`calibrate_dl_shard` -- the same calibration for a shard of stories:
  each story's grid is its own batched solve, and stories sharing a grid,
  initial time and training times refine in lock-step, all their starts in
  one :func:`~repro.numerics.optimization.grouped_multi_start_least_squares`
  call, so an iteration costs two batched solves for the whole shard
  instead of two per story.  Columns never interact, so each story's result
  equals calibrating it alone; :func:`calibrate_dl_model` is its one-story
  case.

All fits compare DL-model predictions against the observed density surface on
a *training window* of early hours, exactly like the paper's setup where only
the initial phase of the cascade is assumed known.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from repro.cascade.density import DensitySurface, default_training_times, label_indices
from repro.core.dl_model import DiffusiveLogisticModel, solve_dl_batch_states
from repro.core.initial_density import InitialDensity
from repro.core.parameters import DLParameters, ExponentialDecayGrowthRate
from repro.numerics.optimization import (
    grid_candidates,
    grouped_multi_start_least_squares,
    sum_of_squares,
)

GROWTH_RATE_BOUNDS = ((0.0, 0.05, 0.0), (6.0, 6.0, 0.6))
"""(lower, upper) box for the (amplitude, decay, floor) growth-rate fits.

The bounds encode the paper's qualitative prior on r(t): a decreasing
function with a modest long-run floor (the published fits use floors of
0.25 and 0.1).  Leaving the floor unbounded lets short training windows
push the long-run growth rate far too high, which wrecks forecasts.
"""


@dataclass
class CalibrationResult:
    """Outcome of a DL-model calibration.

    Attributes
    ----------
    parameters:
        The calibrated :class:`DLParameters`.
    loss:
        Final sum-of-squares loss on the training window.
    training_times:
        The hours used for fitting.
    details:
        Optimiser diagnostics (grid-search result, local-fit result, ...).
    """

    parameters: DLParameters
    loss: float
    training_times: tuple[float, ...]
    details: dict = field(default_factory=dict)


def choose_carrying_capacity(
    surface: DensitySurface, margin: float = 1.25, minimum: float = 1.0
) -> float:
    """Pick K as a rounded-up multiple of the largest observed density.

    The paper sets K = 25 for story s1 (hop distance) after observing that
    the density never exceeds 25, and K = 60 for the interest metric.  The
    generalisation here takes the maximum observed density, multiplies by a
    safety margin and rounds up to the next multiple of 5 (so the published
    values are recovered on surfaces with maxima just below 20 / 48).
    """
    if margin < 1.0:
        raise ValueError(f"margin must be >= 1, got {margin}")
    raw = max(surface.max_density * margin, minimum)
    return float(np.ceil(raw / 5.0) * 5.0)


def _training_surface(surface: DensitySurface, training_times: Sequence[float]) -> DensitySurface:
    times = sorted(float(t) for t in training_times)
    if len(times) < 2:
        raise ValueError("at least two training times are required (initial + one target)")
    return surface.restrict_times(times)


def _surface_residuals(
    predicted: DensitySurface, observed: DensitySurface, target_times: Sequence[float]
) -> np.ndarray:
    """Relative residuals over every (distance, target time) cell.

    Residuals are normalised by the observed value (floored at 5% of the
    surface maximum so near-zero cells do not dominate).  This matches the
    paper's evaluation metric -- Equation 8 scores *relative* error -- so the
    calibration optimises the same quantity the tables report, rather than
    letting the high-density distance-1 cells dominate the fit.
    """
    actual, scale = _observed_targets(observed, target_times)
    profiles = predicted.values[predicted.time_indices(target_times)]
    return ((profiles - actual) / scale).ravel()


def _observed_targets(
    observed: DensitySurface, target_times: Sequence[float]
) -> "tuple[np.ndarray, np.ndarray]":
    """Observed ``(target times, distances)`` values and their residual scales."""
    actual = observed.values[observed.time_indices(target_times)]
    floor = max(0.05 * observed.max_density, 1e-9)
    return actual, np.maximum(np.abs(actual), floor)


@dataclass
class _ResidualTargets:
    """What every batched residual evaluation of one calibration shares.

    The observed targets and their scales (see :func:`_observed_targets`),
    and the rows of the solution's output times that hold the target times
    -- found on the first solve, since every solve of a calibration has the
    same output times.
    """

    actual: np.ndarray
    scale: np.ndarray
    rows: "np.ndarray | None" = None

    @classmethod
    def of(cls, observed: DensitySurface, target_times: Sequence[float]) -> "_ResidualTargets":
        return cls(*_observed_targets(observed, target_times))


def _prediction_residuals(
    parameters: DLParameters,
    initial_density: InitialDensity,
    observed: DensitySurface,
    target_times: Sequence[float],
    points_per_unit: int,
    max_step: float,
    backend: str = "internal",
) -> np.ndarray:
    """Residuals of one candidate, computed through a sequential solve."""
    model = DiffusiveLogisticModel(
        parameters,
        points_per_unit=points_per_unit,
        max_step=max_step,
        backend=backend,
    )
    predicted = model.predict(initial_density, list(target_times), observed.distances)
    return _surface_residuals(predicted, observed, target_times)


def _sampled_residuals(
    sampled: np.ndarray,
    times: np.ndarray,
    targets: _ResidualTargets,
    target_times: Sequence[float],
    columns: "list[int] | None" = None,
) -> np.ndarray:
    """Residual rows ``(len(columns), cells)`` of some columns of a sampled solution.

    ``sampled`` is a batched solution sampled at the observed distances,
    ``(len(times), distances, batch)``.  Every column is computed
    elementwise on its own, so its row does not depend on which other
    columns were solved or sampled with it.
    """
    if targets.rows is None:
        # The time lookup DensitySurface.profile makes, once for every candidate.
        targets.rows = label_indices(times, target_times, "time", "solution")
    sampled = sampled[targets.rows]
    if columns is not None:
        sampled = sampled[:, :, columns]
    predicted = np.maximum(sampled, 0.0)
    residuals = np.empty((predicted.shape[2],) + targets.actual.shape)
    np.subtract(predicted.transpose(2, 0, 1), targets.actual, out=residuals)
    residuals /= targets.scale
    return residuals.reshape(predicted.shape[2], -1)


DEFAULT_DIFFUSION_GRID = (0.005, 0.01, 0.02, 0.05, 0.1)
"""Diffusion-rate candidates the calibration searches."""

DEFAULT_AMPLITUDE_GRID = (0.5, 1.0, 1.5, 2.0)
DEFAULT_DECAY_GRID = (0.5, 1.0, 1.5, 2.0)
DEFAULT_FLOOR_GRID = (0.05, 0.1, 0.25, 0.5)
"""Coarse (a, b, c) seed grids of the calibration."""


def calibrate_dl_model(
    observed: DensitySurface,
    training_times: "Sequence[float] | None" = None,
    carrying_capacity: "float | None" = None,
    diffusion_candidates: Sequence[float] = DEFAULT_DIFFUSION_GRID,
    amplitude_grid: Sequence[float] = DEFAULT_AMPLITUDE_GRID,
    decay_grid: Sequence[float] = DEFAULT_DECAY_GRID,
    floor_grid: Sequence[float] = DEFAULT_FLOOR_GRID,
    points_per_unit: int = 8,
    max_step: float = 0.05,
    refine: bool = True,
    refine_starts: int = 4,
    engine: str = "batched",
    backend: str = "internal",
) -> CalibrationResult:
    """Joint calibration of (d, r(t)-parameters), with K from the heuristic.

    Every point of the ``diffusion_candidates x amplitude x decay x floor``
    product becomes one column of a batched solve (columns sharing a
    diffusion rate share each prefactorized operator), the best grid point is
    selected by the relative-residual loss of :func:`_surface_residuals`, and
    -- unless ``refine=False`` -- the top ``refine_starts`` grid candidates
    are polished together by a batched multi-start Levenberg-Marquardt
    refinement: every start and every finite-difference Jacobian column is
    one column of one batched PDE solve per iteration
    (:func:`repro.numerics.optimization.multi_start_least_squares`).

    This is the one-story case of :func:`calibrate_dl_shard`, and the one
    calibration every predictor, model adapter, service and CLI command
    runs.

    Parameters
    ----------
    training_times:
        Hours used for fitting; defaults to the first six observed hours
        (hour 1 provides phi, the later hours the targets), matching the
        paper's first-six-hours evaluation protocol.
    carrying_capacity:
        Fixed K; ``None`` picks it with :func:`choose_carrying_capacity`.
    diffusion_candidates:
        The diffusion rates the grid searches; must not be empty.
    points_per_unit, max_step:
        Solver resolution during fitting (kept coarse for speed; the final
        prediction can use a finer grid).
    refine_starts:
        Number of grid candidates seeding the multi-start refinement.  The
        grid winner is always included; further seeds prefer distinct
        diffusion rates so the refinement explores different basins.
    engine:
        ``"batched"`` evaluates the grid *and* the refinement in batched
        solves; ``"sequential"`` evaluates candidate by candidate through the
        sequential solver.  Both run the *same* algorithm and agree to ~1e-8
        (the equivalence tests assert this); sequential mode exists for
        verification and as the baseline of the substrate benchmark.  The
        sequential engine also solves every rung of the damping ladder, one
        column at a time, so its refinement costs about as many solves as
        ``details["refinement"]["n_evaluations"]``.

    ``details["refinement"]`` records the refinement's cost:
    ``residual_batches`` is the number of batched residual solves (one for
    the seeds, then one Jacobian block and one damping ladder per
    iteration) and ``n_evaluations`` the residual columns solved, which
    counts every ladder rung, including rungs past the one a start takes.
    It also records the per-start ``converged`` flags, why each start
    stopped (``termination``: ``"gradient"``, ``"small_step"``,
    ``"rejected_ladder"`` for a stall, ``"iteration_cap"``; see
    :class:`~repro.numerics.optimization.MultiStartFitResult`) and
    ``parameters_at_bound``, the names of the winning start's growth-rate
    parameters that end on a ``GROWTH_RATE_BOUNDS`` bound (``"floor"`` on
    logistic-shaped stories).

    The refinement runs on (amplitude, ln decay, floor): the decay's loss
    valley is much straighter on a log scale, so LM needs fewer iterations.
    Seeds, the bounds and every residual evaluation go through the map,
    which returns each grid decay and each decay bound exactly, so the
    seeds keep their grid losses and a decay that ends on its bound is
    reported as the bound.  ``details`` report natural (a, b, c).
    """
    if len(diffusion_candidates) == 0:
        raise ValueError("diffusion_candidates must not be empty")
    (result,), _ = calibrate_dl_shard(
        [observed],
        training_times=training_times,
        carrying_capacity=carrying_capacity,
        diffusion_candidates=diffusion_candidates,
        amplitude_grid=amplitude_grid,
        decay_grid=decay_grid,
        floor_grid=floor_grid,
        points_per_unit=points_per_unit,
        max_step=max_step,
        refine=refine,
        refine_starts=refine_starts,
        engine=engine,
        backend=backend,
    )
    if isinstance(result, Exception):
        raise result
    return result


def calibrate_dl_shard(
    surfaces: Sequence[DensitySurface],
    training_times: "Sequence[float] | None" = None,
    carrying_capacity: "float | None" = None,
    diffusion_candidates: Sequence[float] = DEFAULT_DIFFUSION_GRID,
    amplitude_grid: Sequence[float] = DEFAULT_AMPLITUDE_GRID,
    decay_grid: Sequence[float] = DEFAULT_DECAY_GRID,
    floor_grid: Sequence[float] = DEFAULT_FLOOR_GRID,
    points_per_unit: int = 8,
    max_step: float = 0.05,
    refine: bool = True,
    refine_starts: int = 4,
    engine: str = "batched",
    backend: str = "internal",
) -> "tuple[list[CalibrationResult | Exception], list[FitPhase]]":
    """:func:`calibrate_dl_model` of many stories, refined in lock-step.

    Each story's grid search is its own batched solve.  Stories that share
    a distance interval, an initial time and training times then put all
    their refinement starts into one
    :func:`~repro.numerics.optimization.grouped_multi_start_least_squares`
    call, so every iteration is one Jacobian solve and one damping-ladder
    solve for all of them; the best start is picked per story.  Columns of
    a batched solve are independent, so every story's result equals
    calibrating it alone -- parameters, loss and ``details`` (the counters
    count the story's own starts) -- except ``details["refinement"]
    ["seconds"]``, the wall time of the shared refinement.

    ``training_times`` applies to every story; ``None`` means each story's
    own first six observed hours.  Returns ``(results, phases)``: one entry
    per surface, in order -- its :class:`CalibrationResult`, or the
    exception that failed it (for example no finite grid loss), which fails
    that story alone -- and the timed stages, a ``"grid"`` phase per story
    and a ``"refine"`` phase per lock-step group, whose ``stories`` are
    indices into ``surfaces``.
    """
    if engine not in ("batched", "sequential"):
        raise ValueError(f"engine must be 'batched' or 'sequential', got {engine!r}")
    if refine_starts < 1:
        raise ValueError(f"refine_starts must be >= 1, got {refine_starts}")
    settings = _Settings(points_per_unit, max_step, engine, backend)
    results: "list[CalibrationResult | Exception]" = []
    lockstep: "dict[tuple, list[int]]" = {}
    stages: "dict[int, _GridStage]" = {}
    phases: "list[FitPhase]" = []
    for index, observed in enumerate(surfaces):
        phase = _PhaseTimer("grid", (index,))
        try:
            stage = _grid_stage(
                observed,
                training_times,
                carrying_capacity,
                {
                    "diffusion": diffusion_candidates,
                    "amplitude": amplitude_grid,
                    "decay": decay_grid,
                    "floor": floor_grid,
                },
                settings,
            )
        except Exception as error:  # noqa: BLE001 - fails this story alone
            phases.append(phase.finish())
            results.append(error)
            continue
        phases.append(phase.finish())
        results.append(stage.grid_result)
        if refine:
            stages[index] = stage
            lockstep.setdefault(stage.lockstep_key, []).append(index)
    for indices in lockstep.values():
        phase = _PhaseTimer("refine", tuple(indices))
        try:
            refined = _refine_together([stages[i] for i in indices], refine_starts, settings)
        except Exception as error:  # noqa: BLE001 - retried story by story below
            # A failed lock-step refinement is retried story by story, so
            # only the story that fails on its own fails.
            refined = [error]
            if len(indices) > 1:
                refined = [_refine_alone(stages[i], refine_starts, settings) for i in indices]
        phases.append(phase.finish())
        for i, result in zip(indices, refined):
            results[i] = result
    return results, phases


@dataclass(frozen=True)
class FitPhase:
    """One timed stage of fitting a shard.

    ``name`` is the stage (``"grid"``, ``"refine"``, or ``"fit"`` for a
    story fitted in one piece), ``stories`` what it worked on,
    ``start`` its wall-clock start (:func:`time.time`) and ``seconds`` its
    duration.
    """

    name: str
    stories: tuple
    start: float
    seconds: float


class _PhaseTimer:
    """Times one :class:`FitPhase` from construction to :meth:`finish`."""

    def __init__(self, name: str, stories: tuple) -> None:
        self._name, self._stories = name, stories
        self._start, self._t0 = time.time(), time.perf_counter()

    def finish(self) -> FitPhase:
        return FitPhase(
            self._name, self._stories, self._start, time.perf_counter() - self._t0
        )


@dataclass(frozen=True)
class _Settings:
    """How a calibration solves: resolution, engine and backend."""

    points_per_unit: int
    max_step: float
    engine: str
    backend: str

    def residuals(
        self, parameter_sets: "list[DLParameters]", stages: "list[_GridStage]"
    ) -> "list[np.ndarray]":
        """The residual vector of ``parameter_sets[j]`` on the story ``stages[j]``.

        The batched engine solves every column in one batched solve, which
        needs the stories to share their grid, initial time and target
        times; the sequential engine solves column by column.
        """
        if self.engine == "sequential":
            return [
                _prediction_residuals(
                    parameters,
                    stage.initial_density,
                    stage.training,
                    stage.target_times,
                    self.points_per_unit,
                    self.max_step,
                    backend=self.backend,
                )
                for parameters, stage in zip(parameter_sets, stages)
            ]
        solution = solve_dl_batch_states(
            parameter_sets,
            [stage.initial_density for stage in stages],
            list(stages[0].target_times),
            points_per_unit=self.points_per_unit,
            max_step=self.max_step,
            backend=self.backend,
        )
        residuals: "list[np.ndarray]" = [np.empty(0)] * len(stages)
        # Sampled once per distinct set of distances (one for most shards).
        sampled: "dict[bytes, np.ndarray]" = {}
        for stage in {id(stage): stage for stage in stages}.values():
            key = stage.training.distances.tobytes()
            if key not in sampled:
                sampled[key] = solution.sample_surface(stage.training.distances)
            columns = [j for j, other in enumerate(stages) if other is stage]
            rows = _sampled_residuals(
                sampled[key], solution.times, stage.targets, stage.target_times, columns
            )
            for j, row in zip(columns, rows):
                residuals[j] = row
        return residuals


@dataclass
class _GridStage:
    """One story's calibration up to its refinement: the grid and its winner."""

    training: DensitySurface
    initial_density: InitialDensity
    target_times: "list[float]"
    targets: _ResidualTargets
    carrying_capacity: float
    candidates: np.ndarray
    #: Set once the grid is evaluated: every candidate's loss (non-finite
    #: as inf) and the grid winner's result.
    losses: "np.ndarray | None" = None
    grid_result: "CalibrationResult | None" = None

    @property
    def lockstep_key(self) -> tuple:
        """Stories with equal keys can be refined as columns of one batched solve."""
        phi = self.initial_density
        return (phi.lower, phi.upper, phi.initial_time, tuple(self.target_times))

    def parameters(self, theta: np.ndarray, diffusion: float) -> DLParameters:
        """The story's DL parameters at growth-rate parameters ``theta``."""
        amplitude, decay, floor = (float(v) for v in theta)
        return DLParameters(
            diffusion_rate=float(diffusion),
            growth_rate=ExponentialDecayGrowthRate(
                amplitude=amplitude,
                decay=decay,
                floor=floor,
                reference_time=self.initial_density.initial_time,
            ),
            carrying_capacity=self.carrying_capacity,
        )


def _grid_stage(
    observed: DensitySurface,
    training_times: "Sequence[float] | None",
    carrying_capacity: "float | None",
    grids: "dict[str, Sequence[float]]",
    settings: _Settings,
) -> _GridStage:
    """Evaluate one story's seed grid; raises when no candidate has a finite loss."""
    if carrying_capacity is None:
        carrying_capacity = choose_carrying_capacity(observed)
    if training_times is None:
        training_times = default_training_times(observed)
    training = _training_surface(observed, training_times)
    initial_density = InitialDensity.from_surface(training)
    target_times = [float(t) for t in training.times[1:]]
    names, candidates = grid_candidates(grids)
    stage = _GridStage(
        training=training,
        initial_density=initial_density,
        target_times=target_times,
        targets=_ResidualTargets.of(training, target_times),
        carrying_capacity=carrying_capacity,
        candidates=candidates,
    )
    parameter_sets = [stage.parameters(row[1:], row[0]) for row in candidates]
    residual_vectors = settings.residuals(parameter_sets, [stage] * len(parameter_sets))
    losses = np.asarray([sum_of_squares(residuals) for residuals in residual_vectors])
    finite = np.where(np.isfinite(losses), losses, np.inf)
    best_index = int(np.argmin(finite))
    if not np.isfinite(finite[best_index]):
        raise RuntimeError("no grid candidate produced a finite calibration loss")
    best_diffusion, best_amplitude, best_decay, best_floor = candidates[best_index]
    grid_loss = float(losses[best_index])

    per_diffusion: dict[float, float] = {}
    for row, loss in zip(candidates, finite):
        diffusion = float(row[0])
        if np.isfinite(loss):
            per_diffusion[diffusion] = min(per_diffusion.get(diffusion, np.inf), float(loss))

    details = {
        "engine": settings.engine,
        "candidates_evaluated": len(parameter_sets),
        "grid_names": names,
        "grid_loss": grid_loss,
        "grid_winner": {
            "diffusion": float(best_diffusion),
            "amplitude": float(best_amplitude),
            "decay": float(best_decay),
            "floor": float(best_floor),
        },
        "diffusion_grid": per_diffusion,
        "carrying_capacity": carrying_capacity,
    }
    stage.losses = finite
    stage.grid_result = CalibrationResult(
        parameters=parameter_sets[best_index],
        loss=grid_loss,
        training_times=tuple(float(t) for t in training.times),
        details=details,
    )
    return stage


def _refine_alone(
    stage: _GridStage, refine_starts: int, settings: _Settings
) -> "CalibrationResult | Exception":
    try:
        return _refine_together([stage], refine_starts, settings)[0]
    except Exception as error:  # noqa: BLE001 - fails this story alone
        return error


class _LogDecay:
    """The coordinates LM refines a growth rate in: (amplitude, ln decay, floor).

    ``r(t) = a e^{-b (t - 1)} + c`` is a sum of exponentials, the textbook
    "sloppy" least-squares problem: in (a, b, c) its loss valley is curved,
    and on ``ln b`` it is much straighter (Transtrum, Machta & Sethna, PRE
    2011), so LM needs far fewer iterations.  Natural parameters are clipped
    into ``GROWTH_RATE_BOUNDS`` before the map, and the box maps with them.

    ``exp(log(b))`` need not be ``b`` (``exp(log(0.05))`` is
    ``0.05000000000000001``), so the log of each of ``decays`` and of both
    decay bounds maps back to that value exactly: the grid seeds evaluate to
    their grid losses bit for bit, and a decay stepped onto its bound is
    the bound.
    """

    def __init__(self, decays: "np.ndarray | Sequence[float]") -> None:
        low, high = GROWTH_RATE_BOUNDS[0][1], GROWTH_RATE_BOUNDS[1][1]
        exact = np.unique(np.clip(np.asarray(decays, dtype=float), low, high))
        self._exact = {float(np.log(b)): float(b) for b in (low, high, *exact)}
        lower, upper = (self.coordinates(bound).tolist() for bound in GROWTH_RATE_BOUNDS)
        self.bounds = (lower, upper)

    @staticmethod
    def coordinates(theta: "np.ndarray | Sequence[float]") -> np.ndarray:
        """``(a, b, c)`` clipped into ``GROWTH_RATE_BOUNDS``, as ``(a, ln b, c)``."""
        amplitude, decay, floor = np.clip(np.asarray(theta, dtype=float), *GROWTH_RATE_BOUNDS)
        return np.array([amplitude, np.log(decay), floor])

    def natural(self, point: np.ndarray) -> np.ndarray:
        """``(a, ln b, c)`` back to ``(a, b, c)``."""
        amplitude, log_decay, floor = (float(v) for v in point)
        decay = self._exact.get(log_decay)
        if decay is None:
            decay = float(np.exp(log_decay))
        return np.array([amplitude, decay, floor])


def _refine_together(
    stages: "list[_GridStage]", refine_starts: int, settings: _Settings
) -> "list[CalibrationResult | Exception]":
    """Refine the grid winners of stories sharing a lock-step key, in one LM call.

    LM runs in :class:`_LogDecay` coordinates; seeds, bounds and every
    residual evaluation go through the map, and ``details`` report natural
    (a, b, c).
    """
    seeds, groups, seed_diffusions, start_stages = [], [], [], []
    story_seeds = []
    for group, stage in enumerate(stages):
        indices = _select_refinement_seeds(stage.candidates, stage.losses, refine_starts)
        story_seeds.append(indices)
        for i in indices:
            seeds.append(stage.candidates[i][1:])
            groups.append(group)
            seed_diffusions.append(float(stage.candidates[i][0]))
            start_stages.append(stage)
    # Every story of a shard has the same grid, so the map does not depend on
    # which stories share the refinement.
    log_decay = _LogDecay(np.concatenate([stage.candidates[:, 2] for stage in stages]))

    def evaluate(points: np.ndarray, start_indices: np.ndarray) -> "list[np.ndarray]":
        return settings.residuals(
            [
                start_stages[s].parameters(log_decay.natural(point), seed_diffusions[s])
                for point, s in zip(points, start_indices)
            ],
            [start_stages[s] for s in start_indices],
        )

    refinement_start = time.perf_counter()
    fits = grouped_multi_start_least_squares(
        evaluate,
        np.array([log_decay.coordinates(seed) for seed in seeds]),
        groups,
        bounds=log_decay.bounds,
        names=("amplitude", "decay", "floor"),
    )
    refinement_seconds = time.perf_counter() - refinement_start

    results: "list[CalibrationResult | Exception]" = []
    for stage, indices, multi in zip(stages, story_seeds, fits):
        if multi is None:
            results.append(RuntimeError("no start produced a finite refinement loss"))
            continue
        diffusions = [float(stage.candidates[i][0]) for i in indices]
        start_parameters = [log_decay.natural(point) for point in multi.start_parameters]
        best = replace(multi.best, parameters=start_parameters[multi.best_start])
        grid = stage.grid_result
        details = dict(grid.details)
        details["refinement"] = {
            "engine": settings.engine,
            "starts": len(indices),
            "seed_diffusions": diffusions,
            "start_losses": [float(loss) for loss in multi.start_losses],
            "start_parameters": [[float(v) for v in row] for row in start_parameters],
            "best_start": multi.best_start,
            "converged": [bool(flag) for flag in multi.converged],
            "termination": list(multi.termination),
            "parameters_at_bound": [
                name
                for name, value, low, high in zip(
                    best.names, best.parameters, *GROWTH_RATE_BOUNDS
                )
                if value <= low or value >= high
            ],
            "iterations": multi.iterations,
            "n_evaluations": multi.n_evaluations,
            "residual_batches": multi.residual_batches,
            "seconds": refinement_seconds,
        }
        if best.loss <= grid.loss:
            details["refined"] = True
            results.append(
                CalibrationResult(
                    parameters=stage.parameters(best.parameters, diffusions[multi.best_start]),
                    loss=float(best.loss),
                    training_times=grid.training_times,
                    details={**details, "growth_rate_fit": best},
                )
            )
        else:
            details["refined"] = False
            results.append(
                CalibrationResult(grid.parameters, grid.loss, grid.training_times, details)
            )
    return results


def _select_refinement_seeds(
    candidates: np.ndarray, losses: np.ndarray, refine_starts: int
) -> "list[int]":
    """Pick the grid rows that seed the multi-start refinement.

    The grid winner always comes first; the remaining slots prefer the best
    row of each *distinct diffusion rate* (so the local refinement explores
    different basins of the non-convex loss) before falling back to the next
    best rows overall.  Rows with non-finite losses are never selected.
    """
    order = [int(i) for i in np.argsort(losses, kind="stable") if np.isfinite(losses[i])]
    chosen: list[int] = []
    seen_diffusions: set[float] = set()
    for index in order:
        diffusion = float(candidates[index][0])
        if diffusion in seen_diffusions:
            continue
        seen_diffusions.add(diffusion)
        chosen.append(index)
        if len(chosen) >= refine_starts:
            return chosen
    for index in order:
        if len(chosen) >= refine_starts:
            break
        if index not in chosen:
            chosen.append(index)
    return chosen
