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
* :func:`fit_growth_rate` -- least-squares fit of the exponential-decay growth
  rate ``r(t) = a e^{-b (t - 1)} + c`` with d and K held fixed.
* :func:`calibrate_dl_model` -- joint coarse-grid + local-refinement fit of
  (d, a, b, c), with K chosen by the heuristic.
* :func:`calibrate_dl_model_batched` -- the same coarse-grid + refinement
  shape, but fully vectorised: every grid candidate is one column of a
  single batched PDE solve, and the refinement stage advances the top-N grid
  seeds together through a batched multi-start Levenberg-Marquardt
  (:func:`repro.numerics.optimization.multi_start_least_squares`) whose
  residual and finite-difference Jacobian evaluations are themselves columns
  of batched solves (``calibrate_dl_model(..., batch=True)`` delegates
  here).  The ``engine`` knob switches between the batched evaluation and a
  candidate-by-candidate sequential reference, which the tests use to verify
  the two paths agree to ~1e-8.

All fits compare DL-model predictions against the observed density surface on
a *training window* of early hours, exactly like the paper's setup where only
the initial phase of the cascade is assumed known.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.cascade.density import DensitySurface
from repro.core.dl_model import DiffusiveLogisticModel, solve_dl_batch_states
from repro.core.initial_density import InitialDensity
from repro.core.parameters import DLParameters, ExponentialDecayGrowthRate
from repro.numerics.optimization import (
    FitResult,
    grid_candidates,
    grid_search,
    least_squares_fit,
    multi_start_least_squares,
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
    profiles = np.stack([predicted.profile(time) for time in target_times])
    return ((profiles - actual) / scale).ravel()


def _observed_targets(
    observed: DensitySurface, target_times: Sequence[float]
) -> "tuple[np.ndarray, np.ndarray]":
    """Observed ``(target times, distances)`` values and their residual scales."""
    actual = np.stack([observed.profile(time) for time in target_times])
    floor = max(0.05 * observed.max_density, 1e-9)
    return actual, np.maximum(np.abs(actual), floor)


def _prediction_residuals(
    parameters: DLParameters,
    initial_density: InitialDensity,
    observed: DensitySurface,
    target_times: Sequence[float],
    points_per_unit: int,
    max_step: float,
    backend: str = "internal",
    operator: str = "auto",
) -> np.ndarray:
    """Residuals of one candidate, computed through a sequential solve."""
    model = DiffusiveLogisticModel(
        parameters,
        points_per_unit=points_per_unit,
        max_step=max_step,
        backend=backend,
        operator=operator,
    )
    predicted = model.predict(initial_density, list(target_times), observed.distances)
    return _surface_residuals(predicted, observed, target_times)


def _batch_prediction_residuals(
    parameter_sets: Sequence[DLParameters],
    initial_density: InitialDensity,
    observed: DensitySurface,
    target_times: Sequence[float],
    points_per_unit: int,
    max_step: float,
    backend: str = "internal",
    operator: str = "auto",
) -> "list[np.ndarray]":
    """Residuals of many candidates, all advanced in one batched solve.

    Every candidate is sampled at once from the ``(times, nodes, batch)``
    state tensor; each returned vector equals :func:`_surface_residuals` of
    that candidate bit for bit and is C-contiguous (``np.dot`` on a strided
    view may round differently, which the refinement would amplify).
    """
    solution = solve_dl_batch_states(
        parameter_sets,
        initial_density,
        list(target_times),
        points_per_unit=points_per_unit,
        max_step=max_step,
        backend=backend,
        operator=operator,
    )
    # The time lookup DensitySurface.profile makes, once for every candidate.
    rows = [int(np.nonzero(np.isclose(solution.times, t))[0][0]) for t in target_times]
    predicted = np.maximum(solution.sample_surface(observed.distances)[rows], 0.0)
    actual, scale = _observed_targets(observed, target_times)
    residuals = np.empty((solution.batch_size,) + actual.shape)
    np.subtract(predicted.transpose(2, 0, 1), actual, out=residuals)
    residuals /= scale
    return list(residuals.reshape(solution.batch_size, -1))


def fit_growth_rate(
    observed: DensitySurface,
    diffusion_rate: float,
    carrying_capacity: float,
    training_times: "Sequence[float] | None" = None,
    points_per_unit: int = 8,
    max_step: float = 0.05,
    initial_guess: "Sequence[float] | None" = None,
    backend: str = "internal",
    operator: str = "auto",
) -> CalibrationResult:
    """Fit the exponential-decay growth rate with d and K fixed.

    Parameters
    ----------
    observed:
        The observed density surface (training data is sliced from it).
    diffusion_rate, carrying_capacity:
        Fixed d and K.
    training_times:
        Hours used for fitting; defaults to the first six observed hours
        (hour 1 provides phi, hours 2..6 provide the targets), matching the
        paper's first-six-hours evaluation protocol.
    points_per_unit, max_step:
        Solver resolution during fitting (kept coarse for speed; the final
        prediction can use a finer grid).
    initial_guess:
        Optional ``(amplitude, decay, floor)`` seed for the local optimiser;
        the batched calibration passes its grid winner here.
    backend:
        Solver backend used for the residual solves.
    operator:
        Crank-Nicolson operator factorization mode forwarded to the solver.
    """
    if training_times is None:
        training_times = [float(t) for t in observed.times[: min(6, observed.times.size)]]
    training = _training_surface(observed, training_times)
    initial_density = InitialDensity.from_surface(training)
    target_times = [float(t) for t in training.times[1:]]

    def residual(theta: np.ndarray) -> np.ndarray:
        amplitude, decay, floor = theta
        parameters = DLParameters(
            diffusion_rate=diffusion_rate,
            growth_rate=ExponentialDecayGrowthRate(
                amplitude=max(amplitude, 0.0),
                decay=max(decay, 0.0),
                floor=max(floor, 0.0),
                reference_time=initial_density.initial_time,
            ),
            carrying_capacity=carrying_capacity,
        )
        return _prediction_residuals(
            parameters,
            initial_density,
            training,
            target_times,
            points_per_unit,
            max_step,
            backend=backend,
            operator=operator,
        )

    fit = least_squares_fit(
        residual,
        initial_guess=list(initial_guess) if initial_guess is not None else [1.0, 1.0, 0.1],
        bounds=(list(GROWTH_RATE_BOUNDS[0]), list(GROWTH_RATE_BOUNDS[1])),
        names=("amplitude", "decay", "floor"),
    )
    amplitude, decay, floor = fit.parameters
    parameters = DLParameters(
        diffusion_rate=diffusion_rate,
        growth_rate=ExponentialDecayGrowthRate(
            amplitude=float(amplitude),
            decay=float(decay),
            floor=float(floor),
            reference_time=initial_density.initial_time,
        ),
        carrying_capacity=carrying_capacity,
    )
    return CalibrationResult(
        parameters=parameters,
        loss=fit.loss,
        training_times=tuple(float(t) for t in training.times),
        details={"growth_rate_fit": fit},
    )


DEFAULT_AMPLITUDE_GRID = (0.5, 1.0, 1.5, 2.0)
DEFAULT_DECAY_GRID = (0.5, 1.0, 1.5, 2.0)
DEFAULT_FLOOR_GRID = (0.05, 0.1, 0.25, 0.5)
"""Coarse (a, b, c) seed grids for the batched calibration path."""


def calibrate_dl_model(
    observed: DensitySurface,
    training_times: "Sequence[float] | None" = None,
    carrying_capacity: "float | None" = None,
    diffusion_candidates: Sequence[float] = (0.005, 0.01, 0.02, 0.05, 0.1),
    points_per_unit: int = 8,
    max_step: float = 0.05,
    batch: bool = False,
    backend: str = "internal",
    operator: str = "auto",
) -> CalibrationResult:
    """Joint calibration of (d, r(t)-parameters) with K from the heuristic.

    With ``batch=False`` (default), the diffusion rate is chosen by a coarse
    grid search with a full growth-rate fit nested inside each candidate,
    then the growth-rate parameters of the winning d are kept -- the original
    one-solve-at-a-time protocol.

    With ``batch=True``, calibration delegates to
    :func:`calibrate_dl_model_batched`: the full (d, a, b, c) seed grid is
    evaluated in vectorised batched solves (every candidate is one column of
    one state matrix, sharing each cached operator factorization), and the
    top grid candidates are polished together by a batched multi-start
    refinement -- no sequential solve loop anywhere.  This is several times
    faster at equal accuracy and is what the batched predictor and the
    ``repro predict-batch`` CLI use.
    """
    if len(diffusion_candidates) == 0:
        raise ValueError("diffusion_candidates must not be empty")
    if batch:
        return calibrate_dl_model_batched(
            observed,
            training_times=training_times,
            carrying_capacity=carrying_capacity,
            diffusion_candidates=diffusion_candidates,
            points_per_unit=points_per_unit,
            max_step=max_step,
            backend=backend,
            operator=operator,
        )
    if carrying_capacity is None:
        carrying_capacity = choose_carrying_capacity(observed)
    if training_times is None:
        training_times = [float(t) for t in observed.times[: min(6, observed.times.size)]]

    best: "CalibrationResult | None" = None
    per_candidate: dict[float, float] = {}
    for candidate in diffusion_candidates:
        result = fit_growth_rate(
            observed,
            diffusion_rate=float(candidate),
            carrying_capacity=carrying_capacity,
            training_times=training_times,
            points_per_unit=points_per_unit,
            max_step=max_step,
            backend=backend,
            operator=operator,
        )
        per_candidate[float(candidate)] = result.loss
        if best is None or result.loss < best.loss:
            best = result
    assert best is not None  # diffusion_candidates is validated non-empty above
    best.details["diffusion_grid"] = per_candidate
    best.details["carrying_capacity"] = carrying_capacity
    return best


def calibrate_dl_model_batched(
    observed: DensitySurface,
    training_times: "Sequence[float] | None" = None,
    carrying_capacity: "float | None" = None,
    diffusion_candidates: Sequence[float] = (0.005, 0.01, 0.02, 0.05, 0.1),
    amplitude_grid: Sequence[float] = DEFAULT_AMPLITUDE_GRID,
    decay_grid: Sequence[float] = DEFAULT_DECAY_GRID,
    floor_grid: Sequence[float] = DEFAULT_FLOOR_GRID,
    points_per_unit: int = 8,
    max_step: float = 0.05,
    refine: bool = True,
    refine_starts: int = 4,
    engine: str = "batched",
    backend: str = "internal",
    operator: str = "auto",
) -> CalibrationResult:
    """Grid-then-refine calibration with vectorised candidate evaluation.

    Every point of the ``diffusion_candidates x amplitude x decay x floor``
    product becomes one column of a batched solve (columns sharing a
    diffusion rate share each prefactorized operator), the best grid point is
    selected by the same relative-residual loss the sequential path uses, and
    -- unless ``refine=False`` -- the top ``refine_starts`` grid candidates
    are polished together by a batched multi-start Levenberg-Marquardt
    refinement: every start and every finite-difference Jacobian column is
    one column of one batched PDE solve per iteration
    (:func:`repro.numerics.optimization.multi_start_least_squares`), so no
    sequential least-squares loop remains anywhere in the calibration.

    Parameters
    ----------
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
    """
    if engine not in ("batched", "sequential"):
        raise ValueError(f"engine must be 'batched' or 'sequential', got {engine!r}")
    if carrying_capacity is None:
        carrying_capacity = choose_carrying_capacity(observed)
    if training_times is None:
        training_times = [float(t) for t in observed.times[: min(6, observed.times.size)]]
    training = _training_surface(observed, training_times)
    initial_density = InitialDensity.from_surface(training)
    target_times = [float(t) for t in training.times[1:]]

    names, candidates = grid_candidates(
        {
            "diffusion": diffusion_candidates,
            "amplitude": amplitude_grid,
            "decay": decay_grid,
            "floor": floor_grid,
        }
    )
    parameter_sets = [
        DLParameters(
            diffusion_rate=float(diffusion),
            growth_rate=ExponentialDecayGrowthRate(
                amplitude=float(amplitude),
                decay=float(decay),
                floor=float(floor),
                reference_time=initial_density.initial_time,
            ),
            carrying_capacity=carrying_capacity,
        )
        for diffusion, amplitude, decay, floor in candidates
    ]

    if engine == "batched":
        residual_vectors = _batch_prediction_residuals(
            parameter_sets,
            initial_density,
            training,
            target_times,
            points_per_unit,
            max_step,
            backend=backend,
            operator=operator,
        )
    else:
        residual_vectors = [
            _prediction_residuals(
                parameters,
                initial_density,
                training,
                target_times,
                points_per_unit,
                max_step,
                backend=backend,
                operator=operator,
            )
            for parameters in parameter_sets
        ]
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
        "engine": engine,
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

    grid_result = CalibrationResult(
        parameters=parameter_sets[best_index],
        loss=grid_loss,
        training_times=tuple(float(t) for t in training.times),
        details=details,
    )
    if not refine:
        return grid_result

    seed_indices = _select_refinement_seeds(candidates, finite, refine_starts)
    seed_diffusions = np.asarray([float(candidates[i][0]) for i in seed_indices])

    def make_parameters(theta: np.ndarray, diffusion: float) -> DLParameters:
        amplitude, decay, floor = (float(v) for v in theta)
        return DLParameters(
            diffusion_rate=float(diffusion),
            growth_rate=ExponentialDecayGrowthRate(
                amplitude=amplitude,
                decay=decay,
                floor=floor,
                reference_time=initial_density.initial_time,
            ),
            carrying_capacity=carrying_capacity,
        )

    if engine == "batched":

        def evaluate(points: np.ndarray, start_indices: np.ndarray) -> "list[np.ndarray]":
            return _batch_prediction_residuals(
                [
                    make_parameters(theta, seed_diffusions[s])
                    for theta, s in zip(points, start_indices)
                ],
                initial_density,
                training,
                target_times,
                points_per_unit,
                max_step,
                backend=backend,
                operator=operator,
            )

    else:

        def evaluate(points: np.ndarray, start_indices: np.ndarray) -> "list[np.ndarray]":
            return [
                _prediction_residuals(
                    make_parameters(theta, seed_diffusions[s]),
                    initial_density,
                    training,
                    target_times,
                    points_per_unit,
                    max_step,
                    backend=backend,
                    operator=operator,
                )
                for theta, s in zip(points, start_indices)
            ]

    refinement_start = time.perf_counter()
    multi = multi_start_least_squares(
        evaluate,
        np.asarray([candidates[i][1:] for i in seed_indices]),
        bounds=GROWTH_RATE_BOUNDS,
        names=("amplitude", "decay", "floor"),
    )
    refinement_seconds = time.perf_counter() - refinement_start
    details["refinement"] = {
        "engine": engine,
        "starts": len(seed_indices),
        "seed_diffusions": [float(d) for d in seed_diffusions],
        "start_losses": [float(loss) for loss in multi.start_losses],
        "start_parameters": [
            [float(v) for v in row] for row in multi.start_parameters
        ],
        "best_start": multi.best_start,
        "iterations": multi.iterations,
        "n_evaluations": multi.n_evaluations,
        "residual_batches": multi.residual_batches,
        "seconds": refinement_seconds,
    }

    if multi.best.loss <= grid_loss:
        details["refined"] = True
        return CalibrationResult(
            parameters=make_parameters(
                multi.best.parameters, seed_diffusions[multi.best_start]
            ),
            loss=float(multi.best.loss),
            training_times=tuple(float(t) for t in training.times),
            details={**details, "growth_rate_fit": multi.best},
        )
    details["refined"] = False
    return grid_result


def _select_refinement_seeds(
    candidates: np.ndarray, losses: np.ndarray, refine_starts: int
) -> "list[int]":
    """Pick the grid rows that seed the multi-start refinement.

    The grid winner always comes first; the remaining slots prefer the best
    row of each *distinct diffusion rate* (so the local refinement explores
    different basins of the non-convex loss) before falling back to the next
    best rows overall.  Rows with non-finite losses are never selected.
    """
    if refine_starts < 1:
        raise ValueError(f"refine_starts must be >= 1, got {refine_starts}")
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


def growth_rate_grid_result(
    observed: DensitySurface,
    diffusion_rate: float,
    carrying_capacity: float,
    amplitude_grid: Sequence[float] = (0.5, 1.0, 1.5, 2.0),
    decay_grid: Sequence[float] = (0.5, 1.0, 1.5, 2.0),
    floor_grid: Sequence[float] = (0.05, 0.1, 0.25, 0.5),
    training_times: "Sequence[float] | None" = None,
    points_per_unit: int = 6,
    max_step: float = 0.1,
) -> FitResult:
    """Coarse grid search over (a, b, c) -- used to seed or sanity-check fits.

    Exposed separately because the FIG-6 benchmark reports how close the
    recovered growth-rate curve is to the paper's published Equation 7.
    """
    if training_times is None:
        training_times = [float(t) for t in observed.times[: min(6, observed.times.size)]]
    training = _training_surface(observed, training_times)
    initial_density = InitialDensity.from_surface(training)
    target_times = [float(t) for t in training.times[1:]]

    def objective(theta: np.ndarray) -> float:
        amplitude, decay, floor = theta
        parameters = DLParameters(
            diffusion_rate=diffusion_rate,
            growth_rate=ExponentialDecayGrowthRate(
                amplitude=float(amplitude),
                decay=float(decay),
                floor=float(floor),
                reference_time=initial_density.initial_time,
            ),
            carrying_capacity=carrying_capacity,
        )
        residuals = _prediction_residuals(
            parameters, initial_density, training, target_times, points_per_unit, max_step
        )
        return float(0.5 * np.dot(residuals, residuals))

    return grid_search(
        objective,
        {"amplitude": amplitude_grid, "decay": decay_grid, "floor": floor_grid},
    )
