"""Least-squares fitting utilities used for DL-model calibration.

Section II-D of the paper gives only guidelines for choosing the parameters
(r, d, K); the evaluation section then reports hand-chosen values for story
s1.  For the reproduction we additionally provide automated calibration
(:mod:`repro.core.calibration`) built on the utilities here:

* :func:`least_squares_fit` -- a thin, bounded wrapper around
  ``scipy.optimize.least_squares`` returning a structured :class:`FitResult`.
* :func:`multi_start_least_squares` -- a bounded, active-set
  Levenberg-Marquardt refinement that advances *many* starting points in
  lockstep, evaluating every finite-difference Jacobian column of every
  start through one batched callback per iteration, and every rung of every
  start's damping ladder through a second one.  A parameter that sits on a
  bound while the gradient pushes it outward is held there, and the step is
  solved on the remaining free parameters; a step that would cross a bound
  puts that parameter on it and re-solves the rest.  This is what lets the DL
  calibration refine N seed candidates as columns of a single batched PDE
  solve instead of running N sequential ``scipy.optimize.least_squares``
  loops, and converge when the optimum has a parameter on its bound.
  :func:`grouped_multi_start_least_squares` runs the starts of several
  independent problems (a shard's calibrations) in the same lock-step
  calls and returns one result per problem.
* :func:`grid_candidates` -- the Cartesian-product candidates of a coarse
  grid, scored in batched solves to seed the local optimiser (the DL
  objective is non-convex in (d, r-parameters, K)).
* the loss helper :func:`sum_of_squares`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Mapping, Sequence

import numpy as np

ResidualFunction = Callable[[np.ndarray], np.ndarray]
"""Maps a parameter vector to a residual vector (not squared)."""

BatchResidualFunction = Callable[[np.ndarray, np.ndarray], "Sequence[np.ndarray]"]
"""Maps ``(points, start_indices)`` to one residual vector per point.

``points`` has shape ``(m, n_params)``; ``start_indices`` has shape ``(m,)``
and tells the callback which *start* each row refines, for callers whose
residual depends on per-start fixed context (e.g. the diffusion rate each
calibration seed is pinned to).  Implementations are expected to evaluate all
rows together -- that is the whole point of the batched refinement.
"""


def sum_of_squares(residuals: np.ndarray) -> float:
    """0.5 * sum of squared residuals (the canonical least-squares loss)."""
    residuals = np.asarray(residuals, dtype=float)
    return 0.5 * float(np.dot(residuals, residuals))


@dataclass
class FitResult:
    """Outcome of a parameter fit.

    Attributes
    ----------
    parameters:
        Best parameter vector found.
    loss:
        Final scalar loss (0.5 * sum of squared residuals for least squares).
    success:
        Whether the optimiser reported convergence.
    n_evaluations:
        Number of objective/residual evaluations.
    message:
        Human-readable optimiser status.
    names:
        Optional parameter names, aligned with ``parameters``.
    """

    parameters: np.ndarray
    loss: float
    success: bool
    n_evaluations: int = 0
    message: str = ""
    names: tuple[str, ...] = field(default_factory=tuple)

    def as_dict(self) -> dict[str, float]:
        """Return a name -> value mapping (requires ``names`` to be set)."""
        if len(self.names) != len(self.parameters):
            raise ValueError("parameter names are not available for this fit")
        return {name: float(value) for name, value in zip(self.names, self.parameters)}


def least_squares_fit(
    residual: ResidualFunction,
    initial_guess: Sequence[float],
    bounds: "tuple[Sequence[float], Sequence[float]] | None" = None,
    names: "Sequence[str] | None" = None,
    max_evaluations: int = 5000,
) -> FitResult:
    """Bounded nonlinear least squares via scipy's trust-region reflective solver.

    Parameters
    ----------
    residual:
        Function returning the residual vector for a parameter vector.
    initial_guess:
        Starting point; its length defines the parameter dimension.
    bounds:
        Optional ``(lower, upper)`` bound sequences of the same length.
    names:
        Optional parameter names recorded on the result.
    max_evaluations:
        Cap on residual evaluations.
    """
    from scipy.optimize import least_squares as scipy_least_squares

    x0 = np.asarray(initial_guess, dtype=float)
    if x0.ndim != 1 or x0.size == 0:
        raise ValueError("initial_guess must be a non-empty 1-D sequence")
    if bounds is None:
        scipy_bounds = (-np.inf, np.inf)
    else:
        lower = np.asarray(bounds[0], dtype=float)
        upper = np.asarray(bounds[1], dtype=float)
        if lower.shape != x0.shape or upper.shape != x0.shape:
            raise ValueError("bounds must match the length of the initial guess")
        x0 = np.clip(x0, lower, upper)
        scipy_bounds = (lower, upper)

    result = scipy_least_squares(
        residual,
        x0,
        bounds=scipy_bounds,
        max_nfev=max_evaluations,
    )
    return FitResult(
        parameters=np.asarray(result.x, dtype=float),
        loss=sum_of_squares(result.fun),
        success=bool(result.success),
        n_evaluations=int(result.nfev),
        message=str(result.message),
        names=tuple(names) if names is not None else tuple(),
    )


@dataclass
class MultiStartFitResult:
    """Outcome of a batched multi-start refinement.

    Attributes
    ----------
    best:
        The overall winner as a plain :class:`FitResult`.
    start_parameters:
        Final parameter vector of every start, shape ``(n_starts, n_params)``.
    start_losses:
        Final loss of every start, shape ``(n_starts,)``.
    best_start:
        Row index of the winning start.
    iterations:
        Levenberg-Marquardt iterations performed (shared by all starts).
    n_evaluations:
        Total number of residual evaluations: every row passed to the
        callback, including damping-ladder rungs that were solved but not
        taken.
    converged:
        Per-start convergence flags: true for the ``"gradient"`` and
        ``"small_step"`` terminations.
    termination:
        Why each start stopped: ``"gradient"`` (projected gradient under
        its tolerance), ``"small_step"`` (an accepted step moved the point
        or the loss by less than its tolerance), ``"rejected_ladder"``
        (every damping rung failed to lower the loss: a stall, not a
        minimum), ``"iteration_cap"`` (still improving at
        ``max_iterations``) or ``"non_finite_seed"`` (the seed's loss was not
        finite, so the start never moved).
    residual_batches:
        Number of ``residual_batch`` calls: one for the seeds, then at most
        two per iteration (the Jacobian block and the damping ladder).
    """

    best: FitResult
    start_parameters: np.ndarray
    start_losses: np.ndarray
    best_start: int
    iterations: int
    n_evaluations: int
    converged: np.ndarray
    termination: "tuple[str, ...]"
    residual_batches: int


def multi_start_least_squares(
    residual_batch: BatchResidualFunction,
    seeds: "np.ndarray | Sequence[Sequence[float]]",
    bounds: "tuple[Sequence[float], Sequence[float]] | None" = None,
    names: "Sequence[str] | None" = None,
    max_iterations: int = 40,
    finite_difference_step: float = 1e-6,
    gradient_tolerance: float = 1e-10,
    step_tolerance: float = 1e-10,
    loss_tolerance: float = 1e-12,
    max_step_retries: int = 6,
) -> MultiStartFitResult:
    """Refine many starting points at once with an active-set Levenberg-Marquardt.

    All starts advance in lockstep: each iteration gathers the residuals of
    every start plus the forward-difference perturbations of every parameter
    into *one* ``residual_batch`` call, then each start takes its own damped
    Gauss-Newton step.  The callback therefore sees large blocks of parameter
    vectors it can evaluate together -- for the DL calibration those blocks
    become columns of a single batched PDE solve.

    The step is an active-set projected step.  From the start's gradient
    ``g = J^T r``, a parameter is *held* when it sits on a bound and ``g``
    points out of the box (``x <= lower`` with ``g > 0``, or ``x >= upper``
    with ``g < 0``).  The damped normal equations are solved on the free
    parameters only, and the held ones keep their value.  Solving the full
    system and clipping afterwards would let the bound-pushing parameter
    distort the free ones, so a fit whose optimum lies on a bound would
    crawl to ``max_iterations``.

    Each rung's step is then projected onto the box.  A free parameter the
    step would push past a bound goes exactly onto that bound, and the
    remaining free parameters are solved again from the same damped normal
    equations with that shift moved to the right-hand side,
    ``-J_rest^T (r + J shift)``; the candidate is finally clipped.  Clipping
    the crossing step instead would keep the other parameters' share of a
    step that assumed the crossing one moved all the way, so a parameter
    heading for its bound would approach it geometrically, rung by rung.
    A step that crosses no bound is the plain damped solve.

    The step is chosen from a damping ladder: rung ``k`` of a start damps by
    ``4**k`` times its current damping, and the start takes the first rung,
    in escalation order, whose loss decreases (then relaxes its damping by
    0.3; if no rung decreases the loss, the start stops as stalled,
    ``"rejected_ladder"``, and does not count as converged).  All
    ``max_step_retries`` rungs of every start are evaluated in a *second*
    ``residual_batch`` call, so an iteration costs at most two calls however
    many rungs are rejected.  The iterates are exactly those of trying one
    rung per call; the price is that ``n_evaluations`` counts every rung
    solved, including rungs past the accepted one.

    The algorithm is deterministic and uses only accepted (loss-decreasing)
    steps, so the final loss of each start never exceeds its seed loss.

    Parameters
    ----------
    residual_batch:
        Batched residual callback; see :data:`BatchResidualFunction`.
    seeds:
        Starting points, shape ``(n_starts, n_params)``.
    bounds:
        Optional ``(lower, upper)`` box; seeds are clipped into it.
    names:
        Optional parameter names recorded on the winning :class:`FitResult`.
    max_iterations:
        Cap on Levenberg-Marquardt iterations.
    finite_difference_step:
        Relative forward-difference step for the Jacobian.
    gradient_tolerance, step_tolerance, loss_tolerance:
        A start freezes when its projected gradient (held entries zeroed),
        accepted step or loss improvement falls below the corresponding
        tolerance.
    max_step_retries:
        Rungs of the damping ladder (damping escalations tried per iteration
        before a start is declared stalled); at least 1.
    """
    (fit,) = grouped_multi_start_least_squares(
        residual_batch,
        seeds,
        np.zeros(len(seeds), dtype=int),
        bounds=bounds,
        names=names,
        max_iterations=max_iterations,
        finite_difference_step=finite_difference_step,
        gradient_tolerance=gradient_tolerance,
        step_tolerance=step_tolerance,
        loss_tolerance=loss_tolerance,
        max_step_retries=max_step_retries,
    )
    if fit is None:
        raise RuntimeError("no start produced a finite refinement loss")
    return fit


def grouped_multi_start_least_squares(
    residual_batch: BatchResidualFunction,
    seeds: "np.ndarray | Sequence[Sequence[float]]",
    groups: "np.ndarray | Sequence[int]",
    bounds: "tuple[Sequence[float], Sequence[float]] | None" = None,
    names: "Sequence[str] | None" = None,
    max_iterations: int = 40,
    finite_difference_step: float = 1e-6,
    gradient_tolerance: float = 1e-10,
    step_tolerance: float = 1e-10,
    loss_tolerance: float = 1e-12,
    max_step_retries: int = 6,
) -> "list[MultiStartFitResult | None]":
    """:func:`multi_start_least_squares` of several independent problems at once.

    ``groups[s]`` (``0 .. G-1``) names the problem start ``s`` refines.
    Every start of every group advances in the same lock-step iterations,
    so an iteration is still at most two ``residual_batch`` calls; the
    callback receives global start indices.  Every start takes the
    active-set, bound-projected step described there.  Starts never
    interact, so each group's result is exactly what
    :func:`multi_start_least_squares` returns for its starts alone: its best
    start (indexed among the group's starts), and ``iterations``,
    ``residual_batches`` and ``n_evaluations`` counted over the iterations
    and calls in which the group had a start in play.  A group none of
    whose starts has a finite loss gets ``None``.
    """
    points = np.array(seeds, dtype=float)
    if points.ndim != 2 or points.size == 0:
        raise ValueError("seeds must be a non-empty (n_starts, n_params) array")
    if max_step_retries < 1:
        raise ValueError(f"max_step_retries must be >= 1, got {max_step_retries}")
    n_starts, n_params = points.shape
    if bounds is None:
        lower = np.full(n_params, -np.inf)
        upper = np.full(n_params, np.inf)
    else:
        lower = np.asarray(bounds[0], dtype=float)
        upper = np.asarray(bounds[1], dtype=float)
        if lower.shape != (n_params,) or upper.shape != (n_params,):
            raise ValueError("bounds must match the seed parameter dimension")
        points = np.clip(points, lower, upper)
    groups = np.asarray(groups, dtype=int)
    if groups.shape != (n_starts,) or groups.min() < 0:
        raise ValueError("groups must hold one non-negative group index per seed")
    n_groups = int(groups.max()) + 1

    def per_group(starts: "np.ndarray | list[int]") -> np.ndarray:
        """How many of ``starts`` each group has."""
        return np.bincount(groups[starts], minlength=n_groups)

    all_indices = np.arange(n_starts)
    residuals = [np.asarray(r, dtype=float) for r in residual_batch(points, all_indices)]
    if len(residuals) != n_starts:
        raise ValueError(
            f"residual_batch returned {len(residuals)} residual vectors for "
            f"{n_starts} points"
        )
    losses = np.array([sum_of_squares(r) for r in residuals])
    n_evaluations = per_group(all_indices)
    residual_batches = np.ones(n_groups, dtype=int)
    damping = np.full(n_starts, 1e-3)
    active = np.isfinite(losses)
    termination = np.where(active, "iteration_cap", "non_finite_seed").astype(object)
    iterations = np.zeros(n_groups, dtype=int)

    for _ in range(max_iterations):
        active_idx = np.nonzero(active)[0]
        if active_idx.size == 0:
            break
        in_play = per_group(active_idx)
        iterations += in_play > 0

        # One batched call evaluates every forward-difference perturbation of
        # every active start (steps flip backward at the upper bound so the
        # perturbed point stays inside the box).
        steps = np.empty((active_idx.size, n_params))
        block = np.empty((active_idx.size * n_params, n_params))
        block_start = np.empty(active_idx.size * n_params, dtype=int)
        for row, s in enumerate(active_idx):
            x = points[s]
            h = finite_difference_step * np.maximum(1.0, np.abs(x))
            h = np.where(x + h > upper, -h, h)
            steps[row] = h
            for j in range(n_params):
                perturbed = x.copy()
                perturbed[j] += h[j]
                block[row * n_params + j] = perturbed
                block_start[row * n_params + j] = s
        perturbed_residuals = residual_batch(block, block_start)
        residual_batches += in_play > 0
        n_evaluations += in_play * n_params

        # Each start's gradient J^T r is formed once and serves both the
        # convergence test and the ladder.  A parameter on a bound whose
        # gradient points out of the box is held: it drops out of the step
        # and out of the convergence test (the projected gradient).
        jacobians: dict[int, np.ndarray] = {}
        gradients: dict[int, np.ndarray] = {}
        held: dict[int, np.ndarray] = {}
        for row, s in enumerate(active_idx):
            base = residuals[s]
            jacobian = np.empty((base.size, n_params))
            for j in range(n_params):
                shifted = np.asarray(perturbed_residuals[row * n_params + j], dtype=float)
                jacobian[:, j] = (shifted - base) / steps[row, j]
            gradient = jacobian.T @ base
            x = points[s]
            at_bound = ((x <= lower) & (gradient > 0)) | ((x >= upper) & (gradient < 0))
            jacobians[s] = jacobian
            gradients[s] = gradient
            held[s] = at_bound
            if np.max(np.abs(np.where(at_bound, 0.0, gradient))) < gradient_tolerance:
                active[s] = False
                termination[s] = "gradient"

        # Damped Gauss-Newton steps: the whole damping ladder of every
        # pending start (rung k damps by 4**k) is solved in one batched call,
        # and each start takes the first rung, in escalation order, whose
        # loss decreases -- the step a one-rung-per-call retry loop takes.
        pending = [s for s in active_idx if active[s]]
        if pending:
            ladder = np.empty((len(pending), max_step_retries, n_params))
            for row, s in enumerate(pending):
                jacobian = jacobians[s]
                normal = jacobian.T @ jacobian
                rung_damping = damping[s]
                for rung in range(max_step_retries):
                    ladder[row, rung] = _projected_step(
                        points[s],
                        jacobian,
                        residuals[s],
                        normal,
                        gradients[s],
                        ~held[s],
                        rung_damping,
                        lower,
                        upper,
                    )
                    rung_damping *= 4.0
            ladder_residuals = residual_batch(
                ladder.reshape(-1, n_params), np.repeat(pending, max_step_retries)
            )
            pending_in_group = per_group(pending)
            residual_batches += pending_in_group > 0
            n_evaluations += pending_in_group * max_step_retries

            for row, s in enumerate(pending):
                for rung in range(max_step_retries):
                    candidate = ladder[row, rung]
                    candidate_residual = np.asarray(
                        ladder_residuals[row * max_step_retries + rung], dtype=float
                    )
                    candidate_loss = sum_of_squares(candidate_residual)
                    if np.isfinite(candidate_loss) and candidate_loss < losses[s]:
                        improvement = losses[s] - candidate_loss
                        step_size = np.max(np.abs(candidate - points[s]))
                        points[s] = candidate
                        residuals[s] = candidate_residual
                        losses[s] = candidate_loss
                        damping[s] = max(damping[s] * 0.3, 1e-12)
                        if improvement < loss_tolerance * max(1.0, candidate_loss) or (
                            step_size < step_tolerance * (1.0 + np.max(np.abs(points[s])))
                        ):
                            active[s] = False
                            termination[s] = "small_step"
                        break
                    damping[s] *= 4.0
                else:
                    # Damping exhausted without an accepted step: the start
                    # stays at its best-known point, stalled.
                    active[s] = False
                    termination[s] = "rejected_ladder"

    converged = np.isin(termination, ("gradient", "small_step"))

    results: "list[MultiStartFitResult | None]" = []
    for group in range(n_groups):
        starts = np.flatnonzero(groups == group)
        finite = np.where(np.isfinite(losses[starts]), losses[starts], np.inf)
        if not starts.size or not np.isfinite(finite.min()):
            results.append(None)
            continue
        best_start = int(np.argmin(finite))
        best = starts[best_start]
        results.append(
            MultiStartFitResult(
                best=FitResult(
                    parameters=points[best].copy(),
                    loss=float(losses[best]),
                    success=bool(converged[best]),
                    n_evaluations=int(n_evaluations[group]),
                    message=(
                        f"multi-start Levenberg-Marquardt: {starts.size} starts, "
                        f"{iterations[group]} iterations"
                    ),
                    names=tuple(names) if names is not None else tuple(),
                ),
                start_parameters=points[starts],
                start_losses=losses[starts],
                best_start=best_start,
                iterations=int(iterations[group]),
                n_evaluations=int(n_evaluations[group]),
                converged=converged[starts],
                termination=tuple(termination[starts]),
                residual_batches=int(residual_batches[group]),
            )
        )
    return results


def _projected_step(
    x: np.ndarray,
    jacobian: np.ndarray,
    residual: np.ndarray,
    normal: np.ndarray,
    gradient: np.ndarray,
    free: np.ndarray,
    damping: float,
    lower: np.ndarray,
    upper: np.ndarray,
) -> np.ndarray:
    """One rung of the damping ladder: a damped Gauss-Newton step kept in the box.

    The damped normal equations are solved on the ``free`` parameters.  A
    parameter the step would push past a bound goes exactly onto that bound,
    and the remaining free parameters are solved again from the same damped
    equations with that shift on the right-hand side, ``-J_rest^T (r + J
    shift)``; the candidate is then clipped into the box.  A step that
    crosses no bound is the plain damped step.
    """
    scaling = np.maximum(np.diag(normal), 1e-12)
    delta = np.zeros(x.size)
    delta[free] = _damped_solve(normal, scaling, -gradient[free], free, damping)
    candidate = x + delta
    below, above = candidate < lower, candidate > upper
    crossing = below | above
    if crossing.any():
        shift = np.zeros(x.size)
        shift[below] = lower[below] - x[below]
        shift[above] = upper[above] - x[above]
        rest = free & ~crossing
        if rest.any():
            rhs = -(jacobian[:, rest].T @ (residual + jacobian @ shift))
            shift[rest] = _damped_solve(normal, scaling, rhs, rest, damping)
        candidate = x + shift
        candidate[below] = lower[below]
        candidate[above] = upper[above]
    return np.clip(candidate, lower, upper)


def _damped_solve(
    normal: np.ndarray, scaling: np.ndarray, rhs: np.ndarray, subset: np.ndarray, damping: float
) -> np.ndarray:
    """Solve the damped normal equations restricted to the ``subset`` parameters."""
    normal = normal[np.ix_(subset, subset)]
    scaling = scaling[subset]
    try:
        return np.linalg.solve(normal + damping * np.diag(scaling), rhs)
    except np.linalg.LinAlgError:
        return rhs / scaling


def grid_candidates(
    parameter_grid: Mapping[str, Sequence[float]],
) -> tuple[tuple[str, ...], np.ndarray]:
    """Materialise a parameter grid as ``(names, candidates)``.

    ``candidates`` has shape ``(n_candidates, n_params)`` with one row per
    point of the Cartesian product, ordered like :func:`itertools.product`.
    The calibration grid stage scores every row in vectorised solves.
    """
    names = tuple(parameter_grid.keys())
    if not names:
        raise ValueError("parameter_grid must not be empty")
    value_lists = [list(parameter_grid[name]) for name in names]
    if any(len(values) == 0 for values in value_lists):
        raise ValueError("every parameter must have at least one candidate value")
    candidates = np.asarray(list(product(*value_lists)), dtype=float)
    return names, candidates
