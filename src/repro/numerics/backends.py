"""Pluggable solver backends for the reaction-diffusion engine.

:class:`~repro.numerics.pde_solver.ReactionDiffusionSolver` delegates the
actual time stepping to a :class:`SolverBackend` resolved by name from the
registry in this module.  Two backends ship with the package:

* ``"internal"`` -- the integrators from :mod:`repro.numerics.integrators`,
  plus a vectorised Crank-Nicolson engine that advances every column of a
  :class:`~repro.numerics.pde_solver.BatchReactionDiffusionProblem` in
  lockstep.  The Neumann Laplacian is tridiagonal, so each step applies the
  diffusion term matrix-free and solves banded systems -- O(n) memory and
  O(n) work per step -- with the factorizations shared through
  :mod:`repro.numerics.operator_cache` across steps, solves and calibration
  candidates.  Each step iterates to the Crank-Nicolson fixed point from a
  predictor -- Adams-Bashforth-2 for a
  :class:`~repro.numerics.pde_solver.LogisticReaction`, explicit Euler
  otherwise -- with updates scaled by the logistic reaction's Newton
  factor (about two and a half iterations per step on calibration
  batches, three from the explicit predictor).  The banded operator holds
  one block per column, so one in-place LAPACK ``pttrs`` call per
  iteration solves every column of the batch, whatever its mix of
  diffusion rates (see :class:`_CrankNicolsonStepper`).  An instance
  built with ``InternalBackend(operator_mode="thomas")`` (pure-numpy
  recurrences) or ``"dense"`` (LU) is a reference for cross-checking;
  those solve one diffusion rate at a time.
* ``"scipy"`` -- :func:`scipy.integrate.solve_ivp` (LSODA), used for
  cross-validation in tests and the solver ablation benchmark.  It has no
  native batched mode and falls back to solving batch members one by one.

Third-party backends register a factory in :data:`BACKENDS`;
:func:`get_backend` resolves names and rejects unknown ones with an error
message listing everything registered.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Callable

import numpy as np

from repro.core.registry import Registry
from repro.numerics import operator_cache
from repro.numerics.finite_difference import second_derivative
from repro.numerics.integrators import CrankNicolsonIntegrator, TimeIntegrator
from repro.numerics.pde_solver import (
    BatchPDESolution,
    BatchReactionDiffusionProblem,
    LogisticReaction,
    PDESolution,
    ReactionDiffusionProblem,
)

_TIME_EPS = 1e-12
"""Tolerance used when comparing the running time against output times."""


class SolverBackend(ABC):
    """Interface every reaction-diffusion backend implements.

    A backend turns a (possibly batched) problem plus output times into a
    solution.  ``integrator`` and ``max_step`` are passed down from the
    :class:`~repro.numerics.pde_solver.ReactionDiffusionSolver` facade;
    backends that do their own stepping (like ``"scipy"``) may ignore the
    integrator.
    """

    name: str = "abstract"

    @abstractmethod
    def solve(
        self,
        problem: ReactionDiffusionProblem,
        times: np.ndarray,
        *,
        integrator: TimeIntegrator,
        max_step: float,
    ) -> PDESolution:
        """Solve one problem at the (validated, sorted) output ``times``."""

    def solve_batch(
        self,
        problem: BatchReactionDiffusionProblem,
        times: np.ndarray,
        *,
        integrator: TimeIntegrator,
        max_step: float,
    ) -> BatchPDESolution:
        """Solve a batched problem; the default solves members one by one.

        Backends with a genuinely vectorised path override this; the fallback
        keeps every backend usable through the batch API at sequential cost.
        """
        columns = [
            self.solve(
                problem.column_problem(j), times, integrator=integrator, max_step=max_step
            )
            for j in range(problem.batch_size)
        ]
        states = np.stack([column.states for column in columns], axis=2)
        return BatchPDESolution(
            grid=problem.grid,
            times=columns[0].times.copy(),
            states=states,
            metadata={
                "backend": self.name,
                "batch_size": problem.batch_size,
                "engine": "sequential_fallback",
            },
        )


# ---------------------------------------------------------------------- #
# Registry
# ---------------------------------------------------------------------- #
#: name -> zero-argument factory returning a :class:`SolverBackend`.
BACKENDS: "Registry[Callable[[], SolverBackend]]" = Registry("backend")


def get_backend(backend: "str | SolverBackend") -> SolverBackend:
    """A fresh backend for a registered name, or an instance passed through.

    Raises
    ------
    UnknownNameError
        If the name is not registered; the message lists the registered
        backends so the fix is obvious.
    """
    if isinstance(backend, SolverBackend):
        return backend
    if isinstance(backend, str):
        return BACKENDS.get(backend)()
    raise TypeError(
        f"backend must be a registered name or a SolverBackend instance, got {backend!r}"
    )


# ---------------------------------------------------------------------- #
# Internal backend
# ---------------------------------------------------------------------- #
class InternalBackend(SolverBackend):
    """Method-of-lines stepping with the package's own integrators.

    Constant-diffusion Crank-Nicolson solves (the DL model's standard
    configuration) are routed through the batched engine with a batch of one,
    so sequential and batched paths share the code, the iteration and the
    cached operator factorizations.  Other integrators and time-varying
    diffusion use the generic stepping loop.  Crank-Nicolson solutions
    report ``metadata["picard_iterations"]``, the fixed-point iterations
    summed over all steps (for a batch, until its last column converged).

    Parameters
    ----------
    operator_mode:
        Factorization used for the Crank-Nicolson operator: ``"banded"``
        (the default), or the ``"thomas"`` and ``"dense"`` references.
        Fixed at construction.  See
        :func:`repro.numerics.operator_cache.crank_nicolson_operator`.
    """

    name = "internal"

    def __init__(self, operator_mode: str = "banded") -> None:
        if operator_mode not in operator_cache.OPERATOR_MODES:
            raise ValueError(
                f"unknown operator mode {operator_mode!r}; expected one of "
                f"{operator_cache.OPERATOR_MODES}"
            )
        self._operator_mode = operator_mode

    @property
    def operator_mode(self) -> str:
        """The Crank-Nicolson factorization mode (read-only)."""
        return self._operator_mode

    def solve(
        self,
        problem: ReactionDiffusionProblem,
        times: np.ndarray,
        *,
        integrator: TimeIntegrator,
        max_step: float,
    ) -> PDESolution:
        if problem.diffusion_is_constant and isinstance(integrator, CrankNicolsonIntegrator):
            batch_problem = _as_batch_of_one(problem)
            batch_solution = self._solve_batch_crank_nicolson(
                batch_problem,
                times,
                max_step=max_step,
                tolerance=integrator.tolerance,
                max_iterations=integrator.max_picard_iterations,
            )
            return PDESolution(
                grid=problem.grid,
                times=batch_solution.times,
                states=batch_solution.states[:, :, 0].copy(),
                metadata={
                    "backend": self.name,
                    "integrator": integrator.name,
                    "steps": batch_solution.metadata["steps"],
                    "picard_iterations": batch_solution.metadata["picard_iterations"],
                    "max_step": max_step,
                    "operator": batch_solution.metadata["operator"],
                    "operator_cache": True,
                },
            )
        return self._solve_stepping(problem, times, integrator, max_step)

    def solve_batch(
        self,
        problem: BatchReactionDiffusionProblem,
        times: np.ndarray,
        *,
        integrator: TimeIntegrator,
        max_step: float,
    ) -> BatchPDESolution:
        if isinstance(integrator, CrankNicolsonIntegrator):
            return self._solve_batch_crank_nicolson(
                problem,
                times,
                max_step=max_step,
                tolerance=integrator.tolerance,
                max_iterations=integrator.max_picard_iterations,
            )
        return super().solve_batch(
            problem, times, integrator=integrator, max_step=max_step
        )

    # ------------------------------------------------------------------ #
    # Generic stepping loop (any integrator, any diffusion coefficient)
    # ------------------------------------------------------------------ #
    def _solve_stepping(
        self,
        problem: ReactionDiffusionProblem,
        times: np.ndarray,
        integrator: TimeIntegrator,
        max_step: float,
    ) -> PDESolution:
        grid = problem.grid
        laplacian = operator_cache.neumann_laplacian_matrix(grid.num_points, grid.spacing)
        nodes = grid.nodes
        state = problem.initial_state()
        current_time = problem.start_time

        outputs = np.empty((times.size, grid.num_points))
        output_index = 0
        # Emit any output times that coincide with the start time.
        while output_index < times.size and abs(times[output_index] - current_time) < _TIME_EPS:
            outputs[output_index] = state
            output_index += 1

        steps_taken = 0
        constant_diffusion = problem.diffusion_is_constant
        diffusion_matrix = None
        if constant_diffusion:
            diffusion_matrix = float(problem.diffusion) * laplacian
            integrator.prepare(diffusion_matrix, max_step)

        def reaction(u: np.ndarray, t: float) -> np.ndarray:
            return problem.reaction(u, nodes, t)

        while output_index < times.size:
            target = times[output_index]
            while current_time < target - _TIME_EPS:
                if not constant_diffusion:
                    d_values = problem.diffusion_at(current_time)
                    diffusion_matrix = d_values[:, None] * laplacian
                assert diffusion_matrix is not None
                dt = min(max_step, target - current_time)
                dt = integrator.suggested_dt(diffusion_matrix, dt)
                state = integrator.step(state, current_time, dt, diffusion_matrix, reaction)
                current_time += dt
                steps_taken += 1
            outputs[output_index] = state
            output_index += 1

        return PDESolution(
            grid=grid,
            times=times,
            states=outputs,
            metadata={
                "backend": self.name,
                "integrator": integrator.name,
                "steps": steps_taken,
                "max_step": max_step,
            },
        )

    # ------------------------------------------------------------------ #
    # Vectorised Crank-Nicolson engine
    # ------------------------------------------------------------------ #
    def _solve_batch_crank_nicolson(
        self,
        problem: BatchReactionDiffusionProblem,
        times: np.ndarray,
        *,
        max_step: float,
        tolerance: float,
        max_iterations: int,
    ) -> BatchPDESolution:
        step_times, dts, rows = _step_schedule(problem.start_time, times, max_step)
        stepper = _CrankNicolsonStepper(
            problem, self._operator_mode, step_times, dts, tolerance, max_iterations
        )
        outputs = np.empty((times.size, problem.grid.num_points, problem.batch_size))
        for step, due in enumerate(rows):
            if step:
                stepper.step(step - 1)
            for row in due:
                stepper.emit(outputs[row])

        return BatchPDESolution(
            grid=problem.grid,
            times=times,
            states=outputs,
            metadata={
                "backend": self.name,
                "integrator": "crank_nicolson",
                "engine": "batched_crank_nicolson",
                "operator": self._operator_mode,
                "steps": len(dts),
                "picard_iterations": stepper.iterations,
                "max_step": max_step,
                "batch_size": problem.batch_size,
                "diffusion_groups": stepper.groups,
                "stacked_solve": stepper.stacked,
            },
        )


def _step_schedule(
    start_time: float, times: np.ndarray, max_step: float
) -> "tuple[list[float], list[float], list[list[int]]]":
    """Time steps of a solve: ``(step_times, dts, rows)``.

    Step ``k`` advances from ``step_times[k]`` by ``dts[k]`` to
    ``step_times[k + 1]``; ``rows[k]`` lists the output rows due after ``k``
    steps (row 0: those at the start time).  Each step ends on an output
    time or after ``max_step``, and ``step_times`` accumulates ``dts`` the
    way stepping does, so the table holds the exact times the reaction is
    evaluated at.
    """
    step_times, dts, rows = [start_time], [], [[]]
    current = start_time
    for row, target in enumerate(times):
        while current < target - _TIME_EPS:
            dt = min(max_step, target - current)
            current += dt
            step_times.append(current)
            dts.append(dt)
            rows.append([])
        rows[-1].append(row)
    return step_times, dts, rows


class _CrankNicolsonStepper:
    """One batched Crank-Nicolson solve: its buffers, operators and iteration.

    Everything a step needs that does not change between steps -- operator
    factorizations for every step size, the growth-rate table and the work
    buffers -- is set up once here.  Each step then solves the
    Crank-Nicolson system

        (I - dt/2 d A) u' = u + dt/2 d A u + dt/2 (f(u, t) + f(u', t + dt))

    by a fixed-point iteration on ``G(v)``, the left-hand operator applied
    to the right-hand side at ``v``:

    * it starts from a predictor: for a
      :class:`~repro.numerics.pde_solver.LogisticReaction`, the
      Adams-Bashforth-2 extrapolation ``u + dt ((1 + c/2) F_n - c/2 F_{n-1})``
      with ``F = d A u + f(u, t)`` and ``c = dt / dt_prev`` (explicit Euler
      ``u + dt F_n`` on the first step, and on every step of any other
      reaction);
    * each update is ``v + (G(v) - v) / s`` with the pointwise Newton factor
      ``s = max(1 - dt/2 f'(v), 1/2)`` when the reaction is a
      :class:`~repro.numerics.pde_solver.LogisticReaction` (``s = 1``, plain
      Picard, for any other reaction); the floor keeps the update from
      dividing by a small or negative factor on stiff steps;
    * a column stops once its update is below ``tolerance`` everywhere and
      stays frozen, so its trajectory does not depend on the other columns;
      the loop ends when every column has stopped or after
      ``max_iterations`` evaluations of ``G``.

    Any fixed point of the update is the Crank-Nicolson solution, so the
    predictor and the Newton factor change how many iterations a step takes,
    not what it converges to.

    Layout: the state is column-major in the problem's own column order.
    With the banded operator on a grid of at least 3 points, it is,
    flattened, one right-hand side for the block-diagonal operator of
    :func:`~repro.numerics.operator_cache.stacked_crank_nicolson_operator`
    (one block per column), and one in-place ``pttrs`` call solves every
    column.  An iteration whose right-hand side holds a non-finite value is
    solved one diffusion rate at a time instead (a NaN would cross the zero
    couplings between blocks), as are the ``thomas`` and ``dense`` modes.
    """

    def __init__(
        self,
        problem: BatchReactionDiffusionProblem,
        operator_mode: str,
        step_times: "list[float]",
        dts: "list[float]",
        tolerance: float,
        max_iterations: int,
    ) -> None:
        grid = problem.grid
        num_points, spacing = grid.num_points, grid.spacing
        batch = problem.batch_size
        rates = problem.diffusion_rates
        distinct = np.unique(rates)
        selectors = [_column_selector(np.flatnonzero(rates == rate)) for rate in distinct]
        self.groups = len(distinct)
        self.stacked = operator_mode == "banded" and num_points >= 3

        # Operators for every step size, looked up once per solve.
        self._factors: "dict[float, tuple[list, object]]" = {}
        for dt in set(dts):
            per_group = [
                (
                    operator_cache.crank_nicolson_operator(
                        num_points, spacing, dt, float(rate), operator_mode
                    ),
                    selector,
                )
                for rate, selector in zip(distinct, selectors)
            ]
            stacked = (
                operator_cache.stacked_crank_nicolson_operator(num_points, spacing, dt, rates)
                if self.stacked
                else None
            )
            self._factors[dt] = (per_group, stacked)
        self._laplacian = (
            operator_cache.neumann_laplacian_matrix(num_points, spacing)
            if operator_mode == "dense"
            else None
        )
        self._spacing = spacing
        self._nodes = grid.nodes
        self._rates = rates[None, :]
        self._step_times = step_times
        self._dts = dts
        self._tolerance = tolerance
        self._max_iterations = max_iterations
        self.iterations = 0

        reaction = problem.reaction
        if isinstance(reaction, LogisticReaction):
            # r(t) at every step time: one exp for the whole solve.
            self._growth = reaction.growth_rates(step_times)
            self._capacity = reaction.capacity
            self._reaction = None
        else:
            self._reaction = reaction

        def buffer() -> np.ndarray:
            return np.empty((num_points, batch), order="F")

        self._state = np.array(problem.initial_states, order="F")
        self._next = buffer()
        self._constant = buffer()
        self._rhs = buffer()
        self._work = buffer()
        self._factor = buffer()
        # h F of this step and of the last one, for the AB2 predictor.
        self._slope = buffer()
        self._previous_slope = buffer()
        self._active = np.empty(batch, dtype=bool)
        # The right-hand side flattened: one column of the stacked operator.
        self._stacked_rhs = self._rhs.reshape(-1, order="F") if self.stacked else None

    def emit(self, out: np.ndarray) -> None:
        """Write the current state to ``out``."""
        out[...] = self._state

    def step(self, k: int) -> None:
        """Advance the state by step ``k`` of the schedule."""
        dt = self._dts[k]
        half_dt = 0.5 * dt
        state, new, constant = self._state, self._next, self._constant
        rhs, work, factor = self._rhs, self._work, self._factor
        per_group, stacked = self._factors[dt]
        typed = self._reaction is None

        if self._laplacian is None:
            diffusion = second_derivative(state, self._spacing)
        else:
            diffusion = self._laplacian @ state
        diffusion *= self._rates
        # constant = u + h d A u + h f(u, t), with h = dt / 2.
        if typed:
            hr = half_dt * self._growth[k]
            hrk = hr / self._capacity
            np.multiply(state, hrk, out=work)
            np.subtract(hr, work, out=work)
            np.multiply(work, state, out=constant)
        else:
            reaction_old = self._reaction(state, self._nodes, self._step_times[k])
            np.multiply(reaction_old, half_dt, out=constant)
        np.multiply(diffusion, half_dt, out=diffusion)
        constant += diffusion
        constant += state
        if typed and k:
            # AB2: 2 constant - u + c h F_n - c^2 h_prev F_{n-1}
            #    = constant + (1 + c) h F_n - c^2 h_prev F_{n-1}.
            ratio = dt / self._dts[k - 1]
            slope, previous = self._slope, self._previous_slope
            np.subtract(constant, state, out=slope)
            np.multiply(slope, 1.0 + ratio, out=new)
            new += constant
            np.multiply(previous, ratio * ratio, out=work)
            new -= work
            self._slope, self._previous_slope = previous, slope
        else:
            # Explicit Euler u + dt (d A u + f(u, t)) = 2 * constant - u.
            np.multiply(constant, 2.0, out=new)
            new -= state
            if typed:
                np.subtract(constant, state, out=self._previous_slope)

        if typed:
            hr = half_dt * self._growth[k + 1]
            hrk = hr / self._capacity
        else:
            new_time = self._step_times[k + 1]
        active = self._active
        active.fill(True)
        tolerance = self._tolerance
        for _ in range(self._max_iterations):
            self.iterations += 1
            if typed:
                # h f(v) = (h r - v h r / K) v, and the Newton factor
                # s = 1 - h f'(v) = 1 - (h r - v h r / K) + v h r / K.
                np.multiply(new, hrk, out=factor)
                np.subtract(hr, factor, out=work)
                np.multiply(work, new, out=rhs)
                np.subtract(factor, work, out=factor)
                factor += 1.0
                np.maximum(factor, 0.5, out=factor)
            else:
                np.multiply(self._reaction(new, self._nodes, new_time), half_dt, out=rhs)
            rhs += constant
            if stacked is not None and math.isfinite(rhs.sum()):
                stacked.solve(self._stacked_rhs, overwrite=True)
            else:
                for group_factor, columns in per_group:
                    rhs[:, columns] = group_factor.solve(rhs[:, columns])
            # rhs now holds G(v); turn it into the update.
            rhs -= new
            if typed:
                rhs /= factor
            np.add(new, rhs, out=new, where=active)
            np.abs(rhs, out=rhs)
            np.greater_equal(np.maximum.reduce(rhs, axis=0), tolerance, out=active, where=active)
            if not active.any():
                break
        self._state, self._next = new, state


def _column_selector(columns: np.ndarray) -> "slice | np.ndarray":
    """A slice when ``columns`` are contiguous (a view), else the index array."""
    first, last = int(columns[0]), int(columns[-1])
    return slice(first, last + 1) if last - first + 1 == columns.size else columns


def _as_batch_of_one(problem: ReactionDiffusionProblem) -> BatchReactionDiffusionProblem:
    """Wrap a sequential constant-diffusion problem as a single-column batch.

    A :class:`~repro.numerics.pde_solver.LogisticReaction` is already a
    batch reaction of width one and is passed through, so the column gets
    the same Newton-scaled iteration as it would inside a batch.
    """
    reaction = problem.reaction
    if not isinstance(reaction, LogisticReaction):
        scalar_reaction = reaction

        def reaction(states: np.ndarray, x: np.ndarray, t: float) -> np.ndarray:
            return np.asarray(scalar_reaction(states[:, 0], x, t), dtype=float)[:, None]

    return BatchReactionDiffusionProblem(
        grid=problem.grid,
        initial_states=problem.initial_state()[:, None],
        diffusion_rates=np.asarray([float(problem.diffusion)]),
        reaction=reaction,
        start_time=problem.start_time,
    )


# ---------------------------------------------------------------------- #
# scipy backend
# ---------------------------------------------------------------------- #
class ScipyBackend(SolverBackend):
    """Delegates to :func:`scipy.integrate.solve_ivp` (LSODA).

    Used for cross-validation and the solver-ablation benchmark.  Batched
    problems fall back to the base class's one-column-at-a-time loop.
    """

    name = "scipy"

    def solve(
        self,
        problem: ReactionDiffusionProblem,
        times: np.ndarray,
        *,
        integrator: TimeIntegrator,
        max_step: float,
    ) -> PDESolution:
        from scipy.integrate import solve_ivp

        grid = problem.grid
        nodes = grid.nodes
        spacing = grid.spacing
        state0 = problem.initial_state()

        def rhs(t: float, u: np.ndarray) -> np.ndarray:
            d_values = problem.diffusion_at(t)
            return d_values * second_derivative(u, spacing) + problem.reaction(u, nodes, t)

        t_span = (problem.start_time, float(times[-1]))
        if t_span[1] <= t_span[0]:
            # Degenerate case: only the initial time was requested.
            states = np.tile(state0, (times.size, 1))
            return PDESolution(
                grid=grid, times=times, states=states, metadata={"backend": self.name}
            )

        result = solve_ivp(
            rhs,
            t_span,
            state0,
            t_eval=times,
            method="LSODA",
            max_step=max_step,
            rtol=1e-7,
            atol=1e-9,
        )
        if not result.success:
            raise RuntimeError(f"scipy solve_ivp failed: {result.message}")
        return PDESolution(
            grid=grid,
            times=np.asarray(result.t, dtype=float),
            states=np.asarray(result.y.T, dtype=float),
            metadata={"backend": self.name, "nfev": int(result.nfev)},
        )


BACKENDS.register(InternalBackend.name, InternalBackend)
BACKENDS.register(ScipyBackend.name, ScipyBackend)
