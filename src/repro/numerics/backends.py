"""Pluggable solver backends for the reaction-diffusion engine.

:class:`~repro.numerics.pde_solver.ReactionDiffusionSolver` delegates the
actual time stepping to a :class:`SolverBackend` resolved by name from the
registry in this module.  Two backends ship with the package:

* ``"internal"`` -- a vectorised Crank-Nicolson engine that advances every
  column of a :class:`~repro.numerics.pde_solver.BatchReactionDiffusionProblem`
  in lockstep; a single problem is solved as a batch of one.  The Neumann
  Laplacian is tridiagonal, so each step applies the diffusion term
  matrix-free and solves banded systems -- O(n) memory and O(n) work per
  step -- with the factorizations shared through
  :mod:`repro.numerics.operator_cache` across steps, solves and calibration
  candidates.  Each step starts from a predictor -- Adams-Bashforth-2 for
  a :class:`~repro.numerics.pde_solver.LogisticReaction`, explicit Euler
  otherwise -- and corrects it with updates scaled by the logistic
  reaction's Newton factor.  A non-stiff AB2 step of a column
  (``dt/2 |r_j| < ONE_CORRECTOR_LIMIT``, even step ratio) takes one
  corrector; every other step iterates to the Crank-Nicolson fixed point
  (``PICARD_TOLERANCE``, at most ``PICARD_ITERATION_CAP`` corrector solves).
  Calibration batches take about 1.03 corrector solves per step over a
  five-hour training window (2.7 when every step iterated to the fixed
  point).  The banded operator holds one block per column, so one
  in-place LAPACK ``pttrs`` call per corrector solves every column of the
  batch, whatever its mix of diffusion rates (see
  :class:`_CrankNicolsonStepper`).  An instance built with
  ``InternalBackend(operator_mode="thomas")`` (pure-numpy recurrences) or
  ``"dense"`` (LU) is a reference for cross-checking; those solve one
  diffusion rate at a time.
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
from repro.numerics.pde_solver import (
    BatchPDESolution,
    BatchReactionDiffusionProblem,
    LogisticReaction,
    PDESolution,
    ReactionDiffusionProblem,
)

_TIME_EPS = 1e-12
"""Tolerance used when comparing the running time against output times."""

ONE_CORRECTOR_LIMIT = 0.5
"""``dt/2 * |r_j|`` under which an AB2 step of a column takes one corrector.

With ``h = dt/2``, one Newton-scaled corrector maps the predictor's distance
``e`` from the Crank-Nicolson fixed point to, linearised,
``(M - I) h f' e / (1 - h f')``, where ``M = (I - h d A)^-1`` has its
spectrum in ``(0, 1]`` and ``1 - h f'`` is the Newton factor.  The logistic
``f'(u) = r (1 - 2u/K)`` lies in ``[-|r|, |r|]`` on ``[0, K]``, so the map's
gain is at most ``h|r| / (1 - h|r|)``: under 1 below ``h|r| = 1/2``.  The
Adams-Bashforth-2 predictor is ``O(dt^3)`` off the fixed point, so one
contracting corrector keeps the local error ``O(dt^3)`` and the scheme
second order.  At or above the limit a lone corrector need not contract
(at ``r = 100``, ``dt = 0.05`` the states go non-finite), so the column
iterates to the fixed point.
"""

PICARD_TOLERANCE = 1e-10
"""Per-column stopping rule of an iterated step: the largest update magnitude."""

PICARD_ITERATION_CAP = 12
"""Most corrector solves an iterated step takes."""

_AB2_RATIOS = (0.5, 2.0)
"""Step ratios ``dt / dt_prev`` over which the AB2 predictor's error constant
stays bounded; a step outside them iterates to the fixed point."""


class SolverBackend(ABC):
    """Interface every reaction-diffusion backend implements.

    A backend turns a (possibly batched) problem plus output times into a
    solution.  ``max_step`` is passed down from the
    :class:`~repro.numerics.pde_solver.ReactionDiffusionSolver` facade.
    """

    name: str = "abstract"

    @abstractmethod
    def solve(
        self,
        problem: ReactionDiffusionProblem,
        times: np.ndarray,
        *,
        max_step: float,
    ) -> PDESolution:
        """Solve one problem at the (validated, sorted) output ``times``."""

    def solve_batch(
        self,
        problem: BatchReactionDiffusionProblem,
        times: np.ndarray,
        *,
        max_step: float,
    ) -> BatchPDESolution:
        """Solve a batched problem; the default solves members one by one.

        Backends with a genuinely vectorised path override this; the fallback
        keeps every backend usable through the batch API at sequential cost.
        """
        columns = [
            self.solve(problem.column_problem(j), times, max_step=max_step)
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
    """Method-of-lines stepping with the package's Crank-Nicolson engine.

    Batches advance every column in lockstep (see
    :class:`_CrankNicolsonStepper`); a single problem is solved as a batch
    of one, so sequential and batched solves share the code, the iteration
    and the cached operator factorizations.  Solutions report
    ``metadata["picard_iterations"]``, the corrector solves summed over all
    steps (for a batch, until its last column stopped).

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
        max_step: float,
    ) -> PDESolution:
        batch_solution = self.solve_batch(_as_batch_of_one(problem), times, max_step=max_step)
        return PDESolution(
            grid=problem.grid,
            times=batch_solution.times,
            states=batch_solution.states[:, :, 0].copy(),
            metadata={
                "backend": self.name,
                "steps": batch_solution.metadata["steps"],
                "picard_iterations": batch_solution.metadata["picard_iterations"],
                "max_step": max_step,
                "operator": batch_solution.metadata["operator"],
                "operator_cache": True,
            },
        )

    def solve_batch(
        self,
        problem: BatchReactionDiffusionProblem,
        times: np.ndarray,
        *,
        max_step: float,
    ) -> BatchPDESolution:
        step_times, dts, rows = _step_schedule(problem.start_time, times, max_step)
        stepper = _CrankNicolsonStepper(problem, self._operator_mode, step_times, dts)
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

    by correcting a predictor with the fixed-point update of ``G(v)``, the
    left-hand operator applied to the right-hand side at ``v``:

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
    * on an AB2 step whose ratio ``c`` lies in ``[1/2, 2]``, a column with
      ``dt/2 |r_j(t + dt)| < ONE_CORRECTOR_LIMIT`` stops after the first
      update: from a second-order predictor, one contracting Newton-scaled
      corrector keeps the scheme second order (the predictor-corrector
      form of Ascher, Ruuth & Wetton, SIAM J. Numer. Anal. 32, 1995);
    * every other column -- stiff ones, all columns of the Euler-predicted
      first step and of uneven steps, and any column of another reaction --
      stops once its update is below ``PICARD_TOLERANCE`` everywhere;
    * a stopped column stays frozen, so its trajectory does not depend on
      the other columns; the loop ends when every column has stopped or
      after ``PICARD_ITERATION_CAP`` evaluations of ``G``.

    Any fixed point of the update is the Crank-Nicolson solution, so the
    predictor and the Newton factor change how many iterations an iterated
    step takes, not what it converges to.  A one-corrector step stops
    within a small fraction of the time discretisation error of that fixed
    point; its guard is decided per column from ``r_j`` and the shared step
    schedule, so batch-mates still cannot change a column's trajectory.

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
        self.iterations = 0

        reaction = problem.reaction
        if isinstance(reaction, LogisticReaction):
            # r(t) at every step time: one exp for the whole solve.
            self._growth = reaction.growth_rates(step_times)
            self._capacity = reaction.capacity
            self._reaction = None
            # Columns that iterate past the first corrector, per step: every
            # column of a step that is not AB2-predicted with an even ratio,
            # and any column with dt/2 |r_j| at or above the limit.
            steps = np.asarray(dts)
            ratios = steps / np.concatenate(([np.inf], steps[:-1]))
            uneven = (ratios < _AB2_RATIOS[0]) | (ratios > _AB2_RATIOS[1])
            stiff = 0.5 * steps[:, None] * np.abs(self._growth[1:]) >= ONE_CORRECTOR_LIMIT
            self._loops = stiff | uneven[:, None]
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
        tolerance = PICARD_TOLERANCE
        loops = self._loops[k] if typed else None
        for _ in range(PICARD_ITERATION_CAP):
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
            if loops is not None:
                # The first corrector is the last one for every other column.
                if not loops.any():
                    break
                active &= loops
                loops = None
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
        diffusion_rates=np.asarray([problem.diffusion]),
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
        max_step: float,
    ) -> PDESolution:
        from scipy.integrate import solve_ivp

        grid = problem.grid
        nodes = grid.nodes
        spacing = grid.spacing
        diffusion = problem.diffusion
        state0 = problem.initial_state()

        def rhs(t: float, u: np.ndarray) -> np.ndarray:
            return diffusion * second_derivative(u, spacing) + problem.reaction(u, nodes, t)

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
