"""Pluggable solver backends for the reaction-diffusion engine.

:class:`~repro.numerics.pde_solver.ReactionDiffusionSolver` delegates the
actual time stepping to a :class:`SolverBackend` resolved by name from the
registry in this module.  Two backends ship with the package:

* ``"internal"`` -- the integrators from :mod:`repro.numerics.integrators`,
  plus a vectorised Crank-Nicolson engine that advances every column of a
  :class:`~repro.numerics.pde_solver.BatchReactionDiffusionProblem` in
  lockstep.  The Neumann Laplacian is tridiagonal, so each step applies the
  diffusion term matrix-free and performs one multi-right-hand-side *banded*
  solve per distinct diffusion rate -- O(n) memory and O(n) work per step --
  with the factorizations shared through
  :mod:`repro.numerics.operator_cache` across steps, solves and calibration
  candidates.  The ``operator_mode`` knob (``"banded"`` by default, via
  ``"auto"``) can force the pure-numpy ``"thomas"`` solver or the legacy
  ``"dense"`` LU for cross-checking.
* ``"scipy"`` -- :func:`scipy.integrate.solve_ivp` (LSODA), used for
  cross-validation in tests and the solver ablation benchmark.  It has no
  native batched mode and falls back to solving batch members one by one.

Third-party backends register themselves with :func:`register_backend`;
:func:`get_backend` resolves names and rejects unknown ones with an error
message listing everything registered.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable

import numpy as np

from repro.numerics import operator_cache
from repro.numerics.finite_difference import second_derivative
from repro.numerics.integrators import CrankNicolsonIntegrator, TimeIntegrator
from repro.numerics.pde_solver import (
    BatchPDESolution,
    BatchReactionDiffusionProblem,
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
_REGISTRY: "dict[str, Callable[[], SolverBackend]]" = {}


def register_backend(
    name: str, factory: "Callable[[], SolverBackend]", overwrite: bool = False
) -> None:
    """Register a backend factory under ``name``.

    Parameters
    ----------
    name:
        The name users pass as ``backend=...`` throughout the library.
    factory:
        Zero-argument callable returning a :class:`SolverBackend`.
    overwrite:
        Allow replacing an existing registration (off by default so typos do
        not silently shadow the built-ins).
    """
    if not name or not isinstance(name, str):
        raise ValueError(f"backend name must be a non-empty string, got {name!r}")
    if name in _REGISTRY and not overwrite:
        raise ValueError(
            f"backend {name!r} is already registered; pass overwrite=True to replace it"
        )
    _REGISTRY[name] = factory


def unregister_backend(name: str) -> None:
    """Remove a registered backend (used by tests registering temporary ones)."""
    _REGISTRY.pop(name, None)


def available_backends() -> tuple[str, ...]:
    """Names of every registered backend, sorted."""
    return tuple(sorted(_REGISTRY))


def get_backend(backend: "str | SolverBackend") -> SolverBackend:
    """Resolve a backend name (or pass an instance through).

    Raises
    ------
    ValueError
        If the name is not registered; the message lists the registered
        backends so the fix is obvious.
    """
    if isinstance(backend, SolverBackend):
        return backend
    if isinstance(backend, str):
        if backend not in _REGISTRY:
            known = ", ".join(repr(name) for name in available_backends())
            raise ValueError(
                f"unknown solver backend {backend!r}; registered backends: {known}. "
                "Use repro.numerics.backends.register_backend() to add one."
            )
        return _REGISTRY[backend]()
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
    so sequential and batched paths share both the code and the cached
    operator factorizations.  Other integrators and time-varying diffusion
    use the generic stepping loop.

    Parameters
    ----------
    operator_mode:
        Factorization used for the Crank-Nicolson operator: ``"auto"``
        (resolves to ``"banded"``), ``"banded"``, ``"thomas"`` or ``"dense"``.
        See :func:`repro.numerics.operator_cache.crank_nicolson_operator`.
    """

    name = "internal"
    _DEFAULT_OPERATOR_MODE = "banded"

    def __init__(self, operator_mode: str = "auto") -> None:
        self.operator_mode = operator_mode

    @property
    def operator_mode(self) -> str:
        """Requested operator mode (``"auto"`` resolves lazily to banded)."""
        return self._operator_mode

    @operator_mode.setter
    def operator_mode(self, mode: str) -> None:
        if mode != "auto" and mode not in operator_cache.OPERATOR_MODES:
            raise ValueError(
                f"unknown operator mode {mode!r}; expected 'auto' or one of "
                f"{operator_cache.OPERATOR_MODES}"
            )
        self._operator_mode = mode

    @property
    def resolved_operator_mode(self) -> str:
        """The concrete factorization mode the Crank-Nicolson engine will use."""
        if self._operator_mode == "auto":
            return self._DEFAULT_OPERATOR_MODE
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
        grid = problem.grid
        num_points = grid.num_points
        spacing = grid.spacing
        nodes = grid.nodes
        operator_mode = self.resolved_operator_mode
        # The dense matrix is only materialised for the dense reference mode;
        # banded/thomas apply the diffusion term matrix-free, keeping the whole
        # step O(n) in time and memory.
        laplacian = (
            operator_cache.neumann_laplacian_matrix(num_points, spacing)
            if operator_mode == "dense"
            else None
        )
        # Columns sharing a diffusion rate share one factorization per dt,
        # looked up once per solve.
        rates = problem.diffusion_rates
        groups = _diffusion_groups(rates)
        factors_by_dt: "dict[float, list]" = {}
        states = problem.initial_states.copy()

        current_time = problem.start_time
        batch = problem.batch_size

        outputs = np.empty((times.size, num_points, batch))
        output_index = 0
        while output_index < times.size and abs(times[output_index] - current_time) < _TIME_EPS:
            outputs[output_index] = states
            output_index += 1

        steps_taken = 0
        while output_index < times.size:
            target = times[output_index]
            while current_time < target - _TIME_EPS:
                dt = min(max_step, target - current_time)
                factors = factors_by_dt.get(dt)
                if factors is None:
                    factors = factors_by_dt[dt] = [
                        (
                            operator_cache.crank_nicolson_operator(
                                num_points, spacing, dt, rate, operator_mode
                            ),
                            columns,
                        )
                        for rate, columns in groups
                    ]
                states = self._crank_nicolson_step_batch(
                    states,
                    current_time,
                    dt,
                    laplacian,
                    rates,
                    factors,
                    problem.reaction,
                    nodes,
                    spacing,
                    tolerance,
                    max_iterations,
                )
                current_time += dt
                steps_taken += 1
            outputs[output_index] = states
            output_index += 1

        return BatchPDESolution(
            grid=grid,
            times=times,
            states=outputs,
            metadata={
                "backend": self.name,
                "integrator": "crank_nicolson",
                "engine": "batched_crank_nicolson",
                "operator": operator_mode,
                "steps": steps_taken,
                "max_step": max_step,
                "batch_size": batch,
                "diffusion_groups": len(groups),
            },
        )

    @staticmethod
    def _crank_nicolson_step_batch(
        states: np.ndarray,
        time: float,
        dt: float,
        laplacian: "np.ndarray | None",
        rates: np.ndarray,
        factors: "list[tuple[object, slice | np.ndarray]]",
        reaction: "Callable[[np.ndarray, np.ndarray, float], np.ndarray]",
        nodes: np.ndarray,
        spacing: float,
        tolerance: float,
        max_iterations: int,
    ) -> np.ndarray:
        """One IMEX Crank-Nicolson step for every column at once.

        ``factors`` pairs each diffusion group's factorized operator with its
        columns (see :func:`_diffusion_groups`).  Matches the sequential
        integrator's Picard iteration per column: a column keeps updating
        until its own change drops below ``tolerance``, then freezes, so
        batched trajectories are identical to sequential ones regardless of
        how the rest of the batch converges.
        """
        half_dt = 0.5 * dt
        if laplacian is None:
            diffusion_term = second_derivative(states, spacing) * rates[None, :]
        else:
            diffusion_term = (laplacian @ states) * rates[None, :]
        explicit_part = states + half_dt * diffusion_term
        reaction_old = reaction(states, nodes, time)
        new_time = time + dt

        new_states = states.copy()
        # ``candidate`` holds the right-hand side, then is solved in place.
        candidate = np.empty_like(states)
        change = np.empty_like(states)
        active = np.ones(states.shape[1], dtype=bool)
        for _ in range(max_iterations):
            np.add(reaction_old, reaction(new_states, nodes, new_time), out=candidate)
            np.multiply(half_dt, candidate, out=candidate)
            np.add(explicit_part, candidate, out=candidate)
            for factor, columns in factors:
                candidate[:, columns] = factor.solve(candidate[:, columns])
            np.subtract(candidate, new_states, out=change)
            np.abs(change, out=change)
            column_change = np.maximum.reduce(change, axis=0)
            np.copyto(new_states, candidate, where=active)
            active &= column_change >= tolerance
            if not active.any():
                break
        return new_states


def _diffusion_groups(rates: np.ndarray) -> "list[tuple[float, slice | np.ndarray]]":
    """``(rate, columns)`` for every distinct diffusion rate of a batch.

    ``columns`` is a slice when the rate's columns are contiguous (as every
    calibration batch lays them out), so its solve reads and writes a view;
    otherwise it is their index array.
    """
    groups: "list[tuple[float, slice | np.ndarray]]" = []
    for rate in np.unique(rates):
        columns = np.flatnonzero(rates == rate)
        first, last = int(columns[0]), int(columns[-1])
        groups.append(
            (float(rate), slice(first, last + 1) if last - first + 1 == columns.size else columns)
        )
    return groups


def _as_batch_of_one(problem: ReactionDiffusionProblem) -> BatchReactionDiffusionProblem:
    """Wrap a sequential constant-diffusion problem as a single-column batch."""
    scalar_reaction = problem.reaction

    def batch_reaction(states: np.ndarray, x: np.ndarray, t: float) -> np.ndarray:
        return np.asarray(scalar_reaction(states[:, 0], x, t), dtype=float)[:, None]

    return BatchReactionDiffusionProblem(
        grid=problem.grid,
        initial_states=problem.initial_state()[:, None],
        diffusion_rates=np.asarray([float(problem.diffusion)]),
        reaction=batch_reaction,
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


register_backend(InternalBackend.name, InternalBackend)
register_backend(ScipyBackend.name, ScipyBackend)
