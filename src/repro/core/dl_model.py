"""The Diffusive Logistic model (Equation 4 of the paper).

``DiffusiveLogisticModel`` combines

* the **growth process** -- logistic growth of the density within a distance
  group, ``r(t) * I * (1 - I / K)``, and
* the **diffusion process** -- Fick's-law spreading of information across
  distance groups, ``d * d2I/dx2`` with no-flux (Neumann) boundaries,

and integrates the resulting PDE forward from the initial density function
phi using the method-of-lines solver in :mod:`repro.numerics.pde_solver`.

The solution is returned as a :class:`DLSolution`, which can be sampled at the
integer distances where densities are actually meaningful in a social
network, and converted to a :class:`~repro.cascade.density.DensitySurface`
for direct comparison against observations.

Besides the one-at-a-time :class:`DiffusiveLogisticModel`,
:func:`solve_dl_batch` advances many (parameters, phi) pairs together through
the batched solver engine -- the workhorse behind batched calibration
(:func:`repro.core.calibration.calibrate_dl_model`) and multi-story
prediction (:class:`repro.core.prediction.BatchPredictor`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.cascade.density import DensitySurface
from repro.core.initial_density import InitialDensity
from repro.core.parameters import (
    ConstantGrowthRate,
    DLParameters,
    ExponentialDecayGrowthRate,
)
from repro.numerics.grid import UniformGrid
from repro.numerics.pde_solver import (
    BatchPDESolution,
    BatchReactionDiffusionProblem,
    LogisticReaction,
    PDESolution,
    ReactionDiffusionProblem,
    ReactionDiffusionSolver,
)


@dataclass
class DLSolution:
    """A solved DL model: dense PDE solution plus the modelling context.

    Attributes
    ----------
    pde_solution:
        The underlying dense-in-space solution.
    parameters:
        The DL parameters used.
    initial_density:
        The phi the solve started from.
    """

    pde_solution: PDESolution
    parameters: DLParameters
    initial_density: InitialDensity

    @property
    def times(self) -> np.ndarray:
        """Output times of the solve."""
        return self.pde_solution.times.copy()

    @property
    def grid(self) -> UniformGrid:
        """The spatial grid the PDE was solved on."""
        return self.pde_solution.grid

    def density_at(self, distance: float, time: float) -> float:
        """Predicted density at one (distance, time) pair."""
        return float(self.pde_solution.sample([distance], time)[0])

    def profile(self, time: float, distances: "np.ndarray | None" = None) -> np.ndarray:
        """Predicted density over distance at one output time.

        ``distances`` defaults to the observation distances of phi (the
        integer distances where density is meaningful).
        """
        if distances is None:
            distances = self.initial_density.distances
        return self.pde_solution.sample(np.asarray(distances, dtype=float), time)

    def to_surface(self, distances: "np.ndarray | None" = None, unit: str = "percent") -> DensitySurface:
        """Sample the solution at integer distances into a DensitySurface."""
        if distances is None:
            distances = self.initial_density.distances
        distances = np.asarray(distances, dtype=float)
        values = self.pde_solution.sample_surface(distances)
        return DensitySurface(
            distances=distances,
            times=self.pde_solution.times.copy(),
            values=np.maximum(values, 0.0),
            group_sizes=np.ones(distances.size),
            unit=unit,
            metadata={"source": "dl_model_prediction"},
        )


class DiffusiveLogisticModel:
    """The paper's PDE model for spatio-temporal information diffusion.

    The internal backend steps the PDE by Crank-Nicolson with at most
    ``max_step`` hours per step; ``"scipy"`` cross-checks it with LSODA.

    Parameters
    ----------
    parameters:
        The DL parameters (d, r, K).
    points_per_unit:
        Spatial resolution of the solve: grid intervals per unit of distance.
    max_step:
        Maximum internal time step in hours.
    backend:
        A registered backend name (``"internal"`` or ``"scipy"``) or a
        :class:`~repro.numerics.backends.SolverBackend` instance, such as
        ``InternalBackend(operator_mode="dense")`` for a reference
        factorization (see
        :class:`~repro.numerics.pde_solver.ReactionDiffusionSolver`).
    """

    def __init__(
        self,
        parameters: DLParameters,
        points_per_unit: int = 20,
        max_step: float = 0.02,
        backend: str = "internal",
    ) -> None:
        if points_per_unit < 2:
            raise ValueError("points_per_unit must be at least 2")
        self._parameters = parameters
        self._points_per_unit = points_per_unit
        self._solver = ReactionDiffusionSolver(max_step=max_step, backend=backend)

    @property
    def parameters(self) -> DLParameters:
        """The DL parameters."""
        return self._parameters

    @property
    def solver(self) -> ReactionDiffusionSolver:
        """The underlying reaction-diffusion solver."""
        return self._solver

    # ------------------------------------------------------------------ #
    # Solving
    # ------------------------------------------------------------------ #
    def build_problem(
        self, initial_density: InitialDensity, grid: "UniformGrid | None" = None
    ) -> ReactionDiffusionProblem:
        """Assemble the reaction-diffusion problem for a given phi."""
        grid = grid if grid is not None else initial_density.default_grid(self._points_per_unit)
        parameters = self._parameters
        reaction = _dl_reaction([parameters])
        if not isinstance(reaction, LogisticReaction):
            reaction = parameters.reaction

        return ReactionDiffusionProblem(
            grid=grid,
            initial_condition=initial_density.sample(grid),
            diffusion=parameters.diffusion_rate,
            reaction=reaction,
            start_time=initial_density.initial_time,
        )

    def solve(
        self,
        initial_density: InitialDensity,
        times: "np.ndarray | list[float]",
        grid: "UniformGrid | None" = None,
    ) -> DLSolution:
        """Integrate the DL equation from phi and sample it at ``times``.

        ``times`` may or may not include the initial time; it is always added
        so the returned solution contains the initial profile as well.
        """
        times = sorted(set(float(t) for t in times) | {initial_density.initial_time})
        problem = self.build_problem(initial_density, grid)
        pde_solution = self._solver.solve(problem, times)
        return DLSolution(
            pde_solution=pde_solution,
            parameters=self._parameters,
            initial_density=initial_density,
        )

    def predict(
        self,
        initial_density: InitialDensity,
        times: "np.ndarray | list[float]",
        distances: "np.ndarray | list[float] | None" = None,
    ) -> DensitySurface:
        """Convenience wrapper: solve and sample at integer distances.

        Returns a :class:`DensitySurface` whose rows are the requested times
        (plus the initial time) and whose columns are ``distances``
        (defaulting to phi's observation distances).
        """
        solution = self.solve(initial_density, times)
        return solution.to_surface(distances)


# ---------------------------------------------------------------------- #
# Batched solving
# ---------------------------------------------------------------------- #
def _dl_reaction(parameter_sets: "Sequence[DLParameters]"):
    """The batch reaction ``r_j(t) * U_j * (1 - U_j / K_j)`` of the given parameters.

    When every growth rate is an exponential-decay or a constant rate (the
    paper's setting; subclasses may override the closed form), this is a
    typed :class:`~repro.numerics.pde_solver.LogisticReaction` -- a constant
    rate is ``a = 0, c = rate`` (``0 * e^0 + rate`` is exactly ``rate``) --
    which the Crank-Nicolson engine tabulates once per solve and iterates
    with Newton-scaled updates.  Otherwise each column's rate profile is
    evaluated separately by an opaque callable, iterated with plain Picard
    updates.
    """
    terms: "list[tuple[float, float, float, float, float]]" = []
    for parameters in parameter_sets:
        rate = parameters.growth_rate
        if type(rate) is ExponentialDecayGrowthRate:
            growth = (rate.amplitude, rate.decay, rate.reference_time, rate.floor)
        elif type(rate) is ConstantGrowthRate:
            growth = (0.0, 0.0, 0.0, rate.rate)
        else:
            break
        terms.append((*growth, parameters.carrying_capacity))
    else:
        return LogisticReaction(*(np.asarray(values, dtype=float) for values in zip(*terms)))

    def reaction(states: np.ndarray, positions: np.ndarray, time: float) -> np.ndarray:
        out = np.empty_like(states)
        for j, parameters in enumerate(parameter_sets):
            out[:, j] = parameters.reaction(states[:, j], positions, time)
        return out

    return reaction


def solve_dl_batch(
    parameter_sets: "Sequence[DLParameters] | DLParameters",
    initial_densities: "Sequence[InitialDensity] | InitialDensity",
    times: "np.ndarray | list[float]",
    points_per_unit: int = 20,
    max_step: float = 0.02,
    backend: str = "internal",
    grid: "UniformGrid | None" = None,
) -> "list[DLSolution]":
    """Solve many DL problems in one batched PDE solve.

    Either argument may be a single object, which is broadcast against the
    other: one phi with N parameter candidates (calibration), N phis with one
    parameter set (multi-story prediction with shared parameters), or
    matching-length sequences of both.

    All members must share the spatial setup -- the same distance interval
    and the same initial time -- because the batch advances as columns of one
    state matrix on one grid.  Callers with heterogeneous stories should
    group them (as :class:`repro.core.prediction.BatchPredictor` does) and
    make one call per group.

    Returns one :class:`DLSolution` per member, in order, numerically
    matching what :meth:`DiffusiveLogisticModel.solve` produces one at a
    time (the batched engine steps identically, per column).
    """
    parameter_sets, initial_densities = _broadcast_members(parameter_sets, initial_densities)
    batch_solution = solve_dl_batch_states(
        parameter_sets,
        initial_densities,
        times,
        points_per_unit=points_per_unit,
        max_step=max_step,
        backend=backend,
        grid=grid,
    )
    return [
        DLSolution(
            pde_solution=batch_solution.column(j),
            parameters=parameter_sets[j],
            initial_density=initial_densities[j],
        )
        for j in range(len(parameter_sets))
    ]


def solve_dl_batch_states(
    parameter_sets: "Sequence[DLParameters] | DLParameters",
    initial_densities: "Sequence[InitialDensity] | InitialDensity",
    times: "np.ndarray | list[float]",
    points_per_unit: int = 20,
    max_step: float = 0.02,
    backend: str = "internal",
    grid: "UniformGrid | None" = None,
) -> BatchPDESolution:
    """:func:`solve_dl_batch` without the per-member split.

    Returns the batched solution itself, whose ``states`` tensor has shape
    ``(times, nodes, batch)``, for callers that read every member at once
    (the batched calibration samples all candidates with one index).
    """
    parameter_sets, initial_densities = _broadcast_members(parameter_sets, initial_densities)
    reference = initial_densities[0]
    for phi in initial_densities[1:]:
        if (
            phi.lower != reference.lower
            or phi.upper != reference.upper
            or phi.initial_time != reference.initial_time
        ):
            raise ValueError(
                "all initial densities in a batch must share the same distance "
                f"interval and initial time; got [{phi.lower}, {phi.upper}] at "
                f"t={phi.initial_time} vs [{reference.lower}, {reference.upper}] "
                f"at t={reference.initial_time}"
            )

    grid = grid if grid is not None else reference.default_grid(points_per_unit)
    times = sorted(set(float(t) for t in times) | {reference.initial_time})
    # A broadcast phi (calibration) is sampled once, not once per column.
    distinct = {id(phi): phi for phi in initial_densities}
    samples = {key: phi.sample(grid) for key, phi in distinct.items()}
    initial_states = np.column_stack([samples[id(phi)] for phi in initial_densities])
    diffusion_rates = np.asarray([p.diffusion_rate for p in parameter_sets])

    problem = BatchReactionDiffusionProblem(
        grid=grid,
        initial_states=initial_states,
        diffusion_rates=diffusion_rates,
        reaction=_dl_reaction(parameter_sets),
        start_time=reference.initial_time,
        # Per-column reactions keep non-batched backends (e.g. scipy) at
        # O(batch) instead of O(batch^2) when they fall back to sequential
        # column solves of an opaque reaction.
        column_reactions=[p.reaction for p in parameter_sets],
    )
    solver = ReactionDiffusionSolver(max_step=max_step, backend=backend)
    return solver.solve_batch(problem, times)


def _broadcast_members(
    parameter_sets: "Sequence[DLParameters] | DLParameters",
    initial_densities: "Sequence[InitialDensity] | InitialDensity",
) -> "tuple[list[DLParameters], list[InitialDensity]]":
    """Equal-length member lists, broadcasting a single object or 1-sequence."""
    if isinstance(parameter_sets, DLParameters):
        parameter_sets = [parameter_sets]
    else:
        parameter_sets = list(parameter_sets)
    if isinstance(initial_densities, InitialDensity):
        initial_densities = [initial_densities]
    else:
        initial_densities = list(initial_densities)
    if not parameter_sets or not initial_densities:
        raise ValueError("at least one parameter set and one initial density are required")
    if len(parameter_sets) == 1 and len(initial_densities) > 1:
        parameter_sets = parameter_sets * len(initial_densities)
    if len(initial_densities) == 1 and len(parameter_sets) > 1:
        initial_densities = initial_densities * len(parameter_sets)
    if len(parameter_sets) != len(initial_densities):
        raise ValueError(
            f"cannot broadcast {len(parameter_sets)} parameter sets against "
            f"{len(initial_densities)} initial densities"
        )
    return parameter_sets, initial_densities
