"""Method-of-lines solver for 1-D reaction-diffusion problems.

This is the numerical engine behind the Diffusive Logistic model: it solves

    u_t = d(x, t) * u_xx + f(u, x, t),    x in [l, L]
    u_x(l, t) = u_x(L, t) = 0             (Neumann)
    u(x, t0) = u0(x)

on a :class:`~repro.numerics.grid.UniformGrid`.  The time stepping itself is
delegated to a pluggable :class:`~repro.numerics.backends.SolverBackend`
resolved by name from the backend registry (``"internal"`` uses the
integrators in this package, ``"scipy"`` delegates to ``solve_ivp``); new
backends can be registered without touching this module.

Two problem shapes are supported:

* :class:`ReactionDiffusionProblem` -- one initial condition, one diffusion
  rate, solved by :meth:`ReactionDiffusionSolver.solve`.
* :class:`BatchReactionDiffusionProblem` -- N initial conditions / parameter
  candidates advanced together as the columns of one ``(n_nodes, batch)``
  state matrix per step, solved by :meth:`ReactionDiffusionSolver.solve_batch`.
  The batched path shares the prefactorized diffusion operator (cached per
  (grid, dt, d) in :mod:`repro.numerics.operator_cache`) across all columns,
  which is what makes batched calibration and multi-cascade prediction
  markedly faster than one-solve-at-a-time loops.

The solver is written against a generic reaction callable so the same engine
also serves the SIS baseline and the extended (future-work) parameterisations
where the growth rate depends on both time and distance.  The DL model's own
reaction is a typed :class:`LogisticReaction`, whose growth-rate parameters
and capacities let the Crank-Nicolson engine tabulate rates once per solve
and take Newton-scaled fixed-point iterations.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.numerics.grid import UniformGrid
from repro.numerics.integrators import CrankNicolsonIntegrator, TimeIntegrator

DiffusionCoefficient = Callable[[np.ndarray, float], np.ndarray]
"""d(x, t): vectorised over the grid nodes, returns per-node diffusion rates."""

ReactionTerm = Callable[[np.ndarray, np.ndarray, float], np.ndarray]
"""f(u, x, t): vectorised reaction term."""

BatchReactionTerm = Callable[[np.ndarray, np.ndarray, float], np.ndarray]
"""f(U, x, t) with ``U`` of shape ``(n_nodes, batch)``; returns the same shape."""


@dataclass(frozen=True, eq=False)
class LogisticReaction:
    """Logistic reaction ``r_j(t) * u * (1 - u / K_j)``, one ``(r_j, K_j)`` per column.

    ``r_j(t) = a_j * exp(-b_j * (t - t0_j)) + c_j`` is the DL model's
    decaying growth rate (a constant rate is ``a_j = 0``).  Calling the
    reaction evaluates it like any :data:`BatchReactionTerm` -- or like a
    :data:`ReactionTerm` on one ``(n_nodes,)`` state when it has a single
    column.  Unlike an opaque callable it also exposes its parts, which the
    Crank-Nicolson engine uses to tabulate every step's rates with one
    ``exp`` (:meth:`growth_rates`) and to scale its fixed-point iteration by
    the derivative ``f'(u) = r(t) * (1 - 2u / K)``.

    Attributes
    ----------
    amplitude, decay, reference_time, floor:
        ``a_j``, ``b_j``, ``t0_j`` and ``c_j``, shape ``(width,)``.
    capacity:
        ``K_j``, shape ``(width,)``.
    """

    amplitude: np.ndarray
    decay: np.ndarray
    reference_time: np.ndarray
    floor: np.ndarray
    capacity: np.ndarray

    def __post_init__(self) -> None:
        fields = ("amplitude", "decay", "reference_time", "floor", "capacity")
        arrays = [np.atleast_1d(np.asarray(getattr(self, name), dtype=float)) for name in fields]
        if any(array.ndim != 1 or array.shape != arrays[0].shape for array in arrays):
            raise ValueError(
                "amplitude, decay, reference_time, floor and capacity must be "
                f"1-D arrays of one length, got shapes {[a.shape for a in arrays]}"
            )
        for name, array in zip(fields, arrays):
            object.__setattr__(self, name, array)

    @property
    def width(self) -> int:
        """Number of columns the reaction serves."""
        return int(self.capacity.size)

    def growth_rates(self, times: "Sequence[float] | np.ndarray") -> np.ndarray:
        """``r_j(t)`` for every time and column, shape ``(len(times), width)``."""
        times = np.asarray(times, dtype=float)[:, None]
        return self.amplitude * np.exp(-self.decay * (times - self.reference_time)) + self.floor

    def take(self, columns: "Sequence[int] | np.ndarray") -> "LogisticReaction":
        """The reaction of the given columns, in the given order."""
        columns = np.asarray(columns, dtype=int)
        return LogisticReaction(
            self.amplitude[columns],
            self.decay[columns],
            self.reference_time[columns],
            self.floor[columns],
            self.capacity[columns],
        )

    def __call__(self, states: np.ndarray, positions: np.ndarray, time: float) -> np.ndarray:
        rates = self.growth_rates([time])[0]
        return rates * states * (1.0 - states / self.capacity)


def _node_indices(grid: UniformGrid, positions: np.ndarray) -> "np.ndarray | None":
    """Indices of the grid nodes equal to ``positions``, or ``None``.

    ``np.interp`` returns the node value itself at a position equal to a
    node, so when every position is a node, sampling is a gather with the
    same result (non-finite values included).
    """
    nodes = grid.nodes
    index = np.minimum(np.searchsorted(nodes, positions), nodes.size - 1)
    if np.array_equal(nodes[index], positions):
        return index
    return None


@dataclass(frozen=True)
class ReactionDiffusionProblem:
    """A fully specified 1-D reaction-diffusion initial-boundary-value problem.

    Attributes
    ----------
    grid:
        Spatial grid on ``[l, L]``.
    initial_condition:
        Callable ``u0(x)`` evaluated on the grid nodes, or an array of nodal
        values of matching length.
    diffusion:
        Either a constant diffusion rate ``d`` or a callable ``d(x, t)``.
    reaction:
        Callable ``f(u, x, t)`` giving the reaction contribution to ``u_t``.
    start_time:
        Initial time ``t0`` (the paper uses t = 1 hour).
    """

    grid: UniformGrid
    initial_condition: "Callable[[np.ndarray], np.ndarray] | np.ndarray"
    diffusion: "float | DiffusionCoefficient"
    reaction: ReactionTerm
    start_time: float = 1.0

    def initial_state(self) -> np.ndarray:
        """Evaluate the initial condition on the grid."""
        nodes = self.grid.nodes
        if callable(self.initial_condition):
            state = np.asarray(self.initial_condition(nodes), dtype=float)
        else:
            state = np.asarray(self.initial_condition, dtype=float)
        if state.shape != nodes.shape:
            raise ValueError(
                f"initial condition has shape {state.shape}, expected {nodes.shape}"
            )
        return state.copy()

    def diffusion_at(self, time: float) -> np.ndarray:
        """Per-node diffusion coefficients at ``time``."""
        nodes = self.grid.nodes
        if callable(self.diffusion):
            values = np.asarray(self.diffusion(nodes, time), dtype=float)
            if values.shape != nodes.shape:
                raise ValueError(
                    f"diffusion coefficient has shape {values.shape}, expected {nodes.shape}"
                )
            return values
        return np.full(nodes.shape, float(self.diffusion))

    @property
    def diffusion_is_constant(self) -> bool:
        """True when the diffusion rate does not depend on x or t."""
        return not callable(self.diffusion)


@dataclass(frozen=True)
class BatchReactionDiffusionProblem:
    """N reaction-diffusion problems sharing one grid, advanced as columns.

    The batch members may differ in initial condition, (constant) diffusion
    rate and reaction parameters; the reaction term is a single vectorised
    callable evaluated on the whole ``(n_nodes, batch)`` state matrix at once.
    It must be *columnwise decoupled*: output column ``j`` may depend only on
    state column ``j`` (each column is an independent problem), and it is
    always called with the full ``(n_nodes, batch)`` matrix.

    Attributes
    ----------
    grid:
        Shared spatial grid.
    initial_states:
        Nodal initial values, shape ``(n_nodes, batch)``.
    diffusion_rates:
        Constant diffusion rate per column, shape ``(batch,)``.
    reaction:
        Vectorised ``f(U, x, t) -> (n_nodes, batch)``.
    start_time:
        Shared initial time ``t0``.
    column_reactions:
        Optional per-column scalar reactions ``f(u, x, t) -> (n_nodes,)``,
        one per batch member.  Backends without a vectorised engine fall back
        to solving members one at a time; providing these lets that fallback
        evaluate a single column's reaction directly instead of tiling the
        state to the full batch width per evaluation.  Not needed when
        ``reaction`` is a :class:`LogisticReaction`, which splits into
        columns itself.
    """

    grid: UniformGrid
    initial_states: np.ndarray
    diffusion_rates: np.ndarray
    reaction: BatchReactionTerm
    start_time: float = 1.0
    column_reactions: "Sequence[ReactionTerm] | None" = None

    def __post_init__(self) -> None:
        states = np.asarray(self.initial_states, dtype=float)
        rates = np.atleast_1d(np.asarray(self.diffusion_rates, dtype=float))
        if states.ndim != 2 or states.shape[0] != self.grid.num_points:
            raise ValueError(
                f"initial_states must have shape (n_nodes={self.grid.num_points}, batch), "
                f"got {states.shape}"
            )
        if rates.shape != (states.shape[1],):
            raise ValueError(
                f"diffusion_rates must have shape ({states.shape[1]},), got {rates.shape}"
            )
        if np.any(rates <= 0):
            raise ValueError("all diffusion rates must be positive")
        if isinstance(self.reaction, LogisticReaction) and self.reaction.width != states.shape[1]:
            raise ValueError(
                f"the logistic reaction has {self.reaction.width} columns, "
                f"expected one per batch member ({states.shape[1]})"
            )
        if self.column_reactions is not None and len(self.column_reactions) != states.shape[1]:
            raise ValueError(
                f"column_reactions must have one entry per batch member "
                f"({states.shape[1]}), got {len(self.column_reactions)}"
            )
        object.__setattr__(self, "initial_states", states.copy())
        object.__setattr__(self, "diffusion_rates", rates.copy())

    @property
    def batch_size(self) -> int:
        """Number of problems advanced together."""
        return int(self.initial_states.shape[1])

    def column_problem(self, index: int) -> ReactionDiffusionProblem:
        """The ``index``-th member as a standalone sequential problem.

        A :class:`LogisticReaction` contributes its ``index``-th column.
        When ``column_reactions`` were provided, the member's own scalar
        reaction is used directly.  Otherwise the batch reaction -- written
        against the full ``(n_nodes, batch)`` matrix -- is adapted by tiling
        the single state vector across all columns and extracting column
        ``index`` (valid because the reaction is columnwise decoupled by
        contract, but O(batch) extra work per evaluation; supply
        ``column_reactions`` on hot fallback paths).
        """
        if isinstance(self.reaction, LogisticReaction):
            reaction = self.reaction.take([index])
        elif self.column_reactions is not None:
            reaction = self.column_reactions[index]
        else:
            batch_reaction = self.reaction
            batch = self.batch_size

            def reaction(u: np.ndarray, x: np.ndarray, t: float) -> np.ndarray:
                tiled = np.repeat(np.asarray(u, dtype=float)[:, None], batch, axis=1)
                return np.asarray(batch_reaction(tiled, x, t), dtype=float)[:, index]

        return ReactionDiffusionProblem(
            grid=self.grid,
            initial_condition=self.initial_states[:, index].copy(),
            diffusion=float(self.diffusion_rates[index]),
            reaction=reaction,
            start_time=self.start_time,
        )


@dataclass
class PDESolution:
    """Dense-in-space solution sampled at requested output times.

    Attributes
    ----------
    grid:
        The spatial grid the problem was solved on.
    times:
        Output times, shape ``(n_times,)``.
    states:
        Solution values, shape ``(n_times, n_nodes)``.
    """

    grid: UniformGrid
    times: np.ndarray
    states: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        if self.states.shape != (self.times.size, self.grid.num_points):
            raise ValueError(
                f"states shape {self.states.shape} does not match "
                f"(n_times={self.times.size}, n_nodes={self.grid.num_points})"
            )

    def at_time(self, time: float) -> np.ndarray:
        """Return the spatial profile at the output time closest to ``time``."""
        index = int(np.argmin(np.abs(self.times - time)))
        if abs(self.times[index] - time) > 1e-9 + 1e-6 * max(1.0, abs(time)):
            raise ValueError(
                f"time {time} was not an output time; closest is {self.times[index]}"
            )
        return self.states[index].copy()

    def sample(self, positions: Sequence[float], time: float) -> np.ndarray:
        """Linearly interpolate the solution at arbitrary positions for one time."""
        profile = self.at_time(time)
        return np.interp(np.asarray(positions, dtype=float), self.grid.nodes, profile)

    def sample_surface(self, positions: Sequence[float]) -> np.ndarray:
        """Sample all output times at the given positions -> (n_times, n_positions)."""
        positions = np.asarray(positions, dtype=float)
        index = _node_indices(self.grid, positions)
        if index is not None:
            return self.states[:, index]
        surface = np.empty((self.times.size, positions.size))
        for i in range(self.times.size):
            surface[i] = np.interp(positions, self.grid.nodes, self.states[i])
        return surface

    @property
    def final_state(self) -> np.ndarray:
        """Spatial profile at the last output time."""
        return self.states[-1].copy()


@dataclass
class BatchPDESolution:
    """Solutions of a batched solve, one column per batch member.

    Attributes
    ----------
    grid:
        Shared spatial grid.
    times:
        Output times, shape ``(n_times,)``.
    states:
        Solution values, shape ``(n_times, n_nodes, batch)``.
    """

    grid: UniformGrid
    times: np.ndarray
    states: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        if self.states.ndim != 3 or self.states.shape[:2] != (
            self.times.size,
            self.grid.num_points,
        ):
            raise ValueError(
                f"states shape {self.states.shape} does not match "
                f"(n_times={self.times.size}, n_nodes={self.grid.num_points}, batch)"
            )

    @property
    def batch_size(self) -> int:
        """Number of batch members."""
        return int(self.states.shape[2])

    def column(self, index: int) -> PDESolution:
        """Extract one batch member as a standalone :class:`PDESolution`."""
        metadata = dict(self.metadata)
        metadata["batch_column"] = int(index)
        return PDESolution(
            grid=self.grid,
            times=self.times.copy(),
            states=self.states[:, :, index].copy(),
            metadata=metadata,
        )

    def sample_surface(self, positions: Sequence[float]) -> np.ndarray:
        """Interpolate all columns -> ``(n_times, n_positions, batch)``."""
        positions = np.asarray(positions, dtype=float)
        index = _node_indices(self.grid, positions)
        if index is not None:
            return self.states[:, index, :]
        surface = np.empty((self.times.size, positions.size, self.batch_size))
        for j in range(self.batch_size):
            for i in range(self.times.size):
                surface[i, :, j] = np.interp(
                    positions, self.grid.nodes, self.states[i, :, j]
                )
        return surface


def validated_output_times(output_times: Sequence[float], start_time: float) -> np.ndarray:
    """Deduplicate, sort and range-check the requested output times."""
    times = np.asarray(sorted(set(float(t) for t in output_times)), dtype=float)
    if times.size == 0:
        raise ValueError("at least one output time is required")
    if times[0] < start_time - 1e-12:
        raise ValueError(
            f"output times start at {times[0]}, before the problem start time "
            f"{start_time}"
        )
    return times


class ReactionDiffusionSolver:
    """Method-of-lines solver with pluggable time integration and backends.

    Parameters
    ----------
    integrator:
        A :class:`~repro.numerics.integrators.TimeIntegrator`; defaults to
        Crank-Nicolson, which is unconditionally stable for the diffusion
        part and therefore robust across the parameter sweeps in the
        benchmarks.
    max_step:
        Upper bound on the internal time step (in the same units as the
        output times, i.e. hours for the DL model).
    backend:
        Either the name of a registered backend (``"internal"`` uses the
        integrators in this package; ``"scipy"`` delegates to
        :func:`scipy.integrate.solve_ivp`) or a
        :class:`~repro.numerics.backends.SolverBackend` instance.  Unknown
        names raise :class:`~repro.core.errors.UnknownNameError` listing the
        registered backends; register new ones in
        :data:`repro.numerics.backends.BACKENDS`.
    operator:
        Factorization mode for the Crank-Nicolson diffusion operator:
        ``"auto"`` (the backend's default -- banded for the internal engine),
        ``"banded"``, ``"thomas"`` or ``"dense"``.  Only meaningful for
        backends that expose an ``operator_mode`` (the internal engine and
        its subclasses); selecting a non-auto mode on any other backend
        raises :class:`ValueError`.
    """

    def __init__(
        self,
        integrator: "TimeIntegrator | None" = None,
        max_step: float = 0.05,
        backend: str = "internal",
        operator: str = "auto",
    ) -> None:
        from repro.numerics.backends import get_backend

        if max_step <= 0:
            raise ValueError(f"max_step must be positive, got {max_step}")
        self._integrator = integrator if integrator is not None else CrankNicolsonIntegrator()
        self._max_step = max_step
        self._backend = get_backend(backend)
        if operator != "auto":
            if not hasattr(self._backend, "operator_mode"):
                raise ValueError(
                    f"backend {self._backend.name!r} does not support operator "
                    f"mode selection; remove operator={operator!r} or use the "
                    "internal engine"
                )
            # get_backend passes instances through unchanged, so configure a
            # copy: the caller's (possibly shared) backend must not change
            # behaviour behind other solvers holding it.
            self._backend = copy.copy(self._backend)
            self._backend.operator_mode = operator

    @property
    def integrator(self) -> TimeIntegrator:
        """The time integrator in use (internal backend only)."""
        return self._integrator

    @property
    def backend(self) -> str:
        """Name of the solver backend in use (e.g. ``"internal"``, ``"scipy"``)."""
        return self._backend.name

    @property
    def backend_instance(self) -> "object":
        """The resolved :class:`~repro.numerics.backends.SolverBackend`."""
        return self._backend

    @property
    def operator(self) -> "str | None":
        """Operator mode of the backend, or None when it has no such knob."""
        mode = getattr(self._backend, "resolved_operator_mode", None)
        return mode

    @property
    def max_step(self) -> float:
        """Upper bound on the internal time step."""
        return self._max_step

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def solve(
        self, problem: ReactionDiffusionProblem, output_times: Sequence[float]
    ) -> PDESolution:
        """Solve the problem and sample the solution at ``output_times``.

        ``output_times`` must be non-decreasing and start at or after the
        problem's ``start_time``.  The initial time itself may be included and
        is returned verbatim as the initial condition.
        """
        times = validated_output_times(output_times, problem.start_time)
        return self._backend.solve(
            problem, times, integrator=self._integrator, max_step=self._max_step
        )

    def solve_batch(
        self, problem: BatchReactionDiffusionProblem, output_times: Sequence[float]
    ) -> BatchPDESolution:
        """Advance every batch member together and sample at ``output_times``.

        Columns of the state matrix are stepped in lockstep, so the whole
        batch shares each prefactorized diffusion operator and each reaction
        evaluation.  Backends without a native batched implementation fall
        back to solving the members one by one.
        """
        times = validated_output_times(output_times, problem.start_time)
        return self._backend.solve_batch(
            problem, times, integrator=self._integrator, max_step=self._max_step
        )
