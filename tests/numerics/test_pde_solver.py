"""Tests for the method-of-lines reaction-diffusion solver."""

import numpy as np
import pytest

from repro.core.errors import UnknownNameError
from repro.numerics.grid import UniformGrid
from repro.numerics.integrators import RungeKutta4Integrator
from repro.numerics.pde_solver import (
    BatchPDESolution,
    PDESolution,
    ReactionDiffusionProblem,
    ReactionDiffusionSolver,
)


def no_reaction(u, x, t):
    return np.zeros_like(u)


def make_heat_problem(num_points=61, diffusion=0.05):
    grid = UniformGrid(0.0, 1.0, num_points)

    def initial(x):
        return np.cos(np.pi * x) + 1.0

    return ReactionDiffusionProblem(
        grid=grid,
        initial_condition=initial,
        diffusion=diffusion,
        reaction=no_reaction,
        start_time=0.0,
    )


class TestProblem:
    def test_initial_state_from_callable(self):
        problem = make_heat_problem()
        state = problem.initial_state()
        assert state.shape == (61,)
        assert state[0] == pytest.approx(2.0)

    def test_initial_state_from_array(self):
        grid = UniformGrid(0.0, 1.0, 5)
        values = np.array([1.0, 2.0, 3.0, 2.0, 1.0])
        problem = ReactionDiffusionProblem(grid, values, 0.1, no_reaction)
        assert np.allclose(problem.initial_state(), values)
        # The problem must not alias the caller's array.
        problem.initial_state()[0] = 99.0
        assert values[0] == 1.0

    def test_initial_state_shape_mismatch(self):
        grid = UniformGrid(0.0, 1.0, 5)
        problem = ReactionDiffusionProblem(grid, np.zeros(4), 0.1, no_reaction)
        with pytest.raises(ValueError):
            problem.initial_state()

    def test_constant_diffusion(self):
        problem = make_heat_problem(diffusion=0.07)
        assert problem.diffusion_is_constant
        assert np.allclose(problem.diffusion_at(3.0), 0.07)

    def test_variable_diffusion(self):
        grid = UniformGrid(0.0, 1.0, 11)

        def diffusion(x, t):
            return 0.01 + 0.1 * x

        problem = ReactionDiffusionProblem(grid, np.ones(11), diffusion, no_reaction)
        assert not problem.diffusion_is_constant
        values = problem.diffusion_at(0.0)
        assert values[0] == pytest.approx(0.01)
        assert values[-1] == pytest.approx(0.11)


class TestPDESolution:
    def _solution(self):
        grid = UniformGrid(1.0, 5.0, 5)
        times = np.array([1.0, 2.0, 3.0])
        states = np.array([[1, 2, 3, 4, 5], [2, 3, 4, 5, 6], [3, 4, 5, 6, 7]], dtype=float)
        return PDESolution(grid=grid, times=times, states=states)

    def test_at_time(self):
        solution = self._solution()
        assert np.allclose(solution.at_time(2.0), [2, 3, 4, 5, 6])

    def test_at_time_missing_raises(self):
        with pytest.raises(ValueError):
            self._solution().at_time(2.5)

    def test_sample_interpolates_in_space(self):
        solution = self._solution()
        assert solution.sample([1.5], 1.0)[0] == pytest.approx(1.5)

    def test_sample_surface_shape(self):
        surface = self._solution().sample_surface([1.0, 3.0, 5.0])
        assert surface.shape == (3, 3)
        assert surface[0, 2] == pytest.approx(5.0)

    def test_final_state(self):
        assert np.allclose(self._solution().final_state, [3, 4, 5, 6, 7])

    @pytest.mark.parametrize(
        "positions",
        [[1.0, 2.0, 5.0], [3.0, 1.0, 3.0], [1.0, 2.5, 5.0], [0.5, 4.0], [5.5]],
    )
    def test_sample_surface_equals_np_interp(self, positions):
        # Positions on nodes are gathered, others interpolated; both must
        # give np.interp's values bit for bit, non-finite states included.
        grid = UniformGrid(1.0, 5.0, 9)
        rng = np.random.default_rng(3)
        states = rng.random((3, 9, 4))
        states[1, 2, 0] = np.inf
        states[2, 4, 1] = np.nan
        states[2, 8, 3] = -np.inf
        times = np.array([1.0, 2.0, 3.0])
        batch = BatchPDESolution(grid=grid, times=times, states=states)
        expected = np.empty((3, len(positions), 4))
        for i in range(3):
            for j in range(4):
                expected[i, :, j] = np.interp(positions, grid.nodes, states[i, :, j])
        surface = batch.sample_surface(positions)
        np.testing.assert_array_equal(surface.view(np.int64), expected.view(np.int64))
        column = PDESolution(grid=grid, times=times, states=states[:, :, 2]).sample_surface(
            positions
        )
        np.testing.assert_array_equal(column, expected[:, :, 2])

    def test_shape_validation(self):
        grid = UniformGrid(1.0, 5.0, 5)
        with pytest.raises(ValueError):
            PDESolution(grid=grid, times=np.array([1.0]), states=np.zeros((2, 5)))


class TestHeatEquation:
    """Pure diffusion with Neumann boundaries has two analytic touchstones:
    the cos(pi x) mode decays exponentially, and the spatial mean is conserved."""

    @pytest.mark.parametrize("backend", ["internal", "scipy"])
    def test_cosine_mode_decay(self, backend):
        problem = make_heat_problem()
        solver = ReactionDiffusionSolver(max_step=0.01, backend=backend)
        solution = solver.solve(problem, [0.0, 1.0, 2.0])
        nodes = problem.grid.nodes
        for t in (1.0, 2.0):
            expected = np.cos(np.pi * nodes) * np.exp(-0.05 * np.pi**2 * t) + 1.0
            assert np.allclose(solution.at_time(t), expected, atol=5e-3)

    def test_mean_is_conserved(self):
        problem = make_heat_problem()
        solver = ReactionDiffusionSolver(max_step=0.01)
        solution = solver.solve(problem, [0.0, 3.0])
        weights = np.ones(problem.grid.num_points)
        weights[0] = weights[-1] = 0.5
        initial_mean = np.dot(weights, solution.at_time(0.0))
        final_mean = np.dot(weights, solution.at_time(3.0))
        assert final_mean == pytest.approx(initial_mean, rel=1e-4)

    def test_converges_to_uniform_profile(self):
        problem = make_heat_problem(diffusion=0.5)
        solver = ReactionDiffusionSolver(max_step=0.02)
        solution = solver.solve(problem, [50.0])
        final = solution.final_state
        assert np.max(final) - np.min(final) < 1e-3


class TestLogisticReaction:
    """A spatially uniform initial condition with logistic reaction must follow
    the scalar logistic ODE exactly (diffusion of a constant is zero)."""

    @pytest.mark.parametrize("backend", ["internal", "scipy"])
    def test_uniform_profile_follows_logistic(self, backend):
        grid = UniformGrid(1.0, 5.0, 41)
        r, K, u0 = 0.9, 20.0, 2.0

        def reaction(u, x, t):
            return r * u * (1.0 - u / K)

        problem = ReactionDiffusionProblem(grid, np.full(41, u0), 0.01, reaction, start_time=1.0)
        solver = ReactionDiffusionSolver(max_step=0.02, backend=backend)
        solution = solver.solve(problem, [1.0, 3.0, 6.0])
        for t in (3.0, 6.0):
            expected = K / (1.0 + (K / u0 - 1.0) * np.exp(-r * (t - 1.0)))
            assert np.allclose(solution.at_time(t), expected, rtol=1e-3)


class TestSolverConfiguration:
    def test_rejects_bad_max_step(self):
        with pytest.raises(ValueError):
            ReactionDiffusionSolver(max_step=0.0)

    def test_rejects_unknown_backend(self):
        with pytest.raises(UnknownNameError):
            ReactionDiffusionSolver(backend="cuda")

    def test_requires_output_times(self):
        solver = ReactionDiffusionSolver()
        with pytest.raises(ValueError):
            solver.solve(make_heat_problem(), [])

    def test_rejects_output_before_start(self):
        solver = ReactionDiffusionSolver()
        problem = make_heat_problem()
        with pytest.raises(ValueError):
            solver.solve(problem, [-1.0, 1.0])

    def test_initial_time_included_verbatim(self):
        solver = ReactionDiffusionSolver(max_step=0.05)
        problem = make_heat_problem()
        solution = solver.solve(problem, [0.0, 0.5])
        assert np.allclose(solution.at_time(0.0), problem.initial_state())

    def test_metadata_records_backend_and_integrator(self):
        solver = ReactionDiffusionSolver(integrator=RungeKutta4Integrator(), max_step=0.02)
        solution = solver.solve(make_heat_problem(), [0.0, 0.1])
        assert solution.metadata["backend"] == "internal"
        assert solution.metadata["integrator"] == "rk4"
        assert solution.metadata["steps"] > 0

    def test_duplicate_output_times_deduplicated(self):
        solver = ReactionDiffusionSolver(max_step=0.05)
        solution = solver.solve(make_heat_problem(), [0.0, 1.0, 1.0, 0.0])
        assert solution.times.size == 2


class TestBackendAgreement:
    def test_internal_and_scipy_agree_on_dl_like_problem(self):
        grid = UniformGrid(1.0, 5.0, 41)
        rng = np.random.default_rng(3)
        initial = 2.0 + rng.random(41)

        def reaction(u, x, t):
            rate = 1.4 * np.exp(-1.5 * (t - 1.0)) + 0.25
            return rate * u * (1.0 - u / 25.0)

        problem = ReactionDiffusionProblem(grid, initial, 0.01, reaction, start_time=1.0)
        times = [1.0, 2.0, 4.0, 6.0]
        internal = ReactionDiffusionSolver(max_step=0.01, backend="internal").solve(problem, times)
        scipy_solution = ReactionDiffusionSolver(max_step=0.05, backend="scipy").solve(problem, times)
        for t in times:
            assert np.allclose(internal.at_time(t), scipy_solution.at_time(t), rtol=2e-3, atol=1e-4)

    def test_time_varying_diffusion_supported(self):
        grid = UniformGrid(0.0, 1.0, 21)

        def diffusion(x, t):
            return np.full_like(x, 0.02 + 0.01 * t)

        problem = ReactionDiffusionProblem(
            grid, np.cos(np.pi * grid.nodes) + 1.0, diffusion, no_reaction, start_time=0.0
        )
        solution = ReactionDiffusionSolver(max_step=0.02).solve(problem, [0.0, 1.0])
        # Flattening must have happened (diffusion active), mean preserved.
        assert np.max(solution.at_time(1.0)) < np.max(solution.at_time(0.0))
