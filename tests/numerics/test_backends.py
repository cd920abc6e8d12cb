"""Tests for the solver-backend registry and the batched solver engine."""

import numpy as np
import pytest

from repro.numerics.backends import (
    InternalBackend,
    ScipyBackend,
    available_backends,
    get_backend,
    register_backend,
    unregister_backend,
)
from repro.numerics.grid import UniformGrid
from repro.numerics.integrators import RungeKutta4Integrator
from repro.numerics.operator_cache import cache_stats, clear_operator_caches
from repro.numerics.pde_solver import (
    BatchReactionDiffusionProblem,
    ReactionDiffusionSolver,
)


def dl_like_batch_problem(batch=6, num_points=21, seed=0):
    """A batch of DL-style logistic reaction problems with mixed d values."""
    grid = UniformGrid(1.0, 5.0, num_points)
    rng = np.random.default_rng(seed)
    initial_states = 2.0 + rng.random((num_points, batch))
    diffusion_rates = np.resize([0.01, 0.05, 0.02], batch)
    rates = rng.uniform(0.3, 1.2, batch)

    def reaction(states, positions, time):
        return rates[None, :] * states * (1.0 - states / 25.0)

    return BatchReactionDiffusionProblem(
        grid=grid,
        initial_states=initial_states,
        diffusion_rates=diffusion_rates,
        reaction=reaction,
        start_time=1.0,
    )


class TestRegistry:
    def test_builtins_registered(self):
        names = available_backends()
        assert "internal" in names
        assert "scipy" in names

    def test_unknown_backend_error_lists_registered(self):
        with pytest.raises(ValueError) as excinfo:
            get_backend("cuda")
        message = str(excinfo.value)
        assert "cuda" in message
        assert "'internal'" in message
        assert "'scipy'" in message

    def test_solver_rejects_unknown_backend(self):
        with pytest.raises(ValueError):
            ReactionDiffusionSolver(backend="nonexistent")

    def test_instance_passes_through(self):
        backend = InternalBackend()
        assert get_backend(backend) is backend

    def test_invalid_type_rejected(self):
        with pytest.raises(TypeError):
            get_backend(42)

    def test_register_and_unregister_custom_backend(self):
        class EchoBackend(InternalBackend):
            name = "echo-test"

        register_backend("echo-test", EchoBackend)
        try:
            assert "echo-test" in available_backends()
            solver = ReactionDiffusionSolver(backend="echo-test")
            assert solver.backend == "echo-test"
        finally:
            unregister_backend("echo-test")
        assert "echo-test" not in available_backends()

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            register_backend("internal", InternalBackend)

    def test_duplicate_registration_with_overwrite(self):
        register_backend("internal", InternalBackend, overwrite=True)
        assert get_backend("internal").name == "internal"

    def test_solver_accepts_backend_instance(self):
        solver = ReactionDiffusionSolver(backend=ScipyBackend())
        assert solver.backend == "scipy"


class TestBatchProblemValidation:
    def test_rejects_wrong_state_shape(self):
        grid = UniformGrid(1.0, 5.0, 21)
        with pytest.raises(ValueError):
            BatchReactionDiffusionProblem(
                grid, np.ones((5, 3)), np.ones(3) * 0.01, lambda u, x, t: u, 1.0
            )

    def test_rejects_mismatched_rates(self):
        grid = UniformGrid(1.0, 5.0, 21)
        with pytest.raises(ValueError):
            BatchReactionDiffusionProblem(
                grid, np.ones((21, 3)), np.ones(2) * 0.01, lambda u, x, t: u, 1.0
            )

    def test_rejects_nonpositive_rates(self):
        grid = UniformGrid(1.0, 5.0, 21)
        with pytest.raises(ValueError):
            BatchReactionDiffusionProblem(
                grid, np.ones((21, 3)), np.array([0.01, 0.0, 0.02]), lambda u, x, t: u, 1.0
            )


class TestBatchedEngine:
    def test_batch_matches_sequential_columns(self):
        problem = dl_like_batch_problem()
        solver = ReactionDiffusionSolver(max_step=0.05)
        times = [1.0, 2.0, 3.5, 5.0]
        batched = solver.solve_batch(problem, times)
        assert batched.batch_size == problem.batch_size
        for j in range(problem.batch_size):
            sequential = solver.solve(problem.column_problem(j), times)
            assert np.max(np.abs(batched.states[:, :, j] - sequential.states)) < 1e-10

    @pytest.mark.parametrize(
        "diffusion_rates",
        [
            [0.01, 0.05, 0.02, 0.01, 0.05, 0.02],  # interleaved groups
            [0.05, 0.05, 0.01, 0.01, 0.01, 0.02],  # contiguous groups
            [0.02] * 6,  # one group
        ],
    )
    def test_diffusion_grouping_is_bit_identical_per_column(self, diffusion_rates):
        base = dl_like_batch_problem(batch=6)
        problem = BatchReactionDiffusionProblem(
            grid=base.grid,
            initial_states=base.initial_states,
            diffusion_rates=np.asarray(diffusion_rates),
            reaction=base.reaction,
            start_time=base.start_time,
        )
        solver = ReactionDiffusionSolver(max_step=0.05)
        times = [1.0, 2.0, 3.5]
        batched = solver.solve_batch(problem, times)
        assert batched.metadata["diffusion_groups"] == len(set(diffusion_rates))
        for j in range(problem.batch_size):
            alone = solver.solve(problem.column_problem(j), times)
            np.testing.assert_array_equal(batched.states[:, :, j], alone.states)

    def test_batch_solution_column_extraction(self):
        problem = dl_like_batch_problem(batch=3)
        solver = ReactionDiffusionSolver(max_step=0.05)
        batched = solver.solve_batch(problem, [1.0, 2.0])
        column = batched.column(1)
        assert column.states.shape == (2, 21)
        assert np.allclose(column.states, batched.states[:, :, 1])
        assert column.metadata["batch_column"] == 1

    def test_initial_time_emitted_verbatim(self):
        problem = dl_like_batch_problem(batch=4)
        solver = ReactionDiffusionSolver(max_step=0.05)
        batched = solver.solve_batch(problem, [1.0, 3.0])
        assert np.allclose(batched.states[0], problem.initial_states)

    def test_metadata_reports_engine_and_groups(self):
        problem = dl_like_batch_problem(batch=6)
        solver = ReactionDiffusionSolver(max_step=0.05)
        batched = solver.solve_batch(problem, [2.0])
        assert batched.metadata["engine"] == "batched_crank_nicolson"
        assert batched.metadata["batch_size"] == 6
        assert batched.metadata["diffusion_groups"] == 3
        assert batched.metadata["steps"] > 0

    def test_scipy_fallback_solves_batch(self):
        problem = dl_like_batch_problem(batch=2)
        solver = ReactionDiffusionSolver(max_step=0.05, backend="scipy")
        batched = solver.solve_batch(problem, [1.0, 2.0, 3.0])
        assert batched.states.shape == (3, 21, 2)
        assert batched.metadata["engine"] == "sequential_fallback"

    def test_scipy_batch_agrees_with_internal_batch(self):
        problem = dl_like_batch_problem(batch=2)
        times = [1.0, 2.0, 3.0]
        internal = ReactionDiffusionSolver(max_step=0.01).solve_batch(problem, times)
        via_scipy = ReactionDiffusionSolver(max_step=0.05, backend="scipy").solve_batch(
            problem, times
        )
        assert np.allclose(internal.states, via_scipy.states, rtol=2e-3, atol=1e-4)

    def test_rk4_batch_falls_back_to_sequential(self):
        problem = dl_like_batch_problem(batch=2)
        solver = ReactionDiffusionSolver(
            integrator=RungeKutta4Integrator(), max_step=0.01
        )
        batched = solver.solve_batch(problem, [1.0, 1.5])
        assert batched.metadata["engine"] == "sequential_fallback"
        assert batched.states.shape == (2, 21, 2)


class TestOperatorCache:
    def test_repeated_solves_hit_the_operator_cache(self):
        clear_operator_caches()
        problem = dl_like_batch_problem(batch=4)
        solver = ReactionDiffusionSolver(max_step=0.05)
        solver.solve_batch(problem, [2.0])
        first = cache_stats()["crank_nicolson_operator"]
        solver.solve_batch(problem, [2.0])
        second = cache_stats()["crank_nicolson_operator"]
        assert second["misses"] == first["misses"]
        assert second["hits"] > first["hits"]

    def test_sequential_cn_solves_share_cache_with_batched(self):
        clear_operator_caches()
        problem = dl_like_batch_problem(batch=2)
        solver = ReactionDiffusionSolver(max_step=0.05)
        solver.solve_batch(problem, [2.0])
        misses_after_batch = cache_stats()["crank_nicolson_operator"]["misses"]
        solver.solve(problem.column_problem(0), [2.0])
        assert cache_stats()["crank_nicolson_operator"]["misses"] == misses_after_batch

    def test_cached_laplacian_is_read_only(self):
        from repro.numerics.finite_difference import NeumannLaplacian

        matrix = NeumannLaplacian(UniformGrid(0.0, 1.0, 11)).matrix
        with pytest.raises(ValueError):
            matrix[0, 0] = 1.0


class TestOperatorModes:
    def test_default_mode_is_banded(self):
        solver = ReactionDiffusionSolver(max_step=0.05)
        assert solver.operator == "banded"
        batched = solver.solve_batch(dl_like_batch_problem(batch=2), [2.0])
        assert batched.metadata["operator"] == "banded"

    @pytest.mark.parametrize("mode", ["dense", "banded", "thomas"])
    def test_explicit_mode_reported_in_metadata(self, mode):
        solver = ReactionDiffusionSolver(max_step=0.05, operator=mode)
        assert solver.operator == mode
        batched = solver.solve_batch(dl_like_batch_problem(batch=2), [2.0])
        assert batched.metadata["operator"] == mode

    @pytest.mark.parametrize("mode", ["banded", "thomas"])
    def test_modes_match_dense_reference(self, mode):
        problem = dl_like_batch_problem(batch=5)
        times = [1.0, 2.0, 4.0]
        dense = ReactionDiffusionSolver(max_step=0.05, operator="dense").solve_batch(
            problem, times
        )
        other = ReactionDiffusionSolver(max_step=0.05, operator=mode).solve_batch(
            problem, times
        )
        assert np.max(np.abs(other.states - dense.states)) < 1e-12

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            ReactionDiffusionSolver(operator="sparse-qr")

    def test_mode_selection_rejected_for_scipy_backend(self):
        with pytest.raises(ValueError):
            ReactionDiffusionSolver(backend="scipy", operator="banded")

    def test_mode_selection_does_not_mutate_shared_backend_instance(self):
        shared = InternalBackend()
        first = ReactionDiffusionSolver(backend=shared)
        second = ReactionDiffusionSolver(backend=shared, operator="dense")
        assert second.operator == "dense"
        # The caller's instance (and any solver already holding it) is untouched.
        assert shared.operator_mode == "auto"
        assert first.operator == "banded"

    def test_scipy_backend_ignores_auto_mode(self):
        solver = ReactionDiffusionSolver(backend="scipy")
        assert solver.operator is None

    def test_single_solve_metadata_reports_operator(self):
        problem = dl_like_batch_problem(batch=2).column_problem(0)
        solution = ReactionDiffusionSolver(max_step=0.05).solve(problem, [2.0])
        assert solution.metadata["operator"] == "banded"
