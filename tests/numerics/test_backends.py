"""Tests for backend lookup and the batched solver engine."""

import numpy as np
import pytest

from repro.core.errors import UnknownNameError
from repro.numerics.backends import (
    BACKENDS,
    InternalBackend,
    ScipyBackend,
    get_backend,
)
from repro.numerics.grid import UniformGrid
from repro.numerics.operator_cache import (
    cache_stats,
    clear_operator_caches,
    neumann_laplacian_matrix,
)
from repro.numerics.pde_solver import (
    BatchReactionDiffusionProblem,
    LogisticReaction,
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
        names = BACKENDS.names()
        assert "internal" in names
        assert "scipy" in names

    def test_unknown_backend_error_lists_registered(self):
        with pytest.raises(UnknownNameError) as excinfo:
            get_backend("cuda")
        message = str(excinfo.value)
        assert "cuda" in message
        assert "'internal'" in message
        assert "'scipy'" in message

    def test_solver_rejects_unknown_backend(self):
        with pytest.raises(UnknownNameError):
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

        BACKENDS.register("echo-test", EchoBackend)
        try:
            solver = ReactionDiffusionSolver(backend="echo-test")
            assert solver.backend == "echo-test"
        finally:
            BACKENDS.unregister("echo-test")
        assert "echo-test" not in BACKENDS

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
        matrix = neumann_laplacian_matrix(11, 0.1)
        with pytest.raises(ValueError):
            matrix[0, 0] = 1.0


class TestOperatorModes:
    def test_default_mode_is_banded(self):
        assert InternalBackend().operator_mode == "banded"
        solver = ReactionDiffusionSolver(max_step=0.05)
        batched = solver.solve_batch(dl_like_batch_problem(batch=2), [2.0])
        assert batched.metadata["operator"] == "banded"

    @pytest.mark.parametrize("mode", ["dense", "banded"])
    def test_explicit_mode_reported_in_metadata(self, mode):
        solver = ReactionDiffusionSolver(
            max_step=0.05, backend=InternalBackend(operator_mode=mode)
        )
        batched = solver.solve_batch(dl_like_batch_problem(batch=2), [2.0])
        assert batched.metadata["operator"] == mode

    @pytest.mark.parametrize("mode", ["banded"])
    def test_modes_match_dense_reference(self, mode):
        problem = dl_like_batch_problem(batch=5)
        times = [1.0, 2.0, 4.0]
        dense = ReactionDiffusionSolver(
            max_step=0.05, backend=InternalBackend(operator_mode="dense")
        ).solve_batch(problem, times)
        other = ReactionDiffusionSolver(
            max_step=0.05, backend=InternalBackend(operator_mode=mode)
        ).solve_batch(problem, times)
        assert np.max(np.abs(other.states - dense.states)) < 1e-12

    def test_unknown_mode_rejected(self):
        for mode in ("auto", "sparse-qr", "thomas"):
            with pytest.raises(ValueError, match="unknown operator mode"):
                InternalBackend(operator_mode=mode)

    def test_mode_is_fixed_at_construction(self):
        backend = InternalBackend(operator_mode="dense")
        with pytest.raises(AttributeError):
            backend.operator_mode = "banded"
        assert backend.operator_mode == "dense"

    def test_single_solve_metadata_reports_operator(self):
        problem = dl_like_batch_problem(batch=2).column_problem(0)
        solution = ReactionDiffusionSolver(max_step=0.05).solve(problem, [2.0])
        assert solution.metadata["operator"] == "banded"


def logistic_batch_problem(diffusion_rates, num_points=41, growth=None, seed=0):
    """DL-shaped columns with a typed logistic reaction (decaying r, K = 25)."""
    rates = np.asarray(diffusion_rates, dtype=float)
    batch = rates.size
    rng = np.random.default_rng(seed)
    if growth is None:
        growth = (
            rng.uniform(0.5, 2.0, batch),
            rng.uniform(0.5, 2.0, batch),
            rng.uniform(0.05, 0.5, batch),
        )
    amplitude, decay, floor = growth
    reaction = LogisticReaction(amplitude, decay, np.ones(batch), floor, np.full(batch, 25.0))
    return BatchReactionDiffusionProblem(
        grid=UniformGrid(1.0, 6.0, num_points),
        initial_states=1.0 + 4.0 * rng.random((num_points, batch)),
        diffusion_rates=rates,
        reaction=reaction,
        start_time=1.0,
    )


def assert_bit_identical(actual, expected):
    np.testing.assert_array_equal(
        np.asarray(actual).view(np.int64), np.asarray(expected).view(np.int64)
    )


class TestLogisticReaction:
    def test_evaluates_the_logistic_term_per_column(self):
        problem = logistic_batch_problem([0.01, 0.05, 0.02])
        reaction = problem.reaction
        states = problem.initial_states
        rates = reaction.amplitude * np.exp(-reaction.decay * (2.5 - 1.0)) + reaction.floor
        expected = rates * states * (1.0 - states / 25.0)
        np.testing.assert_allclose(reaction(states, problem.grid.nodes, 2.5), expected, rtol=1e-14)
        column = problem.column_problem(1).reaction
        assert column.width == 1
        np.testing.assert_array_equal(
            column(states[:, 1], problem.grid.nodes, 2.5),
            reaction(states, problem.grid.nodes, 2.5)[:, 1],
        )

    def test_width_must_match_the_batch(self):
        problem = logistic_batch_problem([0.01, 0.05])
        with pytest.raises(ValueError):
            BatchReactionDiffusionProblem(
                problem.grid,
                np.ones((problem.grid.num_points, 3)),
                np.full(3, 0.01),
                problem.reaction,
            )
        with pytest.raises(ValueError):
            LogisticReaction([1.0, 2.0], [1.0], [1.0], [0.1], [25.0])


class TestPredictedNewtonStep:
    def test_iterations_reported_by_batched_and_single_solves(self):
        problem = logistic_batch_problem([0.01, 0.05])
        solver = ReactionDiffusionSolver(max_step=0.05)
        batched = solver.solve_batch(problem, [1.0, 2.0])
        single = solver.solve(problem.column_problem(0), [1.0, 2.0])
        for metadata in (batched.metadata, single.metadata):
            assert metadata["steps"] == 20
            assert metadata["steps"] <= metadata["picard_iterations"] <= 12 * metadata["steps"]

    def test_calibrate_shaped_batch_takes_few_iterations_per_step(self):
        # A 5-group story at the calibration resolution, with the columns
        # one Levenberg-Marquardt batch solves: four starts (one per
        # diffusion rate), each a ladder of damped steps around its iterate.
        # Plain Picard iteration from the old state took about 5.6
        # iterations per step here, and iterating every step to the fixed
        # point from the AB2 predictor 2.7.  Every column is non-stiff
        # (dt/2 r <= 0.05), so only the Euler-predicted first step iterates.
        from repro.core.dl_model import solve_dl_batch_states
        from repro.core.initial_density import InitialDensity
        from repro.core.parameters import DLParameters, ExponentialDecayGrowthRate

        phi = InitialDensity([1, 2, 3, 4, 5], [5.0, 2.0, 2.5, 1.5, 1.0])
        theta, step = np.array([1.4, 1.5, 0.25]), np.array([0.3, -0.2, 0.05])
        candidates = [
            DLParameters(d, ExponentialDecayGrowthRate(*(theta + step / 4.0**rung)), 25.0)
            for d in (0.005, 0.01, 0.02, 0.05)
            for rung in range(5)
        ]
        solution = solve_dl_batch_states(
            candidates, phi, [1, 2, 3, 4, 5, 6], points_per_unit=8, max_step=0.05
        )
        metadata = solution.metadata
        assert metadata["stacked_solve"] is True
        assert metadata["picard_iterations"] / metadata["steps"] <= 1.1

    def test_one_corrector_stays_within_the_discretisation_error(self):
        # A typed reaction stops non-stiff AB2 steps after one Newton-scaled
        # corrector; the same reaction behind an opaque callable iterates
        # every step to the Crank-Nicolson fixed point.  Both must be as
        # close to a fine-dt reference as the dt = 0.05 scheme allows, and
        # the corrector's distance from the fixed point must be a small
        # fraction of that discretisation error (about 1/55 here).
        typed = logistic_batch_problem([0.01, 0.05, 0.01, 0.05])
        reaction = typed.reaction
        opaque = BatchReactionDiffusionProblem(
            typed.grid,
            typed.initial_states,
            typed.diffusion_rates,
            lambda u, x, t: reaction(u, x, t),
            typed.start_time,
        )
        times = [1.0, 3.0, 6.0]
        solver = ReactionDiffusionSolver(max_step=0.05)
        newton = solver.solve_batch(typed, times)
        picard = solver.solve_batch(opaque, times)
        reference = ReactionDiffusionSolver(max_step=0.003125).solve_batch(opaque, times)
        discretisation = np.max(np.abs(picard.states - reference.states))
        assert discretisation < 1e-3
        assert np.max(np.abs(newton.states - reference.states)) < 1.01 * discretisation
        assert np.max(np.abs(newton.states - picard.states)) < discretisation / 50
        assert newton.metadata["picard_iterations"] < picard.metadata["picard_iterations"]

    def test_one_corrector_keeps_second_order(self):
        # The paper's s1 hop parameters at the calibration resolution:
        # halving dt must quarter the error against a fine-dt reference.
        # A first-order step (say, one corrector from an Euler predictor)
        # would only halve it.
        from repro.core.dl_model import DiffusiveLogisticModel
        from repro.core.initial_density import InitialDensity
        from repro.core.parameters import PAPER_S1_HOP_PARAMETERS

        phi = InitialDensity([1, 2, 3, 4, 5, 6], [5.0, 2.0, 2.5, 1.5, 1.0, 0.8])
        times = [1, 2, 3, 4, 5, 6]

        def states(dt):
            model = DiffusiveLogisticModel(PAPER_S1_HOP_PARAMETERS, points_per_unit=8, max_step=dt)
            return model.solve(phi, times).pde_solution.states

        reference = states(0.003125)
        errors = [np.max(np.abs(states(dt) - reference)) for dt in (0.1, 0.05, 0.025)]
        assert errors[0] < 3e-3
        for coarse, fine in zip(errors, errors[1:]):
            assert 3.6 < coarse / fine < 4.4

    def test_stiff_and_non_stiff_columns_each_equal_their_solo_solve(self):
        # The one-corrector guard is decided per column: a stiff column
        # (dt/2 r = 2.5) iterates to the fixed point while its non-stiff
        # batch-mate stops after one corrector, and neither sees the other.
        batch = 2
        problem = logistic_batch_problem(
            [0.01, 0.05],
            num_points=33,
            growth=(np.array([0.0, 1.4]), np.array([0.0, 1.5]), np.array([100.0, 0.25])),
        )
        solver = ReactionDiffusionSolver(max_step=0.05)
        times = [1.0, 1.5, 2.0, 3.0]
        batched = solver.solve_batch(problem, times)
        alone = [solver.solve(problem.column_problem(j), times) for j in range(batch)]
        steps = batched.metadata["steps"]
        stiff, mild = (column.metadata["picard_iterations"] / steps for column in alone)
        assert mild < 1.2 < 2 < stiff
        assert batched.metadata["picard_iterations"] / steps == stiff
        for j in range(batch):
            assert_bit_identical(batched.states[:, :, j], alone[j].states)

    def test_stiff_steps_stay_finite(self):
        # r = 100 at dt = 0.05: 1 - dt/2 * r = -1.5, so an unfloored Newton
        # factor would divide by negative numbers near u = 0 and diverge.
        batch = 4
        rates = np.full(batch, 100.0)
        problem = logistic_batch_problem(
            [0.01, 0.05] * 2, num_points=33, growth=(np.zeros(batch), np.zeros(batch), rates)
        )
        solution = ReactionDiffusionSolver(max_step=0.05).solve_batch(problem, [1.0, 1.5, 2.0])
        assert np.isfinite(solution.states).all()
        # The logistic fixed point: everything ends at the capacity.
        np.testing.assert_allclose(solution.states[-1], 25.0, rtol=1e-3)

    def test_stiff_uneven_steps_land_on_the_crank_nicolson_fixed_point(self):
        # The AB2 predictor extrapolates from the last two steps, scaled by
        # c = dt / dt_prev; with r = 100 and step ratios from 1/5 to 5 that
        # extrapolation is far off, but only the starting point of the
        # iteration changes: every step must still satisfy the
        # Crank-Nicolson equations.  One output row per step checks each.
        from repro.numerics.finite_difference import second_derivative

        batch, capacity, rate = 4, 25.0, 100.0
        diffusion = np.asarray([0.01, 0.05] * 2)
        problem = logistic_batch_problem(
            diffusion,
            num_points=33,
            growth=(np.zeros(batch), np.zeros(batch), np.full(batch, rate)),
        )
        steps = [0.01, 0.05, 0.01, 0.002, 0.01, 0.05, 0.02, 0.05, 0.05, 0.004, 0.02]
        times = np.cumsum([1.0, *steps])
        solution = ReactionDiffusionSolver(max_step=0.05).solve_batch(problem, times)
        assert solution.metadata["steps"] == len(steps)
        states = solution.states
        assert np.isfinite(states).all()
        spacing = problem.grid.spacing

        def explicit_half(u, h):
            return h * (diffusion * second_derivative(u, spacing) + rate * u * (1 - u / capacity))

        for k in range(len(steps)):
            h = 0.5 * (times[k + 1] - times[k])
            u, v = states[k], states[k + 1]
            residual = (v - explicit_half(v, h)) - (u + explicit_half(u, h))
            assert np.max(np.abs(residual)) < 1e-8 * capacity


class TestStackedSolve:
    def test_interleaved_equal_groups_are_bit_identical_to_solving_alone(self):
        # Five diffusion rates, three columns each, in the order a
        # calibration grid lays them out (rate-major, so the engine
        # interleaves them).
        problem = logistic_batch_problem(np.repeat([0.005, 0.01, 0.02, 0.05, 0.1], 3))
        solver = ReactionDiffusionSolver(max_step=0.05)
        times = [1.0, 2.0, 4.0]
        batched = solver.solve_batch(problem, times)
        assert batched.metadata["stacked_solve"] is True
        assert batched.metadata["diffusion_groups"] == 5
        for j in range(problem.batch_size):
            alone = solver.solve(problem.column_problem(j), times)
            assert_bit_identical(batched.states[:, :, j], alone.states)

    def test_non_finite_column_leaves_the_others_untouched(self):
        base = logistic_batch_problem([0.01, 0.05, 0.02] * 2)
        reaction = base.reaction

        def poisoned(states, x, t):
            out = reaction(states, x, t)
            if t > 1.5:
                out[:, 4] = np.inf
            return out

        problem = BatchReactionDiffusionProblem(
            base.grid, base.initial_states, base.diffusion_rates, poisoned, base.start_time
        )
        solver = ReactionDiffusionSolver(max_step=0.05)
        times = [1.0, 2.0, 3.0]
        with np.errstate(all="ignore"):
            batched = solver.solve_batch(problem, times)
            alone = [solver.solve(problem.column_problem(j), times) for j in range(6)]
        assert batched.metadata["stacked_solve"] is True
        assert not np.isfinite(batched.states[-1, :, 4]).all()
        for j in (0, 1, 2, 3, 5):
            assert np.isfinite(batched.states[:, :, j]).all()
            assert_bit_identical(batched.states[:, :, j], alone[j].states)

    @pytest.mark.parametrize(
        "diffusion_rates, num_points",
        [([0.01, 0.01, 0.05], 21), ([0.01, 0.05, 0.01, 0.05], 2)],
        ids=["unequal-groups", "two-point-grid"],
    )
    def test_every_banded_batch_is_one_stacked_call(self, diffusion_rates, num_points):
        # Unequal diffusion groups and the smallest grid are each one
        # stacked call (one block per column).
        problem = logistic_batch_problem(diffusion_rates, num_points=num_points)
        solver = ReactionDiffusionSolver(max_step=0.05)
        times = [1.0, 2.0]
        batched = solver.solve_batch(problem, times)
        assert batched.metadata["stacked_solve"] is True
        for j in range(problem.batch_size):
            alone = solver.solve(problem.column_problem(j), times)
            assert_bit_identical(batched.states[:, :, j], alone.states)

    @pytest.mark.parametrize("mode", ["dense"])
    def test_other_operator_modes_solve_per_group(self, mode):
        problem = logistic_batch_problem([0.01, 0.05])
        batched = ReactionDiffusionSolver(
            max_step=0.05, backend=InternalBackend(operator_mode=mode)
        ).solve_batch(problem, [2.0])
        assert batched.metadata["stacked_solve"] is False
