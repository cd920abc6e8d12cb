"""Tests for the fitting utilities in repro.numerics.optimization."""

import numpy as np
import pytest

from repro.numerics.optimization import (
    FitResult,
    grouped_multi_start_least_squares,
    least_squares_fit,
    multi_start_least_squares,
    sum_of_squares,
)


class TestLossHelpers:
    def test_sum_of_squares(self):
        assert sum_of_squares(np.array([3.0, 4.0])) == pytest.approx(12.5)

    def test_sum_of_squares_zero(self):
        assert sum_of_squares(np.zeros(5)) == 0.0


class TestLeastSquaresFit:
    def test_fits_linear_model(self):
        rng = np.random.default_rng(1)
        x = np.linspace(0, 10, 40)
        y = 3.0 * x - 2.0 + rng.normal(0, 0.01, x.size)

        def residual(theta):
            return theta[0] * x + theta[1] - y

        result = least_squares_fit(residual, [1.0, 0.0], names=("slope", "intercept"))
        assert result.success
        assert result.parameters[0] == pytest.approx(3.0, abs=0.01)
        assert result.parameters[1] == pytest.approx(-2.0, abs=0.05)
        assert result.as_dict()["slope"] == pytest.approx(3.0, abs=0.01)

    def test_bounds_are_respected(self):
        def residual(theta):
            return np.array([theta[0] - 10.0])

        result = least_squares_fit(residual, [0.5], bounds=([0.0], [1.0]))
        assert 0.0 <= result.parameters[0] <= 1.0
        assert result.parameters[0] == pytest.approx(1.0, abs=1e-6)

    def test_initial_guess_clipped_into_bounds(self):
        def residual(theta):
            return np.array([theta[0]])

        result = least_squares_fit(residual, [5.0], bounds=([0.0], [1.0]))
        assert result.parameters[0] <= 1.0

    def test_rejects_empty_guess(self):
        with pytest.raises(ValueError):
            least_squares_fit(lambda theta: theta, [])

    def test_rejects_mismatched_bounds(self):
        with pytest.raises(ValueError):
            least_squares_fit(lambda theta: theta, [1.0, 2.0], bounds=([0.0], [1.0]))

    def test_as_dict_requires_names(self):
        result = least_squares_fit(lambda theta: theta, [1.0])
        with pytest.raises(ValueError):
            result.as_dict()


def batch_wrap(residual_one):
    """Adapt a single-point residual to the batched-callback signature."""

    def residual_batch(points, start_indices):
        return [residual_one(point) for point in points]

    return residual_batch


class TestMultiStartLeastSquares:
    def test_converges_on_exponential_fit(self):
        x = np.linspace(0.0, 3.0, 25)
        target = 1.3 * np.exp(-0.7 * x)

        def residual(theta):
            return theta[0] * np.exp(-theta[1] * x) - target

        result = multi_start_least_squares(
            batch_wrap(residual),
            [[0.5, 0.1], [2.0, 2.0]],
            bounds=([0.0, 0.0], [5.0, 5.0]),
            names=("a", "b"),
        )
        assert result.best.parameters == pytest.approx([1.3, 0.7], abs=1e-8)
        assert result.best.as_dict()["a"] == pytest.approx(1.3, abs=1e-8)
        assert result.best.loss < 1e-16
        assert result.converged.all()
        assert result.start_losses.shape == (2,)

    def test_matches_scipy_least_squares(self):
        rng = np.random.default_rng(5)
        x = np.linspace(0.0, 10.0, 40)
        y = 3.0 * x - 2.0 + rng.normal(0.0, 0.01, x.size)

        def residual(theta):
            return theta[0] * x + theta[1] - y

        ours = multi_start_least_squares(batch_wrap(residual), [[1.0, 0.0]])
        scipy_fit = least_squares_fit(residual, [1.0, 0.0])
        assert ours.best.parameters == pytest.approx(scipy_fit.parameters, abs=1e-7)
        assert ours.best.loss == pytest.approx(scipy_fit.loss, rel=1e-9)

    def test_multi_start_escapes_bad_basin(self):
        # loss has a local minimum near theta=0 and the global one at theta=3;
        # only the start seeded in the right basin finds it.
        def residual(theta):
            t = theta[0]
            return np.array([t * (t - 2.0) * (t - 3.0), 0.1 * (t - 3.0)])

        result = multi_start_least_squares(
            batch_wrap(residual), [[0.1], [2.8]], bounds=([-1.0], [4.0])
        )
        assert result.best.parameters[0] == pytest.approx(3.0, abs=1e-6)
        assert result.best_start == 1
        # The other start stayed in its own basin but still improved.
        assert result.start_losses[0] <= np.inf

    def test_bounds_are_respected(self):
        def residual(theta):
            return np.array([theta[0] - 10.0])

        result = multi_start_least_squares(
            batch_wrap(residual), [[0.5]], bounds=([0.0], [1.0])
        )
        assert result.best.parameters[0] == pytest.approx(1.0)

    def test_never_worsens_the_seed_loss(self):
        def residual(theta):
            return np.array([np.exp(theta[0]) - 1.0, theta[1] ** 2])

        seeds = np.array([[0.3, -0.4], [1.0, 1.0]])
        result = multi_start_least_squares(batch_wrap(residual), seeds)
        for row, seed in enumerate(seeds):
            seed_loss = sum_of_squares(residual(seed))
            assert result.start_losses[row] <= seed_loss + 1e-15

    def test_start_indices_passed_through(self):
        seen = []

        def residual_batch(points, start_indices):
            seen.append(np.asarray(start_indices).copy())
            return [np.array([point[0] - start]) for point, start in zip(points, start_indices)]

        result = multi_start_least_squares(residual_batch, [[5.0], [5.0]], max_iterations=8)
        # Each start converges to its own index because the residual depends
        # on the per-start context passed via start_indices.
        assert result.start_parameters[0, 0] == pytest.approx(0.0, abs=1e-8)
        assert result.start_parameters[1, 0] == pytest.approx(1.0, abs=1e-8)
        assert all(len(indices) > 0 for indices in seen)

    def test_rejects_empty_seeds(self):
        with pytest.raises(ValueError):
            multi_start_least_squares(batch_wrap(lambda t: t), np.empty((0, 2)))

    def test_rejects_mismatched_bounds(self):
        with pytest.raises(ValueError):
            multi_start_least_squares(
                batch_wrap(lambda t: t), [[1.0, 2.0]], bounds=([0.0], [1.0])
            )

    def test_rejects_wrong_result_count(self):
        def bad_batch(points, start_indices):
            return [np.zeros(2)]

        with pytest.raises(ValueError):
            multi_start_least_squares(bad_batch, [[1.0], [2.0]])

    def test_all_nan_residuals_raise(self):
        def nan_batch(points, start_indices):
            return [np.full(3, np.nan) for _ in points]

        with pytest.raises(RuntimeError):
            multi_start_least_squares(nan_batch, [[1.0]])


def one_rung_per_call_reference(
    residual_batch, seeds, bounds, max_iterations=40, max_step_retries=6, bounded_step=True
):
    """The damping retry loop that solves one ladder rung per callback call.

    Reference for the one-call ladder of :func:`multi_start_least_squares`
    (same defaults for the step, tolerances and damping schedule).  With
    ``bounded_step`` it takes the same step: a parameter on a bound whose
    gradient points out of the box is held, and a step that crosses a bound
    puts that parameter on it and solves the others again with the shift on
    the right-hand side.  Without it, the full-system step is clipped into
    the box.  Returns ``(points, losses, iterations, converged,
    rejected_rungs, crossing_rungs)``.
    """
    points = np.clip(np.array(seeds, dtype=float), bounds[0], bounds[1])
    lower, upper = (np.asarray(b, dtype=float) for b in bounds)
    n_starts, n_params = points.shape
    residuals = list(residual_batch(points, np.arange(n_starts)))
    losses = np.array([sum_of_squares(r) for r in residuals])
    damping = np.full(n_starts, 1e-3)
    active = np.isfinite(losses)
    converged = np.zeros(n_starts, dtype=bool)
    iterations = rejected_rungs = crossing_rungs = 0

    def damped(normal, scaling, rhs, subset, lam):
        block = normal[np.ix_(subset, subset)]
        try:
            return np.linalg.solve(block + lam * np.diag(scaling[subset]), rhs)
        except np.linalg.LinAlgError:
            return rhs / scaling[subset]

    for _ in range(max_iterations):
        active_idx = np.nonzero(active)[0]
        if active_idx.size == 0:
            break
        iterations += 1
        steps, block, block_start = [], [], []
        for s in active_idx:
            x = points[s]
            h = 1e-6 * np.maximum(1.0, np.abs(x))
            h = np.where(x + h > upper, -h, h)
            steps.append(h)
            for j in range(n_params):
                perturbed = x.copy()
                perturbed[j] += h[j]
                block.append(perturbed)
                block_start.append(s)
        perturbed_residuals = residual_batch(np.array(block), np.array(block_start))
        jacobians, held = {}, {}
        for row, s in enumerate(active_idx):
            jacobian = np.empty((residuals[s].size, n_params))
            for j in range(n_params):
                shifted = perturbed_residuals[row * n_params + j]
                jacobian[:, j] = (shifted - residuals[s]) / steps[row][j]
            jacobians[s] = jacobian
            gradient = jacobian.T @ residuals[s]
            x = points[s]
            held[s] = np.zeros(n_params, dtype=bool)
            if bounded_step:
                held[s] = ((x <= lower) & (gradient > 0)) | ((x >= upper) & (gradient < 0))
            if np.max(np.abs(np.where(held[s], 0.0, gradient))) < 1e-10:
                active[s] = False
                converged[s] = True
        pending = [s for s in active_idx if active[s]]
        for _retry in range(max_step_retries):
            if not pending:
                break
            candidates = np.empty((len(pending), n_params))
            for row, s in enumerate(pending):
                jacobian, x = jacobians[s], points[s]
                normal = jacobian.T @ jacobian
                gradient = jacobian.T @ residuals[s]
                scaling = np.maximum(np.diag(normal), 1e-12)
                free = ~held[s]
                delta = np.zeros(n_params)
                delta[free] = damped(normal, scaling, -gradient[free], free, damping[s])
                candidate = x + delta
                crossing = (candidate < lower) | (candidate > upper)
                if bounded_step and crossing.any():
                    crossing_rungs += 1
                    pinned = np.clip(candidate, lower, upper)
                    shift = np.where(crossing, pinned - x, 0.0)
                    rest = free & ~crossing
                    if rest.any():
                        rhs = -(jacobian[:, rest].T @ (residuals[s] + jacobian @ shift))
                        shift[rest] = damped(normal, scaling, rhs, rest, damping[s])
                    candidate = np.where(crossing, pinned, x + shift)
                candidates[row] = np.clip(candidate, lower, upper)
            candidate_residuals = residual_batch(candidates, np.asarray(pending))
            still_pending = []
            for row, s in enumerate(pending):
                candidate_loss = sum_of_squares(candidate_residuals[row])
                if np.isfinite(candidate_loss) and candidate_loss < losses[s]:
                    improvement = losses[s] - candidate_loss
                    step_size = np.max(np.abs(candidates[row] - points[s]))
                    points[s] = candidates[row]
                    residuals[s] = candidate_residuals[row]
                    losses[s] = candidate_loss
                    damping[s] = max(damping[s] * 0.3, 1e-12)
                    if improvement < 1e-12 * max(1.0, candidate_loss) or (
                        step_size < 1e-10 * (1.0 + np.max(np.abs(points[s])))
                    ):
                        active[s] = False
                        converged[s] = True
                else:
                    damping[s] *= 4.0
                    rejected_rungs += 1
                    still_pending.append(s)
            pending = still_pending
        for s in pending:
            # Every rung rejected: a stall, not convergence.
            active[s] = False
    return points, losses, iterations, converged, rejected_rungs, crossing_rungs


class TestDampingLadder:
    """The one-call damping ladder takes exactly the one-rung-per-call steps."""

    @staticmethod
    def residual_batch(points, start_indices):
        # A Rosenbrock valley plus a log term that is NaN left of zero: full
        # Gauss-Newton steps overshoot the curved valley or leave the domain,
        # so early rungs are rejected and the damping has to climb.
        return [
            np.array([10.0 * (y - x * x), 1.0 - x, 0.1 * np.log(x + 0.5 + 0.01 * s)])
            for (x, y), s in zip(points, start_indices)
        ]

    SEEDS = [[-1.2, 1.0], [2.5, -1.0], [0.0, 3.0], [-0.45, 0.2]]
    BOUNDS = ([-3.0, -3.0], [3.0, 3.0])
    # The optimum (1, 1) lies outside this box, so rungs cross its upper
    # bounds and take the projected step.
    CROSSED_BOUNDS = ([-3.0, -3.0], [0.9, 0.8])

    def counting_batch(self, calls):
        def residual_batch(points, start_indices):
            calls.append(len(points))
            return self.residual_batch(points, start_indices)

        return residual_batch

    @pytest.mark.parametrize(
        "max_iterations, box",
        [
            pytest.param(3, "BOUNDS", id="3"),
            pytest.param(40, "BOUNDS", id="40"),
            pytest.param(3, "CROSSED_BOUNDS", id="3-crossed"),
            pytest.param(40, "CROSSED_BOUNDS", id="40-crossed"),
        ],
    )
    def test_matches_one_rung_per_call(self, max_iterations, box):
        bounds = getattr(self, box)
        with np.errstate(invalid="ignore", divide="ignore"):
            points, losses, iterations, converged, rejected, crossing = (
                one_rung_per_call_reference(
                    self.residual_batch, self.SEEDS, bounds, max_iterations=max_iterations
                )
            )
            calls: "list[int]" = []
            result = multi_start_least_squares(
                self.counting_batch(calls),
                self.SEEDS,
                bounds=bounds,
                max_iterations=max_iterations,
            )
        assert rejected > 0, "the residual must make the reference reject rungs"
        # Only the crossed box exercises the projection.
        assert (crossing > 0) == (box == "CROSSED_BOUNDS")
        np.testing.assert_array_equal(result.start_parameters, points)
        np.testing.assert_array_equal(result.start_losses, losses)
        assert result.iterations == iterations
        np.testing.assert_array_equal(result.converged, converged)
        assert result.residual_batches == len(calls)
        assert result.residual_batches <= 1 + 2 * result.iterations
        assert result.n_evaluations == sum(calls)

    def test_a_stall_is_not_convergence(self):
        # From (-0.45, 0.2) in this box the start reaches y = 0 with an
        # inward gradient, and every projected rung overshoots in x, so the
        # ladder is exhausted far from the minimum; the clipped full-system
        # step gets to 0.0009 from the same seed.
        bounds = ([-1.0, 0.0], [1.0, 1.5])
        with np.errstate(invalid="ignore", divide="ignore"):
            result = multi_start_least_squares(self.residual_batch, self.SEEDS, bounds=bounds)
            clipped = one_rung_per_call_reference(
                self.residual_batch, self.SEEDS, bounds, bounded_step=False
            )
        assert result.termination == (
            "non_finite_seed",
            "small_step",
            "small_step",
            "rejected_ladder",
        )
        np.testing.assert_array_equal(result.converged, [False, True, True, False])
        assert result.start_losses[3] > 0.5 > 1e-3 > clipped[1][3]

    def test_iteration_cap_is_reported(self):
        with np.errstate(invalid="ignore", divide="ignore"):
            result = multi_start_least_squares(
                self.residual_batch, self.SEEDS, bounds=self.BOUNDS, max_iterations=3
            )
        assert result.termination == ("non_finite_seed",) + ("iteration_cap",) * 3
        assert not result.converged.any()

    def test_every_rung_is_one_call(self):
        calls: "list[int]" = []
        with np.errstate(invalid="ignore", divide="ignore"):
            result = multi_start_least_squares(
                self.counting_batch(calls),
                self.SEEDS[1:2],
                bounds=self.BOUNDS,
                max_iterations=1,
                max_step_retries=5,
            )
        # Seeds, Jacobian block, then all five rungs of the one start.
        assert calls == [1, 2, 5]
        assert result.residual_batches == 3

    def test_rejects_an_empty_ladder(self):
        with pytest.raises(ValueError, match="max_step_retries"):
            multi_start_least_squares(self.residual_batch, self.SEEDS, max_step_retries=0)


class TestActiveSetStep:
    """A parameter held on its bound drops out of the step and the gradient test."""

    T = np.linspace(0.0, 5.0, 30)
    # A decaying growth rate a*exp(-b*t) + c fitted to data whose best floor
    # is negative, so the bounded optimum has c on its lower bound 0.
    TARGET = 1.2 * np.exp(-0.8 * T) - 0.05
    BOUNDS = ([0.0, 0.05, 0.0], [6.0, 6.0, 0.6])
    SEEDS = [[1.0, 1.0, 0.1], [2.0, 0.5, 0.25]]

    @classmethod
    def residual_batch(cls, points, start_indices):
        return [a * np.exp(-b * cls.T) + c - cls.TARGET for a, b, c in points]

    def test_bound_pinned_optimum_converges_before_the_cap(self):
        # The reference takes the full-system step and clips it, as the
        # refinement did before the active set: it crawls to the cap.
        _, clipped_losses, clipped_iterations, clipped_converged, _, _ = (
            one_rung_per_call_reference(
                self.residual_batch, self.SEEDS, self.BOUNDS, bounded_step=False
            )
        )
        assert clipped_iterations == 40
        assert not clipped_converged.any()

        result = multi_start_least_squares(
            self.residual_batch, self.SEEDS, bounds=self.BOUNDS
        )
        assert result.iterations <= 20
        assert result.converged.all()
        assert (result.start_parameters[:, 2] == 0.0).all()
        assert (result.start_losses <= clipped_losses).all()

    def test_starts_off_the_bounds_match_the_unbounded_fit(self):
        x = np.linspace(0.0, 3.0, 25)
        target = 1.3 * np.exp(-0.7 * x) + 0.01 * np.sin(5.0 * x)

        def residual(theta):
            return theta[0] * np.exp(-theta[1] * x) - target

        seeds = [[0.5, 0.1], [2.0, 2.0], [1.0, 0.7]]
        unbounded = multi_start_least_squares(batch_wrap(residual), seeds)
        boxed = multi_start_least_squares(
            batch_wrap(residual), seeds, bounds=([-10.0, -10.0], [10.0, 10.0])
        )
        np.testing.assert_array_equal(boxed.start_parameters, unbounded.start_parameters)
        np.testing.assert_array_equal(boxed.start_losses, unbounded.start_losses)
        assert boxed.iterations == unbounded.iterations
        np.testing.assert_array_equal(boxed.converged, unbounded.converged)

    def test_every_parameter_held_converges_at_once(self):
        # The optimum (-1, 5) lies outside the box in both coordinates; from
        # the corner the projected gradient is zero, so no step is tried.
        def residual(theta):
            return np.array([theta[0] + 1.0, theta[1] - 5.0])

        calls: "list[int]" = []

        def residual_batch(points, start_indices):
            calls.append(len(points))
            return [residual(point) for point in points]

        result = multi_start_least_squares(
            residual_batch, [[0.0, 1.0]], bounds=([0.0, 0.0], [1.0, 1.0])
        )
        assert result.iterations == 1
        assert result.converged.all()
        assert calls == [1, 2]
        np.testing.assert_array_equal(result.start_parameters, [[0.0, 1.0]])


class TestProjectedStep:
    """A step that crosses a bound puts that parameter on it and re-solves the rest."""

    # A line y = x0 + x1 t through (1, 0.5), (2, 1.5), (3, 2.5): the
    # unbounded fit is x0 = -0.5, x1 = 1, so from (1, 0.5) the damped step
    # crosses the lower bound x0 >= 0.
    T = np.array([1.0, 2.0, 3.0])
    DATA = T - 0.5
    BOUNDS = ([0.0, -5.0], [5.0, 5.0])

    @classmethod
    def residual_batch(cls, points, start_indices):
        return [x0 + x1 * cls.T - cls.DATA for x0, x1 in points]

    def test_crossing_parameter_lands_on_its_bound(self):
        ladder = []

        def residual_batch(points, start_indices):
            ladder.append(np.array(points))
            return self.residual_batch(points, start_indices)

        multi_start_least_squares(
            residual_batch, [[1.0, 0.5]], bounds=self.BOUNDS, max_iterations=1, max_step_retries=1
        )
        # Seeds, Jacobian block, then the one rung.
        (candidate,) = ladder[2]
        assert candidate[0] == 0.0
        # x1 solves the same damped equations (damping 1e-3) with x0 moved
        # to 0: sum t (0 + x1 t - data) = 0 gives x1 = 11/14 undamped.
        t_dot_data, t_dot_t = float(self.T @ self.DATA), float(self.T @ self.T)
        resolved = 0.5 + (t_dot_data - 0.5 * t_dot_t) / (t_dot_t * (1.0 + 1e-3))
        assert candidate[1] == pytest.approx(resolved, rel=1e-8)
        # Clipping the full step would have kept the unbounded slope, near 1.
        assert abs(candidate[1] - 1.0) > 0.2


class TestGroupedStarts:
    """Several problems in lock-step: each group equals refining it alone."""

    T = np.linspace(0.0, 5.0, 30)
    TARGETS = (
        1.2 * np.exp(-0.8 * T) - 0.05,  # optimum with c on its bound
        0.7 * np.exp(-1.5 * T) + 0.3,  # interior optimum
        np.full(30, np.nan),  # no finite loss anywhere
    )
    BOUNDS = ([0.0, 0.05, 0.0], [6.0, 6.0, 0.6])
    SEEDS = ([[1.0, 1.0, 0.1], [2.0, 0.5, 0.25]], [[0.5, 0.5, 0.5]], [[1.0, 1.0, 1.0]])

    @classmethod
    def problem(cls, group):
        def residual_batch(points, start_indices):
            return [a * np.exp(-b * cls.T) + c - cls.TARGETS[group] for a, b, c in points]

        return residual_batch

    def test_each_group_equals_its_solo_refinement(self):
        groups = np.repeat([0, 1, 2], [len(seeds) for seeds in self.SEEDS])
        calls: "list[int]" = []

        def residual_batch(points, start_indices):
            calls.append(len(points))
            return [
                self.problem(groups[s])(point[None, :], [s])[0]
                for point, s in zip(points, start_indices)
            ]

        fits = grouped_multi_start_least_squares(
            residual_batch,
            [seed for seeds in self.SEEDS for seed in seeds],
            groups,
            bounds=self.BOUNDS,
            names=("a", "b", "c"),
        )
        assert fits[2] is None
        solo = [
            multi_start_least_squares(
                self.problem(group), self.SEEDS[group], bounds=self.BOUNDS, names=("a", "b", "c")
            )
            for group in (0, 1)
        ]
        for fit, alone in zip(fits, solo):
            np.testing.assert_array_equal(fit.start_parameters, alone.start_parameters)
            np.testing.assert_array_equal(fit.start_losses, alone.start_losses)
            np.testing.assert_array_equal(fit.converged, alone.converged)
            assert fit.termination == alone.termination
            assert fit.best_start == alone.best_start
            np.testing.assert_array_equal(fit.best.parameters, alone.best.parameters)
            assert vars(fit.best).keys() == vars(alone.best).keys()
            for key in ("loss", "success", "n_evaluations", "message", "names"):
                assert getattr(fit.best, key) == getattr(alone.best, key), key
            for counter in ("iterations", "residual_batches", "n_evaluations"):
                assert getattr(fit, counter) == getattr(alone, counter), counter
        # The groups shared their calls: as many as the longest one needs.
        assert len(calls) == max(alone.residual_batches for alone in solo)

    def test_rejects_mismatched_groups(self):
        with pytest.raises(ValueError, match="groups"):
            grouped_multi_start_least_squares(self.problem(0), self.SEEDS[0], [0])


class TestFitResult:
    def test_dataclass_roundtrip(self):
        result = FitResult(
            parameters=np.array([1.0, 2.0]),
            loss=0.5,
            success=True,
            n_evaluations=10,
            message="ok",
            names=("a", "b"),
        )
        assert result.as_dict() == {"a": 1.0, "b": 2.0}
        assert result.loss == 0.5
