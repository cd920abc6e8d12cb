"""Tests for DL-model calibration.

The central check is a round-trip: generate a density surface from the DL
model itself with known parameters, then verify the calibration recovers a
parameter set that reproduces that surface.
"""

import functools

import numpy as np
import pytest

from repro.cascade.density import DensitySurface
from repro.core import calibration
from repro.core.calibration import (
    GROWTH_RATE_BOUNDS,
    _GridStage,
    _LogDecay,
    _ResidualTargets,
    _Settings,
    _surface_residuals,
    calibrate_dl_model,
    choose_carrying_capacity,
)
from repro.core.dl_model import DiffusiveLogisticModel, solve_dl_batch
from repro.core.initial_density import InitialDensity
from repro.core.parameters import (
    ConstantGrowthRate,
    DLParameters,
    ExponentialDecayGrowthRate,
)
from repro.corpus import WorkloadConfig, iter_workload


def synthetic_dl_surface(
    amplitude=1.4, decay=1.5, floor=0.25, diffusion=0.01, capacity=25.0, hours=10
):
    """A noise-free density surface generated by the DL model itself."""
    phi = InitialDensity([1, 2, 3, 4, 5], [5.0, 2.0, 2.5, 1.5, 1.0])
    parameters = DLParameters(
        diffusion_rate=diffusion,
        growth_rate=ExponentialDecayGrowthRate(amplitude, decay, floor),
        carrying_capacity=capacity,
    )
    model = DiffusiveLogisticModel(parameters, points_per_unit=12, max_step=0.02)
    times = [float(t) for t in range(1, hours + 1)]
    surface = model.predict(phi, times)
    return DensitySurface(
        distances=surface.distances,
        times=surface.times,
        values=surface.values,
        group_sizes=np.ones(surface.distances.size),
        metadata={"source": "synthetic_dl"},
    )


class TestChooseCarryingCapacity:
    def test_rounds_up_to_multiple_of_five(self):
        surface = DensitySurface([1, 2], [1.0], np.array([[18.2, 3.0]]), [1, 1])
        assert choose_carrying_capacity(surface, margin=1.25) == 25.0

    def test_respects_minimum(self):
        surface = DensitySurface([1, 2], [1.0], np.array([[0.1, 0.2]]), [1, 1])
        assert choose_carrying_capacity(surface, minimum=4.0) == 5.0

    def test_rejects_margin_below_one(self):
        surface = DensitySurface([1], [1.0], np.array([[1.0]]), [1])
        with pytest.raises(ValueError):
            choose_carrying_capacity(surface, margin=0.5)

    def test_monotone_in_observed_maximum(self):
        small = DensitySurface([1], [1.0], np.array([[10.0]]), [1])
        large = DensitySurface([1], [1.0], np.array([[40.0]]), [1])
        assert choose_carrying_capacity(large) >= choose_carrying_capacity(small)


def calibrate_growth_rate(surface, **kwargs):
    """Calibrate r(t) alone: one diffusion candidate and a fixed K."""
    return calibrate_dl_model(
        surface, carrying_capacity=25.0, diffusion_candidates=(0.01,), **kwargs
    )


class TestFitGrowthRate:
    def test_round_trip_on_dl_generated_data(self):
        surface = synthetic_dl_surface()
        result = calibrate_growth_rate(surface)
        rate = result.parameters.growth_rate
        assert isinstance(rate, ExponentialDecayGrowthRate)
        # The fitted r(t) should be close to the true one over the window.
        truth = ExponentialDecayGrowthRate(1.4, 1.5, 0.25)
        for t in (1.0, 2.0, 4.0, 6.0):
            assert rate.at_time(t) == pytest.approx(truth.at_time(t), rel=0.25, abs=0.1)
        assert result.loss < 1e-2

    def test_predictions_with_fitted_parameters_match_surface(self):
        surface = synthetic_dl_surface()
        result = calibrate_growth_rate(surface)
        phi = InitialDensity.from_surface(surface)
        model = DiffusiveLogisticModel(result.parameters, points_per_unit=12, max_step=0.02)
        predicted = model.predict(phi, [4.0, 6.0])
        for t in (4.0, 6.0):
            assert np.allclose(predicted.profile(t), surface.profile(t), rtol=0.05)

    def test_training_window_recorded(self):
        surface = synthetic_dl_surface()
        result = calibrate_growth_rate(surface, training_times=[1, 2, 3, 4])
        assert result.training_times == (1.0, 2.0, 3.0, 4.0)

    def test_requires_at_least_two_training_times(self):
        surface = synthetic_dl_surface()
        with pytest.raises(ValueError):
            calibrate_growth_rate(surface, training_times=[1.0])


class TestCalibrateDLModel:
    def test_selects_reasonable_diffusion_from_grid(self):
        surface = synthetic_dl_surface(diffusion=0.05)
        result = calibrate_dl_model(
            surface,
            carrying_capacity=25.0,
            diffusion_candidates=(0.005, 0.05, 0.5),
        )
        assert result.parameters.diffusion_rate == pytest.approx(0.05)
        assert result.details["engine"] == "batched"
        assert "diffusion_grid" in result.details
        assert result.details["carrying_capacity"] == 25.0

    def test_default_carrying_capacity_heuristic_used(self):
        surface = synthetic_dl_surface()
        result = calibrate_dl_model(surface, diffusion_candidates=(0.01,))
        assert result.details["carrying_capacity"] >= surface.max_density

    def test_rejects_empty_candidates(self):
        surface = synthetic_dl_surface()
        with pytest.raises(ValueError, match="diffusion_candidates"):
            calibrate_dl_model(surface, diffusion_candidates=())


class TestBatchedCalibration:
    # Reduced grids keep these tests fast; the defaults only enlarge the
    # candidate set, they do not change the algorithm.
    SMALL_GRIDS = dict(
        diffusion_candidates=(0.005, 0.05, 0.5),
        amplitude_grid=(1.0, 1.5),
        decay_grid=(1.0, 1.5),
        floor_grid=(0.1, 0.25),
    )

    def test_batched_engine_matches_sequential_engine(self):
        surface = synthetic_dl_surface(diffusion=0.05)
        batched = calibrate_dl_model(surface, engine="batched", **self.SMALL_GRIDS)
        sequential = calibrate_dl_model(
            surface, engine="sequential", **self.SMALL_GRIDS
        )
        assert batched.parameters.diffusion_rate == pytest.approx(
            sequential.parameters.diffusion_rate, abs=1e-10
        )
        b_rate, s_rate = batched.parameters.growth_rate, sequential.parameters.growth_rate
        assert b_rate.amplitude == pytest.approx(s_rate.amplitude, abs=1e-10)
        assert b_rate.decay == pytest.approx(s_rate.decay, abs=1e-10)
        assert b_rate.floor == pytest.approx(s_rate.floor, abs=1e-10)
        assert batched.loss == pytest.approx(sequential.loss, abs=1e-10)

    def test_grid_only_mode_skips_refinement(self):
        surface = synthetic_dl_surface()
        result = calibrate_dl_model(surface, refine=False, **self.SMALL_GRIDS)
        assert result.details.get("refined") is None
        assert result.loss == result.details["grid_loss"]
        winner = result.details["grid_winner"]
        rate = result.parameters.growth_rate
        assert rate.amplitude == pytest.approx(winner["amplitude"])

    def test_refinement_never_worsens_the_grid_loss(self):
        surface = synthetic_dl_surface()
        grid_only = calibrate_dl_model(surface, refine=False, **self.SMALL_GRIDS)
        refined = calibrate_dl_model(surface, refine=True, **self.SMALL_GRIDS)
        assert refined.loss <= grid_only.loss + 1e-12

    def test_rejects_unknown_engine(self):
        surface = synthetic_dl_surface()
        with pytest.raises(ValueError):
            calibrate_dl_model(surface, engine="quantum")

    def test_refinement_is_batched_multi_start(self):
        surface = synthetic_dl_surface()
        result = calibrate_dl_model(surface, **self.SMALL_GRIDS)
        refinement = result.details["refinement"]
        assert refinement["engine"] == "batched"
        assert refinement["starts"] == 4
        assert len(refinement["seed_diffusions"]) == 4
        assert len(refinement["start_losses"]) == 4
        assert refinement["iterations"] >= 1
        # The grid winner seeds the first start, so its diffusion rate leads.
        assert refinement["seed_diffusions"][0] == pytest.approx(
            result.details["grid_winner"]["diffusion"]
        )
        # Seeds prefer distinct diffusion rates before duplicating one.
        assert len(set(refinement["seed_diffusions"][:3])) == 3
        assert result.details["refined"] in (True, False)

    def test_refine_starts_configurable_and_validated(self):
        surface = synthetic_dl_surface()
        result = calibrate_dl_model(surface, refine_starts=2, **self.SMALL_GRIDS)
        assert result.details["refinement"]["starts"] == 2
        with pytest.raises(ValueError):
            calibrate_dl_model(surface, refine_starts=0, **self.SMALL_GRIDS)

    def test_records_candidate_count(self):
        surface = synthetic_dl_surface()
        result = calibrate_dl_model(surface, refine=False, **self.SMALL_GRIDS)
        assert result.details["candidates_evaluated"] == 3 * 2 * 2 * 2


    def test_logistic_story_converges_with_its_floor_on_the_bound(self):
        # A logistic-shaped story's best growth-rate floor is negative, so
        # the fit ends with floor on its lower bound 0.  Holding it there
        # lets LM converge instead of crawling to its 40-iteration cap.
        config = WorkloadConfig(
            stories=1, seed=1001, min_distances=5, max_distances=5, min_hours=6, max_hours=6
        )
        ((_, surface),) = iter_workload(config)
        grids = dict(self.SMALL_GRIDS, diffusion_candidates=(0.005, 0.05), refine_starts=2)
        batched = calibrate_dl_model(surface, engine="batched", **grids)
        sequential = calibrate_dl_model(surface, engine="sequential", **grids)
        for result in (batched, sequential):
            refinement = result.details["refinement"]
            assert refinement["iterations"] < 40
            assert refinement["parameters_at_bound"] == ["floor"]
            assert refinement["converged"] == [True, True]
            assert set(refinement["termination"]) <= {"gradient", "small_step"}
            assert result.parameters.growth_rate.floor == 0.0
        np.testing.assert_allclose(
            batched.details["refinement"]["start_parameters"],
            sequential.details["refinement"]["start_parameters"],
            rtol=0.0,
            atol=1e-10,
        )
        assert batched.loss == pytest.approx(sequential.loss, abs=1e-10)

class TestLogDecayCoordinates:
    """LM refines (amplitude, ln decay, floor); details report natural values."""

    GRIDS = dict(
        diffusion_candidates=(0.005, 0.01),
        amplitude_grid=(0.5, 1.0),
        decay_grid=(0.5, 1.0),
        floor_grid=(0.1, 0.25),
        refine_starts=2,
    )

    def test_seed_losses_equal_the_grid_losses(self, monkeypatch):
        # With no LM iteration the starts stay on their seeds, so their
        # losses are the seeds' losses evaluated through the map.
        monkeypatch.setattr(
            calibration,
            "grouped_multi_start_least_squares",
            functools.partial(calibration.grouped_multi_start_least_squares, max_iterations=0),
        )
        surface = synthetic_dl_surface(hours=6)
        # exp(log(3.0)) is 3.0000000000000004: the map must still be exact.
        result = calibrate_dl_model(surface, **dict(self.GRIDS, decay_grid=(3.0,)))
        refinement = result.details["refinement"]
        assert refinement["iterations"] == 0
        # The seeds are the best grid row of each diffusion rate.
        grid = result.details["diffusion_grid"]
        assert refinement["start_losses"] == [grid[d] for d in refinement["seed_diffusions"]]
        winner = result.details["grid_winner"]
        assert refinement["start_parameters"][0] == [
            winner["amplitude"], winner["decay"], winner["floor"]
        ]

    def test_decay_on_its_lower_bound_is_reported_exactly(self):
        # The rate decays more slowly than the box allows (0.01 < 0.05) and
        # has no floor, so the fit ends with decay on its lower bound.
        surface = synthetic_dl_surface(amplitude=0.5, decay=0.01, floor=0.0, hours=6)
        result = calibrate_dl_model(surface, **self.GRIDS)
        refinement = result.details["refinement"]
        assert result.parameters.growth_rate.decay == 0.05
        assert "decay" in refinement["parameters_at_bound"]
        assert refinement["start_parameters"][refinement["best_start"]][1] == 0.05

    def test_start_parameters_lie_inside_the_bounds(self):
        surface = synthetic_dl_surface(amplitude=0.5, decay=0.01, floor=0.0, hours=6)
        result = calibrate_dl_model(surface, **self.GRIDS)
        lower, upper = GROWTH_RATE_BOUNDS
        for row in result.details["refinement"]["start_parameters"]:
            assert all(low <= value <= high for value, low, high in zip(row, lower, upper))

    def test_map_round_trips_grid_decays_and_bounds(self):
        # exp(log(0.05)) and exp(log(3.0)) are one ulp off; the map is exact.
        coordinates = _LogDecay([0.5, 3.0])
        for decay in (0.05, 0.5, 3.0, 6.0):
            point = _LogDecay.coordinates([1.0, decay, 0.1])
            assert coordinates.natural(point)[1] == decay
        np.testing.assert_array_equal(
            coordinates.bounds[0], [0.0, np.log(0.05), 0.0]
        )
        # Natural values outside the box are clipped into it first.
        assert _LogDecay.coordinates([7.0, 0.0, -1.0]).tolist() == [6.0, np.log(0.05), 0.0]


class TestBatchResiduals:
    def test_tensor_sampling_matches_per_candidate_surfaces(self):
        observed = synthetic_dl_surface(hours=6)
        phi = InitialDensity.from_surface(observed)
        target_times = [float(t) for t in observed.times[1:]]
        # Mixed diffusion rates and growth-rate families, plus two candidates
        # whose states overflow to non-finite values.
        candidates = [
            DLParameters(0.01, ExponentialDecayGrowthRate(1.4, 1.5, 0.25), 25.0),
            DLParameters(0.05, ConstantGrowthRate(0.3), 25.0),
            DLParameters(0.01, ExponentialDecayGrowthRate(1e150, 1.0, 0.1), 25.0),
            DLParameters(0.002, ExponentialDecayGrowthRate(0.5, 0.5, 0.05), 25.0),
            DLParameters(0.05, ExponentialDecayGrowthRate(1e306, 1.0, 0.1), 25.0),
        ]
        # Every evaluation a calibration makes goes through _Settings.residuals.
        stage = _GridStage(
            training=observed,
            initial_density=phi,
            target_times=target_times,
            targets=_ResidualTargets.of(observed, target_times),
            carrying_capacity=25.0,
            candidates=np.empty((0, 4)),
        )
        settings = _Settings(points_per_unit=8, max_step=0.05, engine="batched", backend="internal")
        with np.errstate(all="ignore"):
            batched = settings.residuals(candidates, [stage] * len(candidates))
            solutions = solve_dl_batch(
                candidates, phi, target_times, points_per_unit=8, max_step=0.05
            )
        assert len(batched) == len(candidates)
        finite = [bool(np.isfinite(vector).all()) for vector in batched]
        assert finite == [True, True, False, True, False]
        for vector, solution in zip(batched, solutions):
            expected = _surface_residuals(
                solution.to_surface(observed.distances), observed, target_times
            )
            assert vector.flags["C_CONTIGUOUS"]
            # Bit for bit: compare the float64 bit patterns.
            np.testing.assert_array_equal(vector.view(np.int64), expected.view(np.int64))


    def test_calibration_computes_its_observed_targets_once(self, monkeypatch):
        # The observed targets, their scales and the output-time rows are
        # the same for every batched solve of a calibration.
        from repro.core import calibration

        surface = synthetic_dl_surface(hours=6)
        reference = calibrate_dl_model(surface, **TestBatchedCalibration.SMALL_GRIDS)
        calls = {"targets": 0, "isclose": 0}
        observed_targets, isclose = calibration._observed_targets, np.isclose

        def counting_targets(*args):
            calls["targets"] += 1
            return observed_targets(*args)

        def counting_isclose(*args, **kwargs):
            calls["isclose"] += 1
            return isclose(*args, **kwargs)

        monkeypatch.setattr(calibration, "_observed_targets", counting_targets)
        monkeypatch.setattr(calibration.np, "isclose", counting_isclose)
        calibrate_dl_model(surface, refine=False, **TestBatchedCalibration.SMALL_GRIDS)
        grid_only = dict(calls)
        result = calibrate_dl_model(surface, **TestBatchedCalibration.SMALL_GRIDS)
        monkeypatch.undo()
        assert result.details["refinement"]["residual_batches"] > 1
        # The refinement's batches add no lookups to the grid's one.
        assert calls == {key: 2 * count for key, count in grid_only.items()}
        assert grid_only["targets"] == 1
        assert result.loss == reference.loss
        assert result.parameters == reference.parameters
