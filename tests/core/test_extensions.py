"""Tests for the space-dependent growth-rate extension (paper future work)."""

import numpy as np
import pytest

from repro.cascade.density import DensitySurface
from repro.core.calibration import CalibrationResult, calibrate_dl_model
from repro.core.dl_model import DiffusiveLogisticModel
from repro.core.extensions import (
    SpatiallyScaledGrowthRate,
    calibrate_spatial_scaling,
    spatially_scaled_parameters,
)
from repro.core.initial_density import InitialDensity
from repro.core.parameters import (
    ConstantGrowthRate,
    DLParameters,
    ExponentialDecayGrowthRate,
    dl_parameters,
)


class TestSpatiallyScaledGrowthRate:
    def test_scaling_at_observation_points(self):
        rate = SpatiallyScaledGrowthRate(
            base=ConstantGrowthRate(1.0), distances=(1.0, 2.0, 3.0), scales=(1.0, 0.5, 2.0)
        )
        values = rate(np.array([1.0, 2.0, 3.0]), time=1.0)
        assert np.allclose(values, [1.0, 0.5, 2.0])

    def test_combines_with_temporal_decay(self):
        base = ExponentialDecayGrowthRate(1.0, 1.0, 0.0)
        rate = SpatiallyScaledGrowthRate(base, (1.0, 3.0), (2.0, 0.5))
        early = rate(np.array([1.0]), 1.0)[0]
        late = rate(np.array([1.0]), 5.0)[0]
        assert early == pytest.approx(2.0)
        assert late < early

    def test_scaling_never_negative(self):
        # A steep drop in the multipliers can make the spline overshoot; the
        # scaling is clipped at zero.
        rate = SpatiallyScaledGrowthRate(
            ConstantGrowthRate(1.0), (1.0, 2.0, 3.0, 4.0), (3.0, 0.01, 0.01, 3.0)
        )
        sample = rate.scaling(np.linspace(1.0, 4.0, 50))
        assert np.all(sample >= 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            SpatiallyScaledGrowthRate(ConstantGrowthRate(1.0), (1.0,), (1.0,))
        with pytest.raises(ValueError):
            SpatiallyScaledGrowthRate(ConstantGrowthRate(1.0), (1.0, 2.0), (1.0,))
        with pytest.raises(ValueError):
            SpatiallyScaledGrowthRate(ConstantGrowthRate(1.0), (1.0, 2.0), (1.0, -0.5))


class TestSpatiallyScaledParameters:
    def test_wraps_growth_rate_only(self):
        base = dl_parameters(0.01, 0.5, 25.0)
        scaled = spatially_scaled_parameters(base, [1, 2, 3], [1.0, 1.0, 2.0])
        assert scaled.diffusion_rate == base.diffusion_rate
        assert scaled.carrying_capacity == base.carrying_capacity
        assert isinstance(scaled.growth_rate, SpatiallyScaledGrowthRate)

    def test_unit_scaling_reproduces_uniform_model(self):
        phi = InitialDensity([1, 2, 3, 4, 5], [5.0, 2.0, 2.5, 1.5, 1.0])
        base = dl_parameters(0.01, 0.8, 25.0)
        scaled = spatially_scaled_parameters(base, [1, 2, 3, 4, 5], [1.0] * 5)
        uniform = DiffusiveLogisticModel(base, points_per_unit=10, max_step=0.05).predict(phi, [4.0])
        wrapped = DiffusiveLogisticModel(scaled, points_per_unit=10, max_step=0.05).predict(phi, [4.0])
        assert np.allclose(uniform.profile(4.0), wrapped.profile(4.0), rtol=1e-6)


def spatially_heterogeneous_surface(hours=8):
    """Observations generated by a DL model whose growth rate is twice as fast
    at distance 1 as at distance 5 -- the situation the extension targets."""
    phi = InitialDensity([1, 2, 3, 4, 5], [5.0, 3.0, 2.5, 2.0, 1.5])
    true_parameters = spatially_scaled_parameters(
        DLParameters(
            diffusion_rate=0.01,
            growth_rate=ExponentialDecayGrowthRate(1.2, 1.0, 0.3),
            carrying_capacity=30.0,
        ),
        [1, 2, 3, 4, 5],
        [1.6, 1.2, 1.0, 0.7, 0.4],
    )
    model = DiffusiveLogisticModel(true_parameters, points_per_unit=12, max_step=0.02)
    surface = model.predict(phi, [float(t) for t in range(1, hours + 1)])
    return DensitySurface(
        distances=surface.distances,
        times=surface.times,
        values=surface.values,
        group_sizes=np.ones(5),
    )


def uniform_calibration(observed, **kwargs):
    """The uniform DL calibration the spatial fit starts from (d and K fixed)."""
    return calibrate_dl_model(
        observed, carrying_capacity=30.0, diffusion_candidates=(0.01,), **kwargs
    )


class TestCalibrateSpatialScaling:
    def test_improves_on_uniform_calibration(self):
        observed = spatially_heterogeneous_surface()
        uniform = uniform_calibration(observed)
        spatial = calibrate_spatial_scaling(observed, uniform)
        assert spatial.loss < uniform.loss
        assert isinstance(spatial.parameters.growth_rate, SpatiallyScaledGrowthRate)

    def test_recovered_scales_are_ordered_like_the_truth(self):
        observed = spatially_heterogeneous_surface()
        uniform = uniform_calibration(observed)
        spatial = calibrate_spatial_scaling(observed, uniform)
        scales = spatial.details["spatial_scaling_fit"].as_dict()
        assert scales["scale_x1"] > scales["scale_x5"]

    def test_requires_two_training_times(self):
        observed = spatially_heterogeneous_surface()
        uniform = uniform_calibration(observed)
        with pytest.raises(ValueError):
            calibrate_spatial_scaling(observed, uniform, training_times=[1.0])

    def test_base_result_window_reused_by_default(self):
        observed = spatially_heterogeneous_surface()
        uniform = uniform_calibration(observed, training_times=[1, 2, 3, 4])
        spatial = calibrate_spatial_scaling(observed, uniform)
        assert spatial.training_times == (1.0, 2.0, 3.0, 4.0)

    def test_result_type(self):
        observed = spatially_heterogeneous_surface()
        uniform = uniform_calibration(observed)
        spatial = calibrate_spatial_scaling(observed, uniform)
        assert isinstance(spatial, CalibrationResult)
        assert spatial.details["base_loss"] == uniform.loss
