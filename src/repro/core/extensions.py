"""Future-work extension: parameters that vary with distance (Section V).

The paper's conclusions propose "developing new models that consider
diffusion rate, growth rate and carrying capacity as functions of time and
distance", motivated by the poor prediction of the interest-distance-5 group
in Table II.  This module implements the growth-rate half of that programme:

* :class:`SpatiallyScaledGrowthRate` -- wraps any temporal growth rate
  r(t) with a smooth, distance-dependent multiplier s(x), giving
  ``r(x, t) = s(x) * r(t)``.
* :func:`calibrate_spatial_scaling` -- fits the per-distance multipliers (one
  per observation distance, interpolated in between) on the training window,
  starting from an already calibrated spatially uniform model.

The EXT-1 benchmark (``benchmarks/bench_ext_spatial_parameters.py``) uses
these to quantify how much the extension helps on exactly the case the paper
calls out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.cascade.density import DensitySurface
from repro.core.calibration import CalibrationResult, _prediction_residuals
from repro.core.initial_density import InitialDensity
from repro.core.parameters import DLParameters, GrowthRate
from repro.numerics.optimization import least_squares_fit
from repro.numerics.spline import CubicSpline


@dataclass(frozen=True)
class SpatiallyScaledGrowthRate(GrowthRate):
    """A growth rate ``r(x, t) = s(x) * r_base(t)``.

    The spatial multiplier ``s`` is a clamped cubic spline through
    ``(distances, scales)`` with flat ends, clipped to be non-negative, so it
    satisfies the same smoothness requirements as the initial density
    function.

    Attributes
    ----------
    base:
        The temporal growth rate being scaled (typically an
        :class:`~repro.core.parameters.ExponentialDecayGrowthRate`).
    distances:
        Observation distances where multipliers are specified.
    scales:
        Non-negative multipliers, one per distance; 1.0 reproduces the base
        rate at that distance.
    """

    base: GrowthRate
    distances: tuple[float, ...]
    scales: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.distances) != len(self.scales):
            raise ValueError("distances and scales must have equal length")
        if len(self.distances) < 2:
            raise ValueError("at least two distances are required")
        if any(s < 0 for s in self.scales):
            raise ValueError("scales must be non-negative")

    def _spline(self) -> CubicSpline:
        return CubicSpline(
            self.distances, self.scales, end_condition="clamped", start_slope=0.0, end_slope=0.0
        )

    def scaling(self, positions: np.ndarray) -> np.ndarray:
        """The spatial multiplier s(x), clipped to be non-negative."""
        values = np.asarray(self._spline()(np.asarray(positions, dtype=float)), dtype=float)
        return np.maximum(values, 0.0)

    def __call__(self, positions: np.ndarray, time: float) -> np.ndarray:
        positions = np.asarray(positions, dtype=float)
        return self.scaling(positions) * self.base(positions, time)


def spatially_scaled_parameters(
    parameters: DLParameters,
    distances: Sequence[float],
    scales: Sequence[float],
) -> DLParameters:
    """Return a copy of ``parameters`` whose growth rate is scaled per distance."""
    scaled = SpatiallyScaledGrowthRate(
        base=parameters.growth_rate,
        distances=tuple(float(d) for d in distances),
        scales=tuple(float(s) for s in scales),
    )
    return DLParameters(
        diffusion_rate=parameters.diffusion_rate,
        growth_rate=scaled,
        carrying_capacity=parameters.carrying_capacity,
    )


def calibrate_spatial_scaling(
    observed: DensitySurface,
    base_result: CalibrationResult,
    training_times: "Sequence[float] | None" = None,
    scale_bounds: tuple[float, float] = (0.2, 3.0),
    points_per_unit: int = 8,
    max_step: float = 0.05,
) -> CalibrationResult:
    """Fit per-distance growth multipliers on top of a uniform calibration.

    Parameters
    ----------
    observed:
        The observed density surface.
    base_result:
        Output of :func:`repro.core.calibration.calibrate_dl_model`:
        supplies the temporal growth rate, the diffusion rate and the
        carrying capacity, all of which are kept fixed.
    training_times:
        Hours used for fitting; defaults to the base result's window.
    scale_bounds:
        Per-distance bounds on the multipliers (kept away from zero so the
        scaled model remains a proper DL equation everywhere).
    """
    if training_times is None:
        training_times = list(base_result.training_times)
    training_times = sorted(float(t) for t in training_times)
    if len(training_times) < 2:
        raise ValueError("at least two training times are required")
    training = observed.restrict_times(training_times)
    initial_density = InitialDensity.from_surface(training)
    target_times = [float(t) for t in training.times[1:]]
    distances = [float(d) for d in observed.distances]
    base_parameters = base_result.parameters

    def residual(scales: np.ndarray) -> np.ndarray:
        candidate = spatially_scaled_parameters(base_parameters, distances, scales)
        return _prediction_residuals(
            candidate, initial_density, training, target_times, points_per_unit, max_step
        )

    fit = least_squares_fit(
        residual,
        initial_guess=np.ones(len(distances)),
        bounds=(
            np.full(len(distances), scale_bounds[0]),
            np.full(len(distances), scale_bounds[1]),
        ),
        names=tuple(f"scale_x{d:g}" for d in distances),
    )
    parameters = spatially_scaled_parameters(base_parameters, distances, fit.parameters)
    return CalibrationResult(
        parameters=parameters,
        loss=fit.loss,
        training_times=tuple(training_times),
        details={"spatial_scaling_fit": fit, "base_loss": base_result.loss},
    )
