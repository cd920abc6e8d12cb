"""SIS epidemic baseline.

The related-work section cites Saito et al., who characterise information
diffusion with the SIS (Susceptible-Infected-Susceptible) epidemic model.
Applied to a single distance group's density ``I`` (as a fraction of the
group), SIS reads::

    dI/dt = beta * I * (1 - I) - gamma * I

The recovery term ``gamma * I`` lets the "infection" (interest in the story)
die out, which is qualitatively wrong for vote densities -- votes are never
retracted, so the observed density is monotone non-decreasing.  The baseline
is included to show that the DL model's logistic growth (gamma = 0 plus a
carrying capacity and spatial diffusion) is the better structural choice, and
it is scored in the ablation benchmark with the same accuracy machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.cascade.density import DensitySurface, default_training_times
from repro.core.errors import NotFittedError
from repro.numerics.optimization import least_squares_fit


@dataclass(frozen=True)
class SISParameters:
    """Infection and recovery rates of the SIS model."""

    infection_rate: float
    recovery_rate: float

    def __post_init__(self) -> None:
        if self.infection_rate < 0:
            raise ValueError("infection_rate must be non-negative")
        if self.recovery_rate < 0:
            raise ValueError("recovery_rate must be non-negative")

    @property
    def basic_reproduction_number(self) -> float:
        """R0 = beta / gamma (infinite when gamma = 0)."""
        if self.recovery_rate == 0:
            return float("inf")
        return self.infection_rate / self.recovery_rate

    @property
    def endemic_level(self) -> float:
        """The stable fixed point 1 - gamma/beta (0 when R0 <= 1)."""
        if self.infection_rate == 0:
            return 0.0
        return max(0.0, 1.0 - self.recovery_rate / self.infection_rate)


def simulate_sis(
    initial_fraction: float,
    times: Sequence[float],
    parameters: SISParameters,
    steps_per_unit: int = 200,
) -> np.ndarray:
    """Integrate the scalar SIS ODE with RK4 and sample it at ``times``."""
    if not 0.0 <= initial_fraction <= 1.0:
        raise ValueError("initial_fraction must lie in [0, 1]")
    times = np.asarray(sorted(float(t) for t in times), dtype=float)

    def rhs(i: float) -> float:
        return parameters.infection_rate * i * (1.0 - i) - parameters.recovery_rate * i

    values = np.empty(times.size)
    values[0] = initial_fraction
    i = float(initial_fraction)
    for index in range(1, times.size):
        span = times[index] - times[index - 1]
        steps = max(1, int(np.ceil(span * steps_per_unit)))
        dt = span / steps
        for _ in range(steps):
            k1 = rhs(i)
            k2 = rhs(i + 0.5 * dt * k1)
            k3 = rhs(i + 0.5 * dt * k2)
            k4 = rhs(i + dt * k3)
            i += dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            i = min(max(i, 0.0), 1.0)
        values[index] = i
    return values


class SISBaseline:
    """Fits an SIS trajectory per distance group and predicts forward.

    The per-group density (percent) is rescaled to a fraction of an assumed
    susceptible pool (``pool_percent``), fitted, then rescaled back.
    """

    def __init__(self, pool_percent: float = 100.0) -> None:
        if pool_percent <= 0:
            raise ValueError("pool_percent must be positive")
        self._pool_percent = pool_percent
        self._fits: list[tuple[float, SISParameters, float]] = []
        self._unit = "percent"
        self._initial_time = 1.0

    def fit(
        self,
        observed: DensitySurface,
        training_times: "Sequence[float] | None" = None,
    ) -> "SISBaseline":
        """Fit (beta, gamma) per distance from the training window."""
        if training_times is None:
            training_times = default_training_times(observed)
        training = observed.restrict_times(sorted(float(t) for t in training_times))
        self._unit = observed.unit
        self._initial_time = float(training.times[0])
        self._fits = []
        scale = self._pool_percent if observed.unit == "percent" else self._pool_percent / 100.0

        for distance in training.distances:
            series = training.time_series(distance) / scale
            initial = float(np.clip(series[0], 0.0, 1.0))

            def residual(theta: np.ndarray, _series=series, _initial=initial) -> np.ndarray:
                params = SISParameters(max(theta[0], 0.0), max(theta[1], 0.0))
                predicted = simulate_sis(_initial, training.times, params)
                return predicted - _series

            if initial > 0:
                fit = least_squares_fit(
                    residual,
                    initial_guess=[0.5, 0.05],
                    bounds=([0.0, 0.0], [20.0, 10.0]),
                    names=("infection_rate", "recovery_rate"),
                )
                params = SISParameters(float(fit.parameters[0]), float(fit.parameters[1]))
            else:
                params = SISParameters(0.0, 0.0)
            self._fits.append((float(distance), params, initial))
        return self

    def fitted_parameters(self) -> "dict[float, dict]":
        """Per-distance fitted (beta, gamma, initial fraction), after :meth:`fit`."""
        if not self._fits:
            raise NotFittedError.for_model("the baseline")
        return {
            distance: {
                "infection_rate": params.infection_rate,
                "recovery_rate": params.recovery_rate,
                "initial_fraction": initial,
            }
            for distance, params, initial in self._fits
        }

    def predict(self, times: Sequence[float]) -> DensitySurface:
        """Predict the density surface at the requested times."""
        if not self._fits:
            raise NotFittedError.for_model("the baseline")
        times = sorted(float(t) for t in times)
        all_times = sorted(set([self._initial_time] + times))
        scale = self._pool_percent if self._unit == "percent" else self._pool_percent / 100.0
        distances = np.asarray([distance for distance, _, _ in self._fits])
        values = np.zeros((len(times), distances.size))
        for j, (_, params, initial) in enumerate(self._fits):
            trajectory = simulate_sis(initial, all_times, params) * scale
            lookup = {t: v for t, v in zip(all_times, trajectory)}
            values[:, j] = [lookup[t] for t in times]
        return DensitySurface(
            distances=distances,
            times=np.asarray(times),
            values=np.maximum(values, 0.0),
            group_sizes=np.ones(distances.size),
            unit=self._unit,
            metadata={"source": "sis_baseline"},
        )
