"""Per-distance independent logistic baseline (temporal-only, no diffusion).

This is the natural ablation of the DL model: keep the growth process (the
logistic term) but drop the diffusion term, i.e. fit an independent logistic
curve to every distance group's time series.  Prior temporal-only models the
paper cites reduce to exactly this when applied per distance group.

Because each distance evolves independently the baseline cannot transfer
information across distances -- which is the capability the DL model's Fick
term adds -- so it needs more training data per distance and degrades when
the early snapshot at a distance is unrepresentative.

Although the distances are modelled independently, they are *fitted and
evaluated together*: every eligible distance joins one vectorised
least-squares solve (:func:`repro.numerics.ode.fit_logistic_curves`) and
prediction evaluates all fitted curves in one broadcast expression, so no
Python-level per-distance loop remains on either path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.cascade.density import DensitySurface, default_training_times
from repro.core.errors import NotFittedError
from repro.numerics.ode import (
    LogisticCurve,
    fit_logistic_curve,
    fit_logistic_curves,
    logistic_value,
)


@dataclass
class _FittedDistance:
    distance: float
    curve: "LogisticCurve | None"
    constant_value: float


class PerDistanceLogisticBaseline:
    """Fits one logistic curve per distance group, ignoring spatial coupling.

    Parameters
    ----------
    carrying_capacity_cap:
        Upper bound applied to each fitted K (prevents the optimiser from
        extrapolating unbounded growth from a short training window).
    """

    def __init__(self, carrying_capacity_cap: float = 200.0) -> None:
        if carrying_capacity_cap <= 0:
            raise ValueError("carrying_capacity_cap must be positive")
        self._carrying_capacity_cap = carrying_capacity_cap
        self._fits: list[_FittedDistance] = []
        self._unit = "percent"

    def fit(
        self,
        observed: DensitySurface,
        training_times: "Sequence[float] | None" = None,
    ) -> "PerDistanceLogisticBaseline":
        """Fit one curve per distance from the training window.

        Distances whose training series is all zero (or has fewer than three
        positive observations) fall back to a constant extrapolation of the
        last training value.
        """
        if training_times is None:
            training_times = default_training_times(observed)
        training = observed.restrict_times(sorted(float(t) for t in training_times))
        self._unit = observed.unit

        eligible = [
            j
            for j, distance in enumerate(training.distances)
            if training.values[0, j] > 0 and training.times.size >= 3
        ]
        curves: "dict[int, LogisticCurve]" = {}
        if eligible:
            try:
                fitted = fit_logistic_curves(
                    training.times,
                    training.values[:, eligible],
                    carrying_capacity_bounds=(1e-6, self._carrying_capacity_cap),
                )
                curves = dict(zip(eligible, fitted))
            except (ValueError, RuntimeError):
                # Joint fit failed (e.g. a pathological column); fall back to
                # independent per-distance fits so one bad column cannot take
                # down the rest.
                for j in eligible:
                    try:
                        curves[j] = fit_logistic_curve(
                            training.times,
                            training.values[:, j],
                            carrying_capacity_bounds=(1e-6, self._carrying_capacity_cap),
                        )
                    except (ValueError, RuntimeError):
                        pass

        self._fits = [
            _FittedDistance(
                distance=float(distance),
                curve=curves.get(j),
                constant_value=float(training.values[-1, j]),
            )
            for j, distance in enumerate(training.distances)
        ]
        return self

    @property
    def fitted_distances(self) -> list[float]:
        """Distances the baseline has been fitted for."""
        return [fit.distance for fit in self._fits]

    def curve_parameters(self) -> "dict[float, dict]":
        """Per-distance fitted curve parameters (after :meth:`fit`).

        Distances that fell back to the constant extrapolation report
        ``{"constant": value}`` instead of curve parameters.
        """
        if not self._fits:
            raise NotFittedError.for_model("the baseline")
        out: "dict[float, dict]" = {}
        for fit in self._fits:
            if fit.curve is None:
                out[fit.distance] = {"constant": fit.constant_value}
            else:
                out[fit.distance] = {
                    "growth_rate": float(fit.curve.growth_rate),
                    "carrying_capacity": float(fit.curve.carrying_capacity),
                    "initial_value": float(fit.curve.initial_value),
                    "initial_time": float(fit.curve.initial_time),
                }
        return out

    def predict(self, times: Sequence[float]) -> DensitySurface:
        """Predict the density surface at the requested times."""
        if not self._fits:
            raise NotFittedError.for_model("the baseline")
        times = sorted(float(t) for t in times)
        time_array = np.asarray(times, dtype=float)
        distances = np.asarray([fit.distance for fit in self._fits])
        # Constant extrapolation everywhere, then one broadcast evaluation of
        # the analytic logistic formula over every fitted column at once.
        values = np.tile(
            np.asarray([fit.constant_value for fit in self._fits]), (len(times), 1)
        )
        fitted = [j for j, fit in enumerate(self._fits) if fit.curve is not None]
        if fitted:
            rates = np.asarray([self._fits[j].curve.growth_rate for j in fitted])
            capacities = np.asarray([self._fits[j].curve.carrying_capacity for j in fitted])
            initial_values = np.asarray([self._fits[j].curve.initial_value for j in fitted])
            initial_times = np.asarray([self._fits[j].curve.initial_time for j in fitted])
            values[:, fitted] = logistic_value(
                time_array[:, None] - initial_times[None, :],
                rates[None, :],
                capacities,
                initial_values,
            )
        return DensitySurface(
            distances=distances,
            times=np.asarray(times),
            values=np.maximum(values, 0.0),
            group_sizes=np.ones(distances.size),
            unit=self._unit,
            metadata={"source": "per_distance_logistic_baseline"},
        )
