"""Linear-Influence-style counting baseline.

Yang & Leskovec's Linear Influence Model (cited as [12] in the paper)
predicts the number of *newly* infected nodes at time ``t`` as a weighted sum
of influence functions of the nodes infected earlier.  The full LIM estimates
one influence function per node; on a density surface (which has already
aggregated users into distance groups) the natural analogue is a linear
autoregressive model over the groups:

    delta_I(x, t+1) = sum_y  W[x, y] * delta_I(y, t)

where ``delta_I`` is the per-hour density increment and ``W`` is a
non-negative influence matrix estimated from the training window by
least squares.  Prediction accumulates the increments on top of the last
observed snapshot.

The baseline captures cross-distance influence (like the DL diffusion term)
but has no saturation mechanism (no carrying capacity), so its predictions
keep growing where the DL model correctly flattens out.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.cascade.density import DensitySurface, default_training_times
from repro.core.errors import NotFittedError


class LinearInfluenceBaseline:
    """Linear autoregressive model on per-hour density increments.

    Parameters
    ----------
    ridge:
        Tikhonov regularisation strength for the least-squares estimate of
        the influence matrix (keeps the fit stable when the training window
        is short, which it always is in the paper's protocol).
    """

    def __init__(self, ridge: float = 1e-3) -> None:
        if ridge < 0:
            raise ValueError("ridge must be non-negative")
        self._ridge = ridge
        self._influence: "np.ndarray | None" = None
        self._last_profile: "np.ndarray | None" = None
        self._last_increment: "np.ndarray | None" = None
        self._last_time: float = 1.0
        self._distances: "np.ndarray | None" = None
        self._unit = "percent"

    def fit(
        self,
        observed: DensitySurface,
        training_times: "Sequence[float] | None" = None,
    ) -> "LinearInfluenceBaseline":
        """Estimate the influence matrix from the training window's increments."""
        if training_times is None:
            training_times = default_training_times(observed)
        training = observed.restrict_times(sorted(float(t) for t in training_times))
        if training.times.size < 3:
            raise ValueError("the Linear Influence baseline needs at least three training times")

        increments = np.diff(training.values, axis=0)  # (T-1, D)
        past = increments[:-1]  # predictors
        future = increments[1:]  # targets
        num_distances = training.distances.size

        # Ridge-regularised least squares: future = past @ W  (W is D x D).
        gram = past.T @ past + self._ridge * np.eye(num_distances)
        cross = past.T @ future
        influence = np.linalg.solve(gram, cross)
        # Influence between groups cannot be negative (votes never remove density).
        self._influence = np.maximum(influence, 0.0)

        self._distances = training.distances.copy()
        self._last_profile = training.values[-1].copy()
        self._last_increment = increments[-1].copy()
        self._last_time = float(training.times[-1])
        self._unit = observed.unit
        return self

    @property
    def ridge(self) -> float:
        """The Tikhonov regularisation strength of the influence estimate."""
        return self._ridge

    @property
    def influence_matrix(self) -> np.ndarray:
        """The estimated non-negative influence matrix (distances x distances)."""
        if self._influence is None:
            raise NotFittedError.for_model("the baseline")
        return self._influence.copy()

    def predict(self, times: Sequence[float]) -> DensitySurface:
        """Roll the increment recursion forward and accumulate densities."""
        if (
            self._influence is None
            or self._last_profile is None
            or self._last_increment is None
            or self._distances is None
        ):
            raise NotFittedError.for_model("the baseline")
        times = sorted(float(t) for t in times)
        values = np.zeros((len(times), self._distances.size))

        profile = self._last_profile.copy()
        increment = self._last_increment.copy()
        current_time = self._last_time
        # Simulate forward hour by hour; sample whenever a requested time is passed.
        schedule = {t: None for t in times}
        horizon = max(times)
        results: dict[float, np.ndarray] = {}
        for t in times:
            if t <= current_time:
                results[t] = profile.copy()
        while current_time < horizon - 1e-9:
            increment = self._influence.T @ increment
            profile = profile + increment
            current_time += 1.0
            for t in schedule:
                if t not in results and t <= current_time + 1e-9:
                    results[t] = profile.copy()
        for i, t in enumerate(times):
            values[i] = results[t]
        return DensitySurface(
            distances=self._distances.copy(),
            times=np.asarray(times),
            values=np.maximum(values, 0.0),
            group_sizes=np.ones(self._distances.size),
            unit=self._unit,
            metadata={"source": "linear_influence_baseline"},
        )
