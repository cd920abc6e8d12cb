"""Density surfaces I(x, t): the interchange type between data and model.

The central observable of the paper is the *density of influenced users*
``I(x, t)``: the fraction of the users at distance ``x`` from the source who
have voted by time ``t``, for hourly ``t`` and integer distances ``x``.
``DensitySurface`` stores exactly that matrix, plus the group sizes used as
denominators, and provides the slicing helpers the model, baselines, analysis
and benchmarks all rely on.

Densities are stored in *percent* by default (a value of 18 means 18% of the
users in that distance group have voted), matching the scale of the paper's
figures (densities up to ~20 with K = 25 for friendship hops, densities up to
~60 with K = 60 for shared interests).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence, Union

import numpy as np

from repro.cascade.events import Story

DENSITY_UNITS = ("percent", "fraction")

#: Axis labels to look up: a sequence of times or distances, or an array of them.
Labels = Union[Sequence[float], np.ndarray]


@dataclass
class DensitySurface:
    """The observed density of influenced users over distance and time.

    Attributes
    ----------
    distances:
        Integer distance values (columns), e.g. friendship hops 1..5 or
        shared-interest groups 1..5.
    times:
        Observation times in hours (rows), e.g. 1..50.
    values:
        Density matrix of shape ``(len(times), len(distances))``.
    group_sizes:
        Number of users in each distance group (the denominators |U_x|).
    unit:
        ``"percent"`` (default) or ``"fraction"``.
    metadata:
        Free-form provenance (story id, distance metric, etc.).
    """

    distances: np.ndarray
    times: np.ndarray
    values: np.ndarray
    group_sizes: np.ndarray
    unit: str = "percent"
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.distances = np.asarray(self.distances, dtype=float)
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        self.group_sizes = np.asarray(self.group_sizes, dtype=float)
        if self.unit not in DENSITY_UNITS:
            raise ValueError(f"unit must be one of {DENSITY_UNITS}, got {self.unit!r}")
        expected = (self.times.size, self.distances.size)
        if self.values.shape != expected:
            raise ValueError(f"values shape {self.values.shape} != (times, distances) {expected}")
        if self.group_sizes.shape != (self.distances.size,):
            raise ValueError("group_sizes must have one entry per distance")
        if np.any(self.values < -1e-12):
            raise ValueError("densities must be non-negative")

    # ------------------------------------------------------------------ #
    # Slicing
    # ------------------------------------------------------------------ #
    def time_indices(self, times: Labels) -> np.ndarray:
        """Row index of every time in ``times`` (see :func:`label_indices`)."""
        return label_indices(self.times, times, "time", "surface")

    def distance_indices(self, distances: Labels) -> np.ndarray:
        """Column index of every distance in ``distances`` (see :func:`label_indices`)."""
        return label_indices(self.distances, distances, "distance", "surface")

    def _time_index(self, time: float) -> int:
        return int(self.time_indices([time])[0])

    def _distance_index(self, distance: float) -> int:
        return int(self.distance_indices([distance])[0])

    def density(self, distance: float, time: float) -> float:
        """Density value at one (distance, time) pair."""
        return float(self.values[self._time_index(time), self._distance_index(distance)])

    def time_series(self, distance: float) -> np.ndarray:
        """Density over time for one distance (a line in Figure 3/5)."""
        return self.values[:, self._distance_index(distance)].copy()

    def profile(self, time: float) -> np.ndarray:
        """Density over distance at one time (a line in Figure 4/7)."""
        return self.values[self._time_index(time), :].copy()

    def initial_profile(self) -> np.ndarray:
        """The earliest profile -- the hour-1 snapshot used to build phi."""
        return self.values[0, :].copy()

    def restrict_times(self, times: Labels) -> "DensitySurface":
        """Return a new surface containing only the requested times."""
        indices = self.time_indices(times)
        return DensitySurface(
            distances=self.distances.copy(),
            times=self.times[indices],
            values=self.values[indices, :],
            group_sizes=self.group_sizes.copy(),
            unit=self.unit,
            metadata=dict(self.metadata),
        )

    def restrict_distances(self, distances: Labels) -> "DensitySurface":
        """Return a new surface containing only the requested distances."""
        indices = self.distance_indices(distances)
        return DensitySurface(
            distances=self.distances[indices],
            times=self.times.copy(),
            values=self.values[:, indices],
            group_sizes=self.group_sizes[indices],
            unit=self.unit,
            metadata=dict(self.metadata),
        )

    def as_unit(self, unit: str) -> "DensitySurface":
        """Convert between percent and fraction representations."""
        if unit not in DENSITY_UNITS:
            raise ValueError(f"unit must be one of {DENSITY_UNITS}, got {unit!r}")
        if unit == self.unit:
            return self
        factor = 0.01 if unit == "fraction" else 100.0
        return DensitySurface(
            distances=self.distances.copy(),
            times=self.times.copy(),
            values=self.values * factor,
            group_sizes=self.group_sizes.copy(),
            unit=unit,
            metadata=dict(self.metadata),
        )

    @property
    def max_density(self) -> float:
        """Largest density anywhere on the surface (used to choose K)."""
        return float(self.values.max())

    def is_monotone_in_time(self, tolerance: float = 1e-9) -> bool:
        """True when every distance's time series is non-decreasing.

        Densities of influenced users can only grow (users cannot un-vote), so
        any violation indicates a bug in the extraction pipeline.
        """
        return bool(np.all(np.diff(self.values, axis=0) >= -tolerance))


def first_match_indices(axis: np.ndarray, labels: Labels) -> np.ndarray:
    """Index of each label's first ``np.isclose`` match on ``axis``, or -1.

    One ``isclose`` call covers every label.  Each row compares
    ``isclose(axis, label)``, exactly as a one-label scan would, so the
    relative tolerance scales with the label.
    """
    values = np.asarray(labels, dtype=float)
    if values.size == 0:
        return np.zeros(0, dtype=np.intp)
    matches = np.isclose(axis, values[:, None])
    return np.where(matches.any(axis=1), matches.argmax(axis=1), -1)


def label_indices(
    axis: np.ndarray, labels: Labels, name: str, container: str
) -> np.ndarray:
    """Index of each label's first ``np.isclose`` match on ``axis``.

    Raises ``KeyError("<name> <label> is not in the <container>")`` for the
    first label with no match.
    """
    indices = first_match_indices(axis, labels)
    missing = np.flatnonzero(indices < 0)
    if missing.size:
        raise KeyError(f"{name} {labels[int(missing[0])]} is not in the {container}")
    return indices


def materialize_surface(surface) -> DensitySurface:
    """A concrete :class:`DensitySurface` from a surface or a lazy handle.

    Anything with a ``load()`` method (a corpus store's ``LazySurface``) is
    loaded; anything else is returned as it is.
    """
    if isinstance(surface, DensitySurface):
        return surface
    loader = getattr(surface, "load", None)
    if callable(loader):
        return loader()
    return surface


def compute_density_surface(
    story: Story,
    user_distances: Mapping[int, int],
    distance_values: Sequence[int],
    times: Sequence[float],
    unit: str = "percent",
    metadata: "dict | None" = None,
) -> DensitySurface:
    """Compute I(x, t) for one story from its votes and a distance assignment.

    Parameters
    ----------
    story:
        The story whose cascade is being measured.
    user_distances:
        Mapping user id -> integer distance (friendship hops or interest
        group).  Users absent from the mapping (unreachable users) are
        ignored, as in the paper.
    distance_values:
        Which distance values form the spatial axis (e.g. ``range(1, 6)``).
    times:
        Observation times in hours (e.g. ``range(1, 51)``).
    unit:
        ``"percent"`` or ``"fraction"``.
    metadata:
        Optional provenance merged into the surface metadata.
    """
    if unit not in DENSITY_UNITS:
        raise ValueError(f"unit must be one of {DENSITY_UNITS}, got {unit!r}")
    distance_values = [int(d) for d in distance_values]
    times = sorted(float(t) for t in times)
    if not distance_values:
        raise ValueError("at least one distance value is required")
    if not times:
        raise ValueError("at least one observation time is required")

    group_sizes = np.array(
        [sum(1 for d in user_distances.values() if d == value) for value in distance_values],
        dtype=float,
    )
    if np.any(group_sizes == 0):
        empty = [v for v, size in zip(distance_values, group_sizes) if size == 0]
        raise ValueError(f"distance groups {empty} contain no users; cannot form densities")

    scale = 100.0 if unit == "percent" else 1.0
    values = np.zeros((len(times), len(distance_values)))
    # Cumulative counting: votes are sorted by time, walk once per surface.
    votes = sorted(story.votes)
    counts = np.zeros(len(distance_values))
    distance_index = {value: i for i, value in enumerate(distance_values)}
    vote_pointer = 0
    counted_users: set[int] = set()
    for row, time in enumerate(times):
        while vote_pointer < len(votes) and votes[vote_pointer].time <= time:
            vote = votes[vote_pointer]
            vote_pointer += 1
            if vote.user in counted_users:
                continue
            counted_users.add(vote.user)
            distance = user_distances.get(vote.user)
            if distance is None:
                continue
            index = distance_index.get(int(distance))
            if index is not None:
                counts[index] += 1
        values[row] = scale * counts / group_sizes

    surface_metadata = {"story_id": story.story_id, "initiator": story.initiator}
    if metadata:
        surface_metadata.update(metadata)
    return DensitySurface(
        distances=np.asarray(distance_values, dtype=float),
        times=np.asarray(times, dtype=float),
        values=values,
        group_sizes=group_sizes,
        unit=unit,
        metadata=surface_metadata,
    )
