"""Uniform spatial grids over the distance axis.

The DL model is posed on a one-dimensional interval ``[l, L]`` of distances
from the information source.  In Digg-like networks distance is an integer
(friendship hops 1..m, or one of five shared-interest groups), but the PDE is
solved on a refined continuous grid and then sampled back at the integer
distances, exactly as the paper does ("the density is only meaningful when
distance is integer").
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class UniformGrid:
    """A uniform one-dimensional grid on ``[lower, upper]``.

    Parameters
    ----------
    lower:
        Left endpoint ``l`` (smallest distance, typically 1).
    upper:
        Right endpoint ``L`` (largest distance, typically 5 or 6).
    num_points:
        Number of grid nodes, including both endpoints.  Must be >= 2.
    """

    lower: float
    upper: float
    num_points: int

    def __post_init__(self) -> None:
        if self.num_points < 2:
            raise ValueError(f"num_points must be >= 2, got {self.num_points}")
        if not np.isfinite(self.lower) or not np.isfinite(self.upper):
            raise ValueError("grid endpoints must be finite")
        if self.upper <= self.lower:
            raise ValueError(
                f"upper ({self.upper}) must be strictly greater than lower ({self.lower})"
            )

    @property
    def spacing(self) -> float:
        """Distance ``h`` between adjacent nodes."""
        return (self.upper - self.lower) / (self.num_points - 1)

    @cached_property
    def nodes(self) -> np.ndarray:
        """All grid nodes as a 1-D array of length ``num_points``.

        Computed once per grid and shared by every caller, so it is
        read-only; copy it before modifying.
        """
        nodes = np.linspace(self.lower, self.upper, self.num_points)
        nodes.setflags(write=False)
        return nodes

    def __getstate__(self) -> dict:
        # Unpickled arrays are writeable: leave the cached nodes behind so
        # the copy recomputes its own read-only array.
        return {name: value for name, value in self.__dict__.items() if name != "nodes"}

    @property
    def length(self) -> float:
        """Length of the interval ``upper - lower``."""
        return self.upper - self.lower

    def __len__(self) -> int:
        return self.num_points

    def contains(self, x: float) -> bool:
        """Return ``True`` when ``x`` lies inside ``[lower, upper]``."""
        return bool(self.lower <= x <= self.upper)

    def index_of(self, x: float) -> int:
        """Return the index of the grid node closest to ``x``.

        Raises
        ------
        ValueError
            If ``x`` lies outside the grid.
        """
        if not self.contains(x):
            raise ValueError(f"x={x} is outside the grid [{self.lower}, {self.upper}]")
        return int(round((x - self.lower) / self.spacing))

    def indices_of(self, xs: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`index_of` for an array of positions."""
        xs = np.asarray(xs, dtype=float)
        outside = (xs < self.lower - 1e-12) | (xs > self.upper + 1e-12)
        if np.any(outside):
            bad = xs[outside]
            raise ValueError(f"positions {bad} are outside the grid [{self.lower}, {self.upper}]")
        return np.rint((xs - self.lower) / self.spacing).astype(int)

    def refine(self, factor: int) -> "UniformGrid":
        """Return a new grid with ``factor`` times as many intervals."""
        if factor < 1:
            raise ValueError(f"refinement factor must be >= 1, got {factor}")
        new_points = (self.num_points - 1) * factor + 1
        return UniformGrid(self.lower, self.upper, new_points)

    @classmethod
    def from_integer_distances(
        cls, distances: "np.ndarray | list[int]", points_per_unit: int = 10
    ) -> "UniformGrid":
        """Build a refined grid spanning a set of integer distances.

        The paper observes densities at integer distances 1..m and solves the
        PDE on a refined grid covering the same interval.

        Parameters
        ----------
        distances:
            Iterable of integer distances; only min and max matter.
        points_per_unit:
            Number of grid intervals per unit of distance.
        """
        distances = np.asarray(list(distances), dtype=float)
        if distances.size < 2:
            raise ValueError("at least two distinct distances are required")
        lower = float(distances.min())
        upper = float(distances.max())
        if upper <= lower:
            raise ValueError("distances must span a non-degenerate interval")
        num_points = int(round((upper - lower) * points_per_unit)) + 1
        return cls(lower, upper, num_points)
