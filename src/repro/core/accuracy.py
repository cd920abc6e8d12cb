"""The paper's prediction-accuracy metric and Tables I / II machinery.

Equation 8 of the paper defines

    prediction accuracy = |predicted - actual| / actual

which, read literally, is the *relative error*; the values reported in
Tables I and II (e.g. 98.27% at distance 1) are clearly ``1 - relative
error``, i.e. the complement.  This module implements both, documents the
discrepancy, and uses the complement (what the paper's tables actually
report) as ``prediction_accuracy``.

:func:`build_accuracy_table` scores a whole table at once: it resolves the
scored times and distances to row and column indices once per surface,
gathers both surfaces' cells by fancy indexing, and evaluates Eq. 8 as one
elementwise array expression (:func:`prediction_accuracies`).  That is the
same IEEE arithmetic as :func:`prediction_accuracy` applied cell by cell, so
the table is bit-identical to scoring each cell on its own.

:class:`AccuracyTable` reproduces the layout of Tables I and II: one row per
distance, one column per prediction time ``t = 2..6``, plus the per-distance
average and the overall average the paper quotes in the abstract (92.08% /
92.81% for story s1 with friendship hops).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.cascade.density import DensitySurface, Labels, first_match_indices, label_indices

#: Floor on ``|actual|`` in Eq. 8's denominator, so a zero actual scores finitely.
EPSILON = 1e-12


def relative_error(predicted: float, actual: float, epsilon: float = EPSILON) -> float:
    """|predicted - actual| / |actual| -- Equation 8 as literally written."""
    return abs(predicted - actual) / max(abs(actual), epsilon)


def prediction_accuracy(predicted: float, actual: float, epsilon: float = EPSILON) -> float:
    """1 - relative error, clipped below at 0 -- what Tables I/II report."""
    return max(0.0, 1.0 - relative_error(predicted, actual, epsilon))


def prediction_accuracies(predicted: np.ndarray, actual: np.ndarray) -> np.ndarray:
    """:func:`prediction_accuracy` elementwise, with the same bits per cell.

    ``np.maximum`` keeps a NaN ``|actual|`` as the builtin ``max`` does, and
    ``np.fmax(0.0, x)`` clips a NaN accuracy to 0.0 as ``max(0.0, nan)`` does.
    """
    with np.errstate(all="ignore"):
        error = np.abs(predicted - actual) / np.maximum(np.abs(actual), EPSILON)
        return np.fmax(0.0, 1.0 - error)


@dataclass
class AccuracyTable:
    """Per-distance, per-time prediction accuracies in the paper's table layout.

    Attributes
    ----------
    distances:
        Row labels (distance values).
    times:
        Column labels (prediction times, e.g. 2..6 hours).
    accuracies:
        Matrix of shape ``(len(distances), len(times))`` holding accuracies in
        ``[0, 1]``.
    metadata:
        Provenance (story, distance metric, parameters, ...).
    """

    distances: np.ndarray
    times: np.ndarray
    accuracies: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.distances = np.asarray(self.distances, dtype=float)
        self.times = np.asarray(self.times, dtype=float)
        self.accuracies = np.asarray(self.accuracies, dtype=float)
        expected = (self.distances.size, self.times.size)
        if self.accuracies.shape != expected:
            raise ValueError(
                f"accuracies shape {self.accuracies.shape} != (distances, times) {expected}"
            )

    def row_average(self, distance: float) -> float:
        """Average accuracy over all prediction times for one distance."""
        index = self._distance_index(distance)
        return float(self.accuracies[index].mean())

    def row_averages(self, distances: Labels) -> np.ndarray:
        """:meth:`row_average` of every distance, from one index lookup."""
        rows = label_indices(self.distances, distances, "distance", "table")
        return self.accuracies[rows].mean(axis=1)

    def column_average(self, time: float) -> float:
        """Average accuracy over all distances for one prediction time."""
        index = self._time_index(time)
        return float(self.accuracies[:, index].mean())

    @property
    def overall_average(self) -> float:
        """Average accuracy over every (distance, time) cell."""
        return float(self.accuracies.mean())

    def accuracy(self, distance: float, time: float) -> float:
        """One cell of the table."""
        return float(self.accuracies[self._distance_index(distance), self._time_index(time)])

    def _distance_index(self, distance: float) -> int:
        return int(label_indices(self.distances, [distance], "distance", "table")[0])

    def _time_index(self, time: float) -> int:
        return int(label_indices(self.times, [time], "time", "table")[0])

    # ------------------------------------------------------------------ #
    # Rendering
    # ------------------------------------------------------------------ #
    def to_rows(self) -> list[dict[str, float]]:
        """Rows as dictionaries, one per distance (handy for CSV/JSON export)."""
        rows = []
        for i, distance in enumerate(self.distances):
            row: dict[str, float] = {"distance": float(distance)}
            row["average"] = float(self.accuracies[i].mean())
            for j, time in enumerate(self.times):
                row[f"t={time:g}"] = float(self.accuracies[i, j])
            rows.append(row)
        return rows

    def render(self, title: "str | None" = None) -> str:
        """Render the table in the paper's format (percentages, one row per distance)."""
        lines = []
        if title:
            lines.append(title)
        header = ["Distance", "Average"] + [f"t = {time:g}" for time in self.times]
        lines.append("  ".join(f"{cell:>9}" for cell in header))
        for i, distance in enumerate(self.distances):
            cells = [f"{distance:>9g}", f"{self.accuracies[i].mean() * 100:>8.2f}%"]
            cells += [f"{value * 100:>8.2f}%" for value in self.accuracies[i]]
            lines.append("  ".join(cells))
        lines.append(f"Overall average accuracy: {self.overall_average * 100:.2f}%")
        return "\n".join(lines)


def build_accuracy_table(
    predicted: DensitySurface,
    actual: DensitySurface,
    times: "Sequence[float] | None" = None,
    distances: "Sequence[float] | None" = None,
    metadata: "dict | None" = None,
) -> AccuracyTable:
    """Score a predicted surface against observations with Eq. 8.

    Each surface's time rows and distance columns are looked up once (first
    ``np.isclose`` match, as :meth:`DensitySurface.density` does), and the
    accuracy matrix is one :func:`prediction_accuracies` expression over the
    gathered cells -- bit-identical to scoring each cell with
    :func:`prediction_accuracy`.

    Parameters
    ----------
    predicted:
        Model output (e.g. :meth:`DiffusiveLogisticModel.predict`).
    actual:
        Observed density surface from the dataset.
    times:
        Prediction times to score; defaults to every actual time strictly
        after the first (the first snapshot is the initial condition, so
        scoring it would be trivially perfect).
    distances:
        Distances to score; defaults to the actual surface's distances.

    Raises
    ------
    ValueError
        When the surfaces' units differ, or no time or distance is scored.
    KeyError
        When a scored time or distance is missing from either surface; the
        message names the label a cell-by-cell scan would have missed first.
    """
    if predicted.unit != actual.unit:
        raise ValueError(
            f"unit mismatch: predicted is in {predicted.unit!r}, actual in {actual.unit!r}"
        )
    if distances is None:
        distances = [float(d) for d in actual.distances]
    if times is None:
        times = [float(t) for t in actual.times[1:]]
    times = [float(t) for t in times]
    distances = [float(d) for d in distances]
    if not times:
        raise ValueError("at least one prediction time is required")
    if not distances:
        raise ValueError("at least one distance is required")

    surfaces = (predicted, actual)
    rows = [first_match_indices(surface.times, times) for surface in surfaces]
    columns = [first_match_indices(surface.distances, distances) for surface in surfaces]
    if any((index < 0).any() for index in rows + columns):
        # Replay the cell-by-cell lookups, so a missing label raises the
        # KeyError it always has.
        for distance in distances:
            for time in times:
                predicted.density(distance, time)
                actual.density(distance, time)
    predicted_cells, actual_cells = (
        surface.values[row[None, :], column[:, None]]
        for surface, row, column in zip(surfaces, rows, columns)
    )
    accuracies = prediction_accuracies(predicted_cells, actual_cells)
    table_metadata = dict(actual.metadata)
    if metadata:
        table_metadata.update(metadata)
    return AccuracyTable(
        distances=np.asarray(distances),
        times=np.asarray(times),
        accuracies=accuracies,
        metadata=table_metadata,
    )
