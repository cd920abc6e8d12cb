"""Text rendering of figure series, density surfaces and prediction results.

The offline environment has no plotting stack, so the figure benchmarks emit
the underlying series as aligned text tables -- the same rows/series the
paper plots -- via these helpers.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.cascade.density import DensitySurface, first_match_indices
from repro.core.prediction import PredictionResult
from repro.io.tables import format_table


def render_density_surface(
    surface: DensitySurface,
    times: "Sequence[float] | None" = None,
    title: "str | None" = None,
) -> str:
    """Render a density surface with one row per time and one column per distance."""
    if times is None:
        times = list(surface.times)
    rows = []
    for time in times:
        row: dict[str, object] = {"t (h)": float(time)}
        profile = surface.profile(float(time))
        for distance, value in zip(surface.distances, profile):
            row[f"x={distance:g}"] = float(value)
        rows.append(row)
    return format_table(rows, title=title)


def render_figure_series(
    series: Mapping[str, Mapping[int, float]],
    x_label: str = "distance",
    title: "str | None" = None,
) -> str:
    """Render a {line-name: {x: y}} mapping (e.g. Figure 2) as a table."""
    all_x = sorted({x for line in series.values() for x in line})
    rows = []
    for x in all_x:
        row: dict[str, object] = {x_label: x}
        for name, line in series.items():
            row[name] = float(line.get(x, 0.0))
        rows.append(row)
    return format_table(rows, title=title)


def render_prediction_comparison(result: PredictionResult, title: "str | None" = None) -> str:
    """Render predicted vs actual densities side by side (Figure 7 view)."""
    times = result.predicted.times
    observed = first_match_indices(result.actual.times, times) >= 0
    scored = first_match_indices(result.accuracy_table.times, times) >= 0
    rows = []
    for time, is_observed, is_scored in zip(times, observed, scored):
        time = float(time)
        if not is_observed:
            continue
        for distance in result.predicted.distances:
            distance = float(distance)
            rows.append(
                {
                    "t (h)": time,
                    "distance": distance,
                    "actual": result.actual.density(distance, time),
                    "predicted": result.predicted.density(distance, time),
                    "accuracy": (
                        result.accuracy_table.accuracy(distance, time)
                        if is_scored
                        else float("nan")
                    ),
                }
            )
    lines = [format_table(rows, title=title)]
    lines.append(f"Overall average prediction accuracy: {result.overall_accuracy * 100:.2f}%")
    return "\n".join(lines)


def render_growth_rate_comparison(fig6_result: Mapping[str, object]) -> str:
    """Render the paper vs calibrated growth-rate curves (Figure 6 view)."""
    times = np.asarray(fig6_result["times"], dtype=float)
    paper = np.asarray(fig6_result["paper_rate"], dtype=float)
    calibrated = np.asarray(fig6_result["calibrated_rate"], dtype=float)
    rows = []
    for i in range(0, times.size, max(1, times.size // 12)):
        rows.append(
            {
                "t (h)": float(times[i]),
                "paper r(t)": float(paper[i]),
                "calibrated r(t)": float(calibrated[i]),
            }
        )
    title = (
        "Growth rate r(t): paper Eq. 7 vs calibrated "
        f"(calibrated params: {fig6_result['calibrated_parameters']})"
    )
    return format_table(rows, title=title)
