"""Head-to-head model comparison: one corpus, several models, one table.

The paper's headline claim is the DL model beating its baselines on
hour-2..6 prediction accuracy (Tables I / II show the DL model; the
ablation compares it against the temporal-only models).
:func:`compare_models` reproduces that comparison for any corpus and any
set of registered models: every model fits and scores the same stories on
the same evaluation cells, and the result renders as a Table-II-style
accuracy table -- one row per model, the mean overall accuracy, and the
per-story accuracies side by side.  ``repro compare`` is the CLI wrapper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.cascade.density import DensitySurface
from repro.core.config import ModelSpec, SolverConfig
from repro.core.prediction import PredictionResult
from repro.models.registry import get_model


@dataclass
class ModelComparison:
    """Per-model, per-story results of one head-to-head comparison.

    Attributes
    ----------
    results:
        ``model name -> story name -> PredictionResult`` for every story
        the model scored.
    failures:
        ``model name -> story name -> error message`` for stories a model
        could not fit or score (e.g. the Linear Influence model on a
        two-hour training window); failures never abort the comparison.
    """

    results: "dict[str, dict[str, PredictionResult]]" = field(default_factory=dict)
    failures: "dict[str, dict[str, str]]" = field(default_factory=dict)

    @property
    def model_names(self) -> tuple[str, ...]:
        """Models in the comparison, in the order they were requested."""
        return tuple(self.results)

    @property
    def story_names(self) -> tuple[str, ...]:
        """Every story scored by at least one model."""
        seen: "dict[str, None]" = {}
        for per_story in self.results.values():
            for name in per_story:
                seen.setdefault(name)
        return tuple(seen)

    def overall_accuracy(self, model: str) -> float:
        """Mean of the model's per-story overall accuracies."""
        per_story = self.results[model]
        if not per_story:
            raise ValueError(f"model {model!r} scored no stories")
        return float(
            np.mean([result.overall_accuracy for result in per_story.values()])
        )

    def summary_rows(self) -> "list[dict]":
        """One row per model, best overall accuracy first (Table-II style)."""

        def sort_key(model: str) -> float:
            return self.overall_accuracy(model) if self.results[model] else -1.0

        rows = []
        for model in sorted(self.results, key=sort_key, reverse=True):
            per_story = self.results[model]
            row: dict = {"model": model}
            row["overall_accuracy"] = (
                self.overall_accuracy(model) if per_story else float("nan")
            )
            for story in self.story_names:
                result = per_story.get(story)
                row[story] = result.overall_accuracy if result is not None else None
            rows.append(row)
        return rows

    def to_json_dict(self) -> dict:
        """Machine-readable comparison (``repro compare --json``)."""
        payload: dict = {"models": {}, "failures": self.failures}
        for model, per_story in self.results.items():
            payload["models"][model] = {
                "overall_accuracy": (
                    self.overall_accuracy(model) if per_story else None
                ),
                "stories": {
                    story: {
                        "overall_accuracy": result.overall_accuracy,
                        "parameters": result.parameters.to_json_dict(),
                    }
                    for story, result in per_story.items()
                },
            }
        return payload


def compare_models(
    surfaces: "Mapping[str, DensitySurface]",
    models: Sequence[str] = ("dl", "logistic", "sis"),
    training_times: "Sequence[float] | None" = None,
    evaluation_times: "Sequence[float] | None" = None,
    solver: "SolverConfig | None" = None,
    specs: "Mapping[str, ModelSpec] | None" = None,
) -> ModelComparison:
    """Score one corpus under several registered models.

    Every model sees the same surfaces, training window and evaluation
    times (each model's corpus fast path is used, so the ``dl`` entry runs
    its batched spatial-group solve).  Per-story failures of one model are
    recorded in :attr:`ModelComparison.failures` without disturbing the
    other models.

    Parameters
    ----------
    surfaces:
        Story name -> observed density surface.
    models:
        Registry names to compare (unknown names raise
        :class:`~repro.core.errors.UnknownNameError`).
    training_times, evaluation_times:
        The shared windows; defaults mirror the predictors (first six
        observed hours / hours 2..6).
    solver:
        The solver config of every model without an explicit spec.
    specs:
        Optional per-model :class:`ModelSpec` overrides (e.g. explicit DL
        parameters).
    """
    if not surfaces:
        raise ValueError("at least one story surface is required")
    comparison = ModelComparison()
    for name in dict.fromkeys(models):  # dedup, preserve order
        model = get_model(name)
        if specs is not None and name in specs:
            spec = specs[name]
        else:
            spec = ModelSpec(
                name=name, solver=solver if solver is not None else SolverConfig()
            )
        comparison.results[name] = {}
        failures = comparison.failures.setdefault(name, {})
        fitter = model.batch_fitter(spec)
        for story, surface in surfaces.items():
            try:
                fitter.fit_story(story, surface, training_times)
            except Exception as error:  # noqa: BLE001 - per-story failure
                failures[story] = str(error)
        fitted = fitter.story_names
        if not fitted:
            continue
        try:
            comparison.results[name] = fitter.evaluate(
                {story: surfaces[story] for story in fitted},
                times=evaluation_times,
            )
        except Exception as error:  # noqa: BLE001 - model-wide failure
            for story in fitted:
                failures[story] = str(error)
        if not failures:
            del comparison.failures[name]
    return comparison
