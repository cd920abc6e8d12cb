"""Lock-step shard calibration: every story equals calibrating it alone.

A 7-story shard mixes DL-shaped and logistic-shaped stories, whose
refinement seeds fall into diffusion groups of unequal size, plus one story
whose observed surface holds a NaN, so no grid candidate has a finite loss.
``BatchPredictor.fit_shard`` (and the shard solve on the thread and process
executors) must fail that story alone and give each of the other six the
parameters, loss and calibration details of ``fit_story`` on it alone --
every counter included; only the refinement's wall-clock ``seconds`` differ.
"""

import asyncio
from collections import Counter

import numpy as np
import pytest

from repro.cascade.density import DensitySurface
from repro.core import calibration
from repro.core.config import ModelSpec
from repro.core.dl_model import DiffusiveLogisticModel
from repro.core.initial_density import InitialDensity
from repro.core.parameters import DLParameters, ExponentialDecayGrowthRate
from repro.core.prediction import BatchPredictor
from repro.corpus import WorkloadConfig, iter_workload
from repro.numerics.optimization import FitResult
from repro.service import ShardPayload, create_executor
from repro.service.sharding import CorpusSharder

TRAINING_TIMES = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
EVALUATION_TIMES = TRAINING_TIMES[1:]
POISONED = "poisoned"


def dl_surface(densities, diffusion, amplitude, decay, floor):
    parameters = DLParameters(
        diffusion, ExponentialDecayGrowthRate(amplitude, decay, floor), 25.0
    )
    model = DiffusiveLogisticModel(parameters, points_per_unit=8, max_step=0.05)
    predicted = model.predict(InitialDensity([1, 2, 3, 4, 5], densities), TRAINING_TIMES)
    return DensitySurface(
        distances=predicted.distances,
        times=predicted.times,
        values=predicted.values,
        group_sizes=np.ones(predicted.distances.size),
    )


def logistic_surface(seed):
    config = WorkloadConfig(
        stories=1, seed=seed, min_distances=5, max_distances=5, min_hours=6, max_hours=6
    )
    ((_, surface),) = iter_workload(config)
    return surface


@pytest.fixture(scope="module")
def surfaces():
    stories = {
        "dl-a": dl_surface([5.0, 2.0, 2.5, 1.5, 1.0], 0.01, 1.4, 1.5, 0.25),
        "dl-b": dl_surface([4.0, 3.0, 1.0, 0.8, 0.5], 0.05, 0.9, 0.7, 0.1),
        "logistic-a": logistic_surface(11),
        "dl-c": dl_surface([6.0, 1.0, 1.2, 0.9, 0.4], 0.002, 1.8, 1.1, 0.3),
        POISONED: dl_surface([5.0, 2.0, 2.5, 1.5, 1.0], 0.01, 1.4, 1.5, 0.25),
        "logistic-b": logistic_surface(12),
        "dl-d": dl_surface([3.0, 2.5, 2.0, 1.0, 0.6], 0.02, 1.2, 2.0, 0.05),
    }
    poisoned = stories[POISONED]
    values = poisoned.values.copy()
    values[2, 1] = np.nan
    stories[POISONED] = DensitySurface(
        poisoned.distances, poisoned.times, values, poisoned.group_sizes
    )
    return stories


@pytest.fixture(scope="module")
def solo(surfaces):
    """Each calibratable story fitted alone: (parameters, calibration details)."""
    reference = {}
    for name, surface in surfaces.items():
        predictor = BatchPredictor()
        if name == POISONED:
            with pytest.raises(RuntimeError, match="finite calibration loss"):
                predictor.fit_story(name, surface, TRAINING_TIMES)
            continue
        predictor.fit_story(name, surface, TRAINING_TIMES)
        reference[name] = (
            predictor.parameters_for(name),
            predictor.calibration_details_for(name),
        )
    return reference


def comparable(value):
    """``value`` with wall-clock ``seconds`` dropped and floats as bit patterns."""
    if isinstance(value, FitResult):
        value = vars(value)
    if isinstance(value, dict):
        return {key: comparable(item) for key, item in value.items() if key != "seconds"}
    if isinstance(value, (list, tuple)):
        return [comparable(item) for item in value]
    if isinstance(value, np.ndarray):
        return (value.shape, value.tobytes())
    if isinstance(value, float):
        return value.hex()
    return value


def assert_equal_to_solo(name, parameters, details, solo):
    expected_parameters, expected_details = solo[name]
    assert parameters == expected_parameters, name
    assert comparable(details) == comparable(expected_details), name


def test_seed_diffusion_groups_are_unequal(solo):
    # The case the per-column stacked solve exists for: the shard's starts
    # give the diffusion rates different numbers of columns.
    seeds = Counter(
        rate
        for _, details in solo.values()
        for rate in details["details"]["refinement"]["seed_diffusions"]
    )
    assert len(set(seeds.values())) > 1


def test_fit_shard_equals_fitting_each_story_alone(surfaces, solo, monkeypatch):
    solves = []
    solve = calibration.solve_dl_batch_states

    def counting(parameter_sets, *args, **kwargs):
        solves.append(len(parameter_sets))
        return solve(parameter_sets, *args, **kwargs)

    monkeypatch.setattr(calibration, "solve_dl_batch_states", counting)
    predictor = BatchPredictor()
    shard = predictor.fit_shard(surfaces, TRAINING_TIMES)

    assert list(shard.failures) == [POISONED]
    assert isinstance(shard.failures[POISONED], RuntimeError)
    assert set(predictor.story_names) == set(solo)
    for name in solo:
        assert_equal_to_solo(
            name,
            predictor.parameters_for(name),
            predictor.calibration_details_for(name),
            solo,
        )
    # One grid solve per story, then one lock-step refinement: as many
    # solves as the story with the most residual batches needs.
    batches = [
        details["details"]["refinement"]["residual_batches"] for _, details in solo.values()
    ]
    assert len(solves) == len(surfaces) + max(batches)
    assert sum(batches) > max(batches)
    # The refinement is timed once per shard, not once per story.
    refine = [phase for phase in shard.phases if phase.name == "refine"]
    assert len(refine) == 1 and set(refine[0].stories) == set(solo)
    assert sorted(p.stories[0] for p in shard.phases if p.name == "grid") == sorted(surfaces)


def test_story_failing_in_the_refinement_fails_alone(surfaces, solo, monkeypatch):
    # A residual solve that raises for one story's columns fails the
    # lock-step call; each story is then refined alone, and only the one
    # that fails on its own fails.
    doomed = surfaces["dl-b"].values[0]
    solve = calibration.solve_dl_batch_states

    def failing(parameter_sets, initial_densities, *args, **kwargs):
        phis = initial_densities if isinstance(initial_densities, list) else [initial_densities]
        if any(np.array_equal(phi.densities, doomed) for phi in phis):
            if len(parameter_sets) < 320:  # the grid is not the target
                raise FloatingPointError("synthetic refinement failure")
        return solve(parameter_sets, initial_densities, *args, **kwargs)

    monkeypatch.setattr(calibration, "solve_dl_batch_states", failing)
    predictor = BatchPredictor()
    shard = predictor.fit_shard(surfaces, TRAINING_TIMES)
    assert set(shard.failures) == {POISONED, "dl-b"}
    assert isinstance(shard.failures["dl-b"], FloatingPointError)
    for name in set(solo) - {"dl-b"}:
        assert_equal_to_solo(
            name,
            predictor.parameters_for(name),
            predictor.calibration_details_for(name),
            solo,
        )


@pytest.mark.parametrize("executor", ["thread", "process"])
def test_shard_solve_equals_fitting_each_story_alone(surfaces, solo, executor):
    (shard,) = CorpusSharder(max_shard_size=len(surfaces)).shard(
        surfaces, TRAINING_TIMES, EVALUATION_TIMES
    )
    payload = ShardPayload(key=shard.key, spec=ModelSpec(), surfaces=dict(shard.surfaces))
    backend = create_executor(executor, max_workers=1)
    backend.start()
    try:
        _, report = asyncio.run(backend.solve(payload))
    finally:
        backend.shutdown()
    outcomes = report.outcomes
    assert isinstance(outcomes[POISONED], RuntimeError)
    for name in solo:
        result = outcomes[name]
        assert_equal_to_solo(
            name, result.parameters, result.diagnostics["calibration"], solo
        )

