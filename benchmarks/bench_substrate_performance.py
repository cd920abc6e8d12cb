"""Substrate performance benchmarks.

Not tied to a paper artifact: these time the building blocks that every
experiment depends on, so regressions in the simulator, the BFS distance
computation, the density extraction or the PDE solver are caught by the
benchmark harness rather than showing up as mysteriously slow experiments.

Besides the pytest-benchmark fixtures, this module doubles as a script that
emits machine-readable JSON timings of the batched solver engine against the
sequential path, so the performance trajectory can be tracked across PRs::

    PYTHONPATH=src python benchmarks/bench_substrate_performance.py --json out.json

The JSON reports sequential vs batched wall time, the speedup, and the
maximum parameter/solution deltas (the batched path must win on time *at
equal accuracy*, not by computing something different).  Three further
dimensions cover the PR-2/PR-3 machinery:

* ``operator`` -- per-step cost of one Crank-Nicolson solve on a fine grid
  (n = 4000) under each operator factorization mode (``dense`` /
  ``banded``), with the maximum state delta of ``banded`` against the dense
  reference.
* ``calibration.shard`` -- a 7-story calibrating shard through
  ``BatchPredictor.fit_shard`` (lock-step LM refinement) vs 7
  ``fit_story`` runs: wall times, residual-batch counts, and
  ``max_parameter_delta_vs_story``, which must stay 0.
* ``refine`` -- wall time of the calibration refinement stage with batched
  multi-start evaluation vs the sequential per-candidate reference, and the
  LM iterations of one logistic-shaped story whose fit ends with a
  parameter on its bound (``refine.bound_pinned``).
* ``service`` -- corpus throughput (stories/sec) of the async prediction
  service vs the sequential per-story predictor loop and the synchronous
  ``BatchPredictor``, at corpus sizes 10/100 (plus 1000 without ``--quick``),
  with the maximum per-story result delta against the synchronous batch
  reference.  The ``service.logistic`` subsection runs the same corpus
  through the model registry's ``logistic`` baseline, asserting the
  model-agnostic serving path matches its direct fit/evaluate loop.  The
  ``service.scaling`` subsection compares the thread and process execution
  backends at 1/2/4/ncpu workers on a calibration-heavy corpus: the process
  backend must stay bit-identical to the thread reference and its 4-vs-1
  worker speedup is gated as a core-count-normalized scaling efficiency.
  The ``service.cluster`` subsection scores the same explicit-parameter
  corpus through the ``cluster`` backend against fleets of 1 and 2
  localhost worker daemons: results must stay bit-identical to the thread
  executor (``max_result_delta_cluster_vs_thread``, gated at 1e-12) and
  the routing overhead is ceiling-gated as ``efficiency_vs_thread``.
* ``daemon`` -- submission round-trip of the JSON-lines daemon (submit over
  a Unix socket, stream every per-story result back) vs the same corpus
  scored through the in-process service, with the result delta against the
  synchronous batch reference (the protocol must add transport, never
  numerics).
* ``corpus.io`` -- the columnar corpus store vs the inline manifest path at
  1k (and, without ``--quick``, 10k) generated stories: open+resolve wall
  time (the store's lazy handles vs parsing every surface out of JSON),
  exact per-story result parity of the two paths, and a bounded-RSS check
  in fresh subprocesses (scoring from the store must fit in a baseline +
  64 MB + corpus-bytes/4 budget -- the "never holds all surfaces in
  memory" criterion).
* ``scoring`` -- per-story cost of ``build_accuracy_table`` (Eq. 8 over
  every scored cell) on the service corpus, against a scalar reference
  kept here that scores one cell at a time through two ``isclose`` scans
  per surface; ``max_accuracy_delta_vs_scalar`` must stay 0.
* ``convergence`` (opt-in via ``--convergence``) -- the spatial-resolution
  study: predicted accuracy and solve time vs ``points_per_unit`` on the
  banded operator stack, against the finest grid as reference.

``benchmarks/check_regression.py`` consumes this JSON and fails CI when a
speedup ratio regresses past 1.3x of the checked-in baseline or any
equivalence delta exceeds its tolerance.
"""

import argparse
import asyncio
import json
import os
import sys
import tempfile
import time

import numpy as np
import pytest

from repro.cascade.density import DensitySurface, compute_density_surface
from repro.cascade.digg import SyntheticDiggConfig, build_synthetic_digg_dataset
from repro.cascade.frontpage import FrontPageModel
from repro.cascade.simulator import CascadeConfig, CascadeSimulator
from repro.core.calibration import calibrate_dl_model
from repro.core.dl_model import DiffusiveLogisticModel, solve_dl_batch
from repro.core.initial_density import InitialDensity
from repro.core.parameters import (
    DLParameters,
    ExponentialDecayGrowthRate,
    PAPER_S1_HOP_PARAMETERS,
)
from repro.core.accuracy import build_accuracy_table, prediction_accuracy
from repro.core.config import ModelSpec, SolverConfig
from repro.core.prediction import BatchPredictor, DiffusionPredictor
from repro.corpus import WorkloadConfig, iter_workload
from repro.models import get_model
from repro.service import (
    DaemonClient,
    PredictionDaemon,
    PredictionService,
    score_corpus_sync,
)
from repro.network.distance import friendship_hop_distances
from repro.network.generators import DiggLikeGraphConfig, generate_digg_like_graph
from repro.numerics import operator_cache
from repro.numerics.backends import InternalBackend
from repro.numerics.grid import UniformGrid
from repro.numerics.operator_cache import clear_operator_caches
from repro.numerics.pde_solver import ReactionDiffusionProblem, ReactionDiffusionSolver


@pytest.fixture(scope="module")
def perf_graph():
    config = DiggLikeGraphConfig(
        num_users=2000,
        initial_core=8,
        follows_per_user=2,
        reciprocity_probability=0.3,
        triadic_closure_probability=0.15,
        preferential_fraction=0.45,
        recent_window=50,
        seed=99,
    )
    return generate_digg_like_graph(config)


def test_perf_graph_generation(benchmark):
    config = DiggLikeGraphConfig(
        num_users=1500,
        follows_per_user=2,
        preferential_fraction=0.45,
        recent_window=40,
        seed=5,
    )
    graph = benchmark(generate_digg_like_graph, config)
    assert graph.num_users == 1500


def test_perf_cascade_simulation(benchmark, perf_graph):
    config = CascadeConfig(
        follow_hazard=0.05,
        reinforcement=0.4,
        interest_decay=0.3,
        front_page=FrontPageModel(promotion_threshold=3, discovery_rate=40.0, staleness_decay=0.3),
        horizon_hours=50.0,
        time_step=0.25,
    )
    simulator = CascadeSimulator(perf_graph, config)
    hub = max(perf_graph.users(), key=perf_graph.out_degree)

    def run():
        return simulator.simulate(0, hub, np.random.default_rng(1))

    story = benchmark(run)
    assert story.num_votes > 10


def test_perf_hop_distances(benchmark, perf_graph):
    hub = max(perf_graph.users(), key=perf_graph.out_degree)
    distances = benchmark(friendship_hop_distances, perf_graph, hub)
    assert len(distances) > 1000


def test_perf_density_extraction(benchmark, perf_graph):
    config = CascadeConfig(
        follow_hazard=0.05,
        reinforcement=0.4,
        interest_decay=0.3,
        front_page=FrontPageModel(promotion_threshold=3, discovery_rate=40.0, staleness_decay=0.3),
        horizon_hours=50.0,
        time_step=0.25,
    )
    hub = max(perf_graph.users(), key=perf_graph.out_degree)
    story = CascadeSimulator(perf_graph, config).simulate(0, hub, np.random.default_rng(2))
    distances = friendship_hop_distances(perf_graph, hub)
    times = np.arange(1.0, 51.0)
    surface = benchmark(
        compute_density_surface, story, distances, range(1, 6), times
    )
    assert surface.values.shape == (50, 5)


def test_perf_corpus_build(benchmark):
    """Building a small corpus end to end (graph + 4 representative + 10 background cascades).

    A configuration not used anywhere else is chosen so the timing measures a
    genuine build rather than a hit in the library's corpus cache, and the
    build is run exactly once (pedantic) since repeated calls would be cached.
    """
    config = SyntheticDiggConfig(num_users=800, num_background_stories=10, seed=77)
    corpus = benchmark.pedantic(
        build_synthetic_digg_dataset, args=(config,), rounds=1, iterations=1
    )
    assert corpus.dataset.num_stories == 14


def test_perf_dl_solve(benchmark):
    phi = InitialDensity([1, 2, 3, 4, 5], [5.0, 2.0, 2.5, 1.5, 1.0])
    model = DiffusiveLogisticModel(PAPER_S1_HOP_PARAMETERS, points_per_unit=20, max_step=0.02)
    times = [float(t) for t in range(1, 7)]
    solution = benchmark(model.solve, phi, times)
    assert solution.times.size == 6


def test_perf_dl_solve_batch(benchmark):
    """32 parameter candidates advanced as columns of one batched solve."""
    phi = InitialDensity([1, 2, 3, 4, 5], [5.0, 2.0, 2.5, 1.5, 1.0])
    candidates = [
        PAPER_S1_HOP_PARAMETERS.with_diffusion_rate(0.005 + 0.003 * j) for j in range(32)
    ]
    times = [float(t) for t in range(1, 7)]
    solutions = benchmark(
        solve_dl_batch, candidates, phi, times, points_per_unit=20, max_step=0.02
    )
    assert len(solutions) == 32


# ---------------------------------------------------------------------- #
# JSON script mode: sequential vs batched solver engine
# ---------------------------------------------------------------------- #
def _synthetic_calibration_surface(hours: int = 8) -> DensitySurface:
    """A noise-free Digg-like density surface generated by the DL model."""
    phi = InitialDensity([1, 2, 3, 4, 5], [5.0, 2.0, 2.5, 1.5, 1.0])
    parameters = DLParameters(
        diffusion_rate=0.01,
        growth_rate=ExponentialDecayGrowthRate(1.4, 1.5, 0.25),
        carrying_capacity=25.0,
    )
    model = DiffusiveLogisticModel(parameters, points_per_unit=12, max_step=0.02)
    surface = model.predict(phi, [float(t) for t in range(1, hours + 1)])
    return DensitySurface(
        distances=surface.distances,
        times=surface.times,
        values=surface.values,
        group_sizes=np.ones(surface.distances.size),
        metadata={"source": "substrate_benchmark"},
    )


def solver_error_vs_fine_reference(phi: InitialDensity) -> float:
    """Largest state error of a calibration-resolution solve against a fine-dt one.

    The paper's s1 hop parameters from ``phi``, at the resolution every
    calibration solves at (8 points per unit, ``max_step`` 0.05), against
    the same grid at ``max_step`` 0.003125, over t = 1..6.  The
    Crank-Nicolson scheme is second order, so this is its time
    discretisation error (about 5.7e-4); it is ceiling-gated, so a step that
    loses accuracy fails however few iterations it takes.
    """
    times = [float(t) for t in range(1, 7)]

    def states(max_step: float) -> np.ndarray:
        model = DiffusiveLogisticModel(
            PAPER_S1_HOP_PARAMETERS, points_per_unit=8, max_step=max_step
        )
        return model.solve(phi, times).pde_solution.states

    return float(np.max(np.abs(states(0.05) - states(0.003125))))


def run_bound_pinned_refinement() -> dict:
    """LM refinement of one logistic-shaped story whose fit ends on a bound.

    The story's best growth-rate floor is negative, so its fit ends with
    ``floor`` on its lower bound 0.  A refinement that clips a full-system
    step crawls to its 40-iteration cap here, and the active-set step alone
    took 17 iterations; with bound-projected steps on (amplitude, ln decay,
    floor) it converges in 8.  An iteration count does not depend on the
    machine, so the gate caps it with an absolute ceiling.  The story is the
    same in quick and full mode: 6 hop groups over 6 hours, calibrated at
    the calibration defaults.
    """
    config = WorkloadConfig(
        stories=1, seed=1001, min_distances=6, max_distances=6, min_hours=6, max_hours=6
    )
    ((_, surface),) = iter_workload(config)
    refinement = calibrate_dl_model(surface).details["refinement"]
    return {
        key: refinement[key]
        for key in ("iterations", "n_evaluations", "parameters_at_bound")
    }


def _calibration_shard() -> dict:
    """A calibrating shard: DL-shaped and logistic-shaped stories on one interval.

    Four DL-generated stories (with different phi) and three
    logistic-shaped synthetic ones, all 5 hop groups over 6 hours, so one
    lock-step refinement serves the whole shard and its starts spread over
    diffusion rates unevenly.
    """
    shard = _service_corpus(4)
    for seed in range(3):
        config = WorkloadConfig(
            stories=1, seed=2000 + seed, min_distances=5, max_distances=5,
            min_hours=6, max_hours=6,
        )
        ((_, surface),) = iter_workload(config)
        shard[f"logistic{seed}"] = surface
    return shard


def run_shard_calibration_benchmark() -> dict:
    """A 7-story calibrating shard through ``fit_shard`` vs 7 ``fit_story`` runs.

    ``BatchPredictor.fit_shard`` refines the shard's stories in lock-step
    (one Jacobian solve and one damping-ladder solve per iteration for all
    of them); every story must still get exactly the parameters of
    ``fit_story`` on it alone, so ``max_parameter_delta_vs_story`` is gated
    at 0.  The wall times and the refinement's residual-batch counts show
    what the lock-step saves.  The same in quick and full mode.
    """
    shard = _calibration_shard()
    times = list(SERVICE_TRAINING_TIMES)

    def story_by_story() -> BatchPredictor:
        predictor = BatchPredictor()
        for name, surface in shard.items():
            predictor.fit_story(name, surface, times)
        return predictor

    def lockstep() -> BatchPredictor:
        predictor = BatchPredictor()
        failures = predictor.fit_shard(shard, times).failures
        assert not failures, failures
        return predictor

    story_seconds, alone = best_of(story_by_story)
    shard_seconds, together = best_of(lockstep)
    batches = [
        alone.calibration_details_for(name)["details"]["refinement"]["residual_batches"]
        for name in shard
    ]
    return {
        "stories": len(shard),
        "story_seconds": story_seconds,
        "shard_seconds": shard_seconds,
        "speedup_vs_story": story_seconds / shard_seconds,
        "story_residual_batches": sum(batches),
        "shard_residual_batches": max(batches),
        "max_parameter_delta_vs_story": max(
            _parameter_delta(alone.parameters_for(name), together.parameters_for(name))
            for name in shard
        ),
    }


def _parameter_delta(a, b) -> float:
    """Largest absolute difference between two calibrated ``DLParameters``."""
    return max(
        abs(a.diffusion_rate - b.diffusion_rate),
        abs(a.growth_rate.amplitude - b.growth_rate.amplitude),
        abs(a.growth_rate.decay - b.growth_rate.decay),
        abs(a.growth_rate.floor - b.growth_rate.floor),
        abs(a.carrying_capacity - b.carrying_capacity),
    )


def run_operator_mode_benchmark(num_points: int = 4000, quick: bool = False) -> dict:
    """Per-step cost of the Crank-Nicolson operator modes on a fine grid.

    Solves one DL-style logistic problem on ``num_points`` nodes with each
    factorization mode, timing the stepping loop after a warm-up solve has
    paid the (cached) factorization, and reports the per-step time plus the
    maximum state delta of each mode against the dense-LU reference.
    """
    steps = 5 if quick else 20
    max_step = 0.02
    diffusion = 0.01
    grid = UniformGrid(1.0, 5.0, num_points)
    problem = ReactionDiffusionProblem(
        grid=grid,
        initial_condition=lambda x: 5.0 * np.exp(-((x - 1.0) ** 2)),
        diffusion=diffusion,
        reaction=lambda u, x, t: 0.8 * u * (1.0 - u / 25.0),
        start_time=1.0,
    )
    horizon = 1.0 + steps * max_step

    report = {"num_points": num_points, "max_step": max_step, "steps": steps}
    dense_states = None
    for mode in ("dense", "banded"):
        clear_operator_caches()
        solver = ReactionDiffusionSolver(
            max_step=max_step, backend=InternalBackend(operator_mode=mode)
        )
        solver.solve(problem, [1.0 + max_step])  # pay the factorization up front
        start = time.perf_counter()
        solution = solver.solve(problem, [horizon])
        elapsed = time.perf_counter() - start
        steps_taken = int(solution.metadata["steps"])
        factor = operator_cache.crank_nicolson_operator(
            num_points, grid.spacing, max_step, diffusion, mode
        )
        entry = {
            "seconds": elapsed,
            "steps": steps_taken,
            "per_step_seconds": elapsed / steps_taken,
            "factor_nbytes": int(factor.nbytes),
        }
        if mode == "dense":
            dense_states = solution.states
            dense_per_step = entry["per_step_seconds"]
        else:
            entry["speedup_vs_dense"] = dense_per_step / entry["per_step_seconds"]
            entry["max_state_delta_vs_dense"] = float(
                np.max(np.abs(solution.states - dense_states))
            )
        report[mode] = entry
    clear_operator_caches()  # drop the 128 MB dense factor before returning
    return report


def best_of(run, repeats: int = 2) -> "tuple[float, object]":
    """Best wall time (and that run's result) over ``repeats`` cold runs.

    Every repetition starts from cleared operator caches so all paths pay
    factorization equally; the minimum is reported because single-shot
    timings are too noisy for the regression gate's 1.3x band on loaded or
    single-core machines.
    """
    best_seconds, result = float("inf"), None
    for _ in range(repeats):
        clear_operator_caches()
        start = time.perf_counter()
        candidate = run()
        elapsed = time.perf_counter() - start
        if elapsed < best_seconds:
            best_seconds, result = elapsed, candidate
    return best_seconds, result


SERVICE_TRAINING_TIMES = tuple(float(t) for t in range(1, 7))
SERVICE_EVALUATION_TIMES = SERVICE_TRAINING_TIMES[1:]
SERVICE_SOLVER = dict(points_per_unit=12, max_step=0.02)
SERVICE_SOLVER_CONFIG = SolverConfig(**SERVICE_SOLVER)


def _service_corpus(size: int) -> dict:
    """``size`` noise-free DL-generated story surfaces sharing one interval.

    All surfaces are produced by one batched solve (cheap even at 1000
    columns) with per-story phi shapes, the multi-story workload the service
    layer shards and drains.
    """
    rng = np.random.default_rng(20120612)
    phis = [
        InitialDensity([1, 2, 3, 4, 5], list(2.0 + 3.0 * rng.random(5)))
        for _ in range(size)
    ]
    solutions = solve_dl_batch(
        PAPER_S1_HOP_PARAMETERS, phis, list(SERVICE_TRAINING_TIMES), **SERVICE_SOLVER
    )
    corpus = {}
    for index, solution in enumerate(solutions):
        surface = solution.to_surface()
        corpus[f"story{index:04d}"] = DensitySurface(
            distances=surface.distances,
            times=surface.times,
            values=surface.values,
            group_sizes=np.ones(surface.distances.size),
            metadata={"source": "substrate_benchmark_service"},
        )
    return corpus


def run_service_benchmark(quick: bool = False) -> dict:
    """Corpus throughput of the async service vs the synchronous paths.

    For each corpus size, three runs score the *same* stories with the
    *same* (explicit) parameters, so the timing isolates the serving
    machinery rather than calibration:

    * ``sequential`` -- one :class:`DiffusionPredictor` fit/evaluate per
      story, the pre-batching reference loop.
    * ``batch`` -- one synchronous :class:`BatchPredictor` over the whole
      corpus, the correctness reference the service must match bit for bit.
    * ``service`` -- :func:`repro.service.score_corpus_sync`: sharded async
      job queue with a bounded thread worker pool.

    The headline ``speedup`` is service-vs-sequential at corpus size 100
    (the acceptance criterion); ``max_result_delta_vs_batch`` is the largest
    per-story difference in predicted densities against the batch reference.
    """
    sizes = (10, 100) if quick else (10, 100, 1000)
    parameters = PAPER_S1_HOP_PARAMETERS
    training = list(SERVICE_TRAINING_TIMES)
    evaluation = list(SERVICE_EVALUATION_TIMES)
    full_corpus = _service_corpus(max(sizes))
    names = list(full_corpus)

    report = {"sizes": {}, "corpus_size": 100 if 100 in sizes else max(sizes)}
    max_delta_vs_batch = 0.0
    for size in sizes:
        corpus = {name: full_corpus[name] for name in names[:size]}
        # The 1000-story corpus is timed once (its sequential loop alone is
        # ~30s); the gated headline sizes get best-of-3.
        repeats = 3 if size <= 100 else 1

        def run_sequential():
            results = {}
            for name, surface in corpus.items():
                predictor = DiffusionPredictor(
                    parameters=parameters, solver=SERVICE_SOLVER_CONFIG
                ).fit(surface, training_times=training)
                results[name] = predictor.evaluate(surface, times=evaluation)
            return results

        def run_batch():
            return (
                BatchPredictor(parameters=parameters, solver=SERVICE_SOLVER_CONFIG)
                .fit(corpus, training_times=training)
                .evaluate(corpus, times=evaluation)
            )

        def run_service():
            return score_corpus_sync(
                corpus,
                training_times=training,
                evaluation_times=evaluation,
                parameters=parameters,
                solver=SERVICE_SOLVER_CONFIG,
            )

        sequential_seconds, sequential = best_of(run_sequential, repeats)
        batch_seconds, batch_results = best_of(run_batch, repeats)
        service_seconds, service_results = best_of(run_service, repeats)

        delta_vs_batch = max(
            float(
                np.max(
                    np.abs(
                        service_results[name].predicted.values
                        - batch_results[name].predicted.values
                    )
                )
            )
            for name in corpus
        )
        delta_vs_sequential = max(
            float(
                np.max(
                    np.abs(
                        service_results[name].predicted.values
                        - sequential[name].predicted.values
                    )
                )
            )
            for name in corpus
        )
        max_delta_vs_batch = max(max_delta_vs_batch, delta_vs_batch)
        entry = {
            "stories": size,
            "sequential_seconds": sequential_seconds,
            "batch_seconds": batch_seconds,
            "service_seconds": service_seconds,
            "stories_per_second_sequential": size / sequential_seconds,
            "stories_per_second_service": size / service_seconds,
            "speedup_vs_sequential": sequential_seconds / service_seconds,
            "speedup_vs_batch": batch_seconds / service_seconds,
            "max_result_delta_vs_batch": delta_vs_batch,
            "max_result_delta_vs_sequential": delta_vs_sequential,
        }
        report["sizes"][str(size)] = entry
        if size == report["corpus_size"]:
            report["speedup"] = entry["speedup_vs_sequential"]
            report["stories_per_second"] = entry["stories_per_second_service"]
    report["max_result_delta_vs_batch"] = max_delta_vs_batch
    return report


def _scalar_lookup(axis: np.ndarray, label: float) -> int:
    """The first ``isclose`` match on ``axis``: the scalar scorer's lookup."""
    return int(np.nonzero(np.isclose(axis, label))[0][0])


def _scalar_accuracies(
    predicted: DensitySurface, actual: DensitySurface, times, distances
) -> np.ndarray:
    """Eq. 8 one cell at a time, each value found by its own axis scans.

    The reference ``build_accuracy_table`` must match bit for bit: it is the
    cell-by-cell loop the array scorer replaced.
    """
    accuracies = np.zeros((len(distances), len(times)))
    for i, distance in enumerate(distances):
        for j, time in enumerate(times):
            p = predicted.values[
                _scalar_lookup(predicted.times, time), _scalar_lookup(predicted.distances, distance)
            ]
            a = actual.values[
                _scalar_lookup(actual.times, time), _scalar_lookup(actual.distances, distance)
            ]
            accuracies[i, j] = prediction_accuracy(float(p), float(a))
    return accuracies


def run_scoring_benchmark(quick: bool = False) -> dict:
    """Per-story cost of Eq. 8 scoring, and its delta against the scalar loop.

    Scores a service corpus's (20 stories with ``quick``, else 100)
    ``BatchPredictor`` predictions again with
    :func:`build_accuracy_table` (best of 5) and with
    :func:`_scalar_accuracies` (best of 2).  ``max_accuracy_delta_vs_scalar``
    is the largest cell difference and is gated at 0.
    """
    stories = 20 if quick else 100
    corpus = _service_corpus(stories)
    evaluation = list(SERVICE_EVALUATION_TIMES)
    results = (
        BatchPredictor(parameters=PAPER_S1_HOP_PARAMETERS, solver=SERVICE_SOLVER_CONFIG)
        .fit(corpus, training_times=list(SERVICE_TRAINING_TIMES))
        .evaluate(corpus, times=evaluation)
    )
    pairs = [(result.predicted, result.actual) for result in results.results.values()]
    distances = [float(d) for d in pairs[0][1].distances]

    array_seconds, tables = best_of(
        lambda: [
            build_accuracy_table(p, a, times=evaluation, distances=distances).accuracies
            for p, a in pairs
        ],
        5,
    )
    scalar_seconds, reference = best_of(
        lambda: [_scalar_accuracies(p, a, evaluation, distances) for p, a in pairs]
    )
    return {
        "stories": stories,
        "cells_per_story": len(distances) * len(evaluation),
        "seconds_per_story": array_seconds / stories,
        "scalar_seconds_per_story": scalar_seconds / stories,
        "speedup_vs_scalar": scalar_seconds / array_seconds,
        "max_accuracy_delta_vs_scalar": max(
            float(np.max(np.abs(table - expected))) for table, expected in zip(tables, reference)
        ),
    }


def run_service_model_benchmark(model: str = "logistic", quick: bool = False) -> dict:
    """A registry baseline through the service vs its direct synchronous path.

    The model-agnostic serving criterion: scoring a corpus with a non-DL
    registered model through the async service must (a) return results
    bit-identical to the model's direct ``fit`` + ``evaluate`` loop and
    (b) not be catastrophically slower than that loop (the baselines have
    no batched solve to amortize, so the service only adds scheduling --
    the floor in ``check_regression.py`` is deliberately loose).
    """
    size = 20 if quick else 50
    training = list(SERVICE_TRAINING_TIMES)
    evaluation = list(SERVICE_EVALUATION_TIMES)
    corpus = _service_corpus(size)
    spec = ModelSpec(name=model, solver=SolverConfig(**SERVICE_SOLVER))

    def run_direct():
        fitter = get_model(model).batch_fitter(spec)
        for name, surface in corpus.items():
            fitter.fit_story(name, surface, training)
        return fitter.evaluate(corpus, times=evaluation)

    def run_service():
        return score_corpus_sync(
            corpus,
            training_times=training,
            evaluation_times=evaluation,
            model=model,
            solver=SERVICE_SOLVER_CONFIG,
        )

    direct_seconds, direct_results = best_of(run_direct)
    service_seconds, service_results = best_of(run_service)
    max_delta = max(
        float(
            np.max(
                np.abs(
                    service_results[name].predicted.values
                    - direct_results[name].predicted.values
                )
            )
        )
        for name in corpus
    )
    return {
        "model": model,
        "stories": size,
        "direct_seconds": direct_seconds,
        "service_seconds": service_seconds,
        "speedup_vs_direct": direct_seconds / service_seconds,
        "max_result_delta_vs_direct": max_delta,
    }


#: Timed runs per (executor, workers) configuration of ``service.scaling``.
SCALING_REPEATS = 3


def run_service_scaling_benchmark(quick: bool = False) -> dict:
    """Worker scaling of the thread vs process execution backends.

    Scores one calibration-heavy corpus (no explicit parameters, so every
    story runs the full grid-then-refine DL calibration -- pure Python +
    small-matrix NumPy, the workload the GIL serializes) through the
    service for each (backend, workers) configuration.  ``max_shard_size=1``
    pins shard composition, so every configuration solves the *same* shards
    and the process backend's results can be checked bit-for-bit against
    the thread reference (``max_result_delta_process_vs_thread``, gated at
    1e-12).

    Each configuration is timed ``SCALING_REPEATS`` times and keeps its
    fastest run (``runs_seconds`` lists them all); every process run's
    results are checked against the reference.  A single timing was
    noisy enough on a 2-core box for one slow run to move the efficiency
    below its floor.

    The headline is ``process.speedup_4v1`` -- process-backend throughput
    at 4 workers over 1 worker.  Because CI runners differ in core count,
    the gated number is ``process.scaling_efficiency`` =
    ``speedup_4v1 / min(4, cpus)``: on a >=4-core machine the 0.625 floor
    in ``check_regression.py`` demands a >=2.5x speedup; on smaller boxes
    it degrades to "adding workers must not make things slower than the
    core count allows".
    """
    size = 4 if quick else 8
    training = list(SERVICE_TRAINING_TIMES)
    evaluation = list(SERVICE_EVALUATION_TIMES)
    corpus = _service_corpus(size)
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        cpus = os.cpu_count() or 1
    worker_counts = sorted({1, 2, 4, min(cpus, 16)})

    def run_config(executor: str, workers: int) -> "tuple[float, dict]":
        clear_operator_caches()
        start = time.perf_counter()
        results = score_corpus_sync(
            corpus,
            training_times=training,
            evaluation_times=evaluation,
            max_workers=workers,
            max_shard_size=1,
            executor=executor,
            solver=SERVICE_SOLVER_CONFIG,
        )
        return time.perf_counter() - start, results

    report = {
        "stories": size,
        "cpus": cpus,
        "max_shard_size": 1,
        "worker_counts": list(worker_counts),
        "thread": {"workers": {}},
        "process": {"workers": {}},
    }
    reference = None
    max_delta = 0.0
    for executor in ("thread", "process"):
        for workers in worker_counts:
            runs = []
            for _ in range(SCALING_REPEATS):
                seconds, results = run_config(executor, workers)
                runs.append(seconds)
                if reference is None:
                    reference = results
                elif executor == "process":
                    delta = max(
                        float(
                            np.max(
                                np.abs(
                                    results[name].predicted.values
                                    - reference[name].predicted.values
                                )
                            )
                        )
                        for name in corpus
                    )
                    max_delta = max(max_delta, delta)
            seconds = min(runs)
            report[executor]["workers"][str(workers)] = {
                "seconds": seconds,
                "stories_per_second": size / seconds,
                "runs_seconds": runs,
            }
    for executor in ("thread", "process"):
        timings = report[executor]["workers"]
        speedup = timings["1"]["seconds"] / timings["4"]["seconds"]
        report[executor]["speedup_4v1"] = speedup
        report[executor]["scaling_efficiency"] = speedup / min(4, cpus)
    report["max_result_delta_process_vs_thread"] = max_delta
    return report


def run_service_cluster_benchmark(quick: bool = False) -> dict:
    """Routing overhead and result parity of the cluster backend.

    The same explicit-parameter corpus is scored through the in-process
    thread executor (the reference) and through the ``cluster`` backend
    against fleets of 1 and 2 worker daemons served on localhost TCP in
    this process's event loop.  ``max_shard_size=1`` pins shard
    composition, so every configuration solves the same shards and the
    cluster results can be checked bit-for-bit against the thread
    reference (``max_result_delta_cluster_vs_thread``, gated at 1e-12 by
    ``check_regression.py``).

    The cluster adds pickling, base64 framing and a socket round-trip per
    shard on top of the thread path -- with the workers sharing the
    router's cores, it can only *cost* time here, so the gated number is
    a floor on ``efficiency_vs_thread`` (thread seconds / 2-worker fleet
    seconds): a ceiling on routing overhead, deliberately loose because
    the corpus is small and the overhead per shard is fixed.
    """
    size = 6 if quick else 12
    repeats = 2
    parameters = PAPER_S1_HOP_PARAMETERS
    training = list(SERVICE_TRAINING_TIMES)
    evaluation = list(SERVICE_EVALUATION_TIMES)
    corpus = _service_corpus(size)

    def run_thread():
        return score_corpus_sync(
            corpus,
            training_times=training,
            evaluation_times=evaluation,
            parameters=parameters,
            solver=SERVICE_SOLVER_CONFIG,
            max_workers=2,
            max_shard_size=1,
        )

    thread_seconds, thread_results = best_of(run_thread, repeats)

    async def cluster_run(fleet_size: int) -> "tuple[float, dict]":
        workers, tasks = [], []
        try:
            for _ in range(fleet_size):
                worker = PredictionDaemon(max_workers=2)
                tasks.append(
                    asyncio.ensure_future(worker.serve("tcp:127.0.0.1:0"))
                )
                while worker.listener is None or worker.listener.address.port in (
                    None,
                    0,
                ):
                    await asyncio.sleep(0.005)
                workers.append(worker)
            addresses = [str(worker.listener.address) for worker in workers]
            async with PredictionService(
                parameters=parameters,
                solver=SERVICE_SOLVER_CONFIG,
                max_workers=2,
                max_shard_size=1,
                executor="cluster",
                executor_options={"workers": addresses},
            ) as service:
                start = time.perf_counter()
                results = await service.score_corpus(corpus, training, evaluation)
                elapsed = time.perf_counter() - start
            return elapsed, results
        finally:
            for worker in workers:
                worker.stop_event.set()
            await asyncio.gather(*tasks, return_exceptions=True)

    report: dict = {
        "stories": size,
        "max_shard_size": 1,
        "thread_seconds": thread_seconds,
        "fleets": {},
    }
    max_delta = 0.0
    for fleet_size in (1, 2):
        best_seconds, best_results = float("inf"), None
        for _ in range(repeats):
            clear_operator_caches()
            elapsed, results = asyncio.run(cluster_run(fleet_size))
            if elapsed < best_seconds:
                best_seconds, best_results = elapsed, results
        delta = max(
            float(
                np.max(
                    np.abs(
                        best_results[name].predicted.values
                        - thread_results[name].predicted.values
                    )
                )
            )
            for name in corpus
        )
        max_delta = max(max_delta, delta)
        report["fleets"][str(fleet_size)] = {
            "workers": fleet_size,
            "seconds": best_seconds,
            "stories_per_second": size / best_seconds,
            "efficiency_vs_thread": thread_seconds / best_seconds,
            "max_result_delta_vs_thread": delta,
        }
    report["efficiency_vs_thread"] = report["fleets"]["2"]["efficiency_vs_thread"]
    report["routing_overhead_seconds"] = (
        report["fleets"]["2"]["seconds"] - thread_seconds
    )
    report["per_story_overhead_seconds"] = (
        report["routing_overhead_seconds"] / size
    )
    report["max_result_delta_cluster_vs_thread"] = max_delta
    return report


def _daemon_manifest(corpus: dict) -> dict:
    """Serialize a corpus of surfaces as an inline-story manifest document."""
    return {
        "hours": len(SERVICE_TRAINING_TIMES),
        "stories": [
            {
                "name": name,
                "distances": surface.distances.tolist(),
                "times": surface.times.tolist(),
                "values": surface.values.tolist(),
            }
            for name, surface in corpus.items()
        ],
    }


def run_tracing_benchmark(quick: bool = False) -> dict:
    """Zero-cost-when-disabled gate for the tracing instrumentation.

    Every hot-path instrumentation site guards on ``tracer.enabled``
    before building attribute dicts or spans, so a daemon without
    ``--trace`` pays one attribute check per site per story.  The gate
    multiplies the measured per-site cost of the no-op tracer by a
    conservative per-story site count and divides by the service's
    measured per-story solve time: ``noop_overhead_fraction`` must stay
    under 2% (CORRECTNESS_CHECKS in check_regression.py).  Deriving the
    fraction from the deterministic microbenchmark instead of an A/B of
    two full service runs keeps the gate far below timer noise -- the
    per-site check costs tens of nanoseconds against multi-millisecond
    story solves.  ``enabled_span_call_seconds`` (a live tracer's
    open+finish cost) is reported alongside for scale, ungated.
    """
    from repro.service.tracing import NOOP_TRACER, Tracer

    calls = 20_000 if quick else 200_000

    def per_call(tracer) -> float:
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            for _ in range(calls):
                # The exact hot-site pattern: guard, then open and finish.
                if tracer.enabled:
                    tracer.span("bench", attributes={"stories": 1}).finish()
            best = min(best, (time.perf_counter() - start) / calls)
        return best

    noop_call = per_call(NOOP_TRACER)
    enabled_call = per_call(Tracer(capacity=1024))

    corpus_size = 10 if quick else 50
    corpus = _service_corpus(corpus_size)
    service_seconds, _ = best_of(
        lambda: score_corpus_sync(
            corpus,
            training_times=list(SERVICE_TRAINING_TIMES),
            evaluation_times=list(SERVICE_EVALUATION_TIMES),
            parameters=PAPER_S1_HOP_PARAMETERS,
            solver=SERVICE_SOLVER_CONFIG,
        )
    )
    per_story = service_seconds / corpus_size
    # Upper bound on guarded sites one story passes through: story submit,
    # queue wait, shard solve, fit, per-story fit, two calibration phases,
    # evaluate, result emission -- nine, padded to ten.
    span_sites_per_story = 10
    return {
        "calls": calls,
        "noop_span_call_seconds": noop_call,
        "enabled_span_call_seconds": enabled_call,
        "span_sites_per_story": span_sites_per_story,
        "corpus_size": corpus_size,
        "service_seconds_per_story": per_story,
        "noop_overhead_fraction": span_sites_per_story * noop_call / per_story,
    }


def run_daemon_benchmark(quick: bool = False) -> dict:
    """Submission round-trip of the daemon protocol vs the in-process service.

    The same corpus is scored twice with the same explicit parameters:

    * ``inprocess`` -- :func:`repro.service.score_corpus_sync`, the direct
      library path (service startup + solve, no transport).
    * ``daemon`` -- a :class:`~repro.service.daemon.PredictionDaemon` serving
      a Unix socket in this process; the measured round-trip spans sending
      the ``submit`` request to receiving the final ``job`` event, so it
      prices manifest JSON encoding, protocol framing, event streaming and
      scheduling -- everything the daemon adds on top of the service.

    ``efficiency_vs_inprocess`` (in-process seconds / round-trip seconds,
    ~1.0 when the protocol overhead vanishes against solve time) is
    floor-gated by ``check_regression.py``; ``max_result_delta_vs_batch``
    compares every streamed accuracy and parameter against the synchronous
    :class:`BatchPredictor`, and must be bit-identical (the events carry
    JSON floats, which round-trip exactly).
    """
    size = 8 if quick else 20
    repeats = 2
    parameters = PAPER_S1_HOP_PARAMETERS
    training = list(SERVICE_TRAINING_TIMES)
    evaluation = list(SERVICE_EVALUATION_TIMES)
    corpus = _service_corpus(size)
    manifest = _daemon_manifest(corpus)

    inprocess_seconds, _ = best_of(
        lambda: score_corpus_sync(
            corpus,
            training_times=training,
            evaluation_times=evaluation,
            parameters=parameters,
            solver=SERVICE_SOLVER_CONFIG,
        ),
        repeats,
    )

    async def daemon_roundtrip() -> "tuple[float, dict]":
        with tempfile.TemporaryDirectory() as tmpdir:
            socket_path = os.path.join(tmpdir, "bench.sock")
            daemon = PredictionDaemon(
                parameters=parameters, solver=SERVICE_SOLVER_CONFIG
            )
            server = asyncio.ensure_future(daemon.serve(f"unix:{socket_path}"))
            while not os.path.exists(socket_path):
                await asyncio.sleep(0.005)
            results = {}
            async with await DaemonClient.connect(f"unix:{socket_path}") as client:
                start = time.perf_counter()
                async for event in client.submit(manifest):
                    if event.get("event") == "error":
                        raise RuntimeError(f"daemon error: {event['error']}")
                    if event.get("event") == "result":
                        results[event["story"]] = event
                elapsed = time.perf_counter() - start
                await client.shutdown()
            await server
            return elapsed, results

    roundtrip_seconds, daemon_results = float("inf"), None
    for _ in range(repeats):
        clear_operator_caches()
        elapsed, results = asyncio.run(daemon_roundtrip())
        if elapsed < roundtrip_seconds:
            roundtrip_seconds, daemon_results = elapsed, results

    batch_results = (
        BatchPredictor(parameters=parameters, solver=SERVICE_SOLVER_CONFIG)
        .fit(corpus, training_times=training)
        .evaluate(corpus, times=evaluation)
    )
    max_delta = 0.0
    for name in corpus:
        streamed = daemon_results[name]
        assert streamed["status"] == "succeeded", streamed
        reference = batch_results[name]
        deltas = [
            abs(streamed["overall_accuracy"] - reference.overall_accuracy),
            abs(
                streamed["parameters"]["d"] - reference.parameters.diffusion_rate
            ),
            abs(
                streamed["parameters"]["K"]
                - reference.parameters.carrying_capacity
            ),
        ]
        deltas.extend(
            abs(streamed["accuracy_by_distance"][str(d)] - reference.accuracy_at_distance(d))
            for d in reference.predicted.distances
        )
        max_delta = max(max_delta, *deltas)

    return {
        "stories": size,
        "inprocess_seconds": inprocess_seconds,
        "roundtrip_seconds": roundtrip_seconds,
        "overhead_seconds": roundtrip_seconds - inprocess_seconds,
        "per_story_overhead_seconds": (roundtrip_seconds - inprocess_seconds) / size,
        "efficiency_vs_inprocess": inprocess_seconds / roundtrip_seconds,
        "max_result_delta_vs_batch": max_delta,
    }


CORPUS_IO_SOLVER = SolverConfig(points_per_unit=4, max_step=0.25)

#: The RSS-measurement child: open a corpus (store directory or inline
#: manifest), resolve it, optionally score it in 512-story chunks keeping
#: only accuracy floats (the streaming-consumer pattern the store exists
#: for), and report the process's peak RSS.  The peak is ``VmHWM`` from
#: ``/proc/self/status``: ``ru_maxrss`` survives fork/exec on Linux, so a
#: child would report the parent benchmark's peak instead of its own.
_CORPUS_RSS_CHILD = """
import json, sys

from repro.core.config import SolverConfig
from repro.core.parameters import PAPER_S1_HOP_PARAMETERS
from repro.service import open_corpus, score_corpus_sync

path, mode = sys.argv[1], sys.argv[2]
training = [float(t) for t in range(1, 7)]
resolved = open_corpus(path).resolve(training_times=training)
names = list(resolved.surfaces)
scored = 0
if mode == "score":
    for start in range(0, len(names), 512):
        chunk = {name: resolved.surfaces[name] for name in names[start : start + 512]}
        results = score_corpus_sync(
            chunk,
            training_times=training,
            evaluation_times=training[1:],
            parameters=PAPER_S1_HOP_PARAMETERS,
            solver=SolverConfig(points_per_unit=4, max_step=0.25),
        )
        scored += sum(1 for r in results.values() if r.overall_accuracy is not None)
with open("/proc/self/status", encoding="ascii") as status:
    peak_kb = next(
        int(line.split()[1]) for line in status if line.startswith("VmHWM:")
    )
print(json.dumps({"stories": len(names), "scored": scored, "peak_rss_kb": peak_kb}))
"""


def _corpus_rss_child(path: str, mode: str) -> dict:
    """Run the RSS child against ``path`` and return its JSON report."""
    import subprocess

    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", _CORPUS_RSS_CHILD, path, mode],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return json.loads(completed.stdout)


def run_corpus_io_benchmark(quick: bool = False) -> dict:
    """Corpus store vs inline manifest: load time, result parity, bounded RSS.

    For each corpus size, a seeded synthetic workload is generated straight
    into a corpus store (:func:`repro.corpus.generate_store`), exported to
    the equivalent inline manifest (JSON floats round-trip exactly), and
    both are opened through :func:`repro.service.open_corpus`:

    * ``load`` -- wall time of open+resolve for each path.  The store hands
      back lazy handles (axes from the index, one memory-mapped row for the
      empty-anchor check), the inline path parses every surface out of
      JSON; ``load_speedup_vs_inline`` is floor-gated at the largest size.
    * ``score`` -- both resolved corpora scored through
      :func:`score_corpus_sync` with the paper's explicit S1 parameters;
      ``max_result_delta_vs_inline`` is the largest per-story difference in
      predicted densities and must be exactly 0 (the store is float64
      lossless, so lazy-loading must not change a single bit).
    * ``rss`` -- at the largest size, two fresh subprocesses measure peak
      RSS: a baseline child that only opens and resolves the store, and a
      scoring child that streams the whole corpus through the service in
      512-story chunks.  ``rss_budget_excess_bytes`` is the scoring child's
      RSS over baseline minus a budget of 64 MB + a quarter of the corpus's
      surface bytes -- gated at <= 0, the "never holds all surfaces in
      memory" acceptance criterion.
    """
    from repro.corpus import WorkloadConfig, export_inline_manifest, generate_store
    from repro.service import open_corpus

    sizes = (1000,) if quick else (1000, 10000)
    training = list(SERVICE_TRAINING_TIMES)
    evaluation = list(SERVICE_EVALUATION_TIMES)
    report = {"sizes": {}, "solver": CORPUS_IO_SOLVER.to_json_dict()}
    max_delta = 0.0

    with tempfile.TemporaryDirectory() as tmpdir:
        for size in sizes:
            store_dir = os.path.join(tmpdir, f"store-{size}")
            inline_path = os.path.join(tmpdir, f"inline-{size}.json")
            config = WorkloadConfig(stories=size)
            build_start = time.perf_counter()
            store = generate_store(config, store_dir)
            build_seconds = time.perf_counter() - build_start
            with open(inline_path, "w", encoding="utf-8") as handle:
                json.dump(export_inline_manifest(store), handle)

            def load(path):
                return open_corpus(path).resolve(training_times=training)

            inline_load_seconds, inline_resolved = best_of(
                lambda: load(inline_path), repeats=2
            )
            store_load_seconds, store_resolved = best_of(
                lambda: load(store_dir), repeats=2
            )

            def score(resolved):
                return score_corpus_sync(
                    resolved.surfaces,
                    training_times=training,
                    evaluation_times=evaluation,
                    parameters=PAPER_S1_HOP_PARAMETERS,
                    solver=CORPUS_IO_SOLVER,
                )

            inline_score_seconds, inline_results = best_of(
                lambda: score(inline_resolved), repeats=1
            )
            store_score_seconds, store_results = best_of(
                lambda: score(store_resolved), repeats=1
            )
            delta = max(
                float(
                    np.max(
                        np.abs(
                            store_results[name].predicted.values
                            - inline_results[name].predicted.values
                        )
                    )
                )
                for name in store_results
            )
            max_delta = max(max_delta, delta)
            entry = {
                "stories": size,
                "build_seconds": build_seconds,
                "surface_mbytes": store.total_surface_nbytes / 1e6,
                "inline_load_seconds": inline_load_seconds,
                "store_load_seconds": store_load_seconds,
                "load_speedup_vs_inline": inline_load_seconds / store_load_seconds,
                "inline_score_seconds": inline_score_seconds,
                "store_score_seconds": store_score_seconds,
                "max_result_delta_vs_inline": delta,
            }
            report["sizes"][str(size)] = entry
            if size == max(sizes):
                report["load_speedup_vs_inline"] = entry["load_speedup_vs_inline"]
                baseline = _corpus_rss_child(store_dir, "resolve")
                scoring = _corpus_rss_child(store_dir, "score")
                assert scoring["scored"] == size, scoring
                budget_bytes = 64 * 1024 * 1024 + store.total_surface_nbytes // 4
                excess = (
                    (scoring["peak_rss_kb"] - baseline["peak_rss_kb"]) * 1024
                    - budget_bytes
                )
                report["rss"] = {
                    "stories": size,
                    "baseline_rss_kb": baseline["peak_rss_kb"],
                    "scoring_rss_kb": scoring["peak_rss_kb"],
                    "budget_bytes": budget_bytes,
                }
                report["rss_budget_excess_bytes"] = float(excess)
    report["max_result_delta_vs_inline"] = max_delta
    return report


def run_convergence_benchmark(quick: bool = False) -> dict:
    """Resolution-convergence study: accuracy vs ``points_per_unit``.

    Solves one DL problem with the paper's S1 parameters on the banded
    operator stack at increasing spatial resolutions and scores each
    solution against the finest grid (the reference) with the paper's
    accuracy metric -- the ROADMAP's "predicted accuracy vs
    points_per_unit" artifact.  Also reports each resolution's wall time
    and maximum pointwise delta, so the accuracy/cost trade-off is visible
    in one table.
    """
    sweep_ppus = (4, 8, 16) if quick else (4, 8, 16, 32)
    reference_ppu = 32 if quick else 64
    max_step = 0.02
    phi = InitialDensity([1, 2, 3, 4, 5], [5.0, 2.0, 2.5, 1.5, 1.0])
    times = [float(t) for t in range(1, 7)]
    scored_times = times[1:]

    def predict(points_per_unit: int) -> "tuple[float, DensitySurface]":
        clear_operator_caches()
        model = DiffusiveLogisticModel(
            PAPER_S1_HOP_PARAMETERS,
            points_per_unit=points_per_unit,
            max_step=max_step,
        )
        start = time.perf_counter()
        surface = model.predict(phi, times)
        return time.perf_counter() - start, surface

    reference_seconds, reference = predict(reference_ppu)
    report = {
        "reference_points_per_unit": reference_ppu,
        "reference_seconds": reference_seconds,
        "max_step": max_step,
        "operator": "banded",
        "sweep": {},
    }
    for ppu in sweep_ppus:
        seconds, surface = predict(ppu)
        accuracy = build_accuracy_table(
            surface, reference, times=scored_times
        ).overall_average
        report["sweep"][str(ppu)] = {
            "points_per_unit": ppu,
            "seconds": seconds,
            "accuracy_vs_reference": accuracy,
            "max_delta_vs_reference": float(
                np.max(np.abs(surface.values - reference.values))
            ),
        }
    return report


def run_batched_solver_benchmark(quick: bool = False) -> dict:
    """Time the batched solver engine against the sequential path.

    Five comparisons are reported:

    * ``calibration`` -- the grid-then-refine calibration with every grid
      candidate evaluated in batched solves vs candidate-by-candidate
      sequential solves (identical algorithm, so the parameter deltas double
      as an accuracy check).
    * ``refine`` -- the multi-start refinement stage alone, batched vs
      sequential residual/Jacobian evaluation (extracted from the
      calibration runs' diagnostics).
    * ``solver`` -- one batched forward solve of N parameter candidates vs N
      sequential solves of the same candidates.
    * ``operator`` -- dense vs banded factorizations of the
      Crank-Nicolson operator at n = 4000 (see
      :func:`run_operator_mode_benchmark`).
    * ``service`` -- corpus throughput of the async prediction service vs
      the sequential per-story loop and the synchronous batch path (see
      :func:`run_service_benchmark`).
    """
    surface = _synthetic_calibration_surface()
    grids = (
        dict(amplitude_grid=(1.0, 1.5), decay_grid=(1.0, 1.5), floor_grid=(0.1, 0.25))
        if quick
        else {}
    )

    sequential_seconds, sequential = best_of(
        lambda: calibrate_dl_model(surface, engine="sequential", **grids)
    )
    batched_seconds, batched = best_of(
        lambda: calibrate_dl_model(surface, engine="batched", **grids)
    )

    phi = InitialDensity.from_surface(surface)
    batch_size = 8 if quick else 32
    candidates = [
        PAPER_S1_HOP_PARAMETERS.with_diffusion_rate(0.005 + 0.003 * j)
        for j in range(batch_size)
    ]
    times = [float(t) for t in range(1, 7)]

    solver_sequential_seconds, solo = best_of(
        lambda: [
            DiffusiveLogisticModel(c, points_per_unit=12, max_step=0.02).solve(phi, times)
            for c in candidates
        ]
    )
    solver_batched_seconds, together = best_of(
        lambda: solve_dl_batch(candidates, phi, times, points_per_unit=12, max_step=0.02)
    )

    max_state_delta = max(
        float(np.max(np.abs(a.pde_solution.states - b.pde_solution.states)))
        for a, b in zip(solo, together)
    )
    batch_metadata = together[0].pde_solution.metadata

    refine_sequential = sequential.details["refinement"]
    refine_batched = batched.details["refinement"]
    # Per-start equivalence of the refinement stage itself: every start's
    # final (amplitude, decay, floor) must match between the two engines,
    # not just the overall winner's.
    refine_parameter_delta = float(
        np.max(
            np.abs(
                np.asarray(refine_sequential["start_parameters"])
                - np.asarray(refine_batched["start_parameters"])
            )
        )
    )

    return {
        "benchmark": "substrate_batched_solver",
        "timestamp": time.time(),
        "quick": quick,
        "calibration": {
            "candidates": sequential.details["candidates_evaluated"],
            "sequential_seconds": sequential_seconds,
            "batched_seconds": batched_seconds,
            "speedup": sequential_seconds / batched_seconds,
            "max_parameter_delta": _parameter_delta(sequential.parameters, batched.parameters),
            "loss_delta": abs(sequential.loss - batched.loss),
            # A calibrating shard refined in lock-step vs story by story
            # (parameter delta gated at 0).
            "shard": run_shard_calibration_benchmark(),
        },
        "refine": {
            "starts": refine_batched["starts"],
            "iterations": refine_batched["iterations"],
            "n_evaluations": refine_batched["n_evaluations"],
            "sequential_seconds": refine_sequential["seconds"],
            "batched_seconds": refine_batched["seconds"],
            "speedup": refine_sequential["seconds"] / refine_batched["seconds"],
            "max_parameter_delta": refine_parameter_delta,
            # A fit whose optimum has floor on its bound (iterations
            # ceiling-gated at 30).
            "bound_pinned": run_bound_pinned_refinement(),
        },
        "solver": {
            "batch_size": batch_size,
            "sequential_seconds": solver_sequential_seconds,
            "batched_seconds": solver_batched_seconds,
            "speedup": solver_sequential_seconds / solver_batched_seconds,
            "max_state_delta": max_state_delta,
            # Crank-Nicolson fixed-point iterations (G evaluations) per time
            # step of the batched solve, ceiling-gated at 1.2.
            "picard_iterations_per_step": (
                batch_metadata["picard_iterations"] / batch_metadata["steps"]
            ),
            # Time discretisation error at the calibration resolution
            # (ceiling-gated at 7e-4).
            "error_vs_fine_reference": solver_error_vs_fine_reference(phi),
        },
        "operator": run_operator_mode_benchmark(quick=quick),
        "service": {
            **run_service_benchmark(quick=quick),
            # The model-registry path: the logistic baseline served through
            # the same queue (loosely floor-gated, delta-gated at 0).
            "logistic": run_service_model_benchmark("logistic", quick=quick),
            # Thread vs process execution backends at 1/2/4/ncpu workers on
            # a calibration-heavy corpus (delta- and efficiency-gated).
            "scaling": run_service_scaling_benchmark(quick=quick),
            # The cluster backend against 1/2 localhost worker daemons
            # (delta-gated at 1e-12, routing overhead ceiling-gated).
            "cluster": run_service_cluster_benchmark(quick=quick),
        },
        "daemon": run_daemon_benchmark(quick=quick),
        # Eq. 8 scoring per story, array vs scalar (delta-gated at 0).
        "scoring": run_scoring_benchmark(quick=quick),
        # Zero-cost-when-disabled proof for the tracing instrumentation
        # (noop_overhead_fraction correctness-gated at 2%).
        "tracing": run_tracing_benchmark(quick=quick),
        "corpus": {
            # Store vs inline manifest: load speedup (floor-gated), exact
            # result parity and the bounded-RSS budget (both delta-gated).
            "io": run_corpus_io_benchmark(quick=quick),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Emit machine-readable JSON timings of sequential vs batched solves."
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default="-",
        help="where to write the JSON report ('-' for stdout, the default)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller candidate grids / batch sizes (for CI smoke runs)",
    )
    parser.add_argument(
        "--convergence",
        action="store_true",
        help=(
            "also run the resolution-convergence study (accuracy vs "
            "points_per_unit on the banded stack) and emit it as the "
            "report's 'convergence' section"
        ),
    )
    args = parser.parse_args(argv)

    report = run_batched_solver_benchmark(quick=args.quick)
    if args.convergence:
        report["convergence"] = run_convergence_benchmark(quick=args.quick)
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.json == "-":
        print(text)
    else:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        calibration = report["calibration"]
        operator = report["operator"]
        service = report["service"]
        print(
            f"wrote {args.json}: calibration speedup "
            f"{calibration['speedup']:.1f}x over {calibration['candidates']} candidates "
            f"(max parameter delta {calibration['max_parameter_delta']:.2e}); "
            f"banded operator {operator['banded']['speedup_vs_dense']:.1f}x dense at "
            f"n={operator['num_points']} "
            f"(max state delta {operator['banded']['max_state_delta_vs_dense']:.2e}); "
            f"service {service['speedup']:.1f}x sequential at "
            f"{service['corpus_size']} stories "
            f"({service['stories_per_second']:.1f} stories/s, max result delta "
            f"{service['max_result_delta_vs_batch']:.2e}); "
            f"daemon round-trip {report['daemon']['efficiency_vs_inprocess']:.2f}x "
            f"in-process at {report['daemon']['stories']} stories "
            f"(max result delta {report['daemon']['max_result_delta_vs_batch']:.2e}); "
            f"process backend {service['scaling']['process']['speedup_4v1']:.2f}x "
            f"at 4 workers on {service['scaling']['cpus']} cpus "
            f"(max delta vs thread "
            f"{service['scaling']['max_result_delta_process_vs_thread']:.2e}); "
            f"cluster backend {service['cluster']['efficiency_vs_thread']:.2f}x "
            f"thread at 2 workers "
            f"(max delta vs thread "
            f"{service['cluster']['max_result_delta_cluster_vs_thread']:.2e}); "
            f"corpus store load {report['corpus']['io']['load_speedup_vs_inline']:.1f}x "
            f"inline (max result delta "
            f"{report['corpus']['io']['max_result_delta_vs_inline']:.2e}, "
            f"RSS budget excess "
            f"{report['corpus']['io']['rss_budget_excess_bytes'] / 1e6:.1f} MB); "
            f"tracing no-op overhead "
            f"{report['tracing']['noop_overhead_fraction'] * 100:.4f}% per story; "
            f"Eq. 8 scoring {report['scoring']['seconds_per_story'] * 1e3:.3f} ms per story "
            f"(max accuracy delta vs scalar "
            f"{report['scoring']['max_accuracy_delta_vs_scalar']:.2e})",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
