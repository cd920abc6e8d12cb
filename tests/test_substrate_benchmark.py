"""The substrate benchmark's gates: the corpus.io RSS child, the iteration and solver-error ceilings, scoring,
the banded operator and the lock-step shard calibration."""

from __future__ import annotations

import importlib.util
from dataclasses import replace
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.corpus import WorkloadConfig, generate_store

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_benchmark():
    return _load("bench_substrate_performance")


def _resident_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1])
    raise AssertionError("no VmRSS line in /proc/self/status")


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="reads /proc/self/status"
)
def test_rss_child_reports_its_own_peak_not_the_parents(tmp_path):
    bench = _load_benchmark()
    store_dir = os.fspath(tmp_path / "store")
    generate_store(WorkloadConfig(stories=4), store_dir)
    # ~256 MB of touched pages: the parent's resident size now dwarfs what
    # a child that only opens and resolves a 4-story store can need.
    ballast = np.ones(32 * 1024 * 1024)
    parent_kb = _resident_kb()
    assert parent_kb >= 200 * 1024
    report = bench._corpus_rss_child(store_dir, "resolve")
    assert report["stories"] == 4
    # ru_maxrss, which survives fork/exec, reads about parent_kb here.
    assert report["peak_rss_kb"] < parent_kb // 2
    del ballast


def _gate_verdict(report: dict, path: str) -> bool:
    gate = _load("check_regression")
    (verdict,) = [
        ok for ok, line in gate.run_checks(report, {}, max_slowdown=1.3) if path in line
    ]
    return verdict


@pytest.mark.parametrize(
    "iterations, passes", [(5.6, False), (2.09, False), (1.25, False), (1.2, True), (1.01, True)]
)
def test_picard_iteration_ceiling(iterations, passes):
    # 5.6 iterations per step is what plain Picard iteration from the old
    # state took on calibration batches, and 2.09 what iterating every step
    # to the fixed point from the AB2 predictor took; the gate must reject
    # both.
    report = {"solver": {"picard_iterations_per_step": iterations}}
    assert _gate_verdict(report, "solver.picard_iterations_per_step") is passes


@pytest.mark.parametrize(
    "error, passes", [(5.7e-4, True), (7.5e-4, False), (2.3e-3, False), (float("nan"), False)]
)
def test_solver_error_ceiling(error, passes):
    # 2.3e-3 is the error of the same solve at twice the step (max_step
    # 0.1): a step that gives up that much accuracy fails the gate.
    report = {"solver": {"error_vs_fine_reference": error}}
    assert _gate_verdict(report, "solver.error_vs_fine_reference") is passes


def test_solver_error_figure_passes_its_gate_at_the_calibration_step():
    from repro.core.initial_density import InitialDensity

    bench = _load_benchmark()
    phi = InitialDensity.from_surface(bench._synthetic_calibration_surface())
    error = bench.solver_error_vs_fine_reference(phi)
    assert 1e-4 < error
    report = {"solver": {"error_vs_fine_reference": error}}
    assert _gate_verdict(report, "solver.error_vs_fine_reference")


@pytest.mark.parametrize(
    "iterations, passes", [(40, False), (17, False), (13, False), (12, True), (8, True)]
)
def test_bound_pinned_iteration_ceiling(iterations, passes):
    # 40 is the iteration cap the clipped full-system LM step crawled to on
    # the bound-pinned story, and 17 what the active-set step took before
    # steps were projected onto the box and the decay refined on a log
    # scale; the gate must reject both.
    report = {"refine": {"bound_pinned": {"iterations": iterations}}}
    assert _gate_verdict(report, "refine.bound_pinned.iterations") is passes


@pytest.mark.parametrize("delta, passes", [(0.0, True), (2.0**-53, False), (float("nan"), False)])
def test_scoring_delta_gate(delta, passes):
    # Array and scalar Eq. 8 scoring must agree bit for bit: one ulp of
    # difference, or a NaN cell, fails the gate.
    report = {"scoring": {"max_accuracy_delta_vs_scalar": delta}}
    assert _gate_verdict(report, "scoring.max_accuracy_delta_vs_scalar") is passes


@pytest.mark.parametrize(
    "delta, passes", [(0.0, True), (1.1e-13, True), (1e-9, False), (float("nan"), False)]
)
def test_operator_delta_gate(delta, passes):
    # The banded LDL^T solve matches dense LU to rounding (about 1e-13 at
    # n = 4000); a delta at the scale of a wrong boundary row, or a NaN
    # state, fails the gate.
    report = {"operator": {"banded": {"max_state_delta_vs_dense": delta}}}
    assert _gate_verdict(report, "operator.banded.max_state_delta_vs_dense") is passes


def test_scoring_section_matches_its_scalar_reference():
    report = _load_benchmark().run_scoring_benchmark(quick=True)
    assert report["stories"] == 20
    assert report["cells_per_story"] == 25
    assert report["max_accuracy_delta_vs_scalar"] == 0.0
    assert report["seconds_per_story"] > 0.0


def _shard_gate_verdict(delta) -> bool:
    report = {"calibration": {"shard": {"max_parameter_delta_vs_story": delta}}}
    return _gate_verdict(report, "calibration.shard.max_parameter_delta_vs_story")


@pytest.mark.parametrize("field", ["diffusion_rate", "floor", "carrying_capacity"])
def test_shard_parameter_delta_gate_trips_on_one_ulp(field):
    # A lock-step shard calibration must give every story exactly the
    # parameters of calibrating it alone: one ulp of difference in any
    # fitted parameter fails the gate.
    from repro import PAPER_S1_HOP_PARAMETERS

    bench = _load_benchmark()
    alone = PAPER_S1_HOP_PARAMETERS
    if field == "floor":
        rate = alone.growth_rate
        nudged = replace(alone, growth_rate=replace(rate, floor=np.nextafter(rate.floor, 1.0)))
    else:
        nudged = replace(alone, **{field: float(np.nextafter(getattr(alone, field), np.inf))})
    same = bench._parameter_delta(alone, alone)
    off = bench._parameter_delta(alone, nudged)
    assert same == 0.0 and _shard_gate_verdict(same)
    assert 0.0 < off and not _shard_gate_verdict(off)
