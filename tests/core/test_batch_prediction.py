"""Tests for the batched multi-story predictor.

The load-bearing property is equivalence: fitting and scoring stories through
:class:`BatchPredictor` must match running :class:`DiffusionPredictor` per
story, because the batched engine advances each column exactly like a
sequential solve.
"""

import numpy as np
import pytest

from repro.cascade.density import DensitySurface
from repro.core.dl_model import DiffusiveLogisticModel, solve_dl_batch
from repro.core.initial_density import InitialDensity
from repro.core.parameters import (
    DLParameters,
    ExponentialDecayGrowthRate,
    PAPER_S1_HOP_PARAMETERS,
)
from repro.core.prediction import BatchPredictor, DiffusionPredictor


def synthetic_surface(diffusion=0.01, amplitude=1.4, seed_densities=None, hours=8):
    densities = seed_densities if seed_densities is not None else [5.0, 2.0, 2.5, 1.5, 1.0]
    phi = InitialDensity([1, 2, 3, 4, 5], densities)
    parameters = DLParameters(
        diffusion_rate=diffusion,
        growth_rate=ExponentialDecayGrowthRate(amplitude, 1.5, 0.25),
        carrying_capacity=25.0,
    )
    model = DiffusiveLogisticModel(parameters, points_per_unit=12, max_step=0.02)
    surface = model.predict(phi, [float(t) for t in range(1, hours + 1)])
    return DensitySurface(
        distances=surface.distances,
        times=surface.times,
        values=surface.values,
        group_sizes=np.ones(surface.distances.size),
    )


@pytest.fixture(scope="module")
def two_story_surfaces():
    return {
        "a": synthetic_surface(seed_densities=[5.0, 2.0, 2.5, 1.5, 1.0]),
        "b": synthetic_surface(seed_densities=[3.0, 2.5, 1.0, 0.8, 0.6]),
    }


class TestSolveDLBatch:
    def test_matches_sequential_model_solve(self, two_story_surfaces):
        phis = [
            InitialDensity.from_surface(surface)
            for surface in two_story_surfaces.values()
        ]
        times = [2.0, 4.0, 6.0]
        batched = solve_dl_batch(
            PAPER_S1_HOP_PARAMETERS, phis, times, points_per_unit=12, max_step=0.02
        )
        for phi, solution in zip(phis, batched):
            sequential = DiffusiveLogisticModel(
                PAPER_S1_HOP_PARAMETERS, points_per_unit=12, max_step=0.02
            ).solve(phi, times)
            assert (
                np.max(np.abs(solution.pde_solution.states - sequential.pde_solution.states))
                < 1e-10
            )

    def test_candidate_batch_is_bit_identical_to_sequential_solves(self):
        # A calibration-shaped batch: equal diffusion groups, solved with one
        # stacked LAPACK call per iteration, against one model per candidate.
        phi = InitialDensity([1, 2, 3, 4, 5], [5.0, 2.0, 2.5, 1.5, 1.0])
        candidates = [
            PAPER_S1_HOP_PARAMETERS.with_diffusion_rate(d).with_growth_rate(
                ExponentialDecayGrowthRate(a, 1.5, 0.25)
            )
            for d in (0.005, 0.05, 0.01)
            for a in (0.5, 1.4)
        ]
        times = [2.0, 4.0, 6.0]
        batched = solve_dl_batch(candidates, phi, times, points_per_unit=8, max_step=0.05)
        assert batched[0].pde_solution.metadata["stacked_solve"] is True
        for parameters, solution in zip(candidates, batched):
            sequential = DiffusiveLogisticModel(
                parameters, points_per_unit=8, max_step=0.05
            ).solve(phi, times)
            np.testing.assert_array_equal(
                solution.pde_solution.states.view(np.int64),
                sequential.pde_solution.states.view(np.int64),
            )

    def test_broadcasts_parameters_against_one_phi(self):
        phi = InitialDensity([1, 2, 3, 4, 5], [5.0, 2.0, 2.5, 1.5, 1.0])
        candidates = [
            PAPER_S1_HOP_PARAMETERS,
            PAPER_S1_HOP_PARAMETERS.with_diffusion_rate(0.05),
        ]
        solutions = solve_dl_batch(candidates, phi, [2.0, 3.0], points_per_unit=8)
        assert len(solutions) == 2
        assert solutions[0].parameters.diffusion_rate == 0.01
        assert solutions[1].parameters.diffusion_rate == 0.05

    def test_scipy_backend_agrees_via_column_reactions(self):
        # The scipy backend has no vectorised engine; the fallback must use
        # the per-column reactions (no full-batch tiling) and still agree.
        phi = InitialDensity([1, 2, 3, 4, 5], [5.0, 2.0, 2.5, 1.5, 1.0])
        candidates = [
            PAPER_S1_HOP_PARAMETERS,
            PAPER_S1_HOP_PARAMETERS.with_diffusion_rate(0.05),
        ]
        times = [2.0, 3.0]
        internal = solve_dl_batch(candidates, phi, times, points_per_unit=8, max_step=0.02)
        scipy_solutions = solve_dl_batch(
            candidates, phi, times, points_per_unit=8, max_step=0.05, backend="scipy"
        )
        for a, b in zip(internal, scipy_solutions):
            assert np.allclose(
                a.pde_solution.states, b.pde_solution.states, rtol=2e-3, atol=1e-4
            )

    def test_rejects_mismatched_lengths(self):
        phi = InitialDensity([1, 2, 3], [5.0, 2.0, 1.0])
        with pytest.raises(ValueError):
            solve_dl_batch(
                [PAPER_S1_HOP_PARAMETERS] * 2, [phi] * 3, [2.0], points_per_unit=8
            )

    def test_rejects_incompatible_intervals(self):
        phi_a = InitialDensity([1, 2, 3, 4, 5], [5.0, 2.0, 2.5, 1.5, 1.0])
        phi_b = InitialDensity([1, 2, 3, 4], [5.0, 2.0, 2.5, 1.5])
        with pytest.raises(ValueError):
            solve_dl_batch(
                PAPER_S1_HOP_PARAMETERS, [phi_a, phi_b], [2.0], points_per_unit=8
            )


class TestBatchPredictorEquivalence:
    def test_matches_sequential_predictor_with_explicit_parameters(
        self, two_story_surfaces
    ):
        times = [2.0, 3.0, 4.0, 5.0, 6.0]
        batch = BatchPredictor(parameters=PAPER_S1_HOP_PARAMETERS).fit(two_story_surfaces)
        batch_results = batch.evaluate(two_story_surfaces, times=times)
        for name, surface in two_story_surfaces.items():
            single = DiffusionPredictor(parameters=PAPER_S1_HOP_PARAMETERS).fit(surface)
            expected = single.evaluate(surface, times=times)
            got = batch_results[name]
            assert np.max(np.abs(got.predicted.values - expected.predicted.values)) < 1e-10
            assert got.overall_accuracy == pytest.approx(
                expected.overall_accuracy, abs=1e-10
            )

    def test_per_story_parameter_mapping(self, two_story_surfaces):
        mapping = {
            "a": PAPER_S1_HOP_PARAMETERS,
            "b": PAPER_S1_HOP_PARAMETERS.with_diffusion_rate(0.05),
        }
        batch = BatchPredictor(parameters=mapping).fit(two_story_surfaces)
        assert batch.parameters_for("a").diffusion_rate == 0.01
        assert batch.parameters_for("b").diffusion_rate == 0.05

    def test_missing_mapping_entry_raises(self, two_story_surfaces):
        with pytest.raises(KeyError):
            BatchPredictor(parameters={"a": PAPER_S1_HOP_PARAMETERS}).fit(
                two_story_surfaces
            )


class TestBatchPredictorCalibration:
    def test_calibrated_batch_prediction_is_accurate(self, two_story_surfaces):
        batch = BatchPredictor().fit(two_story_surfaces)
        results = batch.evaluate(two_story_surfaces, times=[2.0, 3.0, 4.0, 5.0, 6.0])
        # Surfaces are noise-free DL output, so calibrated predictions should
        # recover them almost exactly.
        assert results.overall_accuracy > 0.9
        for name in two_story_surfaces:
            assert batch.calibration_details_for(name)["calibrated"] is True


class TestBatchPredictorAPI:
    def test_unfitted_predictor_raises(self):
        with pytest.raises(RuntimeError):
            BatchPredictor().solve([2.0])

    def test_fit_story_is_incremental_and_matches_fit(self, two_story_surfaces):
        whole = BatchPredictor(parameters=PAPER_S1_HOP_PARAMETERS).fit(two_story_surfaces)
        incremental = BatchPredictor(parameters=PAPER_S1_HOP_PARAMETERS)
        for name, surface in two_story_surfaces.items():
            incremental.fit_story(name, surface)
        assert incremental.story_names == whole.story_names
        got = incremental.evaluate(two_story_surfaces, times=[2.0, 3.0])
        want = whole.evaluate(two_story_surfaces, times=[2.0, 3.0])
        for name in two_story_surfaces:
            assert np.array_equal(got[name].predicted.values, want[name].predicted.values)

    def test_failed_fit_story_leaves_no_partial_state(self, two_story_surfaces):
        # A mapping without the story's parameters makes _resolve_parameters
        # raise after phi construction; the predictor must not keep a
        # half-fitted story behind.
        predictor = BatchPredictor(parameters={"a": PAPER_S1_HOP_PARAMETERS})
        predictor.fit_story("a", two_story_surfaces["a"])
        with pytest.raises(KeyError):
            predictor.fit_story("b", two_story_surfaces["b"])
        assert predictor.story_names == ("a",)
        # The predictor stays fully usable for its fitted stories.
        results = predictor.evaluate({"a": two_story_surfaces["a"]}, times=[2.0, 3.0])
        assert results["a"].overall_accuracy >= 0.0

    def test_empty_surfaces_rejected(self):
        with pytest.raises(ValueError):
            BatchPredictor().fit({})

    def test_evaluate_requires_all_actuals(self, two_story_surfaces):
        batch = BatchPredictor(parameters=PAPER_S1_HOP_PARAMETERS).fit(two_story_surfaces)
        with pytest.raises(KeyError):
            batch.evaluate({"a": two_story_surfaces["a"]})

    def test_summary_rows_and_overall(self, two_story_surfaces):
        batch = BatchPredictor(parameters=PAPER_S1_HOP_PARAMETERS).fit(two_story_surfaces)
        results = batch.evaluate(two_story_surfaces, times=[2.0, 3.0])
        rows = results.summary_rows()
        assert {row["story"] for row in rows} == {"a", "b"}
        assert results.overall_accuracy == pytest.approx(
            np.mean([row["overall_accuracy"] for row in rows])
        )
        assert results.story_names == ("a", "b")
        assert len(results) == 2

    def test_predict_returns_surface_per_story(self, two_story_surfaces):
        batch = BatchPredictor(parameters=PAPER_S1_HOP_PARAMETERS).fit(two_story_surfaces)
        predicted = batch.predict([2.0, 4.0])
        assert set(predicted) == {"a", "b"}
        for surface in predicted.values():
            assert surface.values.shape == (3, 5)  # initial time + 2 targets

    def test_groups_heterogeneous_intervals(self):
        surfaces = {
            "wide": synthetic_surface(),
            "narrow": DensitySurface(
                [1, 2, 3],
                np.arange(1.0, 7.0),
                np.column_stack(
                    [np.linspace(4, 8, 6), np.linspace(2, 5, 6), np.linspace(1, 3, 6)]
                ),
                np.ones(3),
            ),
        }
        batch = BatchPredictor(parameters=PAPER_S1_HOP_PARAMETERS).fit(surfaces)
        solutions = batch.solve([2.0, 3.0])
        assert set(solutions) == {"wide", "narrow"}
        assert solutions["wide"].grid.upper == 5.0
        assert solutions["narrow"].grid.upper == 3.0
