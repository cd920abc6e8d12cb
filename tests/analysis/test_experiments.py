"""Tests for the per-figure/table experiment runners.

These run on the small session-scoped corpus (not the benchmark corpus), so
the assertions target structure and qualitative shape rather than the
benchmark numbers recorded in EXPERIMENTS.md.
"""

import numpy as np
import pytest

from repro.analysis.experiments import (
    EXPERIMENTS,
    ExperimentContext,
    run_ablation_baselines,
    run_fig2_distance_distribution,
    run_fig3_density_hops,
    run_fig4_density_profiles,
    run_fig5_density_interests,
    run_fig6_growth_rate,
    run_fig7_predicted_vs_actual,
    run_table1_accuracy_hops,
)


@pytest.fixture(scope="module")
def context(small_corpus_config):
    return ExperimentContext(config=small_corpus_config)


class TestContext:
    def test_dataset_is_cached(self, context):
        assert context.dataset is context.dataset

    def test_observation_times(self, context):
        times = context.observation_times()
        assert times[0] == 1.0
        assert times[-1] == context.config.horizon_hours

    def test_registry_covers_all_paper_artifacts(self):
        assert set(EXPERIMENTS) == {
            "FIG-2", "FIG-3", "FIG-4", "FIG-5", "FIG-6", "FIG-7", "TAB-1", "TAB-2", "ABL-1",
        }


class TestFigureRunners:
    def test_fig2_fractions_sum_to_one(self, context):
        result = run_fig2_distance_distribution(context)
        assert set(result) == {"s1", "s2", "s3", "s4"}
        for story, fractions in result.items():
            assert sum(fractions.values()) == pytest.approx(1.0, abs=1e-9)
            assert all(v >= 0 for v in fractions.values())

    def test_fig3_surfaces(self, context):
        result = run_fig3_density_hops(context)
        assert set(result) == {"s1", "s2", "s3", "s4"}
        for surface in result.values():
            assert surface.is_monotone_in_time()
            assert list(surface.distances) == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_fig4_profiles(self, context):
        result = run_fig4_density_profiles(context)
        assert result["profiles"].shape == (50, 5)
        # Profiles at later hours dominate earlier ones (monotone growth).
        assert np.all(result["profiles"][-1] >= result["profiles"][0] - 1e-9)

    def test_fig5_surfaces_decreasing_for_s1(self, context):
        result = run_fig5_density_interests(context)
        final = result["s1"].values[-1]
        assert final[0] == max(final)

    def test_fig6_growth_rate_structure(self, context):
        result = run_fig6_growth_rate(context, hours=6)
        assert result["paper_parameters"] == {"amplitude": 1.4, "decay": 1.5, "floor": 0.25}
        paper = np.asarray(result["paper_rate"])
        calibrated = np.asarray(result["calibrated_rate"])
        assert paper.shape == calibrated.shape
        # Both curves must be non-increasing in time.
        assert np.all(np.diff(paper) <= 1e-12)
        assert np.all(np.diff(calibrated) <= 1e-9)


class TestPredictionRunners:
    def test_fig7_with_calibration(self, context):
        result = run_fig7_predicted_vs_actual(context, prediction_hours=4)
        assert list(result.accuracy_table.times) == [2.0, 3.0, 4.0]
        assert 0.0 <= result.overall_accuracy <= 1.0
        assert result.diagnostics["calibration"]["calibrated"] is True

    def test_fig7_with_paper_parameters(self, context):
        result = run_fig7_predicted_vs_actual(context, prediction_hours=3, calibrate=False)
        assert result.parameters.carrying_capacity == 25.0
        assert result.diagnostics["calibration"]["calibrated"] is False

    def test_fig7_rejects_unknown_metric(self, context):
        with pytest.raises(ValueError):
            run_fig7_predicted_vs_actual(context, distance_metric="euclidean")

    def test_table1_matches_fig7_run(self, context):
        table = run_table1_accuracy_hops(context, prediction_hours=4)
        assert table.accuracies.shape == (5, 3)
        assert 0.0 <= table.overall_average <= 1.0


class TestAblation:
    def test_all_models_scored(self, context):
        results = run_ablation_baselines(
            context, training_hours=4, forecast_hours=8
        )
        assert set(results) == {
            "diffusive_logistic",
            "per_distance_logistic",
            "sis",
            "linear_influence",
        }
        for table in results.values():
            assert list(table.times) == [5.0, 6.0, 7.0, 8.0]
            assert 0.0 <= table.overall_average <= 1.0

    def test_rejects_bad_windows(self, context):
        with pytest.raises(ValueError):
            run_ablation_baselines(context, training_hours=6, forecast_hours=6)
