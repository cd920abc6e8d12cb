"""Tests for the built-in model adapters behind the unified protocol."""

import json

import numpy as np
import pytest

from repro.baselines.linear_influence import LinearInfluenceBaseline
from repro.baselines.logistic import PerDistanceLogisticBaseline
from repro.baselines.sis import SISBaseline
from repro.cascade.density import DensitySurface
from repro.core.config import CalibrationConfig, ModelSpec, SolverConfig
from repro.core.dl_model import DiffusiveLogisticModel
from repro.core.errors import NotFittedError
from repro.core.initial_density import InitialDensity
from repro.core.parameters import PAPER_S1_HOP_PARAMETERS
from repro.core.prediction import BatchPredictor, DiffusionPredictor
from repro.models import MODELS, GraphSeededModel, get_model, register_graph_models

TRAINING_TIMES = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
EVALUATION_TIMES = TRAINING_TIMES[1:]
SOLVER = SolverConfig(points_per_unit=12, max_step=0.02)


def synthetic_surface(seed_densities):
    phi = InitialDensity([1, 2, 3, 4, 5], seed_densities)
    model = DiffusiveLogisticModel(
        PAPER_S1_HOP_PARAMETERS, points_per_unit=12, max_step=0.02
    )
    surface = model.predict(phi, [float(t) for t in range(1, 9)])
    return DensitySurface(
        distances=surface.distances,
        times=surface.times,
        values=surface.values,
        group_sizes=np.ones(surface.distances.size),
    )


@pytest.fixture(scope="module")
def surface():
    return synthetic_surface([5.0, 2.0, 2.5, 1.5, 1.0])


class TestDLAdapter:
    def test_fit_evaluate_matches_diffusion_predictor(self, surface):
        spec = ModelSpec(name="dl", solver=SOLVER)
        fitted = get_model("dl").fit(surface, spec, TRAINING_TIMES)
        result = fitted.evaluate(surface, times=EVALUATION_TIMES)

        reference = (
            DiffusionPredictor(solver=SOLVER, calibration=CalibrationConfig())
            .fit(surface, training_times=TRAINING_TIMES)
            .evaluate(surface, times=EVALUATION_TIMES)
        )
        assert np.array_equal(result.predicted.values, reference.predicted.values)
        assert result.parameters == reference.parameters
        assert result.model == "dl"

    def test_batch_fitter_matches_batch_predictor(self, surface):
        other = synthetic_surface([2.0, 4.0, 1.0, 3.0, 2.0])
        corpus = {"a": surface, "b": other}
        spec = ModelSpec(name="dl", solver=SOLVER)
        fitter = get_model("dl").fit_batch(corpus, spec, TRAINING_TIMES)
        results = fitter.evaluate(corpus, times=EVALUATION_TIMES)

        reference = (
            BatchPredictor(solver=SOLVER)
            .fit(corpus, training_times=TRAINING_TIMES)
            .evaluate(corpus, times=EVALUATION_TIMES)
        )
        for name in corpus:
            assert np.array_equal(
                results[name].predicted.values, reference[name].predicted.values
            )
            assert results[name].parameters == reference.results[name].parameters

    def test_explicit_parameters_skip_calibration(self, surface):
        spec = ModelSpec(
            name="dl", params={"parameters": PAPER_S1_HOP_PARAMETERS}, solver=SOLVER
        )
        fitted = get_model("dl").fit(surface, spec, TRAINING_TIMES)
        assert fitted.parameters == PAPER_S1_HOP_PARAMETERS
        assert fitted.calibration_details["calibrated"] is False


class TestTemporalAdapters:
    @pytest.mark.parametrize("name", ["logistic", "sis", "linear-influence"])
    def test_fit_predict_evaluate(self, surface, name):
        fitted = get_model(name).fit(surface, training_times=TRAINING_TIMES)
        predicted = fitted.predict(EVALUATION_TIMES)
        assert predicted.values.shape == (len(EVALUATION_TIMES), 5)

        result = fitted.evaluate(surface, times=EVALUATION_TIMES)
        assert result.model == name
        assert 0.0 <= result.overall_accuracy <= 1.0
        # The generic result drops DL-only artifacts instead of faking them.
        assert result.solution is None and result.initial_density is None
        # Parameters must survive JSON round-trips for the CLI/daemon payloads.
        payload = json.loads(json.dumps(result.parameters.to_json_dict()))
        assert payload["model"] == name

    @pytest.mark.parametrize("name", ["logistic", "sis", "linear-influence"])
    def test_matches_underlying_baseline(self, surface, name):
        fitted = get_model(name).fit(surface, training_times=TRAINING_TIMES)
        baseline = {
            "logistic": PerDistanceLogisticBaseline(),
            "sis": None,  # pool chosen adaptively; compared via explicit param below
            "linear-influence": LinearInfluenceBaseline(),
        }[name]
        if baseline is None:
            return
        reference = baseline.fit(surface, TRAINING_TIMES).predict(EVALUATION_TIMES)
        assert np.array_equal(
            fitted.predict(EVALUATION_TIMES).values, reference.values
        )

    def test_sis_pool_param_matches_explicit_baseline(self, surface):
        spec = ModelSpec(name="sis", params={"pool_percent": 40.0})
        fitted = get_model("sis").fit(surface, spec, TRAINING_TIMES)
        reference = (
            SISBaseline(pool_percent=40.0)
            .fit(surface, TRAINING_TIMES)
            .predict(EVALUATION_TIMES)
        )
        assert np.array_equal(
            fitted.predict(EVALUATION_TIMES).values, reference.values
        )

    def test_predict_restricts_distances(self, surface):
        fitted = get_model("logistic").fit(surface, training_times=TRAINING_TIMES)
        predicted = fitted.predict(EVALUATION_TIMES, distances=[1.0, 3.0])
        assert predicted.distances.tolist() == [1.0, 3.0]


class TestNotFittedBaselines:
    @pytest.mark.parametrize(
        "baseline",
        [PerDistanceLogisticBaseline(), SISBaseline(), LinearInfluenceBaseline()],
    )
    def test_predict_before_fit_raises_shared_error(self, baseline):
        with pytest.raises(NotFittedError, match="call fit\\(\\) first"):
            baseline.predict([2.0, 3.0])

    def test_influence_matrix_before_fit(self):
        with pytest.raises(NotFittedError):
            LinearInfluenceBaseline().influence_matrix


class TestGraphSeededAdapter:
    def test_ic_and_lt_derive_density_surfaces(self, small_graph, surface):
        hub = max(small_graph.users(), key=small_graph.out_degree)
        for process in ("ic", "lt"):
            model = GraphSeededModel(process, small_graph, hub)
            fitted = model.fit(surface, training_times=TRAINING_TIMES)
            predicted = fitted.predict(EVALUATION_TIMES)
            assert predicted.values.shape == (len(EVALUATION_TIMES), 5)
            assert np.all(predicted.values >= 0.0)
            # Cumulative activation: densities never decrease over time.
            assert np.all(np.diff(predicted.values, axis=0) >= -1e-12)
            result = fitted.evaluate(surface, times=EVALUATION_TIMES)
            assert result.model == process
            assert 0.0 <= result.overall_accuracy <= 1.0

    def test_fit_is_deterministic(self, small_graph, surface):
        hub = max(small_graph.users(), key=small_graph.out_degree)
        model = GraphSeededModel("ic", small_graph, hub, rng_seed=3)
        first = model.fit(surface, training_times=TRAINING_TIMES)
        second = model.fit(surface, training_times=TRAINING_TIMES)
        assert np.array_equal(
            first.predict(EVALUATION_TIMES).values,
            second.predict(EVALUATION_TIMES).values,
        )

    def test_register_graph_models(self, small_graph, surface):
        hub = max(small_graph.users(), key=small_graph.out_degree)
        names = register_graph_models(small_graph, hub)
        try:
            assert set(names) <= set(MODELS.names())
            fitted = get_model("ic").fit(surface, training_times=TRAINING_TIMES)
            assert fitted.model_name == "ic"
        finally:
            for name in names:
                MODELS.unregister(name)

    def test_unknown_process_rejected(self, small_graph):
        with pytest.raises(ValueError, match="unknown process"):
            GraphSeededModel("sir", small_graph, 0)
