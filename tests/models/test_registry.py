"""Tests for the model registry and the typed config objects."""

import pytest

from repro.core.config import CalibrationConfig, ModelSpec, SolverConfig
from repro.core.errors import NotFittedError, UnknownNameError
from repro.core.prediction import BatchPredictor, DiffusionPredictor
from repro.models import MODELS, PredictionModel, get_model
from repro.models.base import coerce_spec


class TestRegistry:
    def test_builtins_are_registered(self):
        names = MODELS.names()
        for name in ("dl", "logistic", "sis", "linear-influence"):
            assert name in names

    def test_get_model_returns_fresh_instances(self):
        assert get_model("dl") is not get_model("dl")

    def test_unknown_model_raises_with_registered_list(self):
        with pytest.raises(UnknownNameError) as excinfo:
            get_model("frobnicate")
        message = str(excinfo.value)
        assert "unknown model 'frobnicate'" in message
        assert "'dl'" in message and "'logistic'" in message

    def test_overwrite_and_unregister(self):
        class Custom(PredictionModel):
            name = "custom-test-model"
            description = "a test model"

            def fit(self, observed, spec=None, training_times=None):
                raise NotImplementedError

        class Replacement(Custom):
            pass

        MODELS.register("custom-test-model", Custom)
        try:
            assert isinstance(get_model("custom-test-model"), Custom)
            # get_model builds from the current factory, so an overwrite
            # takes effect on the next lookup.
            MODELS.register("custom-test-model", Replacement, overwrite=True)
            assert isinstance(get_model("custom-test-model"), Replacement)
        finally:
            MODELS.unregister("custom-test-model")
        with pytest.raises(UnknownNameError):
            get_model("custom-test-model")

    def test_descriptions_cover_every_model(self):
        # `repro models` lists each registered model's description.
        for name in MODELS.names():
            description = get_model(name).description
            assert isinstance(description, str) and description


class TestSolverConfig:
    def test_defaults_match_the_legacy_knobs(self):
        config = SolverConfig()
        assert config.points_per_unit == 20
        assert config.max_step == 0.02
        assert config.backend == "internal"
        assert config.operator == "auto"

    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(points_per_unit=0)
        with pytest.raises(ValueError):
            SolverConfig(max_step=0.0)

    def test_replace_and_hashable(self):
        config = SolverConfig().replace(points_per_unit=12)
        assert config.points_per_unit == 12
        assert hash(config) == hash(SolverConfig(points_per_unit=12))

    def test_mixing_config_and_legacy_knobs_rejected(self):
        # The scattered knobs are gone: the typed configs are the one form.
        with pytest.raises(TypeError):
            DiffusionPredictor(points_per_unit=12, solver=SolverConfig())
        with pytest.raises(TypeError):
            BatchPredictor(backend="scipy")
        with pytest.raises(TypeError):
            DiffusionPredictor(calibration_batch=True)

    def test_typed_configs_and_calibration_defaults(self):
        solver = SolverConfig(points_per_unit=12, backend="scipy")
        assert DiffusionPredictor(solver=solver).solver_config == solver
        assert DiffusionPredictor().calibration_config == CalibrationConfig(batch=False)
        assert BatchPredictor().calibration_config == CalibrationConfig(batch=True)


class TestModelSpec:
    def test_params_are_copied(self):
        params = {"ridge": 1.0}
        spec = ModelSpec(name="linear-influence", params=params)
        params["ridge"] = 2.0
        assert spec.params["ridge"] == 1.0

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            ModelSpec(name="")

    def test_coerce_spec_defaults(self):
        spec = coerce_spec(None, "logistic")
        assert spec.name == "logistic"
        assert spec.solver == SolverConfig()

    def test_coerce_spec_rejects_wrong_model(self):
        with pytest.raises(ValueError, match="passed to the 'sis' model"):
            coerce_spec(ModelSpec(name="logistic"), "sis")

    def test_coerce_spec_rejects_unknown_params(self):
        spec = ModelSpec(name="logistic", params={"frobnicate": 1})
        with pytest.raises(ValueError, match="does not understand params"):
            coerce_spec(spec, "logistic", ("carrying_capacity_cap",))

    def test_to_json_dict_is_plain(self):
        import json

        spec = ModelSpec(name="sis", params={"pool_percent": 40.0})
        assert json.loads(json.dumps(spec.to_json_dict()))["name"] == "sis"


class TestNotFittedError:
    def test_predictor_raises_typed_error(self):
        with pytest.raises(NotFittedError):
            DiffusionPredictor().parameters
        with pytest.raises(NotFittedError):
            BatchPredictor().evaluate({})

    def test_not_fitted_is_a_runtime_error(self):
        # Pre-registry callers caught RuntimeError; the typed error subclasses
        # it so they keep working.
        assert issubclass(NotFittedError, RuntimeError)
