"""One story, one answer: every entry point calibrates a story the same way.

``DiffusionPredictor``, ``BatchPredictor`` (story by story and shard by
shard), the ``dl`` registry model and ``calibrate_dl_model`` itself all run
the same grid-then-refine calibration, so they give a story equal
parameters.  The story below is one where a second, nested per-candidate
protocol used to pick a different diffusion rate.
"""

import pytest

from repro.core.calibration import calibrate_dl_model
from repro.core.prediction import BatchPredictor, DiffusionPredictor
from repro.corpus import WorkloadConfig, iter_workload
from repro.models import get_model


@pytest.fixture(scope="module")
def story():
    return dict(iter_workload(WorkloadConfig(stories=16, seed=7)))["story-000000"]


def test_every_entry_point_gives_the_same_parameters(story):
    reference = calibrate_dl_model(story)
    predictor = DiffusionPredictor().fit(story)
    assert predictor.calibration_details["loss"] == reference.loss
    shard = BatchPredictor()
    assert not shard.fit_shard({"story": story}).failures
    fitted = {
        "DiffusionPredictor.fit": predictor.parameters,
        "BatchPredictor.fit_story": BatchPredictor()
        .fit_story("story", story)
        .parameters_for("story"),
        "BatchPredictor.fit_shard": shard.parameters_for("story"),
        'get_model("dl").fit': get_model("dl").fit(story).parameters,
    }
    for entry_point, parameters in fitted.items():
        assert parameters == reference.parameters, entry_point
