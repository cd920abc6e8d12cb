"""Model-registry serving equivalence: service results == direct results.

Extends the delta-vs-batch pattern beyond ``dl``: every registered model's
output through :class:`PredictionService` must be bit-identical to its
direct synchronous ``fit`` + ``evaluate`` path, and mixed-model corpora
must never share shards across models.
"""

import asyncio

import numpy as np
import pytest

from repro.cascade.density import DensitySurface
from repro.core.config import ModelSpec, SolverConfig
from repro.core.dl_model import DiffusiveLogisticModel
from repro.core.errors import UnknownNameError
from repro.core.initial_density import InitialDensity
from repro.core.parameters import PAPER_S1_HOP_PARAMETERS
from repro.models import compare_models, get_model
from repro.service import CorpusSharder, PredictionService, score_corpus_sync

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
def corpus():
    rng = np.random.default_rng(11)
    return {
        f"story{i}": synthetic_surface(list(2.0 + 3.0 * rng.random(5)))
        for i in range(5)
    }


def direct_results(model_name, corpus, spec):
    fitter = get_model(model_name).batch_fitter(spec)
    for name, surface in corpus.items():
        fitter.fit_story(name, surface, TRAINING_TIMES)
    return fitter.evaluate(corpus, times=EVALUATION_TIMES)


class TestEveryModelIsBitIdenticalThroughTheService:
    @pytest.mark.parametrize(
        "model_name", ["dl", "logistic", "sis", "linear-influence"]
    )
    def test_service_matches_direct_path(self, corpus, model_name):
        params = (
            {"parameters": PAPER_S1_HOP_PARAMETERS} if model_name == "dl" else {}
        )
        spec = ModelSpec(name=model_name, params=params, solver=SOLVER)
        reference = direct_results(model_name, corpus, spec)

        service_kwargs = dict(model=model_name, solver=SOLVER, max_workers=3)
        if model_name == "dl":
            service_kwargs["parameters"] = PAPER_S1_HOP_PARAMETERS
        served = score_corpus_sync(
            corpus,
            training_times=TRAINING_TIMES,
            evaluation_times=EVALUATION_TIMES,
            **service_kwargs,
        )

        assert set(served) == set(reference)
        for name in corpus:
            assert np.array_equal(
                served[name].predicted.values, reference[name].predicted.values
            ), f"{model_name}: {name} diverged through the service"
            assert np.array_equal(
                served[name].accuracy_table.accuracies,
                reference[name].accuracy_table.accuracies,
            )
            assert served[name].model == model_name


class TestMixedModelCorpus:
    def test_shards_never_mix_models(self, corpus):
        models = {"story0": "logistic", "story1": "logistic"}

        async def run():
            async with PredictionService(
                parameters=PAPER_S1_HOP_PARAMETERS, solver=SOLVER, max_workers=2
            ) as service:
                jobs = [
                    await service.submit(
                        name,
                        surface,
                        TRAINING_TIMES,
                        EVALUATION_TIMES,
                        model=models.get(name),
                    )
                    for name, surface in corpus.items()
                ]
                results = {job.name: await job.wait() for job in jobs}
                return results, service.stats(), service.metrics.snapshot()

        results, stats, metrics = asyncio.run(run())

        # Two models -> at least two shards even though every surface shares
        # one spatial signature.
        assert stats["shards_solved"] >= 2
        for name, result in results.items():
            expected = models.get(name, "dl")
            assert result.model == expected

        # Per-model attribution via labeled counters.
        assert metrics['service.jobs_succeeded{model="logistic"}'] == 2
        assert metrics['service.jobs_succeeded{model="dl"}'] == len(corpus) - 2
        assert metrics["service.jobs_succeeded"] == len(corpus)

        # Each side matches its direct reference.
        logistic_corpus = {n: corpus[n] for n in models}
        dl_corpus = {n: s for n, s in corpus.items() if n not in models}
        logistic_reference = direct_results(
            "logistic", logistic_corpus, ModelSpec(name="logistic", solver=SOLVER)
        )
        dl_reference = direct_results(
            "dl",
            dl_corpus,
            ModelSpec(
                name="dl",
                params={"parameters": PAPER_S1_HOP_PARAMETERS},
                solver=SOLVER,
            ),
        )
        for name, reference in {**logistic_reference, **dl_reference}.items():
            assert np.array_equal(
                results[name].predicted.values, reference.predicted.values
            )

    def test_sharder_separates_models(self, corpus):
        sharder = CorpusSharder(solver=SOLVER)
        shards = sharder.shard(
            corpus,
            TRAINING_TIMES,
            EVALUATION_TIMES,
            models={"story0": "logistic"},
        )
        assert len(shards) == 2
        by_model = {shard.key.model: shard.story_names for shard in shards}
        assert by_model["logistic"] == ("story0",)
        assert len(by_model["dl"]) == len(corpus) - 1

    def test_unknown_model_fails_at_submit(self, corpus):
        async def run():
            async with PredictionService(solver=SOLVER) as service:
                with pytest.raises(UnknownNameError):
                    await service.submit(
                        "x", corpus["story0"], TRAINING_TIMES, model="frobnicate"
                    )

        asyncio.run(run())

    def test_unknown_default_model_fails_at_construction(self):
        with pytest.raises(UnknownNameError):
            PredictionService(model="frobnicate")

    def test_dl_parameters_rejected_for_other_models(self):
        with pytest.raises(ValueError, match="model_params"):
            PredictionService(
                model="logistic", parameters=PAPER_S1_HOP_PARAMETERS
            )


class TestModelOverrideParams:
    def test_override_params_reach_the_override_model(self, corpus):
        # Regression: per-model params for *non-default* models used to be
        # dropped on the shard-solving path, so an override model always ran
        # with registry defaults no matter what the caller configured.
        pool_percent = 80.0
        story = {"story0": corpus["story0"]}

        async def run():
            async with PredictionService(
                parameters=PAPER_S1_HOP_PARAMETERS,
                solver=SOLVER,
                model_overrides={"sis": {"pool_percent": pool_percent}},
            ) as service:
                job = await service.submit(
                    "story0",
                    corpus["story0"],
                    TRAINING_TIMES,
                    EVALUATION_TIMES,
                    model="sis",
                )
                return await job.wait()

        served = asyncio.run(run())
        tuned = direct_results(
            "sis",
            story,
            ModelSpec(
                name="sis", params={"pool_percent": pool_percent}, solver=SOLVER
            ),
        )["story0"]
        default = direct_results(
            "sis", story, ModelSpec(name="sis", solver=SOLVER)
        )["story0"]

        assert served.diagnostics["calibration"]["pool_percent"] == pool_percent
        assert np.array_equal(served.predicted.values, tuned.predicted.values)
        # The override must actually change the fit, or this test proves
        # nothing: the configured pool shifts the SIS saturation level.
        assert not np.array_equal(tuned.predicted.values, default.predicted.values)

    def test_override_params_are_validated_like_direct_params(self, corpus):
        async def run():
            async with PredictionService(
                parameters=PAPER_S1_HOP_PARAMETERS,
                solver=SOLVER,
                model_overrides={"linear-influence": {"frobnicate": 1}},
            ) as service:
                job = await service.submit(
                    "story0",
                    corpus["story0"],
                    TRAINING_TIMES,
                    EVALUATION_TIMES,
                    model="linear-influence",
                )
                with pytest.raises(ValueError, match="does not understand params"):
                    await job.wait()

        asyncio.run(run())

    def test_default_model_key_rejected(self):
        with pytest.raises(ValueError, match="model_params"):
            PredictionService(
                solver=SOLVER, model_overrides={"dl": {"parameters": None}}
            )

    def test_unknown_override_model_rejected(self):
        with pytest.raises(UnknownNameError):
            PredictionService(
                solver=SOLVER, model_overrides={"frobnicate": {"x": 1}}
            )


class TestCompareModels:
    def test_head_to_head_covers_requested_models(self, corpus):
        small = {name: corpus[name] for name in list(corpus)[:2]}
        comparison = compare_models(
            small,
            models=("dl", "logistic", "sis"),
            training_times=TRAINING_TIMES,
            evaluation_times=EVALUATION_TIMES,
            solver=SOLVER,
            specs={
                "dl": ModelSpec(
                    name="dl",
                    params={"parameters": PAPER_S1_HOP_PARAMETERS},
                    solver=SOLVER,
                )
            },
        )
        assert comparison.model_names == ("dl", "logistic", "sis")
        rows = comparison.summary_rows()
        assert len(rows) == 3
        for row in rows:
            assert 0.0 <= row["overall_accuracy"] <= 1.0
            for story in small:
                assert row[story] is not None
        # The DL-generated corpus is the DL model's home turf.
        assert rows[0]["model"] == "dl"

    def test_per_model_failures_are_isolated(self, corpus):
        # Two training hours starve linear-influence (needs >= 3) but not
        # the logistic baseline; the comparison must report the failure and
        # still score the healthy model.
        small = {"story0": corpus["story0"]}
        comparison = compare_models(
            small,
            models=("logistic", "linear-influence"),
            training_times=[1.0, 2.0],
            evaluation_times=[3.0, 4.0],
            solver=SOLVER,
        )
        assert comparison.results["logistic"]
        assert not comparison.results["linear-influence"]
        assert "story0" in comparison.failures["linear-influence"]
