"""Daemon-level coverage of the model registry: mixed manifests + metrics op."""

import asyncio

from repro.models import get_model
from repro.service import DaemonClient

from tests.service.test_daemon import (
    collect_submission,
    inline_story,
    manifest_payload,
    running_daemon,
    TRAINING_TIMES,
)


def _surface_for(story: dict):
    from repro.service.manifest import open_corpus

    manifest = open_corpus(manifest_payload(story))
    return manifest.resolve(None, TRAINING_TIMES).surfaces[story["name"]]


class TestMixedModelManifest:
    def test_per_story_models_resolve_and_attribute(self, tmp_path):
        async def run():
            manifest = manifest_payload(
                inline_story("alpha"),
                {**inline_story("beta", scale=1.2), "model": "logistic"},
            )
            async with running_daemon(tmp_path) as (socket_path, _):
                async with await DaemonClient.connect(socket_path) as client:
                    accepted, results, job, errors = await collect_submission(
                        client, manifest
                    )
                    stats = await client.stats()
            return results, stats

        results, stats = asyncio.run(run())
        assert results["alpha"]["model"] == "dl"
        assert results["beta"]["model"] == "logistic"
        assert results["beta"]["status"] == "succeeded"
        # Different models: never one shard, even with one spatial signature.
        assert stats["service"]["shards_solved"] >= 2
        metrics = stats["metrics"]
        assert metrics['service.jobs_succeeded{model="dl"}'] == 1
        assert metrics['service.jobs_succeeded{model="logistic"}'] == 1

        # Streamed logistic result is bit-identical to the direct path.
        surface = _surface_for(inline_story("beta", scale=1.2))
        fitted = get_model("logistic").fit(surface, training_times=TRAINING_TIMES)
        reference = fitted.evaluate(surface, times=TRAINING_TIMES[1:])
        assert results["beta"]["overall_accuracy"] == reference.overall_accuracy
        assert (
            results["beta"]["parameters"] == reference.parameters.to_json_dict()
        )

    def test_submit_model_override_applies_to_unmarked_stories(self, tmp_path):
        async def run():
            manifest = manifest_payload(inline_story("alpha"))
            async with running_daemon(tmp_path) as (socket_path, _):
                async with await DaemonClient.connect(socket_path) as client:
                    _, results, _, errors = await collect_submission(
                        client, manifest, model="sis"
                    )
            return results, errors

        results, errors = asyncio.run(run())
        assert not errors
        assert results["alpha"]["model"] == "sis"

    def test_unknown_submit_model_is_an_error_event(self, tmp_path):
        async def run():
            manifest = manifest_payload(inline_story("alpha"))
            async with running_daemon(tmp_path) as (socket_path, _):
                async with await DaemonClient.connect(socket_path) as client:
                    _, results, _, errors = await collect_submission(
                        client, manifest, model="frobnicate"
                    )
            return results, errors

        results, errors = asyncio.run(run())
        assert not results
        assert errors and "frobnicate" in errors[0]["error"]

    def test_unknown_manifest_model_is_an_error_event(self, tmp_path):
        async def run():
            manifest = manifest_payload(
                {**inline_story("alpha"), "model": "frobnicate"}
            )
            async with running_daemon(tmp_path) as (socket_path, _):
                async with await DaemonClient.connect(socket_path) as client:
                    _, results, _, errors = await collect_submission(
                        client, manifest
                    )
            return errors

        errors = asyncio.run(run())
        assert errors and "frobnicate" in errors[0]["error"]


class TestMetricsOp:
    def test_metrics_op_returns_prometheus_text(self, tmp_path):
        async def run():
            manifest = manifest_payload(inline_story("alpha"))
            async with running_daemon(tmp_path) as (socket_path, _):
                async with await DaemonClient.connect(socket_path) as client:
                    await collect_submission(client, manifest)
                    return await client.metrics_text()

        text = asyncio.run(run())
        assert "# TYPE repro_service_jobs_succeeded_total counter" in text
        assert 'repro_service_jobs_succeeded_total{model="dl"} 1' in text
        assert "# TYPE repro_daemon_requests_total counter" in text
