"""Tests for the long-lived prediction daemon and its JSON-lines protocol.

Transport coverage uses a Unix socket served inside the test's event loop
(one subprocess test exercises the stdio transport through the real CLI).
The load-bearing property mirrors the service tests: the daemon adds
transport and scheduling, never numerics -- its streamed results must be
bit-identical to the synchronous :class:`BatchPredictor`.
"""

import asyncio
import contextlib
import gc
import json
import os
import subprocess
import sys
import time
import weakref
from pathlib import Path

from repro.core.prediction import BatchPredictor
from repro.service import (
    ClientQuota,
    DaemonClient,
    PredictionDaemon,
    daemon as daemon_module,
    execution,
    open_corpus,
)
from repro.service.service import DEFAULT_MAX_SHARD_SIZE

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")

HOURS = 4
TRAINING_TIMES = [float(t) for t in range(1, HOURS + 1)]


def inline_story(name: str, scale: float = 1.0) -> dict:
    return {
        "name": name,
        "distances": [1, 2, 3, 4, 5],
        "times": [1, 2, 3, 4],
        "values": [
            [scale * v for v in row]
            for row in (
                [5.0, 2.0, 2.5, 1.5, 1.0],
                [7.0, 3.0, 3.5, 2.0, 1.4],
                [9.0, 4.2, 4.6, 2.6, 1.9],
                [11.0, 5.5, 5.8, 3.3, 2.5],
            )
        ],
    }


def manifest_payload(*stories) -> dict:
    return {"metric": "hops", "hours": HOURS, "stories": list(stories)}


@contextlib.asynccontextmanager
async def running_daemon(tmp_path, **daemon_kwargs):
    """A daemon serving a Unix socket in this loop; shut down on exit."""
    socket_path = str(tmp_path / "daemon.sock")
    daemon = PredictionDaemon(**daemon_kwargs)
    server = asyncio.ensure_future(daemon.serve(socket_path))
    deadline = time.monotonic() + 5.0
    while not os.path.exists(socket_path):
        if server.done() or time.monotonic() > deadline:
            await server  # surface the startup error
            raise RuntimeError("daemon socket never appeared")
        await asyncio.sleep(0.005)
    try:
        yield socket_path, daemon
    finally:
        if not server.done():
            try:
                async with await DaemonClient.connect(socket_path) as client:
                    await client.shutdown()
            except (ConnectionError, OSError):
                server.cancel()
        await asyncio.gather(server, return_exceptions=True)


async def collect_submission(client: DaemonClient, manifest: dict, **kwargs):
    """Drive one submit; return (accepted, results-by-story, job, errors)."""
    accepted, results, job_event, errors = None, {}, None, []
    async for event in client.submit(manifest, **kwargs):
        kind = event["event"]
        if kind == "accepted":
            accepted = event
        elif kind == "result":
            results[event["story"]] = event
        elif kind == "job":
            job_event = event
        elif kind == "error":
            errors.append(event)
    return accepted, results, job_event, errors


class TestProtocolFraming:
    def test_malformed_and_unknown_requests_get_error_events(self, tmp_path):
        async def run():
            async with running_daemon(tmp_path) as (socket_path, _):
                async with await DaemonClient.connect(socket_path) as client:
                    responses = []
                    for raw in (
                        "this is not json",
                        '["an", "array"]',
                        '{"op": "frobnicate"}',
                        '{"op": "submit"}',
                        '{"op": "submit", "manifest": {}, "surprise": 1}',
                        '{"op": "submit", "manifest": {"stories": ["s1"]}}',
                        '{"op": "status", "id": "nope"}',
                    ):
                        client._writer.write((raw + "\n").encode())
                        await client._writer.drain()
                        responses.append(await client._receive())
                    # The connection survived all of it.
                    assert (await client.ping())["event"] == "pong"
                    return responses

        responses = asyncio.run(run())
        assert all(event["event"] == "error" for event in responses)
        assert "invalid JSON" in responses[0]["error"]
        assert "must be an object" in responses[1]["error"]
        assert "unknown op 'frobnicate'" in responses[2]["error"]
        assert "needs a 'manifest'" in responses[3]["error"]
        assert "unknown submit field(s) ['surprise']" in responses[4]["error"]
        assert "invalid manifest" in responses[5]["error"]  # corpus ref, no block
        assert "unknown job 'nope'" in responses[6]["error"]

    def test_empty_manifest_and_bad_timeout_rejected(self, tmp_path):
        async def run():
            async with running_daemon(tmp_path) as (socket_path, _):
                async with await DaemonClient.connect(socket_path) as client:
                    empty = await client.request(
                        {"op": "submit", "manifest": {"stories": []}}
                    )
                    bad_timeout = await client.request(
                        {
                            "op": "submit",
                            "manifest": manifest_payload(inline_story("a")),
                            "timeout": -3,
                        }
                    )
                    return empty, bad_timeout

        empty, bad_timeout = asyncio.run(run())
        assert "contains no stories" in empty["error"]
        assert "'timeout' must be a positive number" in bad_timeout["error"]


class TestSubmission:
    def test_results_bit_identical_to_batch_predictor(self, tmp_path):
        manifest = manifest_payload(
            inline_story("alpha"), inline_story("beta", scale=0.8)
        )

        async def run():
            async with running_daemon(tmp_path, max_workers=2) as (socket_path, _):
                async with await DaemonClient.connect(socket_path) as client:
                    return await collect_submission(client, manifest, job_id="bits")

        accepted, results, job_event, errors = asyncio.run(run())
        assert not errors
        assert accepted["id"] == "bits"
        assert accepted["stories"] == ["alpha", "beta"] and accepted["skipped"] == []
        assert job_event["status"] == "completed"
        assert job_event["stories"]["succeeded"] == 2

        surfaces = open_corpus(manifest).resolve(None, TRAINING_TIMES).surfaces
        reference = (
            BatchPredictor()
            .fit(surfaces, training_times=TRAINING_TIMES)
            .evaluate(surfaces, times=TRAINING_TIMES[1:])
        )
        for name in surfaces:
            record = results[name]
            assert record["status"] == "succeeded"
            # JSON floats round-trip exactly: bit-identical means ==.
            assert record["overall_accuracy"] == reference[name].overall_accuracy
            assert (
                record["parameters"]
                == reference[name].parameters.to_json_dict()
            )
            expected_by_distance = {
                str(d): reference[name].accuracy_at_distance(d)
                for d in reference[name].predicted.distances
            }
            assert record["accuracy_by_distance"] == expected_by_distance

    def test_skipped_story_streams_a_skipped_result(self, tmp_path):
        empty = inline_story("empty")
        empty["values"][0] = [0.0] * 5  # nothing influenced in hour 1
        manifest = manifest_payload(inline_story("good"), empty)

        async def run():
            async with running_daemon(tmp_path) as (socket_path, _):
                async with await DaemonClient.connect(socket_path) as client:
                    return await collect_submission(client, manifest)

        accepted, results, job_event, errors = asyncio.run(run())
        assert not errors
        assert accepted["skipped"] == ["empty"]
        assert results["empty"]["status"] == "skipped"
        assert "first observed hour" in results["empty"]["reason"]
        assert results["good"]["status"] == "succeeded"
        assert job_event["stories"]["skipped"] == 1

    def test_duplicate_job_id_rejected_generated_ids_unique(self, tmp_path):
        manifest = manifest_payload(inline_story("a"))

        async def run():
            async with running_daemon(tmp_path) as (socket_path, _):
                async with await DaemonClient.connect(socket_path) as client:
                    first = await collect_submission(client, manifest, job_id="dup")
                    second = await collect_submission(client, manifest, job_id="dup")
                    third = await collect_submission(client, manifest)
                    fourth = await collect_submission(client, manifest)
                    return first, second, third, fourth

        first, second, third, fourth = asyncio.run(run())
        assert first[2]["status"] == "completed"
        assert second[3] and "already exists" in second[3][0]["error"]
        generated = {third[0]["id"], fourth[0]["id"]}
        assert len(generated) == 2 and all(i.startswith("job-") for i in generated)

    def test_generated_id_dodges_explicit_client_id(self, tmp_path):
        # A client explicitly named its job "job-1"; the first generated id
        # must not collide with (and overwrite) it.
        manifest = manifest_payload(inline_story("a"))

        async def run():
            async with running_daemon(tmp_path) as (socket_path, _):
                async with await DaemonClient.connect(socket_path) as client:
                    explicit = await collect_submission(client, manifest, job_id="job-1")
                    generated = await collect_submission(client, manifest)
                    status = await client.status("job-1")
                    return explicit, generated, status

        explicit, generated, status = asyncio.run(run())
        assert explicit[0]["id"] == "job-1"
        assert generated[0]["id"] != "job-1"
        assert status["stories"]["succeeded"] == 1  # job-1 untouched

    def test_completed_jobs_are_pruned_beyond_retention_cap(self, tmp_path):
        manifest = manifest_payload(inline_story("a"))

        async def run():
            async with running_daemon(tmp_path, max_completed_jobs=2) as (
                socket_path,
                daemon,
            ):
                async with await DaemonClient.connect(socket_path) as client:
                    for index in range(4):
                        await collect_submission(client, manifest, job_id=f"j{index}")
                    listing = await client.status()
                    evicted = await client.status("j0")
                    return listing, evicted, set(daemon._jobs)

        listing, evicted, retained = asyncio.run(run())
        assert retained == {"j2", "j3"}  # oldest completed evicted
        assert [job["id"] for job in listing["jobs"]] == ["j2", "j3"]
        assert evicted["event"] == "error" and "unknown job" in evicted["error"]

    def test_concurrent_jobs_over_separate_connections(self, tmp_path):
        async def run():
            async with running_daemon(tmp_path, max_workers=2) as (socket_path, _):
                async def one(job_id, scale):
                    async with await DaemonClient.connect(socket_path) as client:
                        return await collect_submission(
                            client,
                            manifest_payload(inline_story(f"{job_id}-story", scale)),
                            job_id=job_id,
                        )

                outcomes = await asyncio.gather(one("left", 1.0), one("right", 0.7))
                async with await DaemonClient.connect(socket_path) as client:
                    stats = await client.stats()
                return outcomes, stats

        outcomes, stats = asyncio.run(run())
        for accepted, results, job_event, errors in outcomes:
            assert not errors
            assert job_event["stories"]["succeeded"] == 1
        assert stats["jobs"] == {"active": 0, "completed": 2, "total": 2}
        # Both jobs shared one service: its counters aggregate across jobs.
        assert stats["service"]["stories_solved"] == 2

    def test_story_timeout_streams_timed_out_result(self, tmp_path, monkeypatch):
        original = execution.solve_shard_report

        def slow(payload):
            time.sleep(0.5)
            return original(payload)

        monkeypatch.setattr(execution, "solve_shard_report", slow)

        async def run():
            async with running_daemon(tmp_path) as (socket_path, _):
                async with await DaemonClient.connect(socket_path) as client:
                    return await collect_submission(
                        client,
                        manifest_payload(inline_story("slowpoke")),
                        timeout=0.1,
                    )

        accepted, results, job_event, errors = asyncio.run(run())
        assert not errors
        assert accepted["timeout"] == 0.1
        assert results["slowpoke"]["status"] == "timed_out"
        assert "deadline" in results["slowpoke"]["error"]
        assert job_event["stories"]["timed_out"] == 1

    def test_default_timeout_applies_to_submits_without_one(
        self, tmp_path, monkeypatch
    ):
        original = execution.solve_shard_report

        def slow(payload):
            time.sleep(0.5)
            return original(payload)

        monkeypatch.setattr(execution, "solve_shard_report", slow)

        async def run():
            async with running_daemon(tmp_path, default_timeout=0.1) as (
                socket_path,
                _,
            ):
                async with await DaemonClient.connect(socket_path) as client:
                    return await collect_submission(
                        client, manifest_payload(inline_story("slowpoke"))
                    )

        accepted, results, job_event, errors = asyncio.run(run())
        assert not errors
        assert accepted["timeout"] == 0.1
        assert results["slowpoke"]["status"] == "timed_out"
        assert job_event["stories"]["timed_out"] == 1


class TestStatusAndStats:
    def test_status_reports_counts_and_listing(self, tmp_path):
        async def run():
            async with running_daemon(tmp_path) as (socket_path, _):
                async with await DaemonClient.connect(socket_path) as client:
                    await collect_submission(
                        client, manifest_payload(inline_story("a")), job_id="tracked"
                    )
                    single = await client.status("tracked")
                    listing = await client.status()
                    return single, listing

        single, listing = asyncio.run(run())
        assert single["id"] == "tracked" and single["status"] == "completed"
        assert single["stories"]["succeeded"] == 1
        assert [job["id"] for job in listing["jobs"]] == ["tracked"]

    def test_completed_job_keeps_only_its_story_counts(self, tmp_path, monkeypatch):
        # A finished job freezes its per-status counts and drops its
        # PredictionJobs, so their surfaces and results are freed once
        # streamed instead of living as long as the job's status history.
        results = []

        def capture(result):
            results.append(weakref.ref(result))
            return story_result_payload(result)

        story_result_payload = daemon_module.story_result_payload
        monkeypatch.setattr(daemon_module, "story_result_payload", capture)
        manifest = manifest_payload(inline_story("a"), inline_story("b", 0.8))

        async def run():
            async with running_daemon(tmp_path) as (socket_path, daemon):
                async with await DaemonClient.connect(socket_path) as client:
                    _, _, job_event, _ = await collect_submission(
                        client, manifest, job_id="freed"
                    )
                    status = await client.status("freed")
                    story_jobs = dict(daemon._jobs["freed"].story_jobs)
                    gc.collect()
                    alive = [ref() is not None for ref in results]
                    return job_event, status, story_jobs, alive

        job_event, status, story_jobs, alive = asyncio.run(run())
        assert job_event["stories"]["succeeded"] == 2
        assert status["status"] == "completed"
        assert status["stories"] == job_event["stories"]
        assert story_jobs == {}
        assert len(alive) == 2 and not any(alive)

    def test_default_workers_follow_the_executor(self, tmp_path):
        async def stats_for(**daemon_kwargs):
            async with running_daemon(tmp_path, **daemon_kwargs) as (socket_path, _):
                async with await DaemonClient.connect(socket_path) as client:
                    return (await client.stats())["service"]

        thread = asyncio.run(stats_for())
        process = asyncio.run(stats_for(executor="process"))
        cluster = asyncio.run(
            stats_for(
                executor="cluster",
                executor_options={"workers": ["tcp:127.0.0.1:1"]},
            )
        )
        assert (thread["executor"], thread["workers"]) == ("thread", 1)
        assert (process["executor"], process["workers"]) == ("process", 4)
        assert (cluster["executor"], cluster["workers"]) == ("cluster", 4)

    def test_stats_exposes_service_counters_and_telemetry(self, tmp_path):
        async def run():
            async with running_daemon(tmp_path) as (socket_path, _):
                async with await DaemonClient.connect(socket_path) as client:
                    await collect_submission(
                        client, manifest_payload(inline_story("a"))
                    )
                    return await client.stats()

        stats = asyncio.run(run())
        assert stats["uptime_seconds"] > 0.0
        assert stats["service"]["succeeded"] == 1
        assert stats["service"]["max_shard_size"] == DEFAULT_MAX_SHARD_SIZE
        # The worker-pool identity travels through daemon-stats, so
        # operators can tell a process-backed daemon from a thread-backed
        # one without reading its launch flags.
        assert stats["service"]["executor"] == "thread"
        assert stats["service"]["workers"] == stats["service"]["max_workers"]
        assert stats["service"]["executor_info"]["executor"] == "thread"
        metrics = stats["metrics"]
        assert metrics["daemon.jobs_submitted"] == 1
        assert metrics["service.jobs_succeeded"] == 1
        assert metrics["service.shard_solve_seconds"]["count"] == 1
        assert metrics['service.worker_pool_size{executor="thread"}'] >= 1

    def test_daemon_runs_on_the_process_executor(self, tmp_path):
        # The daemon forwards executor selection to its service; results
        # must stream back from process workers exactly like thread ones.
        async def run():
            async with running_daemon(
                tmp_path, executor="process", max_workers=2
            ) as (socket_path, _):
                async with await DaemonClient.connect(socket_path) as client:
                    outcome = await collect_submission(
                        client, manifest_payload(inline_story("a"))
                    )
                    return outcome, await client.stats()

        (accepted, results, job_event, errors), stats = asyncio.run(run())
        assert not errors
        assert results["a"]["status"] == "succeeded"
        assert stats["service"]["executor"] == "process"
        assert stats["service"]["executor_info"]["respawns"] == 0
        assert stats["service"]["executor_info"]["start_method"]


class TestShutdown:
    def test_shutdown_drains_inflight_jobs_before_exiting(self, tmp_path):
        # A job submitted on one connection must still stream its results
        # even when another connection requests shutdown right away.
        async def run():
            async with running_daemon(tmp_path) as (socket_path, _):
                submitter = await DaemonClient.connect(socket_path)
                stream = submitter.submit(
                    manifest_payload(inline_story("draining")), job_id="draining"
                )
                accepted = await stream.__anext__()
                assert accepted["event"] == "accepted"
                async with await DaemonClient.connect(socket_path) as other:
                    ack = await other.shutdown()
                assert ack == {"event": "shutdown", "drain": True}
                events = [event async for event in stream]
                await submitter.close()
                return events

        events = asyncio.run(run())
        kinds = [event["event"] for event in events]
        assert "result" in kinds and kinds[-1] == "job"
        (result,) = [e for e in events if e["event"] == "result"]
        assert result["status"] == "succeeded"

    def test_submit_after_shutdown_gets_error_not_hang(self, tmp_path):
        async def run():
            async with running_daemon(tmp_path) as (socket_path, daemon):
                daemon._accepting = False  # as the shutdown op does first
                async with await DaemonClient.connect(socket_path) as client:
                    return await client.request(
                        {"op": "submit", "manifest": manifest_payload(inline_story("a"))}
                    )

        response = asyncio.run(run())
        assert response["event"] == "error"
        assert "shutting down" in response["error"]


class TestCliSubmitExitCodes:
    def test_all_skipped_job_exits_1(self, tmp_path, capsys):
        # `repro submit` must mirror serve-batch: nothing scored (every
        # story skipped) is exit 1, not a silent 0.
        from repro.cli import main

        empty = inline_story("void")
        empty["values"] = [[0.0] * 5 for _ in range(4)]
        manifest_path = tmp_path / "skipped.json"
        manifest_path.write_text(json.dumps(manifest_payload(empty)))

        async def run():
            async with running_daemon(tmp_path) as (socket_path, _):
                # The CLI spins its own event loop, so run it off-loop.
                return await asyncio.get_running_loop().run_in_executor(
                    None,
                    main,
                    ["submit", "--connect", socket_path, "--manifest", str(manifest_path)],
                )

        exit_code = asyncio.run(run())
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "every story in the manifest was skipped" in captured.err
        (record,) = [json.loads(line) for line in captured.out.strip().splitlines()]
        assert record["status"] == "skipped"


class TestStdioTransport:
    def test_cli_daemon_over_pipes_end_to_end(self):
        requests = "\n".join(
            json.dumps(line)
            for line in (
                {"op": "ping"},
                {
                    "op": "submit",
                    "manifest": manifest_payload(inline_story("piped")),
                    "id": "stdio-job",
                },
                {"op": "stats"},
            )
        )
        process = subprocess.run(
            [sys.executable, "-m", "repro", "daemon"],
            input=requests + "\n",
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": REPO_SRC},
        )
        assert process.returncode == 0, process.stderr
        events = [json.loads(line) for line in process.stdout.splitlines()]
        kinds = [event["event"] for event in events]
        assert kinds[0] == "pong"
        assert "accepted" in kinds and "job" in kinds
        (result,) = [e for e in events if e["event"] == "result"]
        assert result["status"] == "succeeded" and result["story"] == "piped"
        (stats,) = [e for e in events if e["event"] == "stats"]
        assert stats["jobs"]["total"] == 1
        assert "daemon stopped" in process.stderr

    def test_shutdown_op_exits_even_with_stdin_held_open(self):
        # The README promises a shutdown request drains and exits; that must
        # hold while the client keeps the pipe open waiting for the exit --
        # the read loop may not stay parked in readline().
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "daemon"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": REPO_SRC},
        )
        try:
            process.stdin.write(json.dumps({"op": "shutdown"}) + "\n")
            process.stdin.flush()
            # stdin deliberately left open.
            process.wait(timeout=60)
        finally:
            process.kill()
        assert process.returncode == 0
        ack = json.loads(process.stdout.readline())
        assert ack == {"drain": True, "event": "shutdown"}


class TestClientQuota:
    """Per-client quotas: typed rejections, isolation between connections."""

    def test_quota_bounds_validated(self):
        import pytest

        with pytest.raises(ValueError, match="max_jobs"):
            ClientQuota(max_jobs=0)
        with pytest.raises(ValueError, match="max_stories"):
            ClientQuota(max_stories=-1)
        assert ClientQuota().unlimited
        assert not ClientQuota(max_jobs=3).unlimited

    def test_job_quota_rejects_second_inflight_submit(self, tmp_path, monkeypatch):
        original = execution.solve_shard_report

        def slow(payload):
            time.sleep(0.6)
            return original(payload)

        monkeypatch.setattr(execution, "solve_shard_report", slow)

        async def run():
            quota = ClientQuota(max_jobs=1)
            async with running_daemon(tmp_path, quota=quota) as (socket_path, _):
                async with await DaemonClient.connect(socket_path) as first:
                    await first._send(
                        {
                            "op": "submit",
                            "manifest": manifest_payload(inline_story("a")),
                            "id": "hog",
                        }
                    )
                    accepted = await first._receive()
                    # The same client's second in-flight job busts the quota.
                    await first._send(
                        {
                            "op": "submit",
                            "manifest": manifest_payload(inline_story("b")),
                            "id": "greedy",
                        }
                    )
                    rejection = await first._receive()
                    # A different connection is a different client: its
                    # budget is untouched by the hog.
                    async with await DaemonClient.connect(socket_path) as second:
                        _, _, other_job, other_errors = await collect_submission(
                            second,
                            manifest_payload(inline_story("c")),
                            job_id="other",
                        )
                    # Drain the hog's stream; completion releases its slot.
                    while True:
                        event = await first._receive()
                        if event.get("event") == "job":
                            break
                    _, _, retry_job, retry_errors = await collect_submission(
                        first, manifest_payload(inline_story("d")), job_id="retry"
                    )
                    async with await DaemonClient.connect(socket_path) as probe:
                        stats = await probe.stats()
                return accepted, rejection, (other_job, other_errors), (
                    retry_job,
                    retry_errors,
                ), stats

        accepted, rejection, other, retry, stats = asyncio.run(run())
        assert accepted["event"] == "accepted" and accepted["id"] == "hog"
        assert rejection["event"] == "error" and rejection["id"] == "greedy"
        assert rejection["error_type"] == "quota_exceeded"
        assert rejection["quota"] == {
            "kind": "jobs",
            "limit": 1,
            "in_flight": 1,
            "requested": 1,
        }
        assert "client quota exceeded" in rejection["error"]
        other_job, other_errors = other
        assert not other_errors and other_job["stories"]["succeeded"] == 1
        retry_job, retry_errors = retry
        assert not retry_errors and retry_job["stories"]["succeeded"] == 1
        assert stats["metrics"]["daemon.quota_rejections"] == 1
        assert stats["metrics"]['daemon.quota_rejections{kind="jobs"}'] == 1
        # The rejected job never existed: only the accepted ones are known.
        assert stats["jobs"]["total"] == 3

    def test_story_quota_rejects_oversized_manifest_whole(self, tmp_path):
        async def run():
            quota = ClientQuota(max_stories=1)
            async with running_daemon(tmp_path, quota=quota) as (socket_path, _):
                async with await DaemonClient.connect(socket_path) as client:
                    _, _, _, errors = await collect_submission(
                        client,
                        manifest_payload(inline_story("a"), inline_story("b")),
                        job_id="big",
                    )
                    # A manifest within budget still goes through afterwards.
                    _, _, job_event, ok_errors = await collect_submission(
                        client, manifest_payload(inline_story("solo"))
                    )
                return errors, job_event, ok_errors

        errors, job_event, ok_errors = asyncio.run(run())
        (rejection,) = errors
        assert rejection["error_type"] == "quota_exceeded"
        assert rejection["quota"] == {
            "kind": "stories",
            "limit": 1,
            "in_flight": 0,
            "requested": 2,
        }
        assert not ok_errors and job_event["stories"]["succeeded"] == 1


class TestTraceOp:
    def test_trace_op_returns_well_formed_span_tree(self, tmp_path):
        from repro.service.tracing import span_tree, validate_trace

        async def run():
            async with running_daemon(tmp_path, trace=True) as (socket_path, _):
                async with await DaemonClient.connect(socket_path) as client:
                    await collect_submission(
                        client, manifest_payload(inline_story("a")), job_id="traced"
                    )
                    return await client.trace("traced")

        payload = asyncio.run(run())
        assert payload["event"] == "trace" and payload["id"] == "traced"
        trace_id = payload["trace"]
        records = payload["spans"]
        assert trace_id and records
        assert validate_trace(records, trace_id) == []
        (root,) = span_tree(records, trace_id)
        assert root.name == "job"
        assert root.record["attributes"]["job"] == "traced"
        names = {r["name"] for r in records}
        # Every hot boundary shows up: request parse, quota check, manifest
        # resolution, queueing, the solve itself and the result emission.
        assert {
            "session.parse",
            "quota.check",
            "manifest.resolve",
            "story",
            "queue.wait",
            "shard.solve",
            "result.emit",
        } <= names

    def test_trace_op_unknown_job_and_disabled_daemon(self, tmp_path):
        async def run():
            async with running_daemon(tmp_path) as (socket_path, _):
                async with await DaemonClient.connect(socket_path) as client:
                    missing = await client.trace("ghost")
                    await collect_submission(
                        client, manifest_payload(inline_story("a")), job_id="plain"
                    )
                    untraced = await client.trace("plain")
                    return missing, untraced

        missing, untraced = asyncio.run(run())
        assert missing["event"] == "error"
        assert "unknown job" in missing["error"]
        # Without --trace the op still answers, with an empty span list.
        assert untraced["event"] == "trace"
        assert untraced["trace"] is None and untraced["spans"] == []

    def test_trace_dir_exports_replayable_span_file(self, tmp_path):
        from repro.service.tracing import (
            SPANS_FILENAME,
            load_span_file,
            trace_for_job,
            validate_trace,
        )

        trace_dir = tmp_path / "traces"

        async def run():
            async with running_daemon(tmp_path, trace_dir=str(trace_dir)) as (
                socket_path,
                _,
            ):
                async with await DaemonClient.connect(socket_path) as client:
                    await collect_submission(
                        client, manifest_payload(inline_story("a")), job_id="filed"
                    )

        asyncio.run(run())
        records = load_span_file(trace_dir / SPANS_FILENAME)
        trace_id = trace_for_job(records, "filed")
        assert trace_id is not None
        assert validate_trace(records, trace_id) == []

    def test_uptime_gauge_in_stats_and_prometheus(self, tmp_path):
        async def run():
            async with running_daemon(tmp_path) as (socket_path, _):
                async with await DaemonClient.connect(socket_path) as client:
                    stats = await client.stats()
                    text = await client.metrics_text()
                    return stats, text

        stats, text = asyncio.run(run())
        assert stats["metrics"]["daemon.uptime_seconds"] > 0.0
        uptime_lines = [
            line
            for line in text.splitlines()
            if line.startswith("repro_daemon_uptime_seconds ")
        ]
        assert len(uptime_lines) == 1
        assert float(uptime_lines[0].split()[-1]) > 0.0

    def test_journal_replay_preserves_trace_ids(self, tmp_path, monkeypatch):
        # An interrupted job's trace id must survive the journal round-trip
        # so operators can still `repro trace` it against the span file.
        from repro.service.journal import replay_records

        journal_dir = tmp_path / "journal"

        async def run():
            async with running_daemon(
                tmp_path, trace=True, journal_dir=str(journal_dir)
            ) as (socket_path, _):
                async with await DaemonClient.connect(socket_path) as client:
                    await collect_submission(
                        client, manifest_payload(inline_story("a")), job_id="kept"
                    )
                    payload = await client.trace("kept")
                    return payload["trace"]

        trace_id = asyncio.run(run())
        journal_file = next(journal_dir.glob("*.jsonl"))
        with open(journal_file, encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle if line.strip()]
        submits = [r for r in records if r.get("type") == "submit"]
        assert submits and submits[0]["trace"] == trace_id
        # replay_records carries the id through to the replayed job.
        replayed = replay_records(records)
        assert replayed["kept"].trace_id == trace_id
