"""Tests for the cluster execution backend (router + worker-daemon fleet).

The load-bearing properties mirror the other backend tests:

* the ``cluster`` backend is a first-class registry citizen and validates
  its fleet configuration up front;
* :func:`route_hash` is deterministic (cache affinity survives router
  restarts), losing a worker moves only that worker's shard keys, and
  workers-file parsing reports errors with file:line;
* routing shards over real worker daemons is bit-identical to the thread
  executor -- the cluster decides *where* ``solve_shard_payload`` runs,
  never *how* it computes;
* SIGKILLing one of two worker daemons mid-job reroutes its in-flight
  shards through the service's bisection-retry path and the job still
  completes bit-identically, with ``cluster.reroutes`` incremented.
"""

import asyncio
import base64
import contextlib
import json
import os
import pickle
import socket
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import ModelSpec, SolverConfig
from repro.core.parameters import PAPER_S1_HOP_PARAMETERS
from repro.service import (
    ClusterExecutionBackend,
    DaemonClient,
    PredictionDaemon,
    PredictionService,
    ShardPayload,
    WorkerCrashError,
    WorkerPool,
    AddressError,
    EXECUTORS,
    create_executor,
    load_worker_addresses,
    open_corpus,
    route_hash,
)
from repro.service import transport
from repro.service.sharding import CorpusSharder, ShardKey

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")

HOURS = 4
TRAINING_TIMES = [float(t) for t in range(1, HOURS + 1)]
EVALUATION_TIMES = TRAINING_TIMES[1:]
SOLVER = SolverConfig(points_per_unit=12, max_step=0.02)


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


def corpus_surfaces(count: int = 5) -> dict:
    stories = [inline_story(f"s{i}", scale=0.7 + 0.1 * i) for i in range(count)]
    manifest = open_corpus(manifest_payload(*stories), source="<test>")
    return manifest.resolve(None, TRAINING_TIMES).surfaces


def shard_key(**overrides) -> ShardKey:
    fields = dict(
        lower=1.0,
        upper=5.0,
        initial_time=1.0,
        points_per_unit=12,
        max_step=0.02,
        backend="dense",
        training_times=tuple(TRAINING_TIMES),
        evaluation_times=tuple(EVALUATION_TIMES),
        model="dl",
    )
    fields.update(overrides)
    return ShardKey(**fields)


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


def free_tcp_port() -> int:
    """Reserve an ephemeral port for a subprocess worker daemon."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class TestRegistryAndRouting:
    def test_cluster_backend_is_registered(self):
        assert "cluster" in EXECUTORS

    def test_route_hash_is_deterministic_and_model_sensitive(self):
        key = shard_key()
        worker = "unix:w1.sock"
        assert route_hash(key, worker) == route_hash(shard_key(), worker)
        assert route_hash(key, worker) != route_hash(key, "unix:w2.sock")
        # Distinct signatures must spread: the model, grids and windows
        # are all part of the routing material.
        variants = [
            shard_key(model="fixed-front"),
            shard_key(points_per_unit=16),
            shard_key(training_times=tuple(TRAINING_TIMES[:-1])),
            shard_key(evaluation_times=None),
        ]
        hashes = {route_hash(k, worker) for k in [key, *variants]}
        assert len(hashes) == len(variants) + 1
        assert all(isinstance(h, int) and h >= 0 for h in hashes)

    def test_pool_validates_fleet_configuration(self):
        with pytest.raises(ValueError, match="at least one worker"):
            WorkerPool([])
        with pytest.raises(AddressError, match="not a dialable"):
            WorkerPool(["stdio"])
        with pytest.raises(ValueError, match="needs worker addresses"):
            ClusterExecutionBackend(max_workers=2)

    def test_create_executor_builds_cluster_backend(self):
        backend = create_executor(
            "cluster",
            max_workers=2,
            options={"workers": ["tcp:127.0.0.1:1", "tcp:127.0.0.1:2"]},
        )
        info = backend.describe()
        assert info["executor"] == "cluster"
        assert [entry["worker"] for entry in info["fleet"]] == [
            "tcp:127.0.0.1:1",
            "tcp:127.0.0.1:2",
        ]
        assert all(entry["alive"] is False for entry in info["fleet"])
        assert info["shards_stolen"] == 0 and info["reroutes"] == 0
        backend.shutdown()

    def test_stealing_targets_least_loaded_worker(self):
        pool = WorkerPool(["tcp:127.0.0.1:1", "tcp:127.0.0.1:2", "tcp:127.0.0.1:3"])
        for link in pool.workers:
            link.alive = True
        key = shard_key()
        preferred = pool.route(key)
        assert pool.shards_stolen == 0  # balanced fleet never steals
        # Load the preferred worker past the fleet median: the next route
        # for the same key must steal to the least-loaded worker.
        preferred.inflight = 3
        target = pool.route(key)
        assert target is not preferred
        assert target.inflight == min(l.inflight for l in pool.workers)
        assert pool.shards_stolen == 1

    def test_losing_a_worker_moves_only_its_keys(self):
        # Rendezvous routing: every key whose preferred worker survives
        # stays put, so the survivors keep their operator-cache affinity.
        pool = WorkerPool([f"unix:w{i}.sock" for i in range(4)])
        for link in pool.workers:
            link.alive = True
        keys = [shard_key(points_per_unit=4 + i) for i in range(200)]
        before = [pool.route(key) for key in keys]
        assert {link.label for link in before} == {link.label for link in pool.workers}
        dead = pool.workers[1]
        dead.alive = False
        after = [pool.route(key) for key in keys]
        for old, new in zip(before, after):
            assert new is not dead
            if old is not dead:
                assert new is old
        assert any(old is dead for old in before)
        assert pool.shards_stolen == 0


class TestWorkersFile:
    def test_parses_addresses_skipping_comments_and_blanks(self, tmp_path):
        path = tmp_path / "workers.txt"
        path.write_text(
            "# the fleet\n"
            "\n"
            "tcp:127.0.0.1:7001\n"
            "tcp:127.0.0.1:7002   # second box\n"
            "unix:/tmp/worker.sock\n"
        )
        addresses = load_worker_addresses(str(path))
        assert [str(a) for a in addresses] == [
            "tcp:127.0.0.1:7001",
            "tcp:127.0.0.1:7002",
            "unix:/tmp/worker.sock",
        ]

    def test_bad_line_reports_file_and_line(self, tmp_path):
        path = tmp_path / "workers.txt"
        path.write_text("tcp:127.0.0.1:7001\ntcp:nope\n")
        with pytest.raises(AddressError, match=r"workers\.txt:2"):
            load_worker_addresses(str(path))

    def test_stdio_line_rejected_with_location(self, tmp_path):
        path = tmp_path / "workers.txt"
        path.write_text("# fleet\nstdio\n")
        with pytest.raises(AddressError, match=r"workers\.txt:2.*stdio"):
            load_worker_addresses(str(path))


class TestConnectRetry:
    def test_connect_retries_until_listener_appears(self):
        async def run():
            port = free_tcp_port()

            async def late_server():
                await asyncio.sleep(0.3)
                return await asyncio.start_server(
                    lambda r, w: None, "127.0.0.1", port
                )

            server_task = asyncio.ensure_future(late_server())
            client = await DaemonClient.connect(
                f"tcp:127.0.0.1:{port}", retries=8, backoff=0.05
            )
            client.close_nowait()
            server = await server_task
            server.close()
            await server.wait_closed()

        asyncio.run(run())

    def test_zero_retries_fail_fast(self):
        async def run():
            port = free_tcp_port()
            with pytest.raises((ConnectionError, OSError)):
                await DaemonClient.connect(f"tcp:127.0.0.1:{port}", retries=0)

        asyncio.run(run())

    def test_retry_parameters_validated(self):
        async def run():
            with pytest.raises(ValueError, match="retries"):
                await DaemonClient.connect("tcp:127.0.0.1:1", retries=-1)
            with pytest.raises(ValueError, match="backoff"):
                await DaemonClient.connect(
                    "tcp:127.0.0.1:1", retries=1, backoff=0.0
                )

        asyncio.run(run())


class TestWorkerProtocolOp:
    def _payload(self) -> ShardPayload:
        surfaces = corpus_surfaces(2)
        shards = CorpusSharder(solver=SOLVER, model="dl").shard(
            surfaces, TRAINING_TIMES, EVALUATION_TIMES
        )
        assert len(shards) == 1
        return ShardPayload(
            key=shards[0].key,
            spec=ModelSpec(name="dl", params={}, solver=SOLVER),
            surfaces=dict(shards[0].surfaces),
        )

    def test_worker_op_answers_pickled_report(self, tmp_path):
        payload = self._payload()

        async def run():
            async with running_daemon(tmp_path) as (socket_path, _):
                async with await DaemonClient.connect(socket_path) as client:
                    data = base64.b64encode(
                        pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
                    ).decode("ascii")
                    return await client.request(
                        {"op": "worker", "id": "w-1", "payload": data}
                    )

        event = asyncio.run(run())
        assert event["event"] == "worker_result"
        assert event["id"] == "w-1"
        assert event["worker"].startswith("pid-")
        report = pickle.loads(base64.b64decode(event["report"]))
        assert set(report.outcomes) == set(self._payload().surfaces)

    def test_worker_op_rejects_bad_payloads(self, tmp_path):
        async def run():
            async with running_daemon(tmp_path) as (socket_path, _):
                async with await DaemonClient.connect(socket_path) as client:
                    missing = await client.request({"op": "worker", "id": "w-1"})
                    garbage = await client.request(
                        {"op": "worker", "id": "w-2", "payload": "not base64!!"}
                    )
                    return missing, garbage

        missing, garbage = asyncio.run(run())
        assert "needs a base64 'payload'" in missing["error"]
        assert "undecodable worker payload" in garbage["error"]


class TestClusterExecution:
    def test_results_bit_identical_to_thread_executor(self, worker_fleet):
        surfaces = corpus_surfaces(5)

        async def run():
            async with worker_fleet(2) as addresses:
                async with PredictionService(
                    max_workers=2,
                    executor="cluster",
                    executor_options={"workers": addresses},
                    max_shard_size=2,
                ) as service:
                    results = await service.score_corpus(
                        surfaces, TRAINING_TIMES, EVALUATION_TIMES
                    )
                    stats = service.stats()
                    metrics = service.metrics.snapshot()
                    prometheus = service.metrics.to_prometheus()
            async with PredictionService(max_workers=2, max_shard_size=2) as ref:
                reference = await ref.score_corpus(
                    surfaces, TRAINING_TIMES, EVALUATION_TIMES
                )
            return results, reference, stats, metrics, prometheus

        results, reference, stats, metrics, prometheus = asyncio.run(run())
        assert set(results) == set(surfaces)
        for name in results:
            assert results[name].overall_accuracy == reference[name].overall_accuracy
            assert np.array_equal(
                results[name].predicted.values, reference[name].predicted.values
            )

        info = stats["executor_info"]
        assert info["executor"] == "cluster"
        fleet = info["fleet"]
        assert len(fleet) == 2 and all(entry["alive"] for entry in fleet)
        assert sum(entry["shards_solved"] for entry in fleet) >= 1
        assert metrics["cluster.workers_alive"] == 2
        assert any(
            key.startswith("cluster.worker_queue_depth{") for key in metrics
        )
        assert "repro_cluster_worker_queue_depth" in prometheus

    def test_unreachable_fleet_fails_the_job_with_crash_error(self):
        surfaces = corpus_surfaces(1)

        async def run():
            port = free_tcp_port()
            async with PredictionService(
                max_workers=1,
                executor="cluster",
                executor_options={
                    "workers": [f"tcp:127.0.0.1:{port}"],
                    "connect_retries": 0,
                },
            ) as service:
                await service.score_corpus(
                    surfaces, TRAINING_TIMES, EVALUATION_TIMES
                )

        with pytest.raises(WorkerCrashError, match="no cluster worker is reachable"):
            asyncio.run(run())


class TestWireLineLimit:
    def _score_sixteen_stories(self, worker_fleet, monkeypatch=None, line_limit=None):
        """One 16-story shard through a 1-worker fleet, and the thread reference.

        With known parameters a 16-story ``worker_result`` line is about
        79 KB, over asyncio's default 64 KiB line limit.
        """
        surfaces = corpus_surfaces(16)

        async def run():
            async with worker_fleet(1) as addresses:
                if line_limit is not None:
                    # Only the router's connection, dialled after the
                    # worker started listening, reads under this limit.
                    monkeypatch.setattr(transport, "LINE_LIMIT", line_limit)
                async with PredictionService(
                    parameters=PAPER_S1_HOP_PARAMETERS,
                    executor="cluster",
                    executor_options={"workers": addresses},
                    max_shard_size=16,
                ) as service:
                    results = await asyncio.wait_for(
                        service.score_corpus(
                            surfaces, TRAINING_TIMES, EVALUATION_TIMES
                        ),
                        timeout=120,
                    )
                    stats = service.stats()
            async with PredictionService(
                parameters=PAPER_S1_HOP_PARAMETERS, max_shard_size=16
            ) as ref:
                reference = await ref.score_corpus(
                    surfaces, TRAINING_TIMES, EVALUATION_TIMES
                )
            return results, reference, stats

        results, reference, stats = asyncio.run(run())
        assert set(results) == set(reference) == set(surfaces)
        for name in reference:
            assert results[name].overall_accuracy == reference[name].overall_accuracy
            assert np.array_equal(
                results[name].predicted.values, reference[name].predicted.values
            )
        return stats

    def test_sixteen_story_shard_fits_the_line_limit(self, worker_fleet):
        stats = self._score_sixteen_stories(worker_fleet)
        assert stats["shards_solved"] == 1
        assert stats["shards_retried"] == 0

    def test_over_long_result_bisects_instead_of_hanging(
        self, worker_fleet, monkeypatch
    ):
        stats = self._score_sixteen_stories(
            worker_fleet, monkeypatch, line_limit=32 * 1024
        )
        # The lost 16-story result failed the shard without killing the
        # worker; the bisected halves and quarters fit the limit.
        assert stats["shards_retried"] >= 1
        assert stats["failed"] == 0
        assert all(entry["alive"] for entry in stats["executor_info"]["fleet"])


class TestWorkerLoss:
    def test_sigkill_mid_job_reroutes_and_completes_bit_identically(self):
        surfaces = corpus_surfaces(6)

        procs: "dict[str, subprocess.Popen]" = {}
        try:
            for _ in range(2):
                port = free_tcp_port()
                address = f"tcp:127.0.0.1:{port}"
                procs[address] = subprocess.Popen(
                    [
                        sys.executable,
                        "-m",
                        "repro",
                        "daemon",
                        "--listen",
                        address,
                        "--workers",
                        "2",
                    ],
                    env={**os.environ, "PYTHONPATH": REPO_SRC},
                    stdout=subprocess.DEVNULL,
                    stderr=subprocess.DEVNULL,
                )

            async def run():
                async with PredictionService(
                    max_workers=2,
                    executor="cluster",
                    executor_options={
                        "workers": list(procs),
                        "connect_retries": 10,
                        "connect_backoff": 0.25,
                    },
                    max_shard_size=1,
                ) as service:
                    scoring = asyncio.ensure_future(
                        service.score_corpus(
                            surfaces, TRAINING_TIMES, EVALUATION_TIMES
                        )
                    )
                    pool = service._backend.pool
                    victim = None
                    deadline = time.monotonic() + 60.0
                    while victim is None:
                        if scoring.done() or time.monotonic() > deadline:
                            raise AssertionError(
                                "never caught a worker with an in-flight shard"
                            )
                        for link in pool.workers:
                            if link.alive and link.inflight >= 1:
                                victim = link
                                break
                        else:
                            await asyncio.sleep(0.002)
                    # SIGKILL the worker while its shard is in flight: the
                    # reader sees the dropped connection, fails the shard
                    # with WorkerCrashError and the service bisects it onto
                    # the survivor.
                    procs[victim.label].kill()
                    results = await scoring
                    metrics = service.metrics.snapshot()
                    fleet = service.stats()["executor_info"]["fleet"]
                    return results, metrics, fleet, victim.label

            results, metrics, fleet, victim_label = asyncio.run(run())
        finally:
            for proc in procs.values():
                proc.kill()
            for proc in procs.values():
                proc.wait(timeout=15)

        assert set(results) == set(surfaces)
        assert metrics["cluster.reroutes"] >= 1
        assert metrics["service.worker_crashes"] >= 1
        by_label = {entry["worker"]: entry for entry in fleet}
        assert by_label[victim_label]["alive"] is False
        survivors = [e for e in fleet if e["alive"]]
        assert len(survivors) == 1

        # Bit-identity with the thread executor survives the fault.
        async def reference_run():
            async with PredictionService(max_workers=2, max_shard_size=1) as ref:
                return await ref.score_corpus(
                    surfaces, TRAINING_TIMES, EVALUATION_TIMES
                )

        reference = asyncio.run(reference_run())
        for name in reference:
            assert np.array_equal(
                results[name].predicted.values, reference[name].predicted.values
            )


class TestJournalResume:
    def _write_journal(self, journal_dir: Path, record: dict) -> None:
        journal_dir.mkdir(parents=True, exist_ok=True)
        with open(journal_dir / "journal.jsonl", "w", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")

    def test_resume_reruns_interrupted_job_to_completion(self, tmp_path):
        journal_dir = tmp_path / "journal"
        manifest = manifest_payload(inline_story("alpha"), inline_story("beta", 0.8))
        self._write_journal(
            journal_dir,
            {
                "type": "submit",
                "job": "job-resume",
                "t": 1.0,
                "stories": ["alpha", "beta"],
                "skipped": [],
                "timeout": None,
                "manifest": manifest,
            },
        )

        async def run():
            async with running_daemon(
                tmp_path, journal_dir=str(journal_dir), resume=True
            ) as (socket_path, _):
                async with await DaemonClient.connect(socket_path) as client:
                    deadline = time.monotonic() + 30.0
                    while True:
                        status = await client.status("job-resume")
                        if status.get("status") == "completed":
                            break
                        if time.monotonic() > deadline:
                            raise AssertionError(
                                f"resumed job never completed: {status}"
                            )
                        await asyncio.sleep(0.05)
                    stats = await client.stats()
                    return status, stats

        status, stats = asyncio.run(run())
        assert status["stories"]["succeeded"] == 2
        assert stats["metrics"]["daemon.jobs_resumed"] == 1

    def test_record_without_manifest_stays_interrupted(self, tmp_path):
        journal_dir = tmp_path / "journal"
        self._write_journal(
            journal_dir,
            {
                "type": "submit",
                "job": "job-legacy",
                "t": 1.0,
                "stories": ["alpha"],
                "skipped": [],
                "timeout": None,
            },
        )

        async def run():
            async with running_daemon(
                tmp_path, journal_dir=str(journal_dir), resume=True
            ) as (socket_path, _):
                async with await DaemonClient.connect(socket_path) as client:
                    status = await client.status("job-legacy")
                    stats = await client.stats()
                    return status, stats

        status, stats = asyncio.run(run())
        assert status["status"] == "interrupted"
        assert stats["metrics"].get("daemon.jobs_resumed", 0) == 0
