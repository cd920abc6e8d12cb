"""Tests for the pluggable execution backends (thread vs process pools).

The load-bearing properties:

* the executor registry mirrors the model registry (register / unregister /
  typed unknown-name error), and the service validates the executor name at
  construction time;
* the ``process`` backend is bit-identical to the ``thread`` backend for
  every registered model -- the backends choose *where*
  :func:`solve_shard_report` runs, never *how* it computes;
* shard payloads survive the pickling boundary, including under the
  ``spawn`` start method where workers inherit nothing;
* a worker death mid-shard breaks only the in-flight shards: the pool is
  respawned, the shards are bisected-and-requeued, and a deterministically
  crashing story fails alone while its shard-mates succeed.
"""

import asyncio
import multiprocessing
import os
import pickle
import signal

import numpy as np
import pytest

from repro.cascade.density import DensitySurface
from repro.core.config import ModelSpec, SolverConfig
from repro.core.dl_model import DiffusiveLogisticModel
from repro.core.errors import UnknownNameError
from repro.core.initial_density import InitialDensity
from repro.core.parameters import PAPER_S1_HOP_PARAMETERS
import repro.service
from repro.service import (
    EXECUTORS,
    PredictionService,
    ProcessExecutionBackend,
    ShardPayload,
    ShardSolveReport,
    ThreadExecutionBackend,
    WorkerCrashError,
    create_executor,
    executor_default_workers,
    score_corpus_sync,
    solve_shard_report,
)
from repro.service import execution
from repro.service.sharding import CorpusSharder

TRAINING_TIMES = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
EVALUATION_TIMES = TRAINING_TIMES[1:]
SOLVER = SolverConfig(points_per_unit=12, max_step=0.02)

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()


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
    rng = np.random.default_rng(23)
    return {
        f"story{i}": synthetic_surface(list(2.0 + 3.0 * rng.random(5)))
        for i in range(4)
    }


def shard_payload_for(model_name, corpus, params=None):
    """Build the payload the process backend would ship for this corpus."""
    spec = ModelSpec(name=model_name, params=params or {}, solver=SOLVER)
    shards = CorpusSharder(solver=SOLVER, model=model_name).shard(
        corpus, TRAINING_TIMES, EVALUATION_TIMES
    )
    assert len(shards) == 1
    return ShardPayload(
        key=shards[0].key, spec=spec, surfaces=dict(shards[0].surfaces)
    )


class TestExecutorRegistry:
    def test_builtins_are_registered(self):
        names = EXECUTORS.names()
        assert "thread" in names
        assert "process" in names

    def test_unknown_executor_raises_with_registered_list(self):
        with pytest.raises(UnknownNameError) as excinfo:
            create_executor("frobnicate", max_workers=1)
        message = str(excinfo.value)
        assert "unknown executor 'frobnicate'" in message
        assert "'thread'" in message and "'process'" in message

    def test_service_validates_executor_at_construction(self):
        with pytest.raises(UnknownNameError):
            PredictionService(solver=SOLVER, executor="frobnicate")

    def test_runtime_registered_backend_serves_a_corpus(self, corpus):
        # A custom backend registered at runtime is selectable by name,
        # exactly like a runtime-registered model.
        class TaggedThreadBackend(ThreadExecutionBackend):
            kind = "tagged-thread"

        EXECUTORS.register("tagged-thread", TaggedThreadBackend)
        try:
            results = score_corpus_sync(
                corpus,
                training_times=TRAINING_TIMES,
                evaluation_times=EVALUATION_TIMES,
                parameters=PAPER_S1_HOP_PARAMETERS,
                solver=SOLVER,
                executor="tagged-thread",
            )
            assert set(results) == set(corpus)
        finally:
            EXECUTORS.unregister("tagged-thread")

    def test_create_executor_forwards_options(self):
        backend = create_executor(
            "process", max_workers=2, options={"start_method": "spawn"}
        )
        assert backend.kind == "process"
        assert backend.workers == 2
        assert backend.start_method == "spawn"
        assert backend.describe()["start_method"] == "spawn"

    def test_process_backend_has_no_warmup_option(self):
        with pytest.raises(TypeError):
            ProcessExecutionBackend(1, warmup=None)

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError, match="max_workers"):
            create_executor("thread", max_workers=0)

    def test_default_workers_per_backend(self):
        # One solver thread (more only contend for the GIL); the process
        # pool and the cluster router keep four shards in flight.
        assert executor_default_workers("thread") == 1
        assert executor_default_workers("process") == 4
        assert executor_default_workers("cluster") == 4
        with pytest.raises(UnknownNameError):
            executor_default_workers("frobnicate")

    def test_factory_without_default_workers_gets_the_base_default(self):
        EXECUTORS.register(
            "plain-factory",
            lambda max_workers: ThreadExecutionBackend(max_workers),
        )
        try:
            assert executor_default_workers("plain-factory") == 4
            service = PredictionService(solver=SOLVER, executor="plain-factory")
            assert service.stats()["workers"] == 4
        finally:
            EXECUTORS.unregister("plain-factory")


class TestProcessBackendEquivalence:
    @pytest.mark.parametrize(
        "model_name", ["dl", "logistic", "sis", "linear-influence"]
    )
    def test_process_matches_thread(self, corpus, model_name):
        kwargs = dict(
            training_times=TRAINING_TIMES,
            evaluation_times=EVALUATION_TIMES,
            model=model_name,
            solver=SOLVER,
            max_workers=2,
            max_shard_size=2,  # several shards, so both pools actually fan out
        )
        if model_name == "dl":
            kwargs["parameters"] = PAPER_S1_HOP_PARAMETERS
        reference = score_corpus_sync(corpus, **kwargs)
        served = score_corpus_sync(corpus, executor="process", **kwargs)

        assert set(served) == set(reference)
        for name in corpus:
            assert np.array_equal(
                served[name].predicted.values, reference[name].predicted.values
            ), f"{model_name}: {name} diverged across the process boundary"
            assert (
                served[name].overall_accuracy == reference[name].overall_accuracy
            )

    def test_stats_and_metrics_name_the_pool(self, corpus):
        async def run():
            async with PredictionService(
                parameters=PAPER_S1_HOP_PARAMETERS,
                solver=SOLVER,
                executor="process",
                max_workers=2,
            ) as service:
                jobs = [
                    await service.submit(
                        name, surface, TRAINING_TIMES, EVALUATION_TIMES
                    )
                    for name, surface in corpus.items()
                ]
                for job in jobs:
                    await job.wait()
                return service.stats(), service.metrics.snapshot()

        stats, metrics = asyncio.run(run())
        assert stats["executor"] == "process"
        assert stats["workers"] == 2
        info = stats["executor_info"]
        assert info["executor"] == "process"
        assert info["workers"] == 2
        assert info["respawns"] == 0
        assert info["start_method"] in multiprocessing.get_all_start_methods()
        # Per-worker labelled counters exist alongside the unlabelled totals.
        worker_counts = {
            key: value
            for key, value in metrics.items()
            if key.startswith('service.stories_solved{worker="')
        }
        assert worker_counts
        assert sum(worker_counts.values()) == metrics["service.stories_solved"]

    def test_thread_backend_reports_identity_too(self, corpus):
        async def run():
            async with PredictionService(
                parameters=PAPER_S1_HOP_PARAMETERS, solver=SOLVER, max_workers=3
            ) as service:
                job = await service.submit(
                    "story0", corpus["story0"], TRAINING_TIMES, EVALUATION_TIMES
                )
                await job.wait()
                return service.stats(), service.metrics.snapshot()

        stats, metrics = asyncio.run(run())
        assert stats["executor"] == "thread"
        assert stats["executor_info"] == {"executor": "thread", "workers": 3}
        assert metrics['service.worker_pool_size{executor="thread"}'] == 3


class TestShardPayloadPickling:
    @pytest.mark.parametrize(
        "model_name, params",
        [
            ("dl", {"parameters": PAPER_S1_HOP_PARAMETERS}),
            ("logistic", {}),
            ("sis", {"pool_percent": 40.0}),
            ("linear-influence", {"ridge": 1e-3}),
        ],
    )
    def test_round_trip_preserves_the_solve(self, corpus, model_name, params):
        payload = shard_payload_for(model_name, corpus, params)
        restored = pickle.loads(
            pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        )
        assert restored.key == payload.key
        assert restored.spec == payload.spec
        assert set(restored.surfaces) == set(payload.surfaces)

        reference = solve_shard_report(payload).outcomes
        round_tripped = solve_shard_report(restored).outcomes
        for name in corpus:
            assert np.array_equal(
                round_tripped[name].predicted.values,
                reference[name].predicted.values,
            )

    def test_direct_solve_returns_the_full_report(self, corpus):
        # One shard-solve function: called directly it returns the same
        # report every backend ships, phase times and cache delta included.
        report = solve_shard_report(
            shard_payload_for("dl", corpus, {"parameters": PAPER_S1_HOP_PARAMETERS})
        )
        assert isinstance(report, ShardSolveReport)
        assert set(report.outcomes) == set(corpus)
        assert set(report.phase_seconds) == {"fit", "evaluate"}
        assert report.spans == []  # no trace context, no spans
        assert "solve_shard_payload" not in repro.service.__all__

    def test_spawned_worker_solves_a_payload(self, corpus):
        # The strictest pickling check: a spawn-context child shares no
        # memory with this process, so the payload, the registry re-import
        # in the worker initializer and the result must all round-trip.
        small = {"story0": corpus["story0"]}
        reference = score_corpus_sync(
            small,
            training_times=TRAINING_TIMES,
            evaluation_times=EVALUATION_TIMES,
            model="logistic",
            solver=SOLVER,
        )
        served = score_corpus_sync(
            small,
            training_times=TRAINING_TIMES,
            evaluation_times=EVALUATION_TIMES,
            model="logistic",
            solver=SOLVER,
            executor="process",
            executor_options={"start_method": "spawn"},
        )
        assert np.array_equal(
            served["story0"].predicted.values,
            reference["story0"].predicted.values,
        )


@pytest.mark.skipif(not HAVE_FORK, reason="worker-kill tests need fork workers")
class TestWorkerCrashRecovery:
    def test_crashed_shard_is_retried_on_a_fresh_pool(
        self, corpus, tmp_path, monkeypatch
    ):
        # The first shard any worker picks up kills that worker outright
        # (SIGKILL -- no exception, no cleanup, the pool just breaks); the
        # bisected retries then solve normally.  Forked workers inherit the
        # patched module, so the crash happens on the far side of the pool.
        flag = tmp_path / "crashed-once"
        real = execution.solve_shard_report

        def crash_once(payload):
            if not flag.exists():
                flag.write_text("x")
                os.kill(os.getpid(), signal.SIGKILL)
            return real(payload)

        monkeypatch.setattr(execution, "solve_shard_report", crash_once)

        async def run():
            async with PredictionService(
                parameters=PAPER_S1_HOP_PARAMETERS,
                solver=SOLVER,
                executor="process",
                executor_options={"start_method": "fork"},
                max_workers=1,
            ) as service:
                jobs = [
                    await service.submit(
                        name, surface, TRAINING_TIMES, EVALUATION_TIMES
                    )
                    for name, surface in corpus.items()
                ]
                results = {job.name: await job.wait() for job in jobs}
                return results, service.stats(), service.metrics.snapshot()

        results, stats, metrics = asyncio.run(run())
        assert set(results) == set(corpus)
        assert stats["failed"] == 0
        assert stats["shards_retried"] >= 1
        assert stats["executor_info"]["respawns"] == 1
        assert metrics["service.worker_crashes"] == 1

    def test_deterministic_crasher_fails_alone(self, corpus, monkeypatch):
        # A story that *always* kills its worker must end up failing alone
        # (bisection separates it from its shard-mates), every shard-mate
        # must still succeed, and the service must stay usable afterwards.
        real = execution.solve_shard_report

        def crash_on_poison(payload):
            if "poison" in payload.surfaces:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(payload)

        monkeypatch.setattr(execution, "solve_shard_report", crash_on_poison)
        surfaces = dict(corpus)
        surfaces["poison"] = surfaces["story0"]

        async def run():
            async with PredictionService(
                parameters=PAPER_S1_HOP_PARAMETERS,
                solver=SOLVER,
                executor="process",
                executor_options={"start_method": "fork"},
                max_workers=1,
                max_shard_retries=3,
            ) as service:
                jobs = {
                    name: await service.submit(
                        name, surface, TRAINING_TIMES, EVALUATION_TIMES
                    )
                    for name, surface in surfaces.items()
                }
                outcomes = {}
                for name, job in jobs.items():
                    try:
                        outcomes[name] = await job.wait()
                    except WorkerCrashError as error:
                        outcomes[name] = error
                stats = service.stats()

                # The pool was respawned after every kill; the service must
                # still solve new work on the final pool.
                followup = await service.submit(
                    "followup",
                    surfaces["story0"],
                    TRAINING_TIMES,
                    EVALUATION_TIMES,
                )
                await followup.wait()
                return outcomes, stats

        outcomes, stats = asyncio.run(run())
        assert isinstance(outcomes["poison"], WorkerCrashError)
        for name in corpus:
            assert not isinstance(outcomes[name], BaseException), name
        assert stats["failed"] == 1
        assert stats["executor_info"]["respawns"] >= 1
