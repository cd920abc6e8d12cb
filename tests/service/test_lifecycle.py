"""Job-lifecycle hardening tests: timeouts, retry/requeue, drain, telemetry.

These cover the daemon-era service guarantees:

* a job past its wall-clock deadline completes as ``TIMED_OUT`` immediately
  -- whether queued or mid-solve -- without stalling other jobs;
* a shard-wide solve failure is retried with the shard split in half, so a
  poisoned story is bisected away from its shard-mates and fails alone;
* ``close(drain=True)`` settles everything, ``close(drain=False)`` aborts
  queued work; submissions after shutdown fail fast instead of hanging;
* cancellation races (mid-solve, between dispatch and solve) keep the
  backpressure accounting exact.
"""

import asyncio
import contextlib
import time

import numpy as np
import pytest

from repro.cascade.density import DensitySurface
from repro.core.dl_model import DiffusiveLogisticModel
from repro.core.initial_density import InitialDensity
from repro.core.parameters import PAPER_S1_HOP_PARAMETERS
from repro.service import (
    ClusterShardError,
    JobStatus,
    JobTimeoutError,
    MetricsRegistry,
    PredictionService,
    execution,
)

TRAINING_TIMES = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
EVALUATION_TIMES = TRAINING_TIMES[1:]


def synthetic_surface(seed):
    rng = np.random.default_rng(seed)
    phi = InitialDensity([1, 2, 3, 4, 5], list(2.0 + 3.0 * rng.random(5)))
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
def surfaces():
    return {f"story{i}": synthetic_surface(i) for i in range(6)}


def slow_solver(delay: float):
    """A solve_shard_report wrapper that sleeps before delegating."""
    original = execution.solve_shard_report

    def solve(payload):
        time.sleep(delay)
        return original(payload)

    return solve


class TestTimeouts:
    def test_queued_job_times_out_without_stalling_others(self, surfaces, monkeypatch):
        # One slow worker: the second job's deadline fires while it is still
        # queued behind the first.  It must complete as TIMED_OUT right then;
        # the first job must be untouched.
        monkeypatch.setattr(execution, "solve_shard_report", slow_solver(0.4))

        async def run():
            async with PredictionService(
                parameters=PAPER_S1_HOP_PARAMETERS, max_workers=1, max_shard_size=1
            ) as service:
                first = await service.submit(
                    "story0", surfaces["story0"], TRAINING_TIMES, EVALUATION_TIMES
                )
                doomed = await service.submit(
                    "story1",
                    surfaces["story1"],
                    TRAINING_TIMES,
                    EVALUATION_TIMES,
                    timeout=0.15,
                )
                waited = time.perf_counter()
                with pytest.raises(JobTimeoutError, match="0.15s deadline"):
                    await doomed.wait()
                waited = time.perf_counter() - waited
                await first.wait()
                return doomed.status, first.status, waited, service.stats()

        doomed_status, first_status, waited, stats = asyncio.run(run())
        assert doomed_status is JobStatus.TIMED_OUT
        assert first_status is JobStatus.SUCCEEDED
        # The waiter unblocked at the deadline, not after the slow shard.
        assert waited < 0.4
        assert stats["timed_out"] == 1 and stats["succeeded"] == 1

    def test_mid_solve_timeout_discards_late_result(self, surfaces, monkeypatch):
        monkeypatch.setattr(execution, "solve_shard_report", slow_solver(0.4))

        async def run():
            async with PredictionService(
                parameters=PAPER_S1_HOP_PARAMETERS, max_workers=1
            ) as service:
                job = await service.submit(
                    "story0",
                    surfaces["story0"],
                    TRAINING_TIMES,
                    EVALUATION_TIMES,
                    timeout=0.15,
                )
                await asyncio.sleep(0.05)  # let the shard start solving
                assert job.status is JobStatus.RUNNING
                with pytest.raises(JobTimeoutError):
                    await job.wait()
                assert job.status is JobStatus.TIMED_OUT
                # Drain: the late solve finishes but must not resurrect the job.
                await service.drain()
                return job.status, job.result, service.metrics.snapshot()

        status, result, metrics = asyncio.run(run())
        assert status is JobStatus.TIMED_OUT
        assert result is None
        assert metrics["service.late_results_discarded"] == 1

    def test_completed_job_is_not_expired_later(self, surfaces):
        # A generous deadline on a fast job: the timer is cancelled on
        # completion and must never flip a SUCCEEDED job to TIMED_OUT.
        async def run():
            async with PredictionService(
                parameters=PAPER_S1_HOP_PARAMETERS
            ) as service:
                job = await service.submit(
                    "story0",
                    surfaces["story0"],
                    TRAINING_TIMES,
                    EVALUATION_TIMES,
                    timeout=30.0,
                )
                await job.wait()
                assert job._deadline_handle is None
                return job.status

        assert asyncio.run(run()) is JobStatus.SUCCEEDED

    def test_invalid_timeouts_rejected(self, surfaces):
        # Deadlines are per submit; the service has no default of its own.
        with pytest.raises(TypeError):
            PredictionService(job_timeout=1.0)

        async def run():
            async with PredictionService() as service:
                with pytest.raises(ValueError, match="timeout must be > 0"):
                    await service.submit(
                        "a", surfaces["story0"], TRAINING_TIMES, EVALUATION_TIMES,
                        timeout=-1.0,
                    )

        asyncio.run(run())


class TestShardRetry:
    @staticmethod
    def poisoned_solver(poison_name: str):
        original = execution.solve_shard_report

        def solve(payload):
            if poison_name in payload.surfaces:
                raise RuntimeError("poisoned shard")
            return original(payload)

        return solve

    @pytest.mark.parametrize("executor", ["thread", "process", "cluster"])
    def test_poisoned_story_is_bisected_away_from_shardmates(
        self, surfaces, monkeypatch, executor, worker_fleet
    ):
        # Four stories share one shard; the whole-shard solve raises whenever
        # the poisoned story is aboard.  Bisection must deliver every mate
        # and fail only the poison, once its retry budget is spent.  The
        # patched solve_shard_report runs in a pool thread, a forked
        # process worker or an in-process worker daemon (whose error event
        # reaches the router as a ClusterShardError).
        monkeypatch.setattr(
            execution, "solve_shard_report", self.poisoned_solver("poison")
        )

        async def run():
            async with contextlib.AsyncExitStack() as stack:
                executor_options = {}
                if executor == "cluster":
                    executor_options["workers"] = await stack.enter_async_context(
                        worker_fleet(2)
                    )
                service = await stack.enter_async_context(
                    PredictionService(
                        parameters=PAPER_S1_HOP_PARAMETERS,
                        max_shard_size=8,
                        max_shard_retries=4,
                        executor=executor,
                        executor_options=executor_options,
                    )
                )
                mates = [
                    await service.submit(
                        name, surfaces[name], TRAINING_TIMES, EVALUATION_TIMES
                    )
                    for name in ("story0", "story1", "story2")
                ]
                poison = await service.submit(
                    "poison", surfaces["story3"], TRAINING_TIMES, EVALUATION_TIMES
                )
                assert poison.key == mates[0].key  # genuinely one shard
                results = [await job.wait() for job in mates]
                with pytest.raises(RuntimeError, match="poisoned shard"):
                    await poison.wait()
                return results, mates, poison, service.stats()

        results, mates, poison, stats = asyncio.run(run())
        assert all(job.status is JobStatus.SUCCEEDED for job in mates)
        assert all(result.overall_accuracy >= 0.0 for result in results)
        assert poison.status is JobStatus.FAILED
        assert poison.attempts == 4  # budget exhausted
        assert stats["succeeded"] == 3 and stats["failed"] == 1
        assert stats["shards_retried"] >= 2  # initial split + singleton retries
        if executor == "cluster":
            assert isinstance(poison.error, ClusterShardError)

    def test_zero_retries_fails_whole_shard(self, surfaces, monkeypatch):
        monkeypatch.setattr(
            execution, "solve_shard_report", self.poisoned_solver("poison")
        )

        async def run():
            async with PredictionService(
                parameters=PAPER_S1_HOP_PARAMETERS,
                max_shard_size=8,
                max_shard_retries=0,
            ) as service:
                mate = await service.submit(
                    "story0", surfaces["story0"], TRAINING_TIMES, EVALUATION_TIMES
                )
                poison = await service.submit(
                    "poison", surfaces["story1"], TRAINING_TIMES, EVALUATION_TIMES
                )
                for job in (mate, poison):
                    with pytest.raises(RuntimeError, match="poisoned shard"):
                        await job.wait()
                return mate.status, poison.status, service.stats()

        mate_status, poison_status, stats = asyncio.run(run())
        assert mate_status is JobStatus.FAILED and poison_status is JobStatus.FAILED
        assert stats["shards_retried"] == 0

    def test_transient_failure_recovers_on_retry(self, surfaces, monkeypatch):
        # The first solve attempt fails shard-wide, every later one works:
        # all jobs must succeed after one requeue round.
        original = execution.solve_shard_report
        calls = {"n": 0}

        def flaky(payload):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("transient backend hiccup")
            return original(payload)

        monkeypatch.setattr(execution, "solve_shard_report", flaky)

        async def run():
            async with PredictionService(
                parameters=PAPER_S1_HOP_PARAMETERS, max_shard_size=8
            ) as service:
                jobs = [
                    await service.submit(
                        name, surfaces[name], TRAINING_TIMES, EVALUATION_TIMES
                    )
                    for name in ("story0", "story1")
                ]
                results = [await job.wait() for job in jobs]
                return jobs, results, service.stats()

        jobs, results, stats = asyncio.run(run())
        assert all(job.status is JobStatus.SUCCEEDED for job in jobs)
        assert all(job.attempts == 1 for job in jobs)
        assert stats["succeeded"] == 2 and stats["failed"] == 0
        assert stats["shards_retried"] == 1


class TestDrainAndShutdown:
    def test_drain_settles_everything_without_closing(self, surfaces):
        async def run():
            async with PredictionService(
                parameters=PAPER_S1_HOP_PARAMETERS, max_shard_size=2
            ) as service:
                jobs = [
                    await service.submit(
                        name, surface, TRAINING_TIMES, EVALUATION_TIMES
                    )
                    for name, surface in surfaces.items()
                ]
                await service.drain()
                assert all(job.done for job in jobs)
                # Still open: a post-drain submission must be accepted.
                late = await service.submit(
                    "late", surfaces["story0"], TRAINING_TIMES, EVALUATION_TIMES
                )
                await late.wait()
                return late.status

        assert asyncio.run(run()) is JobStatus.SUCCEEDED

    def test_abort_close_cancels_queued_jobs(self, surfaces, monkeypatch):
        monkeypatch.setattr(execution, "solve_shard_report", slow_solver(0.3))

        async def run():
            service = PredictionService(
                parameters=PAPER_S1_HOP_PARAMETERS, max_workers=1, max_shard_size=1
            )
            service.start()
            running = await service.submit(
                "story0", surfaces["story0"], TRAINING_TIMES, EVALUATION_TIMES
            )
            queued = await service.submit(
                "story1", surfaces["story1"], TRAINING_TIMES, EVALUATION_TIMES
            )
            await asyncio.sleep(0.05)  # story0 starts solving, story1 queued
            await service.close(drain=False)
            return running.status, queued.status, service.stats()

        running_status, queued_status, stats = asyncio.run(run())
        # The in-flight shard finishes; the queued one is aborted.
        assert running_status is JobStatus.SUCCEEDED
        assert queued_status is JobStatus.CANCELLED
        assert stats["cancelled"] == 1 and stats["succeeded"] == 1

    def test_submit_after_shutdown_raises_cleanly(self, surfaces):
        # Satellite: submit-after-shutdown must raise a clean error
        # immediately -- not hang on the backpressure semaphore.
        async def run():
            service = PredictionService(parameters=PAPER_S1_HOP_PARAMETERS)
            service.start()
            await service.close()
            start = time.perf_counter()
            with pytest.raises(RuntimeError, match="closed"):
                await service.submit(
                    "a", surfaces["story0"], TRAINING_TIMES, EVALUATION_TIMES
                )
            return time.perf_counter() - start

        assert asyncio.run(run()) < 1.0

    def test_cancelling_mid_solve_job_returns_false_and_result_survives(
        self, surfaces, monkeypatch
    ):
        # Satellite: cancelling a job whose shard is mid-solve must be a
        # no-op (returns False), and the job must still deliver its result.
        monkeypatch.setattr(execution, "solve_shard_report", slow_solver(0.3))

        async def run():
            async with PredictionService(
                parameters=PAPER_S1_HOP_PARAMETERS, max_workers=1
            ) as service:
                job = await service.submit(
                    "story0", surfaces["story0"], TRAINING_TIMES, EVALUATION_TIMES
                )
                await asyncio.sleep(0.05)
                assert job.status is JobStatus.RUNNING
                assert job.cancel() is False
                result = await job.wait()
                return job.status, result

        status, result = asyncio.run(run())
        assert status is JobStatus.SUCCEEDED
        assert result.overall_accuracy >= 0.0


class TestTelemetryWiring:
    def test_counters_and_histograms_track_a_run(self, surfaces):
        registry = MetricsRegistry()

        async def run():
            async with PredictionService(
                parameters=PAPER_S1_HOP_PARAMETERS, max_shard_size=2, metrics=registry
            ) as service:
                jobs = [
                    await service.submit(
                        name, surface, TRAINING_TIMES, EVALUATION_TIMES
                    )
                    for name, surface in surfaces.items()
                ]
                for job in jobs:
                    await job.wait()

        asyncio.run(run())
        snapshot = registry.snapshot()
        assert snapshot["service.jobs_submitted"] == len(surfaces)
        assert snapshot["service.jobs_succeeded"] == len(surfaces)
        assert snapshot["service.stories_solved"] == len(surfaces)
        assert snapshot["service.shards_solved"] >= 3  # 6 stories, shards of <= 2
        assert snapshot["service.shard_solve_seconds"]["count"] >= 3
        assert snapshot["service.story_solve_seconds"]["sum"] > 0.0
        assert snapshot["service.queue_depth"] == 0.0  # everything settled
