"""Tests for the async multi-story prediction service.

The load-bearing property mirrors the batch-predictor tests: the service may
reorganise *when* each shard is solved (async workers, micro-batches), but
the per-story results must be numerically identical to the synchronous
:class:`BatchPredictor` path.
"""

import asyncio

import numpy as np
import pytest

from repro.cascade.density import DensitySurface
from repro.core.dl_model import DiffusiveLogisticModel
from repro.core.initial_density import InitialDensity
from repro.core.parameters import (
    DLParameters,
    ExponentialDecayGrowthRate,
    PAPER_S1_HOP_PARAMETERS,
)
from repro.core.prediction import BatchPredictor
from repro.service import (
    JobCancelledError,
    JobStatus,
    PredictionService,
    score_corpus_sync,
)

TRAINING_TIMES = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
EVALUATION_TIMES = TRAINING_TIMES[1:]


def synthetic_surface(seed_densities, hours=8, diffusion=0.01):
    phi = InitialDensity([1, 2, 3, 4, 5], seed_densities)
    parameters = DLParameters(
        diffusion_rate=diffusion,
        growth_rate=ExponentialDecayGrowthRate(1.4, 1.5, 0.25),
        carrying_capacity=25.0,
    )
    model = DiffusiveLogisticModel(parameters, points_per_unit=12, max_step=0.02)
    surface = model.predict(phi, [float(t) for t in range(1, hours + 1)])
    return DensitySurface(
        distances=surface.distances,
        times=surface.times,
        values=surface.values,
        group_sizes=np.ones(surface.distances.size),
    )


@pytest.fixture(scope="module")
def corpus_surfaces():
    rng = np.random.default_rng(7)
    return {
        f"story{i}": synthetic_surface(list(2.0 + 3.0 * rng.random(5)))
        for i in range(8)
    }


class TestEquivalenceWithBatchPredictor:
    def test_results_identical_to_synchronous_path(self, corpus_surfaces):
        service_results = score_corpus_sync(
            corpus_surfaces,
            training_times=TRAINING_TIMES,
            evaluation_times=EVALUATION_TIMES,
            parameters=PAPER_S1_HOP_PARAMETERS,
            max_shard_size=3,  # force several shards -- must not change results
            max_workers=3,
        )
        reference = BatchPredictor(parameters=PAPER_S1_HOP_PARAMETERS).fit(
            corpus_surfaces, training_times=TRAINING_TIMES
        )
        expected = reference.evaluate(corpus_surfaces, times=EVALUATION_TIMES)
        assert set(service_results) == set(corpus_surfaces)
        for name in corpus_surfaces:
            got = service_results[name]
            want = expected[name]
            assert np.array_equal(got.predicted.values, want.predicted.values)
            assert got.overall_accuracy == want.overall_accuracy

    def test_calibrated_results_identical_to_synchronous_path(self, corpus_surfaces):
        two = {name: corpus_surfaces[name] for name in ("story0", "story1")}
        service_results = score_corpus_sync(
            two, training_times=TRAINING_TIMES, evaluation_times=EVALUATION_TIMES
        )
        reference = BatchPredictor().fit(two, training_times=TRAINING_TIMES)
        expected = reference.evaluate(two, times=EVALUATION_TIMES)
        for name in two:
            assert (
                service_results[name].parameters == expected[name].parameters
            )
            assert np.array_equal(
                service_results[name].predicted.values,
                expected[name].predicted.values,
            )


class TestJobLifecycle:
    def test_submit_await_and_stream(self, corpus_surfaces):
        async def run():
            async with PredictionService(
                parameters=PAPER_S1_HOP_PARAMETERS, max_shard_size=2
            ) as service:
                jobs = [
                    await service.submit(
                        name, surface, TRAINING_TIMES, EVALUATION_TIMES
                    )
                    for name, surface in corpus_surfaces.items()
                ]
                assert all(job.status in (JobStatus.PENDING, JobStatus.RUNNING, JobStatus.SUCCEEDED) for job in jobs)
                streamed = []
                async for job in service.stream(jobs):
                    streamed.append(job)
                assert len(streamed) == len(jobs)
                assert all(job.done for job in streamed)
                assert all(job.status is JobStatus.SUCCEEDED for job in streamed)
                for job in jobs:
                    result = await job.wait()
                    assert 0.0 <= result.overall_accuracy <= 1.0
                return service.stats()

        stats = asyncio.run(run())
        assert stats["succeeded"] == len(corpus_surfaces)
        assert stats["failed"] == 0
        # max_shard_size=2 over 8 same-signature stories -> at least 4 shards.
        assert stats["shards_solved"] >= 4
        assert stats["stories_solved"] == len(corpus_surfaces)

    def test_failed_story_reports_error_without_poisoning_others(self, corpus_surfaces):
        bad = DensitySurface(
            np.asarray([1.0, 2.0, 3.0]),
            np.asarray([1.0, 2.0]),
            np.zeros((2, 3)),  # empty first hour: phi is all zero -> calibration fails
            np.ones(3),
        )

        async def run():
            async with PredictionService(max_shard_size=4) as service:
                good_job = await service.submit(
                    "good", corpus_surfaces["story0"], TRAINING_TIMES, EVALUATION_TIMES
                )
                bad_job = await service.submit("bad", bad, [1.0, 2.0], [2.0])
                result = await good_job.wait()
                assert result.overall_accuracy >= 0.0
                with pytest.raises(Exception):
                    await bad_job.wait()
                return good_job.status, bad_job.status

        good_status, bad_status = asyncio.run(run())
        assert good_status is JobStatus.SUCCEEDED
        assert bad_status is JobStatus.FAILED

    def test_failed_story_does_not_poison_its_own_shard(self, corpus_surfaces):
        # The bad story shares the good stories' shard signature (same
        # interval, initial time, windows) but its surface lacks the later
        # training hours, so its *fit* fails -- the shard-mates must still
        # succeed.
        bad = DensitySurface(
            np.asarray([1.0, 2.0, 3.0, 4.0, 5.0]),
            np.asarray([1.0, 2.0]),
            np.asarray([[5.0, 2.0, 2.5, 1.5, 1.0], [6.0, 3.0, 3.2, 2.0, 1.4]]),
            np.ones(5),
        )

        async def run():
            async with PredictionService(max_shard_size=8) as service:
                jobs = [
                    await service.submit(
                        name, corpus_surfaces[name], TRAINING_TIMES, EVALUATION_TIMES
                    )
                    for name in ("story0", "story1")
                ]
                bad_job = await service.submit(
                    "bad", bad, TRAINING_TIMES, EVALUATION_TIMES
                )
                assert bad_job.key == jobs[0].key  # genuinely the same shard
                results = [await job.wait() for job in jobs]
                with pytest.raises(Exception):
                    await bad_job.wait()
                return results, [job.status for job in jobs], bad_job.status, service.stats()

        results, statuses, bad_status, stats = asyncio.run(run())
        assert all(status is JobStatus.SUCCEEDED for status in statuses)
        assert bad_status is JobStatus.FAILED
        assert all(result.overall_accuracy >= 0.0 for result in results)
        assert stats["succeeded"] == 2 and stats["failed"] == 1
        assert stats["stories_solved"] == 2

    def test_duplicate_in_flight_names_rejected(self, corpus_surfaces):
        # Shard solves key stories by name, so a live duplicate would
        # silently get another surface's result; the name becomes reusable
        # once its job finished.
        async def run():
            async with PredictionService(parameters=PAPER_S1_HOP_PARAMETERS) as service:
                first = await service.submit(
                    "dup", corpus_surfaces["story0"], TRAINING_TIMES, EVALUATION_TIMES
                )
                with pytest.raises(ValueError, match="already queued or running"):
                    await service.submit(
                        "dup", corpus_surfaces["story1"], TRAINING_TIMES, EVALUATION_TIMES
                    )
                await first.wait()
                reused = await service.submit(
                    "dup", corpus_surfaces["story1"], TRAINING_TIMES, EVALUATION_TIMES
                )
                await reused.wait()
                return first.status, reused.status

        first_status, reused_status = asyncio.run(run())
        assert first_status is JobStatus.SUCCEEDED
        assert reused_status is JobStatus.SUCCEEDED

    def test_duplicate_name_rejected_while_parked_on_full_queue(self, corpus_surfaces):
        # The name is reserved before the backpressure await, so a second
        # submit with the same name fails fast even while the first is still
        # suspended waiting for a queue slot.
        async def run():
            async with PredictionService(
                parameters=PAPER_S1_HOP_PARAMETERS, queue_depth=1, max_workers=1
            ) as service:
                filler = await service.submit(
                    "filler", corpus_surfaces["story0"], TRAINING_TIMES, EVALUATION_TIMES
                )
                parked = asyncio.ensure_future(
                    service.submit(
                        "dup", corpus_surfaces["story1"], TRAINING_TIMES, EVALUATION_TIMES
                    )
                )
                await asyncio.sleep(0)  # let 'parked' reserve its name and suspend
                with pytest.raises(ValueError, match="already queued or running"):
                    await service.submit(
                        "dup", corpus_surfaces["story2"], TRAINING_TIMES, EVALUATION_TIMES
                    )
                await filler.wait()
                await (await parked).wait()

        asyncio.run(run())

    def test_submit_requires_running_service(self, corpus_surfaces):
        async def run():
            service = PredictionService()
            with pytest.raises(RuntimeError):
                await service.submit("a", corpus_surfaces["story0"])

        asyncio.run(run())


class TestCancellation:
    def test_pending_job_can_be_cancelled(self, corpus_surfaces):
        async def run():
            service = PredictionService(parameters=PAPER_S1_HOP_PARAMETERS)
            service.start()
            # Submit without yielding to the event loop: the dispatcher has
            # not run yet, so both jobs are still pending and cancellable.
            keep = await service.submit(
                "keep", corpus_surfaces["story0"], TRAINING_TIMES, EVALUATION_TIMES
            )
            drop = await service.submit(
                "drop", corpus_surfaces["story1"], TRAINING_TIMES, EVALUATION_TIMES
            )
            assert drop.cancel() is True
            assert drop.status is JobStatus.CANCELLED
            with pytest.raises(JobCancelledError):
                await drop.wait()
            result = await keep.wait()
            assert result.overall_accuracy >= 0.0
            stats = service.stats()
            await service.close()
            return stats

        stats = asyncio.run(run())
        assert stats["cancelled"] == 1
        assert stats["succeeded"] == 1
        assert stats["stories_solved"] == 1

    def test_cancel_between_dispatch_and_shard_start_keeps_slots_balanced(
        self, corpus_surfaces
    ):
        # A job cancelled after the dispatcher popped it but before the shard
        # task first ran must stay cancelled, must not be solved, and must not
        # release its queue slot twice (which would break the backpressure
        # bound).
        async def run():
            service = PredictionService(
                parameters=PAPER_S1_HOP_PARAMETERS, queue_depth=2
            )
            service.start()
            job = await service.submit(
                "drop", corpus_surfaces["story0"], TRAINING_TIMES, EVALUATION_TIMES
            )
            # Let the dispatcher pop the job and create the shard task, but
            # do not let that task run yet.
            await asyncio.sleep(0)
            assert job.status is JobStatus.PENDING
            assert job.cancel() is True
            with pytest.raises(JobCancelledError):
                await job.wait()
            await service.close()
            stats = service.stats()
            # The semaphore must sit exactly at queue_depth again: two more
            # submissions may pass without suspending, a third may not.
            assert service._slots._value == 2
            return job.status, stats

        status, stats = asyncio.run(run())
        assert status is JobStatus.CANCELLED
        assert stats["cancelled"] == 1
        assert stats["succeeded"] == 0
        assert stats["stories_solved"] == 0

    def test_finished_job_cannot_be_cancelled(self, corpus_surfaces):
        async def run():
            async with PredictionService(parameters=PAPER_S1_HOP_PARAMETERS) as service:
                job = await service.submit(
                    "a", corpus_surfaces["story0"], TRAINING_TIMES, EVALUATION_TIMES
                )
                await job.wait()
                assert job.cancel() is False
                assert job.status is JobStatus.SUCCEEDED

        asyncio.run(run())


class TestBackpressure:
    def test_submit_suspends_at_queue_depth(self, corpus_surfaces):
        """With queue_depth=2, submitting 6 stories must throttle the producer
        (it can only run ahead of the solver by the queue depth) yet still
        complete every job."""

        async def run():
            async with PredictionService(
                parameters=PAPER_S1_HOP_PARAMETERS,
                queue_depth=2,
                max_shard_size=1,
                max_workers=1,
            ) as service:
                names = list(corpus_surfaces)[:6]
                in_queue_high_water = 0
                jobs = []
                for name in names:
                    job = await service.submit(
                        name, corpus_surfaces[name], TRAINING_TIMES, EVALUATION_TIMES
                    )
                    jobs.append(job)
                    stats = service.stats()
                    in_queue_high_water = max(
                        in_queue_high_water, stats["queued"] + stats["running"]
                    )
                results = [await job.wait() for job in jobs]
                return in_queue_high_water, results

        high_water, results = asyncio.run(run())
        assert high_water <= 2
        assert len(results) == 6

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            PredictionService(queue_depth=0)
        with pytest.raises(ValueError):
            PredictionService(max_workers=0)

    def test_submit_parked_during_close_is_rejected_not_stranded(
        self, corpus_surfaces
    ):
        # A submit parked on the backpressure semaphore while close() drains
        # must be rejected (the dispatcher is being torn down), not silently
        # enqueued as a forever-pending job.
        async def run():
            service = PredictionService(
                parameters=PAPER_S1_HOP_PARAMETERS, queue_depth=1, max_workers=1
            )
            service.start()
            filler = await service.submit(
                "filler", corpus_surfaces["story0"], TRAINING_TIMES, EVALUATION_TIMES
            )
            parked = asyncio.ensure_future(
                service.submit(
                    "parked", corpus_surfaces["story1"], TRAINING_TIMES, EVALUATION_TIMES
                )
            )
            await asyncio.sleep(0)  # let 'parked' suspend on the semaphore
            await service.close()
            with pytest.raises(RuntimeError, match="closed"):
                await parked
            assert filler.status is JobStatus.SUCCEEDED

        asyncio.run(run())


class TestServiceConfiguration:
    def test_default_workers_follow_the_executor(self):
        cases = [
            ("thread", {}, 1),
            ("process", {}, 4),
            ("cluster", {"workers": ["tcp:127.0.0.1:1"]}, 4),
        ]
        for executor, options, expected in cases:
            service = PredictionService(executor=executor, executor_options=options)
            stats = service.stats()
            assert stats["workers"] == stats["max_workers"] == expected, executor
        # An explicit max_workers still wins.
        assert PredictionService(max_workers=3).stats()["workers"] == 3

    def test_concurrent_jobs_on_default_service_match_batch_predictor(
        self, corpus_surfaces
    ):
        names = sorted(corpus_surfaces)
        first = {name: corpus_surfaces[name] for name in names[:2]}
        second = {name: corpus_surfaces[name] for name in names[2:4]}

        async def run():
            async with PredictionService() as service:
                assert service.stats()["workers"] == 1
                return await asyncio.gather(
                    service.score_corpus(first, TRAINING_TIMES, EVALUATION_TIMES),
                    service.score_corpus(second, TRAINING_TIMES, EVALUATION_TIMES),
                )

        results = asyncio.run(run())
        for corpus, got in zip((first, second), results):
            expected = (
                BatchPredictor()
                .fit(corpus, training_times=TRAINING_TIMES)
                .evaluate(corpus, times=EVALUATION_TIMES)
            )
            assert set(got) == set(corpus)
            for name in corpus:
                assert got[name].parameters == expected[name].parameters
                assert got[name].overall_accuracy == expected[name].overall_accuracy
                assert np.array_equal(
                    got[name].predicted.values, expected[name].predicted.values
                )

    def test_heterogeneous_corpus_shards_by_signature(self):
        surfaces = {
            "wide": synthetic_surface([5.0, 2.0, 2.5, 1.5, 1.0]),
            "narrow": DensitySurface(
                np.asarray([1.0, 2.0, 3.0]),
                np.arange(1.0, 7.0),
                np.column_stack(
                    [np.linspace(4, 8, 6), np.linspace(2, 5, 6), np.linspace(1, 3, 6)]
                ),
                np.ones(3),
            ),
        }

        async def run():
            async with PredictionService(parameters=PAPER_S1_HOP_PARAMETERS) as service:
                results = await service.score_corpus(
                    surfaces, training_times=[1.0, 2.0, 3.0], evaluation_times=[2.0, 3.0]
                )
                return results, service.stats()

        results, stats = asyncio.run(run())
        assert stats["shards_solved"] == 2
        assert results["wide"].solution.grid.upper == 5.0
        assert results["narrow"].solution.grid.upper == 3.0
