"""The traced run: one workload's pool timed layer by layer, from outside.

The same stories go through every entry point in turn -- manifest resolve,
store materialization and sharding, ``BatchPredictor`` (the in-run floor),
``solve_dl_batch`` on the workload's shard shapes, the in-process service,
one daemon, and a two-worker cluster -- each call wrapped in a benchmark
span.  Overheads are differences between adjacent entry points on the same
stories; ``unattributed_fraction`` is the share of the daemon round trip
that the directly timed layers do not explain (see
:func:`per_layer_metrics` for which execution each side comes from).
"""

from __future__ import annotations

import asyncio
import math

from repro import InitialDensity, SolverConfig, solve_dl_batch
from repro.numerics import cache_stats, clear_operator_caches
from repro.service import (
    CorpusSharder,
    DaemonClient,
    MetricsRegistry,
    PredictionService,
    story_result_payload,
)
from repro.service.service import DEFAULT_MAX_SHARD_SIZE

from daemons import Deployment
from inputs import (
    EVALUATION_TIMES,
    TRAINING_TIMES,
    Workload,
    check_result,
    materialize,
    reference_results,
    resolve_jobs,
)
from load import Tally, sequential
from spans import SpanRecorder

#: Spans of the layers the reconciliation adds up (self time).
LAYER_SPANS = (
    "service.manifest.resolve",
    "corpus.materialize",
    "service.sharding.shard",
    "core.prediction.fit_story",
    "core.calibration.grid",
    "core.calibration.refine",
    "core.prediction.evaluate",
)


def _cache_counts() -> "tuple[int, int]":
    stats = cache_stats().values()
    return sum(s["hits"] for s in stats), sum(s["misses"] for s in stats)


def _column_steps(columns: int, times) -> int:
    """Time steps one batched solve takes per column, times its columns."""
    step = SolverConfig().max_step
    start = TRAINING_TIMES[0]
    return columns * sum(
        math.ceil((b - a) / step - 1e-9) for a, b in zip([start, *times], times)
    )


def in_process(workload: Workload, recorder: SpanRecorder) -> dict:
    """Every in-process layer on the pool; returns the per-layer inputs."""
    clear_operator_caches()
    resolved = resolve_jobs(workload, recorder)
    jobs = materialize(resolved, recorder)
    surfaces = {name: surface for job in jobs for name, surface in job.items()}
    sharder = CorpusSharder(max_shard_size=DEFAULT_MAX_SHARD_SIZE)
    shards = []
    for job in resolved:
        with recorder.span("service.sharding.shard", stories=len(job)):
            shards.extend(sharder.shard(job, TRAINING_TIMES, EVALUATION_TIMES))
    expected, parameters = reference_results(workload.parameters, jobs, recorder)

    column_steps = 0
    for shard in shards:
        names = list(shard.story_names)
        phis = [
            InitialDensity(
                surfaces[name].distances,
                surfaces[name].profile(TRAINING_TIMES[0]),
                initial_time=TRAINING_TIMES[0],
            )
            for name in names
        ]
        with recorder.span("numerics.solve_dl_batch", columns=len(names)):
            solve_dl_batch([parameters[name] for name in names], phis, EVALUATION_TIMES)
        column_steps += _column_steps(len(names), EVALUATION_TIMES)

    registry = MetricsRegistry()
    results = asyncio.run(_score_jobs(workload, resolved, registry, recorder))
    hits, misses = _cache_counts()
    service_problems = [
        f"{name} (in-process service): {problem}"
        for name, result in results.items()
        if (
            problem := check_result(
                {"status": "succeeded", "story": name, **story_result_payload(result)},
                expected[name],
            )
        )
    ]
    return {
        "expected": expected,
        "stories": len(surfaces),
        "shards": len(shards),
        "column_steps": column_steps,
        "cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "queue_wait_mean_s": registry.snapshot()["service.queue_wait_seconds"]["mean"],
        "service_problems": service_problems,
    }


async def _score_jobs(workload, resolved, registry, recorder) -> dict:
    """Each job through one in-process service at its defaults, in turn.

    One service for all jobs, as the daemon keeps one; this is what
    ``score_corpus_sync`` runs, without a service start-up per job.
    """
    results = {}
    async with PredictionService(parameters=workload.parameters, metrics=registry) as service:
        for job in resolved:
            with recorder.span("service.service.score_corpus", stories=len(job)):
                results.update(
                    await service.score_corpus(job, TRAINING_TIMES, EVALUATION_TIMES)
                )
    return results


async def through_daemons(workload: Workload, launcher, recorder: SpanRecorder) -> dict:
    """The pool's jobs, one at a time, through one daemon and then a fleet."""
    timings = {}
    for label, workers in (("daemon", 0), ("cluster", 2)):
        deployment = Deployment(launcher, workload.mode, f"ledger-{label}", workers)
        await deployment.start(workload.probe)
        try:
            await sequential(deployment.address, [workload.warmup], workload.deadline_s)
            with recorder.span(f"service.{label}.roundtrip") as parent:
                records = await sequential(
                    deployment.address, workload.jobs, workload.deadline_s
                )
            for record in records:
                recorder.record(
                    f"service.{label}.job",
                    record.submitted,
                    record.latency,
                    parent,
                    stories=len(record.stories),
                    event_bytes=record.event_bytes,
                )
            async with await DaemonClient.connect(deployment.address) as client:
                stats = await client.stats()
        finally:
            await deployment.stop()
        timings[label] = {"records": records, "executor": stats["service"]["executor_info"]}
    return timings


def per_layer_metrics(
    recorder: SpanRecorder, layers: dict, timings: dict, jobs: int
) -> "tuple[dict, Tally]":
    stories = layers["stories"]

    def per_story(name: str) -> float:
        return recorder.total_seconds(name) / stories

    def attribute_sum(name: str, key: str) -> float:
        return sum(span.attributes.get(key, 0) for span in recorder.spans if span.name == name)

    batch_seconds = recorder.total_seconds("core.prediction.fit_story") + recorder.total_seconds(
        "core.prediction.evaluate"
    )
    service = per_story("service.service.score_corpus")
    daemon = per_story("service.daemon.job")
    cluster = per_story("service.cluster.job")
    # The two sides come from different executions: the layers' self time
    # from sequential in-process calls, the wall time from daemon round
    # trips whose shards run on several threads at once.  The daemon can
    # therefore take less wall time than the layers' sum; the fraction is
    # clamped to [0, 1], and both sides are reported raw beside it.
    layers_self = sum(recorder.self_seconds(name) for name in LAYER_SPANS) / stories
    executor = timings["cluster"]["executor"]
    metrics = {
        "service.manifest.resolve_s_per_story": (per_story("service.manifest.resolve"), "s"),
        "corpus.materialize_s_per_story": (per_story("corpus.materialize"), "s"),
        "service.sharding.stories_per_shard": (stories / layers["shards"], "count"),
        "service.sharding.shards_per_job": (layers["shards"] / jobs, "count"),
        "core.calibration.grid_s_per_story": (per_story("core.calibration.grid"), "s"),
        "core.calibration.refine_s_per_story": (per_story("core.calibration.refine"), "s"),
        "core.calibration.lm_iterations_per_story": (
            attribute_sum("core.calibration.refine", "lm_iterations") / stories,
            "count",
        ),
        "core.calibration.residual_evals_per_story": (
            attribute_sum("core.calibration.refine", "residual_evals") / stories,
            "count",
        ),
        "numerics.solve_s_per_column_step": (
            recorder.total_seconds("numerics.solve_dl_batch") / layers["column_steps"],
            "s",
        ),
        "numerics.operator_cache_hit_ratio": (layers["cache_hit_ratio"], "ratio"),
        "core.prediction.evaluate_s_per_story": (per_story("core.prediction.evaluate"), "s"),
        "core.prediction.batch_stories_per_s": (stories / batch_seconds, "1/s"),
        "service.service.overhead_s_per_story": (service - batch_seconds / stories, "s"),
        "service.service.queue_wait_mean_s": (layers["queue_wait_mean_s"], "s"),
        "service.daemon.overhead_s_per_story": (daemon - service, "s"),
        "service.daemon.event_bytes_per_story": (
            attribute_sum("service.daemon.job", "event_bytes") / stories,
            "bytes",
        ),
        "service.cluster.overhead_s_per_story": (cluster - daemon, "s"),
        "service.cluster.shards_stolen": (executor["shards_stolen"], "count"),
        "service.cluster.reroutes": (executor["reroutes"], "count"),
        "reconciliation.layer_self_s_per_story": (layers_self, "s"),
        "reconciliation.daemon_wall_s_per_story": (daemon, "s"),
        "unattributed_fraction": (
            min(1.0, max(0.0, 1.0 - layers_self / daemon)),
            "ratio",
        ),
    }
    tally = Tally()
    for label in ("daemon", "cluster"):
        tally.add(timings[label]["records"], layers["expected"])
    tally.attempted += stories
    tally.succeeded += stories - len(layers["service_problems"])
    tally.problems.extend(layers["service_problems"])
    tally.mismatched += len(layers["service_problems"])
    return metrics, tally
