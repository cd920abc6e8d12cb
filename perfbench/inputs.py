"""Seeded workload inputs, the BatchPredictor reference, and the result check.

Inputs are a pure function of the seed and are made before anything is
timed.  ``known_params`` jobs name stories of a generated corpus store; a
``calibrate`` job holds DL-shaped stories (made by ``solve_dl_batch``) and
logistic-shaped ones (from ``iter_workload``) in equal numbers.
"""

from __future__ import annotations

import math
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro import (
    PAPER_S1_HOP_PARAMETERS,
    BatchPredictor,
    InitialDensity,
    solve_dl_batch,
)
from repro.corpus import WorkloadConfig, generate_store, iter_workload, materialize_surface
from repro.service import open_corpus, story_result_payload

from daemons import die_with_parent
from spans import SpanRecorder

HOURS = 6
TRAINING_TIMES = [float(t) for t in range(1, HOURS + 1)]
EVALUATION_TIMES = TRAINING_TIMES[1:]
#: Tolerance of the result check, the one the repo's equivalence gates use.
TOLERANCE = 1e-12
#: Stories per ``known_params`` job: the store-backed job size at which the
#: daemon's known-parameter throughput was measured (27.6-30.5 stories/s
#: with two clients on 2 CPUs).  A job this size holds every hop-group
#: signature of the store, about six stories per shard, so the service's
#: sharding and its shard-size default act on every job.
STORE_JOB_STORIES = 50
#: Distinct stories the ``known_params`` jobs name; the clients cycle
#: through the jobs, and the reference scores each story once.
STORE_POOL_STORIES = 200


@dataclass
class Workload:
    """What the clients submit, and how a run of it is judged.

    ``jobs`` are cycled through in order; client ``i`` starts at offset
    ``i * len(jobs) // clients``.
    """

    name: str
    mode: str
    jobs: "list[dict]"
    warmup: dict
    #: One-story job whose first shard makes a router dial its workers.
    probe: dict
    deadline_s: float
    parameters: object = None
    #: When set, each client sends exactly this many jobs and ``--seconds``
    #: is not used (see ``make_workload``).
    jobs_per_client: "int | None" = None


def story_names(manifest: dict) -> "list[str]":
    return [
        entry if isinstance(entry, str) else entry["name"]
        for entry in manifest["stories"]
    ]


def _store_jobs(seed: int, root: Path, stories: int, per_job: int) -> "list[dict]":
    """Store-backed jobs over a generated store (5-12 groups, 8-24 h).

    Every job holds the same number of stories of each hop-group count,
    interleaved in the same order, so its shard sizes and the shard it
    dispatches first -- and with them its cost and its time to first
    result -- do not depend on the seed; the seed picks the stories.  The
    clients cycle through only a few jobs, so a random mix would make
    those figures differ from seed to seed.  The store is generated three
    times larger than the pool so every hop-group count has enough
    stories to pick from.
    """
    store = generate_store(WorkloadConfig(stories=3 * stories, seed=seed), root)
    by_groups: "dict[int, list[str]]" = {}
    for name in store.story_names:
        by_groups.setdefault(len(store.handle(name).distances), []).append(name)
    groups = sorted(by_groups)
    width = len(groups)
    # Slot s of every job holds a story with groups[s % width] hop groups;
    # job j takes the j-th run of per_group[k] stories of groups[k].
    per_group = [len(range(k, per_job, width)) for k in range(width)]
    return [
        {
            "store": str(store.root),
            "hours": HOURS,
            "stories": [
                by_groups[groups[s % width]][job * per_group[s % width] + s // width]
                for s in range(per_job)
            ],
        }
        for job in range(stories // per_job)
    ]


def _inline(name: str, surface) -> dict:
    return {
        "name": name,
        "distances": surface.distances.tolist(),
        "times": surface.times.tolist(),
        "values": surface.values.tolist(),
    }


def _calibrate_jobs(seed: int, jobs: int) -> "list[dict]":
    """Inline calibration jobs of one story pair each.

    A pair is one logistic-shaped story, whose LM refinement runs to its
    iteration cap, and one DL-shaped story, whose LM stops after a few
    iterations.  Both stories of job ``j`` have ``5 + j % 2`` hop groups: a
    job is one shard, and the two jobs that two clients have in flight never
    share a shard key, so shard composition never depends on which submit
    the daemon reads first.
    """
    rng = np.random.default_rng(seed)
    manifests = []
    for job in range(jobs):
        groups = 5 + job % 2
        config = WorkloadConfig(
            stories=1,
            seed=seed * 1000 + job,
            min_distances=groups,
            max_distances=groups,
            min_hours=HOURS,
            max_hours=HOURS,
        )
        ((_, logistic),) = iter_workload(config)
        phi = InitialDensity(
            list(range(1, groups + 1)), list(2.0 + 3.0 * rng.random(groups))
        )
        dl = solve_dl_batch(PAPER_S1_HOP_PARAMETERS, phi, TRAINING_TIMES)[0]
        stories = [_inline(f"dl-{job}", dl.to_surface()), _inline(f"logistic-{job}", logistic)]
        manifests.append({"hours": HOURS, "stories": stories})
    return manifests


def make_workload(name: str, seed: int, workdir: Path) -> Workload:
    if name == "calibrate":
        jobs = _calibrate_jobs(seed, jobs=2)
        warmup = {"hours": HOURS, "stories": [dict(jobs[0]["stories"][0], name="warmup")]}
        return Workload(
            name=name,
            mode="calibrate",
            jobs=jobs,
            warmup=warmup,
            probe=warmup,
            deadline_s=90.0,
            # One ~20 s job per client, both in flight for the whole run.
            # A time limit would let one client start another job alone
            # whenever its last one ends just inside the limit, and that
            # lone job runs faster than two contending ones.
            jobs_per_client=1,
        )
    jobs = _store_jobs(
        seed, workdir / "store", stories=STORE_POOL_STORIES, per_job=STORE_JOB_STORIES
    )
    return Workload(
        name=name,
        mode="known",
        jobs=jobs,
        warmup=jobs[0],
        probe=dict(jobs[0], stories=jobs[0]["stories"][:1]),
        deadline_s=30.0,
        parameters=PAPER_S1_HOP_PARAMETERS,
    )


def resolve_jobs(workload: Workload, recorder: SpanRecorder) -> "list[dict]":
    """Each job's stories resolved the way the daemon resolves a submit."""
    resolved = []
    for manifest in workload.jobs:
        with recorder.span("service.manifest.resolve", stories=len(manifest["stories"])):
            surfaces = open_corpus(manifest).resolve(training_times=TRAINING_TIMES).surfaces
        resolved.append(surfaces)
    return resolved


def materialize(resolved: "list[dict]", recorder: SpanRecorder) -> "list[dict]":
    """Every job's stories as in-memory surfaces (store handles are lazy).

    ``BatchPredictor.evaluate`` needs real surfaces: a ``LazySurface`` has no
    ``restrict_times``.
    """
    jobs = []
    for job in resolved:
        surfaces = {}
        for name, surface in job.items():
            with recorder.span("corpus.materialize", story=name):
                surfaces[name] = materialize_surface(surface)
        jobs.append(surfaces)
    return jobs


def reference_results(
    parameters, jobs: "list[dict]", recorder: SpanRecorder
) -> "tuple[dict, dict]":
    """BatchPredictor results for every pool story, fitted and scored job by job.

    Each story's calibration is split into grid and LM-refinement spans from
    the refinement wall time the calibration reports.  Returns the expected
    result payloads and the fitted parameters, both by story name.
    """
    payloads, fitted = {}, {}
    for surfaces in jobs:
        predictor = BatchPredictor(parameters=parameters)
        for name, surface in surfaces.items():
            with recorder.span("core.prediction.fit_story", story=name) as span:
                predictor.fit_story(name, surface, TRAINING_TIMES)
            fitted[name] = predictor.parameters_for(name)
            details = predictor.calibration_details_for(name).get("details") or {}
            refinement = details.get("refinement") or {}
            refine = float(refinement.get("seconds", 0.0))
            if details:
                grid = recorder.record(
                    "core.calibration.grid", span.start, span.duration - refine, span
                )
                recorder.record(
                    "core.calibration.refine",
                    grid.end,
                    refine,
                    span,
                    lm_iterations=int(refinement.get("iterations", 0)),
                    residual_evals=int(refinement.get("n_evaluations", 0)),
                )
        with recorder.span("core.prediction.evaluate", stories=len(surfaces)):
            results = predictor.evaluate(surfaces, times=EVALUATION_TIMES).results
        payloads.update(
            (name, story_result_payload(result)) for name, result in results.items()
        )
    return payloads, fitted


def _reference_chunk(parameters, surfaces: dict) -> dict:
    return reference_results(parameters, [surfaces], SpanRecorder("reference"))[0]


def parallel_reference(parameters, jobs: "list[dict]", processes: int) -> dict:
    """The expected payloads, computed in ``processes`` worker processes.

    Untimed, so it may use every CPU.  Stories are scored in chunks of whole
    jobs; a batched solve's columns are independent, so the grouping does
    not change any result.
    """
    chunks: "list[dict]" = [{} for _ in range(processes)]
    for index, job in enumerate(jobs):
        chunks[index % processes].update(job)
    # Fork, not spawn: a spawn pool starts multiprocessing's resource
    # tracker, a process that outlives the pool and is left behind, unreaped,
    # when the benchmark exits.  Nothing has started a thread yet.
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(processes, mp_context=context, initializer=die_with_parent) as pool:
        results = list(pool.map(_reference_chunk, [parameters] * processes, chunks))
    return {name: payload for result in results for name, payload in result.items()}


def _close(a, b) -> bool:
    if isinstance(a, bool) or isinstance(b, bool) or not isinstance(b, (int, float)):
        return a == b
    if not isinstance(a, (int, float)):
        return False
    if math.isnan(b):
        return math.isnan(a)
    return abs(a - b) <= TOLERANCE * max(1.0, abs(b))


def _mismatches(streamed, expected, path: str) -> "list[str]":
    if isinstance(expected, dict):
        if not isinstance(streamed, dict) or set(streamed) != set(expected):
            return [f"{path}: keys differ"]
        return [
            problem
            for key in expected
            for problem in _mismatches(streamed[key], expected[key], f"{path}.{key}")
        ]
    return [] if _close(streamed, expected) else [f"{path}: {streamed!r} != {expected!r}"]


def check_result(event: "dict | None", expected: dict) -> "str | None":
    """``None`` when a streamed result matches the reference, else why not."""
    if event is None:
        return "no result event"
    if event.get("status") != "succeeded":
        return f"status {event.get('status')}: {event.get('error', '')}"
    streamed = {key: event.get(key) for key in expected}
    problems = _mismatches(streamed, expected, event.get("story", "?"))
    return "; ".join(problems[:3]) if problems else None
