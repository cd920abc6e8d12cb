"""Async multi-story prediction service over the unified model registry.

:class:`PredictionService` turns any registered prediction model
(:mod:`repro.models` -- the DL model by default, any baseline or
runtime-registered model by name) into a concurrent scoring service for
whole corpora of cascades:

* **submit** -- ``await service.submit(name, surface)`` enqueues one story
  and returns a :class:`PredictionJob` with per-job status, result and
  cancellation.
* **shard** -- queued jobs are grouped by
  :class:`~repro.service.sharding.CorpusSharder` signature (which includes
  the model name, so shards never mix models); for the DL model every
  dispatched batch shares its cached operator factorizations and advances as
  the columns of one vectorised PDE solve.
* **drain** -- a bounded worker pool offloads the numpy-heavy shard solves
  through a pluggable :class:`~repro.service.execution.ExecutionBackend`:
  ``executor="thread"`` (the default) solves on one in-process thread
  (the solver holds the GIL between many short LAPACK/ufunc calls, so more
  threads only contend for it), ``executor="process"`` ships picklable
  shard payloads to a ``ProcessPoolExecutor`` and scales calibration-heavy
  corpora past the GIL entirely; either way the asyncio side stays
  responsive for submissions, streaming and cancellation.
* **backpressure** -- at most ``queue_depth`` jobs may be queued or running;
  further ``submit`` calls suspend until capacity frees up, so an unbounded
  producer cannot exhaust memory.
* **timeouts** -- each job may carry a wall-clock deadline (per submit or a
  service-wide default); a job past its deadline completes as ``TIMED_OUT``
  immediately, without stalling its shard-mates or later jobs.
* **retry / requeue** -- a shard-wide solve failure does not sink the whole
  shard: the shard is split in half and both halves are requeued (bounded
  by ``max_shard_retries`` attempts per job), so a single poisoned story is
  bisected away from its shard-mates and fails alone.
* **telemetry** -- a :class:`~repro.service.telemetry.MetricsRegistry`
  (job/shard/story counters, queue-depth gauge, solve-time histograms) is
  updated throughout; the daemon exposes it over its ``stats`` command.
* **autotuning** -- with ``autotune=True`` shard sizes follow a
  :class:`~repro.service.sharding.ShardAutotuner`: an EWMA of observed
  per-story solve times sizes each batch to a target latency instead of the
  fixed ``max_shard_size`` grouping.

Results are numerically identical to running the model's direct synchronous
path on the same corpus (``BatchPredictor`` for ``dl``, ``fit`` +
``evaluate`` for every other registered model) -- the service only
reorganises *when* each shard is solved, never *how* (the equivalence tests
and the ``service`` section of the substrate benchmark assert this).

For synchronous callers (CLI, benchmarks, examples) the module-level
:func:`score_corpus_sync` wraps the whole submit/await cycle in one
``asyncio.run`` call.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import AsyncIterator, Iterable, Mapping, Sequence

from repro.cascade.density import DensitySurface
from repro.core.config import ModelSpec, SolverConfig
from repro.core.parameters import DLParameters
from repro.core.prediction import PredictionResult
from repro.models.registry import MODELS
from repro.service.execution import (
    EXECUTORS,
    ExecutionBackend,
    ShardPayload,
    ShardSolveReport,
    WorkerCrashError,
    create_executor,
    executor_default_workers,
)
from repro.service.sharding import CorpusSharder, ShardAutotuner, ShardKey
from repro.service.telemetry import MetricsRegistry
from repro.service.tracing import NOOP_TRACER, Span, TraceContext, TracerLike

DEFAULT_QUEUE_DEPTH = 128
DEFAULT_MAX_SHARD_SIZE = 32
#: Default bound on how often one job may be requeued after shard-wide solve
#: failures.  Each retry halves the failing shard, so 6 attempts bisect a
#: poisoned story out of any shard up to 64 stories wide.
DEFAULT_MAX_SHARD_RETRIES = 6


class JobStatus(str, Enum):
    """Lifecycle of one submitted story."""

    PENDING = "pending"
    RUNNING = "running"
    SUCCEEDED = "succeeded"
    FAILED = "failed"
    CANCELLED = "cancelled"
    TIMED_OUT = "timed_out"


class JobCancelledError(RuntimeError):
    """Raised by :meth:`PredictionJob.wait` when the job was cancelled."""


class JobTimeoutError(RuntimeError):
    """Raised by :meth:`PredictionJob.wait` when the job exceeded its deadline."""


@dataclass
class PredictionJob:
    """One story queued for scoring.

    Attributes
    ----------
    name:
        Story name (unique within the jobs awaited together).
    surface:
        The observed density surface being scored.
    key:
        The shard signature the job was grouped by.
    status:
        Current :class:`JobStatus`.
    result:
        The :class:`PredictionResult` once ``status`` is ``SUCCEEDED``.
    error:
        The exception once ``status`` is ``FAILED`` or ``TIMED_OUT``.
    timeout:
        Wall-clock deadline in seconds, measured from submission; ``None``
        means no deadline.
    attempts:
        How many times the job's shard has been requeued after a shard-wide
        solve failure.
    """

    name: str
    surface: DensitySurface
    key: ShardKey
    status: JobStatus = JobStatus.PENDING
    result: "PredictionResult | None" = None
    error: "BaseException | None" = None
    timeout: "float | None" = None
    attempts: int = 0
    #: Trace context this job's spans parent to (e.g. the daemon's root
    #: ``job`` span); ``None`` starts a fresh trace per story when tracing
    #: is enabled.
    trace: "TraceContext | None" = None
    _done: asyncio.Event = field(default_factory=asyncio.Event, repr=False)
    _service: "PredictionService | None" = field(default=None, repr=False)
    _deadline_handle: "asyncio.TimerHandle | None" = field(default=None, repr=False)
    #: Live ``story`` span (tracing enabled only); finished by _complete.
    _span: "Span | None" = field(default=None, repr=False)
    #: Wall-clock / monotonic enqueue stamps feeding queue-wait telemetry;
    #: reset on requeue so the wait reflects the latest enqueue.
    _enqueued_at: float = field(default=0.0, repr=False)
    _enqueued_pc: float = field(default=0.0, repr=False)
    #: Context of the most recent shard span this job was solved under;
    #: a retried job's next shard span parents here (the re-parenting link
    #: from a bisected half back to the failed shard).
    _shard_trace: "TraceContext | None" = field(default=None, repr=False)

    @property
    def done(self) -> bool:
        """True once the job reached a terminal status."""
        return self._done.is_set()

    async def finished(self) -> "PredictionJob":
        """Suspend until the job reaches a terminal status; never raises."""
        await self._done.wait()
        return self

    async def wait(self) -> PredictionResult:
        """Suspend until the job finishes; return its result.

        Raises the shard's exception when the job ``FAILED``,
        :class:`JobCancelledError` when it was cancelled and
        :class:`JobTimeoutError` when it exceeded its wall-clock deadline.
        """
        await self._done.wait()
        if self.status is JobStatus.CANCELLED:
            raise JobCancelledError(f"job {self.name!r} was cancelled")
        if self.status is JobStatus.TIMED_OUT:
            raise JobTimeoutError(
                f"job {self.name!r} exceeded its {self.timeout:g}s deadline"
            )
        if self.status is JobStatus.FAILED:
            assert self.error is not None
            raise self.error
        assert self.result is not None
        return self.result

    def cancel(self) -> bool:
        """Cancel the job if it has not started; True when it was cancelled."""
        if self._service is None:
            return False
        return self._service.cancel(self)


class PredictionService:
    """Score corpora of cascades concurrently through an async job queue.

    Parameters
    ----------
    model:
        Registry name of the default prediction model
        (:mod:`repro.models`); jobs may override it per story via
        :meth:`submit`.  Stories under different models are never sharded
        together.
    parameters:
        DL-model parameters (only meaningful when the default model is
        ``"dl"``): ``None`` calibrates each story from its training window,
        a single :class:`DLParameters` is shared, a mapping assigns per
        story name.
    model_params:
        Model-specific options for the default model
        (:attr:`~repro.core.config.ModelSpec.params`), e.g.
        ``{"ridge": 1e-3}`` for ``linear-influence``.
    model_overrides:
        Per-model params for *non-default* models submitted via
        ``submit(..., model=...)``, keyed by registry name, e.g.
        ``{"linear-influence": {"ridge": 10.0}}``.  Before this knob
        existed, override models silently ran with registry defaults no
        matter what the caller configured; every model name is validated
        against the registry at construction.
    executor:
        Name of the :mod:`~repro.service.execution` backend shard solves
        run on: ``"thread"`` (default, the in-process pool), ``"process"``
        (a ``ProcessPoolExecutor``: per-process operator caches, crash
        respawn -- scales calibration-heavy corpora past the GIL) or
        ``"cluster"`` (a worker-daemon fleet).
    executor_options:
        Extra keyword arguments for the backend factory, e.g.
        ``{"start_method": "spawn"}`` or a ``warmup`` payload for the
        process backend.
    solver:
        A :class:`~repro.core.config.SolverConfig`; omitted, the defaults.
        DL stories without parameters are calibrated by
        :func:`~repro.core.calibration.calibrate_dl_model`.
    max_workers:
        Number of shard solves in flight at once (the executor's pool
        size); ``None`` takes the executor's ``default_workers``: 1 on
        ``thread`` (extra threads contend for the GIL, and a long shard
        delays the shards queued behind it -- per-story deadlines still
        fire), 4 on ``process`` and ``cluster``.
    queue_depth:
        Backpressure bound: the maximum number of jobs queued or running
        before :meth:`submit` suspends.
    max_shard_size:
        Largest number of stories solved in one batch; bigger shards
        amortize factorizations further but increase per-batch latency.
    job_timeout:
        Default wall-clock deadline (seconds, from submission) applied to
        every job that does not carry its own; ``None`` disables deadlines.
    max_shard_retries:
        How many times one job may be requeued after a shard-wide solve
        failure before it is failed outright; each retry splits the failing
        shard in half, so the default bisects a poisoned story out of any
        default-sized shard.
    autotune:
        When True (or when ``autotuner`` is given), shard sizes follow a
        :class:`~repro.service.sharding.ShardAutotuner` fed with observed
        solve times instead of the fixed ``max_shard_size``;
        ``max_shard_size`` then only caps the autotuner's range.  Each
        model gets its own autotuner (per-story costs differ by orders of
        magnitude between models, so one shared EWMA would miscalibrate
        mixed traffic).
    autotuner:
        An explicitly configured autotuner instance for the *default*
        model (implies ``autotune``); other models autotune with
        default-configured instances.
    metrics:
        A :class:`~repro.service.telemetry.MetricsRegistry` to update; one
        is created when omitted (see :attr:`metrics`).
    tracer:
        A :class:`~repro.service.tracing.Tracer` receiving spans for every
        hot boundary (queue wait, shard solve, fit/evaluate phases);
        defaults to the zero-cost no-op tracer, so an untraced service pays
        only an ``enabled`` attribute check per site.

    Use as an async context manager (``async with PredictionService() as
    service:``) or call :meth:`start` / :meth:`close` explicitly.
    """

    def __init__(
        self,
        parameters: "DLParameters | Mapping[str, DLParameters] | None" = None,
        max_workers: "int | None" = None,
        queue_depth: int = DEFAULT_QUEUE_DEPTH,
        max_shard_size: "int | None" = DEFAULT_MAX_SHARD_SIZE,
        job_timeout: "float | None" = None,
        max_shard_retries: int = DEFAULT_MAX_SHARD_RETRIES,
        autotune: bool = False,
        autotuner: "ShardAutotuner | None" = None,
        metrics: "MetricsRegistry | None" = None,
        *,
        model: str = "dl",
        model_params: "Mapping[str, object] | None" = None,
        model_overrides: "Mapping[str, Mapping[str, object]] | None" = None,
        executor: str = "thread",
        executor_options: "Mapping[str, object] | None" = None,
        solver: "SolverConfig | None" = None,
        tracer: "TracerLike | None" = None,
    ) -> None:
        if max_workers is None:
            max_workers = executor_default_workers(executor)
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        if queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {queue_depth}")
        if job_timeout is not None and job_timeout <= 0:
            raise ValueError(f"job_timeout must be > 0, got {job_timeout}")
        if max_shard_retries < 0:
            raise ValueError(
                f"max_shard_retries must be >= 0, got {max_shard_retries}"
            )
        MODELS.get(model)  # fail fast on unknown default models
        EXECUTORS.get(executor)  # ... and on unknown executors
        for override_model in model_overrides or {}:
            if override_model == model:
                raise ValueError(
                    f"model_overrides names the default model {model!r}; "
                    f"pass its params via model_params= instead"
                )
            MODELS.get(override_model)
        if parameters is not None and model != "dl":
            raise ValueError(
                f"parameters= carries DL parameters but the default model is "
                f"{model!r}; pass model-specific options via model_params="
            )
        solver_config = solver if solver is not None else SolverConfig()
        params = dict(model_params or {})
        if parameters is not None:
            params["parameters"] = parameters
        self._spec = ModelSpec(
            name=model,
            params=params,
            solver=solver_config,
        )
        self._sharder = CorpusSharder(
            solver=solver_config,
            model=model,
            max_shard_size=max_shard_size,
        )
        self._model_overrides = {
            name: dict(params) for name, params in (model_overrides or {}).items()
        }
        self._override_specs: "dict[str, ModelSpec]" = {}
        self._executor_name = executor
        self._executor_options = dict(executor_options or {})
        self._max_workers = max_workers
        self._queue_depth = queue_depth
        self._max_shard_size = max_shard_size
        self._job_timeout = job_timeout
        self._max_shard_retries = max_shard_retries
        # One autotuner per model: shards are per-model, and per-story solve
        # costs differ by orders of magnitude between models (a logistic fit
        # vs a DL calibration), so a shared EWMA would miscalibrate every
        # model's shard size in mixed traffic.  An explicitly supplied
        # autotuner serves the default model; other models lazily get their
        # own default-configured instance (_autotuner_for).
        self._autotune = autotune or autotuner is not None
        self._autotuners: "dict[str, ShardAutotuner]" = {}
        if self._autotune:
            self._autotuners[model] = (
                autotuner if autotuner is not None else self._new_autotuner()
            )
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        self._shard_seconds = self._metrics.histogram("service.shard_solve_seconds")
        self._story_seconds = self._metrics.histogram("service.story_solve_seconds")
        self._queue_gauge = self._metrics.gauge("service.queue_depth")
        self._queue_wait_seconds = self._metrics.histogram("service.queue_wait_seconds")
        # The no-op tracer is the default: every instrumentation site checks
        # ``self._tracer.enabled`` (one attribute read) before building any
        # span or attribute dict, so an untraced service pays ~nothing.
        self._tracer: TracerLike = tracer if tracer is not None else NOOP_TRACER

        self._started = False
        self._closed = False
        self._active_names: "set[str]" = set()
        self._pending: "dict[ShardKey, list[PredictionJob]]" = {}
        self._requeued: "deque[list[PredictionJob]]" = deque()
        self._slots: "asyncio.Semaphore | None" = None
        self._workers: "asyncio.Semaphore | None" = None
        self._kick: "asyncio.Event | None" = None
        self._dispatcher: "asyncio.Task | None" = None
        self._inflight: "set[asyncio.Task]" = set()
        self._backend: "ExecutionBackend | None" = None
        self._counts = {status: 0 for status in JobStatus}
        self._shards_solved = 0
        self._shards_retried = 0
        self._stories_solved = 0

    @property
    def metrics(self) -> MetricsRegistry:
        """The telemetry registry this service updates."""
        return self._metrics

    @property
    def tracer(self) -> TracerLike:
        """The tracer this service records spans into (no-op by default)."""
        return self._tracer

    @property
    def model_spec(self) -> ModelSpec:
        """The default model workload (name, params, solver)."""
        return self._spec

    def _new_autotuner(self) -> ShardAutotuner:
        return ShardAutotuner(
            max_size=self._max_shard_size if self._max_shard_size is not None else 64
        )

    def _autotuner_for(self, model: str) -> "ShardAutotuner | None":
        """The model's autotuner (lazily created), or None when disabled."""
        if not self._autotune:
            return None
        tuner = self._autotuners.get(model)
        if tuner is None:
            tuner = self._autotuners[model] = self._new_autotuner()
        return tuner

    @property
    def autotuner(self) -> "ShardAutotuner | None":
        """The default model's shard autotuner, when autotuning is enabled."""
        return self._autotuners.get(self._spec.name) if self._autotune else None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "PredictionService":
        """Create the queue machinery; must run inside an event loop."""
        if self._started:
            return self
        if self._closed:
            raise RuntimeError("the service has been closed; create a new one")
        self._slots = asyncio.Semaphore(self._queue_depth)
        self._workers = asyncio.Semaphore(self._max_workers)
        self._kick = asyncio.Event()
        self._backend = create_executor(
            self._executor_name, self._max_workers, self._executor_options
        )
        # Bind before start(): backends with their own telemetry (cluster)
        # must register their series in the shared registry so the daemon's
        # stats/metrics commands see them from the first shard on.
        self._backend.bind_metrics(self._metrics)
        self._backend.start()
        self._metrics.gauge(
            "service.worker_pool_size", labels={"executor": self._backend.kind}
        ).set(self._max_workers)
        self._dispatcher = asyncio.get_running_loop().create_task(self._dispatch_loop())
        self._started = True
        return self

    async def drain(self) -> None:
        """Suspend until every currently queued/running job has completed.

        Does not close the service and does not block new submissions -- a
        producer submitting concurrently extends the drain.  ``close()``
        calls this after barring submissions, which is the graceful-shutdown
        path; call it directly for a checkpoint ("everything submitted so
        far is done") in a long-lived daemon.
        """
        while self._has_pending() or self._inflight:
            if self._inflight:
                await asyncio.gather(*list(self._inflight), return_exceptions=True)
            else:
                # Pending but not dispatched yet: yield so the dispatcher runs.
                await asyncio.sleep(0)

    async def close(self, drain: bool = True) -> None:
        """Stop accepting jobs, settle the queue, then tear the pool down.

        With ``drain=True`` (the default) every queued and running job is
        completed first -- the graceful path.  With ``drain=False`` still
        *queued* jobs are cancelled and only shards already solving are
        awaited, for a fast abort.
        """
        if not self._started or self._closed:
            self._closed = True
            return
        # Reject new submissions immediately -- including ones currently
        # parked on the backpressure semaphore, which re-check this flag
        # after acquiring a slot -- so nothing can be enqueued after the
        # drain loop decides the queue is empty.
        self._closed = True
        if not drain:
            for batch in [list(q) for q in self._pending.values()] + [
                list(b) for b in self._requeued
            ]:
                for job in batch:
                    if job.status is JobStatus.PENDING:
                        self._complete(job, JobStatus.CANCELLED)
            self._pending.clear()
            self._requeued.clear()
        await self.drain()
        assert self._dispatcher is not None and self._backend is not None
        self._dispatcher.cancel()
        try:
            await self._dispatcher
        except asyncio.CancelledError:
            pass
        self._backend.shutdown(wait=True)
        self._closed = True

    async def __aenter__(self) -> "PredictionService":
        return self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    def _require_open(self) -> None:
        if not self._started:
            raise RuntimeError(
                "the service is not running; use 'async with PredictionService()' "
                "or call start() first"
            )
        if self._closed:
            raise RuntimeError("the service has been closed; create a new one")

    # ------------------------------------------------------------------ #
    # Submission / results
    # ------------------------------------------------------------------ #
    async def submit(
        self,
        name: str,
        surface: DensitySurface,
        training_times: "Sequence[float] | None" = None,
        evaluation_times: "Sequence[float] | None" = None,
        timeout: "float | None" = None,
        model: "str | None" = None,
        trace: "TraceContext | None" = None,
    ) -> PredictionJob:
        """Queue one story; suspends while the service is at ``queue_depth``.

        The returned job completes once its shard has been solved; await
        :meth:`PredictionJob.wait` (or :meth:`stream` several jobs) for the
        :class:`~repro.core.prediction.PredictionResult`.

        ``model`` overrides the service's default model for this story
        (validated against the registry immediately); the model name is part
        of the shard signature, so stories under different models are never
        batched together.

        ``name`` must be unique among the jobs currently queued or running:
        shard solves are keyed by story name, so a duplicate would silently
        receive another surface's result.  A name becomes reusable once its
        job reaches a terminal status.

        ``timeout`` is this job's wall-clock deadline in seconds, measured
        from enqueue (``None`` falls back to the service's ``job_timeout``).
        A job past its deadline completes as ``TIMED_OUT`` the moment the
        deadline fires -- even while its shard is still solving -- so no
        waiter is ever stalled by one slow story.

        ``trace`` is an optional parent :class:`TraceContext` (e.g. the
        daemon's root ``job`` span): when the service carries a live tracer,
        this story's spans attach under it, correlating daemon, service and
        worker timings in one trace.
        """
        self._require_open()
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {timeout}")
        if model is not None:
            MODELS.get(model)  # unknown names fail the submit, not the shard
        if name in self._active_names:
            raise ValueError(
                f"a job named {name!r} is already queued or running; story "
                f"names must be unique among in-flight jobs"
            )
        # Reserve the name *before* suspending on backpressure, so a second
        # concurrent submit with the same name fails fast instead of both
        # passing the check while parked on a full queue.
        self._active_names.add(name)
        try:
            key = self._sharder.key_for(
                surface, training_times, evaluation_times, model=model
            )
            assert self._slots is not None and self._kick is not None
            await self._slots.acquire()  # backpressure
            if self._closed:
                # close() started while this submit was parked on the
                # semaphore; enqueueing now would leave the job pending
                # forever (the dispatcher is being torn down).
                self._slots.release()
                raise RuntimeError("the service has been closed; job not accepted")
        except BaseException:
            self._active_names.discard(name)
            raise
        job = PredictionJob(
            name=name,
            surface=surface,
            key=key,
            timeout=timeout if timeout is not None else self._job_timeout,
            trace=trace,
            _service=self,
        )
        job._enqueued_at = time.time()
        job._enqueued_pc = time.perf_counter()
        if self._tracer.enabled:
            job._span = self._tracer.span(
                "story",
                parent=trace,
                attributes={"story": name, "model": key.model},
            )
        self._pending.setdefault(key, []).append(job)
        self._counts[JobStatus.PENDING] += 1
        self._metrics.counter("service.jobs_submitted").inc()
        # The model label makes multi-model traffic attributable in the
        # Prometheus export without perturbing the unlabelled totals.
        self._metrics.counter(
            "service.jobs_submitted", labels={"model": key.model}
        ).inc()
        self._queue_gauge.set(
            self._counts[JobStatus.PENDING] + self._counts[JobStatus.RUNNING]
        )
        if job.timeout is not None:
            job._deadline_handle = asyncio.get_running_loop().call_later(
                job.timeout, self._expire, job
            )
        self._kick.set()
        return job

    async def stream(
        self, jobs: Iterable[PredictionJob]
    ) -> AsyncIterator[PredictionJob]:
        """Yield jobs as they finish (any terminal status), earliest first."""
        waiters = {asyncio.ensure_future(job.finished()): job for job in jobs}
        try:
            while waiters:
                done, _ = await asyncio.wait(waiters, return_when=asyncio.FIRST_COMPLETED)
                for waiter in done:
                    yield waiters.pop(waiter)
        finally:
            for waiter in waiters:
                waiter.cancel()

    async def score_corpus(
        self,
        surfaces: "Mapping[str, DensitySurface]",
        training_times: "Sequence[float] | None" = None,
        evaluation_times: "Sequence[float] | None" = None,
    ) -> "dict[str, PredictionResult]":
        """Submit a whole corpus and await every result, keyed by story name."""
        jobs = [
            await self.submit(name, surface, training_times, evaluation_times)
            for name, surface in surfaces.items()
        ]
        return {job.name: await job.wait() for job in jobs}

    def cancel(self, job: PredictionJob) -> bool:
        """Cancel a queued job; returns False once it is running or done."""
        if job.status is not JobStatus.PENDING:
            return False
        self._remove_from_queues(job)
        self._complete(job, JobStatus.CANCELLED)
        return True

    def stats(self) -> dict:
        """Counters for monitoring and smoke tests."""
        stats = {
            "model": self._spec.name,
            "queued": self._counts[JobStatus.PENDING],
            "running": self._counts[JobStatus.RUNNING],
            "succeeded": self._counts[JobStatus.SUCCEEDED],
            "failed": self._counts[JobStatus.FAILED],
            "cancelled": self._counts[JobStatus.CANCELLED],
            "timed_out": self._counts[JobStatus.TIMED_OUT],
            "shards_solved": self._shards_solved,
            "shards_retried": self._shards_retried,
            "stories_solved": self._stories_solved,
            "queue_depth": self._queue_depth,
            "max_workers": self._max_workers,
            "max_shard_size": self._max_shard_size,
            # Worker-pool identity: what this service is actually running
            # on, for operators reading `stats` / `daemon-stats`.  The
            # backend's describe() adds kind-specific detail (the process
            # backend reports its start method and crash-respawn count).
            "executor": self._executor_name,
            "workers": self._max_workers,
        }
        stats["executor_info"] = (
            self._backend.describe()
            if self._backend is not None
            else {"executor": self._executor_name, "workers": self._max_workers}
        )
        if self._autotune:
            default = self._autotuners.get(self._spec.name)
            if default is not None:
                stats["autotuner"] = default.snapshot()
            if len(self._autotuners) > 1 or default is None:
                stats["autotuner_by_model"] = {
                    name: tuner.snapshot()
                    for name, tuner in sorted(self._autotuners.items())
                }
        return stats

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #
    def _has_pending(self) -> bool:
        return bool(self._requeued) or any(self._pending.values())

    def _shard_size_limit(self, model: str) -> "int | None":
        """The batch bound in force: autotuned (per model) when enabled, else fixed."""
        tuner = self._autotuner_for(model)
        if tuner is not None:
            return tuner.recommended_size()
        return self._max_shard_size

    def _next_batch(self) -> "list[PredictionJob]":
        """Pop the next shard batch (requeued halves first, then oldest key)."""
        # Requeued halves jump the queue: their jobs have been waiting since
        # before their first dispatch, and they must not be re-merged with
        # newly submitted same-key jobs (the split is the fault-isolation).
        while self._requeued:
            batch = [
                job for job in self._requeued.popleft()
                if job.status is JobStatus.PENDING
            ]
            if batch:
                return batch
        for key in list(self._pending):
            queued = self._pending[key]
            if not queued:
                del self._pending[key]
                continue
            size = self._shard_size_limit(key.model) or len(queued)
            batch = queued[:size]
            remainder = queued[size:]
            if remainder:
                self._pending[key] = remainder
            else:
                del self._pending[key]
            return batch
        return []

    async def _dispatch_loop(self) -> None:
        assert self._kick is not None and self._workers is not None
        while True:
            await self._kick.wait()
            self._kick.clear()
            while self._has_pending():
                await self._workers.acquire()
                # The batch is never bound to a local here: this frame lives
                # as long as the service and would pin the last shard's
                # jobs (surfaces and results) after they complete.
                if not self._start_shard(self._next_batch()):
                    self._workers.release()
                    break

    def _start_shard(self, batch: "list[PredictionJob]") -> bool:
        """Solve ``batch`` in a background task; False when it is empty."""
        if not batch:
            return False
        task = asyncio.get_running_loop().create_task(self._run_shard(batch))
        self._inflight.add(task)
        task.add_done_callback(self._inflight.discard)
        return True

    _TERMINAL_STATUSES = (
        JobStatus.SUCCEEDED,
        JobStatus.FAILED,
        JobStatus.CANCELLED,
        JobStatus.TIMED_OUT,
    )

    def _transition(self, job: PredictionJob, status: JobStatus) -> None:
        self._counts[job.status] -= 1
        job.status = status
        self._counts[status] += 1
        if status in self._TERMINAL_STATUSES:
            self._active_names.discard(job.name)

    def _complete(
        self,
        job: PredictionJob,
        status: JobStatus,
        result: "PredictionResult | None" = None,
        error: "BaseException | None" = None,
    ) -> bool:
        """Move a job to a terminal status exactly once.

        Every completion path -- shard solved, shard failed for good,
        cancelled, deadline expired, abort on close -- funnels through here,
        so the queue slot is released exactly once per job, the deadline
        timer is always cancelled, and the per-status counters/metrics stay
        consistent no matter which path fires first.  Returns False (and does
        nothing) when the job already completed through another path.
        """
        if job.done:
            return False
        job.result = result
        job.error = error
        self._transition(job, status)
        if job._span is not None:
            # Finished but left attached: the daemon parents its
            # result-emission span to the story span after completion.
            job._span.set_attribute("status", status.value)
            if job.attempts:
                job._span.set_attribute("attempts", job.attempts)
            job._span.finish()
        if job._deadline_handle is not None:
            job._deadline_handle.cancel()
            job._deadline_handle = None
        job._done.set()
        assert self._slots is not None
        self._slots.release()
        self._metrics.counter(f"service.jobs_{status.value}").inc()
        self._metrics.counter(
            f"service.jobs_{status.value}", labels={"model": job.key.model}
        ).inc()
        self._queue_gauge.set(
            self._counts[JobStatus.PENDING] + self._counts[JobStatus.RUNNING]
        )
        return True

    def _remove_from_queues(self, job: PredictionJob) -> None:
        """Drop a pending job from the key queues and any requeued batch."""
        queued = self._pending.get(job.key, [])
        if job in queued:
            queued.remove(job)
            if not queued:
                self._pending.pop(job.key, None)
            return
        for batch in self._requeued:
            if job in batch:
                batch.remove(job)
                if not batch:
                    # An emptied batch must not keep _has_pending() true --
                    # nothing would ever kick the dispatcher to discard it
                    # and drain() would spin forever.
                    self._requeued.remove(batch)
                return

    def _expire(self, job: PredictionJob) -> None:
        """Deadline callback: complete the job as TIMED_OUT wherever it is.

        A PENDING job is pulled out of the queue; a RUNNING job's shard keeps
        solving on its worker thread (numpy solves cannot be interrupted),
        but the job completes *now* -- its waiter unblocks, its slot frees,
        and whatever the shard later produces for it is discarded.
        """
        if job.done:
            return
        if job.status is JobStatus.PENDING:
            self._remove_from_queues(job)
        error = JobTimeoutError(
            f"job {job.name!r} exceeded its {job.timeout:g}s deadline"
        )
        self._complete(job, JobStatus.TIMED_OUT, error=error)

    def _fail_or_requeue(self, jobs: "list[PredictionJob]", error: Exception) -> None:
        """Handle a shard-wide solve failure: bisect-and-requeue, bounded.

        Jobs with retry budget left are requeued -- as two halves when the
        shard had more than one story, so a deterministically poisoned story
        is bisected away from its shard-mates in O(log n) retries and fails
        alone.  Jobs out of budget fail with the shard's error.
        """
        assert self._kick is not None
        retryable = []
        for job in jobs:
            if job.attempts < self._max_shard_retries:
                job.attempts += 1
                retryable.append(job)
            else:
                self._complete(job, JobStatus.FAILED, error=error)
        if not retryable:
            return
        self._shards_retried += 1
        self._metrics.counter("service.shards_retried").inc()
        requeued_at = time.time()
        requeued_pc = time.perf_counter()
        for job in retryable:
            self._transition(job, JobStatus.PENDING)
            # Queue-wait restarts at requeue; the retry's shard span keeps
            # the link to the failed shard via the job's _shard_trace.
            job._enqueued_at = requeued_at
            job._enqueued_pc = requeued_pc
        half = (len(retryable) + 1) // 2
        for batch in (retryable[:half], retryable[half:]):
            if batch:
                self._requeued.append(batch)
        self._kick.set()

    async def _run_shard(self, jobs: "list[PredictionJob]") -> None:
        assert self._workers is not None and self._slots is not None
        assert self._backend is not None
        # A job can be cancelled or expire between dispatch and this task
        # running; those completion paths already ran, so only still-pending
        # jobs belong to this shard.  No await separates the filter from the
        # RUNNING transition, so neither path can interleave.
        jobs = [job for job in jobs if job.status is JobStatus.PENDING]
        if not jobs:
            self._workers.release()
            return
        for job in jobs:
            self._transition(job, JobStatus.RUNNING)
        dequeued_pc = time.perf_counter()
        for job in jobs:
            self._queue_wait_seconds.observe(max(dequeued_pc - job._enqueued_pc, 0.0))
        shard_span: "Span | None" = None
        if self._tracer.enabled:
            for job in jobs:
                self._tracer.record_span(
                    "queue.wait",
                    parent=job._span,
                    start=job._enqueued_at,
                    duration=max(dequeued_pc - job._enqueued_pc, 0.0),
                    attributes={"story": job.name},
                )
            # A retried half links back to the failed shard: its jobs carry
            # the failed shard span's context in _shard_trace, which becomes
            # the retry span's parent (and its retry_of attribute).
            retry_of = jobs[0]._shard_trace
            key = jobs[0].key
            attributes: "dict[str, object]" = {
                "shard": key.signature(),
                "model": key.model,
                "stories": len(jobs),
                "attempt": jobs[0].attempts,
            }
            if retry_of is not None:
                attributes["retry_of"] = retry_of.span_id
            shard_span = self._tracer.span(
                "shard.solve",
                parent=retry_of if retry_of is not None else jobs[0]._span,
                attributes=attributes,
            )
            shard_ctx = shard_span.context
            for job in jobs:
                job._shard_trace = shard_ctx
        try:
            start = time.perf_counter()
            worker, report = await self._backend.solve(self._payload_for(jobs))
            elapsed = time.perf_counter() - start
            self._absorb_report(report, worker, shard_span)
            outcomes = report.outcomes
            worker_label = {"worker": worker}
            self._shard_seconds.observe(elapsed)
            self._story_seconds.observe(elapsed / len(jobs))
            # Per-worker duplicates of the solve histogram and counters
            # below make pool utilization visible in the Prometheus export
            # without perturbing the unlabelled totals.
            self._metrics.histogram(
                "service.shard_solve_seconds", labels=worker_label
            ).observe(elapsed)
            tuner = self._autotuner_for(jobs[0].key.model)
            if tuner is not None:
                tuner.observe(len(jobs), elapsed)
            solved = 0
            for job in jobs:
                if job.done:
                    # Expired mid-solve: the TIMED_OUT completion already ran
                    # and unblocked the waiter; the late result is dropped.
                    self._metrics.counter("service.late_results_discarded").inc()
                    continue
                outcome = outcomes[job.name]
                if isinstance(outcome, BaseException):
                    self._complete(job, JobStatus.FAILED, error=outcome)
                else:
                    self._complete(job, JobStatus.SUCCEEDED, result=outcome)
                    solved += 1
            if solved:
                self._shards_solved += 1
                self._stories_solved += solved
                self._metrics.counter("service.shards_solved").inc()
                self._metrics.counter(
                    "service.shards_solved", labels=worker_label
                ).inc()
                self._metrics.counter("service.stories_solved").inc(solved)
                self._metrics.counter(
                    "service.stories_solved", labels={"model": jobs[0].key.model}
                ).inc(solved)
                self._metrics.counter(
                    "service.stories_solved", labels=worker_label
                ).inc(solved)
        except Exception as error:  # noqa: BLE001 - failures surface via job.wait()
            if isinstance(error, WorkerCrashError):
                # The backend already respawned its pool; count the crash so
                # operators can tell worker death from poisoned shards.
                self._metrics.counter("service.worker_crashes").inc()
            if shard_span is not None:
                shard_span.set_attribute("error", type(error).__name__)
            self._fail_or_requeue([job for job in jobs if not job.done], error)
        finally:
            if shard_span is not None:
                shard_span.finish()
            self._workers.release()

    def _absorb_report(
        self,
        report: ShardSolveReport,
        worker: str,
        shard_span: "Span | None",
    ) -> None:
        """Fold a shard's solve report into telemetry and the trace.

        Worker-collected spans are ingested into the service tracer, tagged
        with the worker label -- their trace/span ids already point at the
        shard span that rode out in the payload, so they re-parent with no
        rewriting.  Phase wall times feed the per-phase histograms, and the
        operator-cache delta lands as shard-span attributes.
        """
        for phase, seconds in report.phase_seconds.items():
            self._metrics.histogram(
                "service.solve_phase_seconds", labels={"phase": phase}
            ).observe(seconds)
        if self._tracer.enabled and report.spans:
            self._tracer.ingest(
                [dict(record, attributes=dict(record.get("attributes") or {}, worker=worker))
                 for record in report.spans]
            )
        if shard_span is not None:
            shard_span.set_attribute("worker", worker)
            shard_span.set_attribute("cache_hits", report.cache_hits)
            shard_span.set_attribute("cache_misses", report.cache_misses)

    def _spec_for(self, model_name: str) -> ModelSpec:
        """The workload spec of one shard's model.

        The default model keeps the service's full spec (including any
        explicit DL parameters); per-story override models run with the
        shared solver config plus their ``model_overrides``
        params -- before that mapping existed, overridden params were
        silently dropped here and override models always ran with registry
        defaults.  Specs are cached per model (they are frozen).
        """
        if model_name == self._spec.name:
            return self._spec
        spec = self._override_specs.get(model_name)
        if spec is None:
            spec = ModelSpec(
                name=model_name,
                params=self._model_overrides.get(model_name, {}),
                solver=self._spec.solver,
            )
            self._override_specs[model_name] = spec
        return spec

    def _payload_for(self, jobs: "list[PredictionJob]") -> ShardPayload:
        """The shard as plain picklable data: every backend's input."""
        key = jobs[0].key
        return ShardPayload(
            key=key,
            spec=self._spec_for(key.model),
            surfaces={job.name: job.surface for job in jobs},
            trace=jobs[0]._shard_trace,
        )


def score_corpus_sync(
    surfaces: "Mapping[str, DensitySurface]",
    training_times: "Sequence[float] | None" = None,
    evaluation_times: "Sequence[float] | None" = None,
    **service_kwargs,
) -> "dict[str, PredictionResult]":
    """Score a corpus through the service from synchronous code.

    Spins up a :class:`PredictionService` (keyword arguments are forwarded to
    its constructor) inside ``asyncio.run``, scores every story and returns
    the per-story results.  The benchmark's ``service`` section and the
    examples use this; the CLI's ``serve-batch`` drives the service directly
    so it can stream each result as it completes.
    """

    async def _run() -> "dict[str, PredictionResult]":
        async with PredictionService(**service_kwargs) as service:
            return await service.score_corpus(surfaces, training_times, evaluation_times)

    return asyncio.run(_run())
