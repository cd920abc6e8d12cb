"""Pluggable execution backends: where shard solves actually run.

The :class:`~repro.service.service.PredictionService` drains its queue by
handing each shard to an :class:`ExecutionBackend`.  Two backends are
registered here and a third, ``cluster``, in :mod:`repro.service.cluster`
(the registry mirrors the solver-backend and model registries --
:func:`register_executor` / :func:`create_executor` /
:func:`available_executors`):

* ``thread`` -- an in-process ``ThreadPoolExecutor``.  The numpy solver
  spends its time in LAPACK/BLAS, which release the GIL, so threads
  already overlap the linear algebra -- but every shard still shares one
  Python interpreter, and the pure-Python parts of calibration (grid
  bookkeeping, multi-start refinement control flow, per-story fitting of
  the temporal baselines) serialize on the GIL.
* ``process`` -- a ``concurrent.futures.ProcessPoolExecutor``.  Shards
  cross the process boundary pickled; each worker process lazily builds
  and reuses its *own* operator cache (the cache module is process-global,
  so a worker's second shard with the same spatial signature hits warm
  factorizations), and a warm-up hook on worker init imports the numerics
  stack -- optionally pre-solving a representative payload -- so the first
  real shard does not pay cold-start twice.

Every backend honours one shard contract: :meth:`ExecutionBackend.solve`
takes a picklable :class:`ShardPayload` (story surfaces plus the
:class:`~repro.core.config.ModelSpec`, never live fitter/service objects)
and returns ``(worker_label, ShardSolveReport)``, produced wherever the
shard runs by :func:`solve_shard_report`.  That in turn resolves the
numerics through the module-level :func:`solve_shard_payload`, so results
are bit-identical across backends by construction (the equivalence tests
and the benchmark's ``service.scaling`` section assert the delta is
exactly zero), and patching ``solve_shard_payload`` injects a fault into
every backend at once.

Crash hardening: when a process worker dies mid-shard (OOM kill, segfault,
``kill -9``), ``ProcessPoolExecutor`` marks the whole pool broken and
fails *every* in-flight future with ``BrokenProcessPool``.  The process
backend translates that into a :class:`WorkerCrashError` per affected
shard and respawns the pool exactly once (idempotent under a lock, however
many shards observed the same breakage), so the service's poisoned-shard
bisection machinery retries the affected jobs on fresh workers and a
deterministically crashing story eventually fails alone -- the daemon
survives worker death the same way it survives a poisoned surface.
"""

from __future__ import annotations

import multiprocessing
import pickle
import threading
import time
from abc import ABC, abstractmethod
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.cascade.density import DensitySurface
from repro.core.config import ModelSpec
from repro.core.errors import UnknownExecutorError
from repro.service.sharding import ShardKey
from repro.service.tracing import NOOP_TRACER, TraceContext, Tracer, TracerLike


class WorkerCrashError(RuntimeError):
    """A process worker died while (or before) solving this shard.

    Raised by :meth:`ProcessExecutionBackend.solve` in place of the
    pool-global ``BrokenProcessPool``, after the pool has been respawned.
    An ordinary ``Exception`` subclass on purpose: the service routes it
    through the same bisect-and-requeue path as any other shard-wide solve
    failure, so the crashed shard is retried (split in half) on the fresh
    pool instead of sinking the service.
    """


@dataclass(frozen=True)
class ShardPayload:
    """One shard as plain picklable data: everything a worker needs.

    The pickling boundary of the process backend: the shard's signature
    (:class:`~repro.service.sharding.ShardKey` -- frozen floats/strings/
    tuples), the resolved model workload
    (:class:`~repro.core.config.ModelSpec` -- frozen dataclasses) and the
    observed surfaces (numpy arrays plus plain metadata).  Surfaces may be
    lazy :class:`~repro.corpus.store.LazySurface` handles -- also plain
    picklable data (store path + row, no open mmaps) -- which
    :func:`solve_shard_payload` materialises in the worker.  No live
    fitter, service or event-loop objects ever cross the boundary.
    """

    key: ShardKey
    spec: ModelSpec
    surfaces: "dict[str, DensitySurface | object]"
    #: Trace context of the shard span this solve belongs to.  Rides the
    #: pickle into process workers so spans recorded there carry the same
    #: trace id and re-parent under the service-side shard span.
    trace: "TraceContext | None" = None


@dataclass
class ShardSolveReport:
    """Everything a shard solve produced, in picklable form.

    ``outcomes`` is the classic story-name -> result/exception mapping;
    ``spans`` carries span *records* collected wherever the shard ran
    (empty unless the payload carried a trace context);
    ``phase_seconds`` holds the fit/evaluate wall times feeding the
    ``service.solve_phase_seconds`` histograms, and the cache counters are
    the operator-cache hit/miss delta across this solve.
    """

    outcomes: "dict[str, object]"
    spans: "list[dict[str, Any]]" = field(default_factory=list)
    phase_seconds: "dict[str, float]" = field(default_factory=dict)
    cache_hits: int = 0
    cache_misses: int = 0


@dataclass
class _SolveInstrumentation:
    """Ambient per-solve instrumentation state (thread-local)."""

    tracer: TracerLike
    parent: "TraceContext | None"
    report: ShardSolveReport


_ACTIVE = threading.local()


def _operator_cache_counts() -> "tuple[int, int]":
    """(hits, misses) summed over every operator cache; (0, 0) on failure."""
    try:
        from repro.numerics.operator_cache import cache_stats

        stats = cache_stats()
        hits = sum(int(entry.get("hits", 0)) for entry in stats.values())
        misses = sum(int(entry.get("misses", 0)) for entry in stats.values())
        return hits, misses
    except Exception:  # noqa: BLE001 - instrumentation must never fail a solve
        return 0, 0


def _record_calibration_phases(
    tracer: TracerLike,
    parent: "TraceContext | None",
    fitter: object,
    name: str,
    fit_start: float,
    fit_seconds: float,
) -> None:
    """Split a story's fit span into grid-search vs LM-refinement children.

    Duck-typed against the ``dl`` fitter (``fitter.predictor`` exposing
    per-story ``_calibration_details`` with a ``refinement.seconds`` wall
    time); models without calibration details simply get no sub-phases.
    """
    try:
        predictor = getattr(fitter, "predictor", None)
        details_by_story = getattr(predictor, "_calibration_details", None)
        if not isinstance(details_by_story, dict):
            return
        entry = details_by_story.get(name)
        details = entry.get("details") if isinstance(entry, dict) else None
        if not isinstance(details, dict):
            return
        refinement = details.get("refinement")
        refine_seconds = (
            float(refinement.get("seconds", 0.0))
            if isinstance(refinement, dict)
            else 0.0
        )
        grid_seconds = max(fit_seconds - refine_seconds, 0.0)
        attributes: "dict[str, Any]" = {"story": name}
        engine = details.get("engine")
        if engine is not None:
            attributes["engine"] = engine
        candidates = details.get("candidates_evaluated")
        if candidates is not None:
            attributes["candidates"] = candidates
        tracer.record_span(
            "calibration.grid",
            parent=parent,
            start=fit_start,
            duration=grid_seconds,
            attributes=attributes,
        )
        if refine_seconds > 0.0:
            tracer.record_span(
                "calibration.refine",
                parent=parent,
                start=fit_start + grid_seconds,
                duration=refine_seconds,
                attributes={"story": name},
            )
    except Exception:  # noqa: BLE001 - instrumentation must never fail a solve
        return


def solve_shard_payload(
    payload: ShardPayload,
) -> "dict[str, object]":
    """Solve one shard payload: the single shard-numerics path of the service.

    Resolves the shard's model from the registry, fits each story in
    isolation (a story whose *fit* fails maps to its own exception without
    poisoning shard-mates) and evaluates every fitted story in one joint
    call -- for ``dl`` that is the batched spatial-group solve.  Every
    backend lands here, which is what makes their results bit-identical:
    the backends only choose *where* this function runs, never *how* it
    computes.

    When invoked under :func:`solve_shard_report`, phase timings and spans
    are recorded through the ambient instrumentation state; called directly
    (tests, warm-up) it behaves exactly as before -- a plain dict in, plain
    dict out numerics function with zero tracing overhead.
    """
    from repro.corpus.store import materialize_surface
    from repro.models.registry import get_model

    inst: "_SolveInstrumentation | None" = getattr(_ACTIVE, "current", None)
    tracer: TracerLike = inst.tracer if inst is not None else NOOP_TRACER
    parent = inst.parent if inst is not None else None
    traced = tracer.enabled

    key = payload.key
    fitter = get_model(key.model).batch_fitter(payload.spec)
    # Lazy corpus-store handles materialise here -- at shard-solve time, in
    # whichever worker (thread or process) runs the shard -- so a
    # store-backed corpus never has all its surfaces in memory at once.
    surfaces = {
        name: materialize_surface(surface)
        for name, surface in payload.surfaces.items()
    }
    outcomes: "dict[str, object]" = {}
    fitted: "list[str]" = []
    fit_t0 = time.perf_counter() if inst is not None else 0.0
    fit_span = (
        tracer.span("solve.fit", parent=parent, attributes={"stories": len(surfaces)})
        if traced
        else None
    )
    for name, surface in surfaces.items():
        story_start = time.time()
        story_t0 = time.perf_counter()
        try:
            fitter.fit_story(name, surface, key.training_times)
            fitted.append(name)
        except Exception as error:  # noqa: BLE001 - per-story failure
            outcomes[name] = error
            if traced:
                tracer.record_span(
                    "story.fit",
                    parent=fit_span,
                    start=story_start,
                    duration=time.perf_counter() - story_t0,
                    attributes={"story": name, "error": type(error).__name__},
                )
            continue
        if traced:
            fit_seconds = time.perf_counter() - story_t0
            story_ctx = tracer.record_span(
                "story.fit",
                parent=fit_span,
                start=story_start,
                duration=fit_seconds,
                attributes={"story": name},
            )
            _record_calibration_phases(
                tracer, story_ctx, fitter, name, story_start, fit_seconds
            )
    if fit_span is not None:
        fit_span.finish()
    if inst is not None:
        inst.report.phase_seconds["fit"] = time.perf_counter() - fit_t0
    if fitted:
        evaluate_span = (
            tracer.span(
                "solve.evaluate", parent=parent, attributes={"stories": len(fitted)}
            )
            if traced
            else None
        )
        evaluate_t0 = time.perf_counter() if inst is not None else 0.0
        results = fitter.evaluate(
            {name: surfaces[name] for name in fitted},
            times=key.evaluation_times,
        )
        if inst is not None:
            inst.report.phase_seconds["evaluate"] = (
                time.perf_counter() - evaluate_t0
            )
        if evaluate_span is not None:
            evaluate_span.finish()
        for name in fitted:
            outcomes[name] = results[name]
    return outcomes


def solve_shard_report(payload: ShardPayload) -> ShardSolveReport:
    """Solve a shard with instrumentation; what every backend's worker runs.

    When the payload carries a trace context, a local collecting
    :class:`~repro.service.tracing.Tracer` records the solve's spans and
    returns them in ``report.spans``; the service ingests them and they
    re-parent under its shard span.  Phase wall times and the
    operator-cache delta are measured either way (they feed always-on
    histograms), and the numerics route through the module-level
    :func:`solve_shard_payload` name so monkeypatched fault injection
    intercepts every backend identically.
    """
    collector = Tracer(capacity=512) if payload.trace is not None else None
    active: TracerLike = collector if collector is not None else NOOP_TRACER
    report = ShardSolveReport(outcomes={})
    hits_before, misses_before = _operator_cache_counts()
    inst = _SolveInstrumentation(tracer=active, parent=payload.trace, report=report)
    previous = getattr(_ACTIVE, "current", None)
    _ACTIVE.current = inst
    try:
        # Resolved via the module global on purpose: monkeypatching
        # ``execution.solve_shard_payload`` (crash injection, fault tests)
        # must intercept the instrumented path too.
        outcomes = solve_shard_payload(payload)
    finally:
        _ACTIVE.current = previous
    report.outcomes = outcomes
    hits_after, misses_after = _operator_cache_counts()
    report.cache_hits = max(hits_after - hits_before, 0)
    report.cache_misses = max(misses_after - misses_before, 0)
    if collector is not None:
        report.spans = collector.spans()
    return report


class ExecutionBackend(ABC):
    """Where shard solves run: a started/stopped pool with an async ``solve``.

    The contract with the service: :meth:`solve` takes a
    :class:`ShardPayload` and returns ``(worker_label, report)``, where
    ``report`` is the :class:`ShardSolveReport` :func:`solve_shard_report`
    produced for it -- ``report.outcomes`` maps story name to a
    :class:`~repro.core.prediction.PredictionResult` or the story's own
    exception.  A raise out of :meth:`solve` is a *shard-wide* failure that
    the service answers with bisect-and-requeue.  ``worker_label`` names
    the pool member that solved the shard (thread name / process name /
    worker-daemon address) and feeds the per-worker metric labels.
    """

    #: Registry name of the backend kind (``thread`` / ``process`` / ``cluster``).
    kind: str = "abstract"

    def __init__(self, max_workers: int) -> None:
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.workers = int(max_workers)

    @abstractmethod
    def start(self) -> None:
        """Create the pool; idempotent."""

    @abstractmethod
    def shutdown(self, wait: bool = True) -> None:
        """Tear the pool down; the backend cannot be restarted."""

    @abstractmethod
    async def solve(self, payload: ShardPayload) -> "tuple[str, ShardSolveReport]":
        """Run one shard; returns ``(worker_label, report)``."""

    def bind_metrics(self, registry) -> None:
        """Adopt the service's :class:`~repro.service.telemetry.MetricsRegistry`.

        Called by :meth:`PredictionService.start` before the backend starts,
        so backends with their own telemetry (the cluster backend's
        per-worker queue-depth gauges and steal/reroute counters) report
        into the same registry the daemon exposes.  A no-op by default --
        the in-process backends are already instrumented by the service.
        """

    def describe(self) -> dict:
        """Plain-dict state for ``stats`` payloads."""
        return {"executor": self.kind, "workers": self.workers}


class ThreadExecutionBackend(ExecutionBackend):
    """Shard solving on an in-process thread pool."""

    kind = "thread"

    def __init__(self, max_workers: int) -> None:
        super().__init__(max_workers)
        self._pool: "ThreadPoolExecutor | None" = None

    def start(self) -> None:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-service"
            )

    def shutdown(self, wait: bool = True) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=wait)

    async def solve(self, payload: ShardPayload) -> "tuple[str, ShardSolveReport]":
        import asyncio

        assert self._pool is not None, "backend not started"

        def entry() -> "tuple[str, ShardSolveReport]":
            return threading.current_thread().name, solve_shard_report(payload)

        return await asyncio.get_running_loop().run_in_executor(self._pool, entry)


def _process_worker_init(warmup: "bytes | None") -> None:
    """Per-worker warm-up, run once when a pool process starts.

    Importing :mod:`repro.models` pulls the whole numerics stack (numpy,
    scipy, the solver and operator-cache modules) *and* registers the
    built-in models -- required under the ``spawn`` start method, where
    children do not inherit the parent's registry state.  An optional
    pickled :class:`ShardPayload` is then solved and discarded, populating
    this process's operator cache with the corpus's factorizations so the
    worker's first real shard starts warm.  Warm-up failures are swallowed:
    a broken warm-up payload must degrade to a cold first shard, never kill
    the worker (which would mark the whole pool broken).
    """
    import repro.models  # noqa: F401 - imported for its registration side effect

    if warmup:
        try:
            solve_shard_payload(pickle.loads(warmup))
        except Exception:  # noqa: BLE001 - warm-up is best-effort by design
            pass


def _solve_pickled_payload(data: bytes) -> "tuple[str, ShardSolveReport]":
    """Process-pool entry point: unpickle, solve, label with the worker name.

    Returns a full :class:`ShardSolveReport` so phase timings and any spans
    collected in this worker ride the pickle back to the service, which
    ingests them into its own tracer (the trace/span ids in the records
    already point at the service-side shard span, so they re-parent
    correctly).
    """
    payload = pickle.loads(data)
    report = solve_shard_report(payload)
    return multiprocessing.current_process().name, report


def _default_start_method() -> str:
    """``fork`` where available (Linux), else the platform default.

    Forked workers start in milliseconds and inherit runtime-registered
    models and module state; ``spawn`` (the macOS/Windows default) pays a
    full interpreter start per worker but works everywhere --
    ``_process_worker_init`` re-imports the registry so built-in models
    resolve under either method.
    """
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else multiprocessing.get_start_method()


class ProcessExecutionBackend(ExecutionBackend):
    """Shard solving on a ``ProcessPoolExecutor``: past the GIL entirely.

    Parameters
    ----------
    max_workers:
        Pool size; size it to physical cores for calibration-heavy
        corpora (each worker duplicates the operator cache, so memory
        grows linearly with workers).
    start_method:
        Multiprocessing start method (``fork`` / ``spawn`` /
        ``forkserver``); ``None`` picks ``fork`` where available.
    warmup:
        Optional :class:`ShardPayload` each new worker solves (and
        discards) on init, pre-populating its operator cache.
    """

    kind = "process"

    def __init__(
        self,
        max_workers: int,
        start_method: "str | None" = None,
        warmup: "ShardPayload | None" = None,
    ) -> None:
        super().__init__(max_workers)
        self._start_method = start_method or _default_start_method()
        self._context = multiprocessing.get_context(self._start_method)
        self._warmup_bytes = (
            pickle.dumps(warmup, protocol=pickle.HIGHEST_PROTOCOL)
            if warmup is not None
            else None
        )
        self._pool: "ProcessPoolExecutor | None" = None
        self._lock = threading.Lock()
        self._closed = False
        self._respawns = 0

    @property
    def start_method(self) -> str:
        """The multiprocessing start method in force."""
        return self._start_method

    @property
    def respawns(self) -> int:
        """How many times the pool was replaced after a worker crash."""
        with self._lock:
            return self._respawns

    def _new_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=self._context,
            initializer=_process_worker_init,
            initargs=(self._warmup_bytes,),
        )

    def start(self) -> None:
        with self._lock:
            if self._closed:
                raise RuntimeError("the executor has been shut down")
            if self._pool is None:
                self._pool = self._new_pool()

    def shutdown(self, wait: bool = True) -> None:
        with self._lock:
            self._closed = True
            pool = self._pool
        if pool is not None:
            pool.shutdown(wait=wait)

    def _respawn_after(self, broken: ProcessPoolExecutor) -> None:
        """Replace the broken pool, exactly once per breakage.

        A single worker death breaks the pool for *every* in-flight shard,
        so several concurrent ``solve`` calls race here with the same pool
        object; only the first swaps in a fresh pool, the rest see the
        swap already happened (``self._pool is not broken``) and return.
        """
        with self._lock:
            if self._closed or self._pool is not broken:
                return
            self._pool = self._new_pool()
            self._respawns += 1
        broken.shutdown(wait=False)

    async def solve(self, payload: ShardPayload) -> "tuple[str, ShardSolveReport]":
        import asyncio

        with self._lock:
            pool = self._pool
        assert pool is not None, "backend not started"
        # Pickle eagerly: an unpicklable payload must fail *this* shard with
        # a clear error instead of surfacing from the pool's feeder thread.
        data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        try:
            return await asyncio.get_running_loop().run_in_executor(
                pool, _solve_pickled_payload, data
            )
        except BrokenProcessPool as error:
            self._respawn_after(pool)
            raise WorkerCrashError(
                "a process worker died while this shard was in flight; the "
                "pool has been respawned and the shard will be retried"
            ) from error

    def describe(self) -> dict:
        info = super().describe()
        info["start_method"] = self._start_method
        info["respawns"] = self.respawns
        return info


# ---------------------------------------------------------------------- #
# Registry (mirrors repro.models.registry)
# ---------------------------------------------------------------------- #
#: name -> factory called as ``factory(max_workers=..., **options)``.
_REGISTRY: "dict[str, Callable[..., ExecutionBackend]]" = {}


def register_executor(
    name: str,
    factory: "Callable[..., ExecutionBackend]",
    overwrite: bool = False,
) -> None:
    """Register an execution backend under ``name``.

    ``factory`` is called as ``factory(max_workers=..., **options)`` and
    must return an (unstarted) :class:`ExecutionBackend`.  Re-registering
    an existing name raises unless ``overwrite=True``, mirroring
    :func:`repro.models.registry.register_model`.
    """
    if not name:
        raise ValueError("an executor needs a non-empty name")
    if not overwrite and name in _REGISTRY:
        raise ValueError(
            f"executor {name!r} is already registered; pass overwrite=True "
            f"to replace it"
        )
    _REGISTRY[name] = factory


def unregister_executor(name: str) -> None:
    """Remove a registered backend (unknown names raise)."""
    if name not in _REGISTRY:
        raise UnknownExecutorError(name, available_executors())
    del _REGISTRY[name]


def available_executors() -> "tuple[str, ...]":
    """Registered backend names, sorted."""
    return tuple(sorted(_REGISTRY))


def get_executor_factory(name: str) -> "Callable[..., ExecutionBackend]":
    """The factory registered under ``name`` (unknown names raise)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownExecutorError(name, available_executors()) from None


def create_executor(
    name: str,
    max_workers: int,
    options: "Mapping[str, object] | None" = None,
) -> ExecutionBackend:
    """Instantiate (without starting) the backend registered under ``name``."""
    factory = get_executor_factory(name)
    return factory(max_workers=max_workers, **dict(options or {}))


register_executor("thread", ThreadExecutionBackend, overwrite=True)
register_executor("process", ProcessExecutionBackend, overwrite=True)
