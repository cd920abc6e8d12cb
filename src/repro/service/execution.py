"""Pluggable execution backends: where shard solves actually run.

The :class:`~repro.service.service.PredictionService` drains its queue by
handing each shard to an :class:`ExecutionBackend`.  Two backends are
registered in :data:`EXECUTORS` here and a third, ``cluster``, in
:mod:`repro.service.cluster`; :func:`create_executor` builds one by name:

* ``thread`` -- an in-process ``ThreadPoolExecutor``, one thread by
  default.  The solver's hot loop is many short GIL-releasing calls (about
  fifteen per corrector, and a non-stiff time step takes one: one stacked
  ``dpttrs`` f2py call plus small numpy ufuncs), so a second thread does
  not overlap the linear algebra --
  the two threads hand the GIL back and forth thousands of times a second.
  Measured on a 2-CPU box, two calibration jobs took 6.6 s back to back on
  one thread and 13.5 s (17.1 s CPU) on two.
* ``process`` -- a ``concurrent.futures.ProcessPoolExecutor``.  Shards
  cross the process boundary pickled; each worker process lazily builds
  and reuses its *own* operator cache (the cache module is process-global,
  so a worker's second shard with the same spatial signature hits warm
  factorizations), and each worker imports the model registry on init, so
  built-in models resolve under any start method.

Every backend honours one shard contract: :meth:`ExecutionBackend.solve`
takes a picklable :class:`ShardPayload` (story surfaces plus the
:class:`~repro.core.config.ModelSpec`, never live fitter/service objects)
and returns ``(worker_label, ShardSolveReport)``, produced wherever the
shard runs by the one function :func:`solve_shard_report`.  Results are
therefore bit-identical across backends by construction (the equivalence
tests and the benchmark's ``service.scaling`` section assert the delta is
exactly zero).  Every backend, the cluster worker op included, looks the
function up through this module when a shard runs, so patching
``execution.solve_shard_report`` injects a fault into every backend at
once.

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

from repro.cascade.density import DensitySurface, materialize_surface
from repro.core.config import ModelSpec
from repro.core.calibration import FitPhase
from repro.core.prediction import BatchPredictor, ShardFit
from repro.core.registry import Registry
from repro.service.sharding import ShardKey
from repro.service.tracing import NOOP_TRACER, Span, TraceContext, Tracer, TracerLike


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
    :func:`solve_shard_report` materialises in the worker.  No live
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


def _record_fit_spans(
    tracer: TracerLike,
    parent: "TraceContext | Span | None",
    fitter: object,
    names: "list[str]",
    shard: ShardFit,
) -> None:
    """Spans of a shard fit, from its timed phases; no time is counted twice.

    Each story gets a ``story.fit`` span over the phases it went through
    alone -- its whole fit, or its calibration grid plus, when it was
    refined alone, its refinement -- with a ``calibration.grid`` /
    ``calibration.refine`` child per calibration phase.  A refinement
    several stories shared in lock-step is one ``calibration.refine`` span
    under the shard's fit span, with a ``stories`` attribute.  Grid spans
    carry the calibration's ``engine`` and ``candidates``, read through the
    ``dl`` fitter's
    :meth:`~repro.core.prediction.BatchPredictor.calibration_details_for`.
    """
    try:
        own: "dict[str, list[FitPhase]]" = {name: [] for name in names}
        for phase in shard.phases:
            if len(phase.stories) == 1:
                own[phase.stories[0]].append(phase)
            else:
                tracer.record_span(
                    "calibration.refine",
                    parent=parent,
                    start=phase.start,
                    duration=phase.seconds,
                    attributes={"stories": len(phase.stories)},
                )
        predictor = getattr(fitter, "predictor", None)
        for name, phases in own.items():
            attributes: "dict[str, Any]" = {"story": name}
            error = shard.failures.get(name)
            if error is not None:
                attributes["error"] = type(error).__name__
            story_ctx = tracer.record_span(
                "story.fit",
                parent=parent,
                start=phases[0].start if phases else time.time(),
                duration=sum(phase.seconds for phase in phases),
                attributes=attributes,
            )
            for phase in phases:
                if phase.name == "fit":
                    continue
                attributes = {"story": name}
                if phase.name == "refine":
                    attributes["stories"] = 1
                elif isinstance(predictor, BatchPredictor) and error is None:
                    details = predictor.calibration_details_for(name).get("details", {})
                    for key, label in (
                        ("engine", "engine"),
                        ("candidates_evaluated", "candidates"),
                    ):
                        if key in details:
                            attributes[label] = details[key]
                tracer.record_span(
                    f"calibration.{phase.name}",
                    parent=story_ctx,
                    start=phase.start,
                    duration=phase.seconds,
                    attributes=attributes,
                )
    except Exception:  # noqa: BLE001 - instrumentation must never fail a solve
        return


def solve_shard_report(payload: ShardPayload) -> ShardSolveReport:
    """Solve one shard payload: the single shard-numerics path of the service.

    Resolves the shard's model from the registry, fits the shard through
    :meth:`~repro.models.base.BatchFitter.fit_shard` (a story whose *fit*
    fails maps to its own exception without poisoning shard-mates; for
    ``dl`` the calibrations refine in lock-step) and evaluates every fitted
    story in one joint call -- for ``dl`` that is the batched
    spatial-group solve.  Every backend's worker runs this function, which
    is what makes their results bit-identical: the backends only choose
    *where* it runs, never *how* it computes.

    The fit/evaluate wall times and the operator-cache delta across the
    solve are always measured (they feed always-on telemetry).  When the
    payload carries a trace context, a local collecting
    :class:`~repro.service.tracing.Tracer` records the solve's spans and
    returns them in ``report.spans``; the service ingests them and they
    re-parent under its shard span.
    """
    from repro.models.registry import get_model

    collector = Tracer(capacity=512) if payload.trace is not None else None
    tracer: TracerLike = collector if collector is not None else NOOP_TRACER
    report = ShardSolveReport(outcomes={})
    hits_before, misses_before = _operator_cache_counts()

    key = payload.key
    fitter = get_model(key.model).batch_fitter(payload.spec)
    # Lazy corpus-store handles materialise here -- at shard-solve time, in
    # whichever worker (thread or process) runs the shard -- so a
    # store-backed corpus never has all its surfaces in memory at once.
    surfaces = {
        name: materialize_surface(surface)
        for name, surface in payload.surfaces.items()
    }
    fit_t0 = time.perf_counter()
    fit_span = tracer.span(
        "solve.fit", parent=payload.trace, attributes={"stories": len(surfaces)}
    )
    shard = fitter.fit_shard(surfaces, key.training_times)
    report.outcomes.update(shard.failures)
    fitted = [name for name in surfaces if name not in shard.failures]
    if collector is not None:
        _record_fit_spans(collector, fit_span.context, fitter, list(surfaces), shard)
    fit_span.finish()
    report.phase_seconds["fit"] = time.perf_counter() - fit_t0
    if fitted:
        evaluate_span = tracer.span(
            "solve.evaluate", parent=payload.trace, attributes={"stories": len(fitted)}
        )
        evaluate_t0 = time.perf_counter()
        results = fitter.evaluate(
            {name: surfaces[name] for name in fitted},
            times=key.evaluation_times,
        )
        report.phase_seconds["evaluate"] = time.perf_counter() - evaluate_t0
        evaluate_span.finish()
        for name in fitted:
            report.outcomes[name] = results[name]
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
    #: The pool size a service's ``max_workers=None`` resolves to on this
    #: backend (see :func:`executor_default_workers`).
    default_workers: int = 4

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
    """Shard solving on an in-process thread pool.

    One thread by default: shard solves hold the GIL between many short
    LAPACK/ufunc calls, so extra threads contend instead of overlapping
    (see the module docstring).  A long shard therefore delays the shards
    queued behind it; use ``executor="process"`` to use more than one core.
    """

    kind = "thread"
    default_workers = 1

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


def _process_worker_init() -> None:
    """Run once when a pool process starts: import the model registry.

    Importing :mod:`repro.models` pulls the whole numerics stack (numpy,
    scipy, the solver and operator-cache modules) *and* registers the
    built-in models -- required under the ``spawn`` start method, where
    children do not inherit the parent's registry state.
    """
    import repro.models  # noqa: F401 - imported for its registration side effect


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
    """

    kind = "process"

    def __init__(
        self,
        max_workers: int,
        start_method: "str | None" = None,
    ) -> None:
        super().__init__(max_workers)
        self._start_method = start_method or _default_start_method()
        self._context = multiprocessing.get_context(self._start_method)
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
# Registry
# ---------------------------------------------------------------------- #
#: name -> factory called as ``factory(max_workers=..., **options)``,
#: returning an (unstarted) :class:`ExecutionBackend`.
EXECUTORS: "Registry[Callable[..., ExecutionBackend]]" = Registry("executor")


def executor_default_workers(name: str) -> int:
    """The pool size ``max_workers=None`` resolves to on executor ``name``.

    The factory's ``default_workers`` (every built-in backend is its own
    factory class); factories without one get the base
    :attr:`ExecutionBackend.default_workers`.
    """
    factory = EXECUTORS.get(name)
    return getattr(factory, "default_workers", ExecutionBackend.default_workers)


def create_executor(
    name: str,
    max_workers: int,
    options: "Mapping[str, object] | None" = None,
) -> ExecutionBackend:
    """Instantiate (without starting) the backend registered under ``name``."""
    return EXECUTORS.get(name)(max_workers=max_workers, **dict(options or {}))


EXECUTORS.register("thread", ThreadExecutionBackend, overwrite=True)
EXECUTORS.register("process", ProcessExecutionBackend, overwrite=True)
