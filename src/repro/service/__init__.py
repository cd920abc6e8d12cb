"""The multi-story prediction service layer.

Wraps any registered prediction model (:mod:`repro.models`) behind an async
job queue so whole corpora of cascades are scored concurrently:

* :mod:`repro.service.sharding` -- group stories by the spatial signature
  (grid, dt, backend, model name) that lets them share one batched solve
  and its cached operator factorizations.  Stories scored by different
  models never share a shard.
* :mod:`repro.service.service` -- the :class:`PredictionService`: bounded
  async worker pool with submit/await/stream APIs, per-job status and
  wall-clock timeouts, cancellation, bounded shard retry with bisection,
  queue-depth backpressure and graceful drain.
* :mod:`repro.service.execution` -- pluggable :class:`ExecutionBackend`
  registry deciding *where* shard solves run: the in-process ``thread``
  pool or the ``process`` pool (per-process operator caches,
  crashed-worker respawn).  Every backend takes a picklable
  :class:`ShardPayload` and returns a :class:`ShardSolveReport`.
* :mod:`repro.service.cluster` -- the ``cluster`` backend: a router
  daemon's :class:`WorkerPool` fans shards out to N worker daemons over
  the socket protocol, hash-routed for worker-cache affinity with work
  stealing and dead-worker rerouting into the bisection-retry path.
* :mod:`repro.service.telemetry` -- the in-process
  :class:`MetricsRegistry` (counters, gauges, solve-time histograms) the
  service and daemon report into.
* :mod:`repro.service.transport` -- daemon addresses (``unix:PATH``,
  ``tcp:HOST:PORT``, ``stdio``), :class:`Listener` implementations and the
  transport registry behind ``repro daemon --listen`` and
  :meth:`DaemonClient.connect`.
* :mod:`repro.service.session` -- per-connection protocol sessions:
  JSON-lines framing, request routing and the per-client
  :class:`ClientQuota` (typed quota-rejection error events).
* :mod:`repro.service.journal` -- the optional restart-surviving
  :class:`JobJournal`: accepted jobs are journalled before they are
  acknowledged, and a restarted daemon reports the previous process's
  in-flight jobs as ``interrupted`` instead of forgetting them.
* :mod:`repro.service.daemon` -- the long-lived :class:`PredictionDaemon`
  composing the three layers above with the job lifecycle (``repro
  daemon`` / ``repro submit`` / ``repro daemon-stats``), plus the matching
  :class:`DaemonClient`.
* :mod:`repro.service.manifest` -- the story-manifest format consumed by the
  ``repro serve-batch`` CLI and the daemon's ``submit`` requests, opened
  through the single :func:`open_corpus` facade (inline surfaces, corpus
  refs, or a :mod:`repro.corpus` store).
* :mod:`repro.service.tracing` -- the dependency-free :class:`Tracer` /
  :class:`Span` API behind ``repro daemon --trace-dir`` and ``repro
  trace``: a :class:`TraceContext` propagates from the submit request
  through job records, :class:`ShardPayload` (across the process-executor
  pickle boundary) and the journal, so one job reconstructs as a single
  span tree with critical-path timing and Chrome-trace / speedscope
  exports.  Zero-cost when disabled: the default :data:`NOOP_TRACER`
  makes every instrumentation site a constant attribute check.
* :mod:`repro.service.logs` -- structured JSON-lines logging for the
  daemon's job state changes (the ``repro.service`` logger; one record
  per event with ``job_id`` / ``trace_id`` fields).
"""

from repro.service.cluster import (
    ClusterExecutionBackend,
    ClusterShardError,
    WorkerPool,
    route_hash,
)
from repro.service.daemon import (
    DaemonClient,
    DaemonJob,
    PredictionDaemon,
    story_result_payload,
)
from repro.service.journal import JobJournal, ReplayedJob, replay_records
from repro.service.execution import (
    EXECUTORS,
    ExecutionBackend,
    ProcessExecutionBackend,
    ShardPayload,
    ShardSolveReport,
    ThreadExecutionBackend,
    WorkerCrashError,
    create_executor,
    executor_default_workers,
    solve_shard_report,
)
from repro.service.logs import (
    SERVICE_LOGGER_NAME,
    JsonLineFormatter,
    configure_service_logging,
    log_job_event,
    service_logger,
)
from repro.service.manifest import (
    ManifestError,
    ManifestStory,
    ResolvedManifest,
    StoryManifest,
    open_corpus,
)
from repro.service.service import (
    JobCancelledError,
    JobStatus,
    JobTimeoutError,
    PredictionJob,
    PredictionService,
    score_corpus_sync,
)
from repro.service.session import ClientQuota, ClientSession
from repro.service.sharding import CorpusSharder, Shard, ShardKey
from repro.service.telemetry import Counter, Gauge, Histogram, MetricsRegistry
from repro.service.tracing import (
    NOOP_TRACER,
    NoOpTracer,
    Span,
    SpanNode,
    TraceContext,
    Tracer,
    chrome_trace,
    critical_path,
    load_span_file,
    render_trace,
    span_tree,
    speedscope_profile,
    trace_for_job,
    validate_trace,
    worker_attribution,
)
from repro.service.transport import (
    Address,
    AddressError,
    Connection,
    Listener,
    StdioListener,
    TcpListener,
    TransportSpec,
    TRANSPORTS,
    UnixListener,
    create_listener,
    load_worker_addresses,
    open_client_connection,
    parse_address,
)

__all__ = [
    "CorpusSharder",
    "Shard",
    "ShardKey",
    "ClusterExecutionBackend",
    "ClusterShardError",
    "WorkerPool",
    "route_hash",
    "EXECUTORS",
    "ExecutionBackend",
    "ProcessExecutionBackend",
    "ShardPayload",
    "ShardSolveReport",
    "ThreadExecutionBackend",
    "WorkerCrashError",
    "create_executor",
    "executor_default_workers",
    "solve_shard_report",
    "NOOP_TRACER",
    "NoOpTracer",
    "Span",
    "SpanNode",
    "TraceContext",
    "Tracer",
    "chrome_trace",
    "critical_path",
    "load_span_file",
    "render_trace",
    "span_tree",
    "speedscope_profile",
    "trace_for_job",
    "validate_trace",
    "worker_attribution",
    "SERVICE_LOGGER_NAME",
    "JsonLineFormatter",
    "configure_service_logging",
    "log_job_event",
    "service_logger",
    "JobCancelledError",
    "JobStatus",
    "JobTimeoutError",
    "PredictionJob",
    "PredictionService",
    "score_corpus_sync",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DaemonClient",
    "DaemonJob",
    "PredictionDaemon",
    "story_result_payload",
    "Address",
    "AddressError",
    "Connection",
    "Listener",
    "StdioListener",
    "TcpListener",
    "TRANSPORTS",
    "TransportSpec",
    "UnixListener",
    "create_listener",
    "load_worker_addresses",
    "open_client_connection",
    "parse_address",
    "ClientQuota",
    "ClientSession",
    "JobJournal",
    "ReplayedJob",
    "replay_records",
    "ManifestError",
    "ManifestStory",
    "ResolvedManifest",
    "StoryManifest",
    "open_corpus",
]
