"""Long-lived prediction daemon: job lifecycle over pluggable transports.

:class:`PredictionDaemon` turns the one-shot
:class:`~repro.service.service.PredictionService` into a server that
outlives any single manifest: clients connect over stdin/stdout, a
Unix-domain socket or TCP, submit story manifests as **jobs**, and receive
per-story results and job-status events streamed back as they complete,
while the daemon keeps one shared sharded worker pool (and its cached
operator factorizations) warm across jobs.

The daemon is a thin composition of three layers, each its own module:

* :mod:`repro.service.transport` -- addresses (``unix:/path``,
  ``tcp:HOST:PORT``, ``stdio``), listeners and client connections, behind
  a transport registry.  :meth:`PredictionDaemon.serve` takes any
  registered address.
* :mod:`repro.service.session` -- JSON-lines framing, request routing
  (submit/status/stats/metrics/trace/ping/shutdown), per-connection state
  and the per-client :class:`~repro.service.session.ClientQuota`.
* :mod:`repro.service.journal` -- the optional restart-surviving job
  journal (``journal_dir=``): every accepted job is journalled before it
  is acknowledged, and a restarted daemon replays the journal so
  previously in-flight jobs answer ``status`` as ``interrupted`` instead
  of silently vanishing.

What stays here is the daemon's own job: the lifecycle of a submitted
manifest (resolution, per-story submission to the shared service,
streaming ``result`` events, the final ``job`` event, bounded history).

Protocol
--------
Every request and every event is one JSON object per line (``\\n``
terminated, UTF-8).  Requests carry an ``op`` field:

``{"op": "submit", "manifest": {...}, "id": "job-1", "timeout": 30.0}``
    Score one story manifest (the same document ``repro serve-batch``
    reads, with corpus references and/or inline surfaces).  ``id`` names
    the job (generated when omitted); ``timeout`` is a per-story wall-clock
    deadline in seconds.  The daemon answers with an ``accepted`` event,
    then one ``result`` event per story as its shard completes, then a
    ``job`` event with final counts.
``{"op": "status", "id": "job-1"}``
    One ``status`` event with the job's current per-story counts.  Without
    ``id``, a summary of every known job.  After a restart with the same
    journal directory, previously in-flight jobs answer with status
    ``interrupted``.
``{"op": "stats"}``
    One ``stats`` event: daemon uptime and job counts, the service's
    counters (including its fixed ``max_shard_size``) and the full
    telemetry-registry snapshot.
``{"op": "trace", "id": "job-1"}``
    One ``trace`` event: the job's trace id and its buffered span records
    (empty when tracing is disabled).  Rendered by ``repro trace``.
``{"op": "worker", "id": "w-1", "payload": "<base64 pickle>"}``
    Cluster mode: solve one pickled
    :class:`~repro.service.execution.ShardPayload` and answer with a
    ``worker_result`` event carrying the pickled
    :class:`~repro.service.execution.ShardSolveReport` (same base64
    encoding).  The router daemon's
    :class:`~repro.service.cluster.WorkerPool` is the only intended
    caller; every ordinary ``repro daemon`` answers the op, which is what
    makes any daemon usable as a cluster worker.
``{"op": "ping"}`` / ``{"op": "shutdown", "drain": false}``
    Liveness probe / graceful stop.  ``shutdown`` drains every queued and
    running job before exiting unless ``drain`` is false, in which case
    queued jobs are cancelled and only in-flight shards finish.

Events mirror requests: ``accepted``, ``result``, ``job``, ``status``,
``stats``, ``pong``, ``shutdown`` and ``error`` (malformed JSON, unknown
ops, invalid manifests and quota rejections produce an ``error`` event on
the offending connection, never a dead daemon; quota rejections carry
``"error_type": "quota_exceeded"`` plus the tripped limit).

Results are bit-identical to the synchronous
:class:`~repro.core.prediction.BatchPredictor` on the same stories -- the
daemon only adds transport and scheduling, never numerics (the ``daemon``
benchmark section and the CI ``daemon-smoke`` job assert this, including
record-for-record equality between a TCP daemon and a Unix-socket one).

:class:`DaemonClient` is the matching asyncio client used by ``repro
submit`` / ``repro daemon-stats``, the benchmark harness and
``examples/daemon_client.py``; :meth:`DaemonClient.connect` dials any
transport address.
"""

from __future__ import annotations

import asyncio
import base64
import contextlib
import functools
import json
import logging
import os
import pickle
import time
from dataclasses import dataclass, field
from typing import AsyncIterator

from repro.core.errors import DaemonConnectionError, QuotaExceededError, UnknownNameError
from repro.core.prediction import PredictionResult
from repro.models.registry import MODELS
from repro.service import execution
from repro.service.journal import FSYNC_POLICIES, JobJournal, ReplayedJob
from repro.service.logs import log_job_event, service_logger
from repro.service.manifest import ManifestError, open_corpus
from repro.service.service import JobStatus, PredictionJob, PredictionService
from repro.service.session import ClientQuota, ClientSession
from repro.service.tracing import NOOP_TRACER, Span, Tracer, TracerLike
from repro.service.transport import (
    Address,
    Connection,
    Listener,
    create_listener,
    open_client_connection,
    read_line,
)

DEFAULT_HOURS = 6
_SUBMIT_FIELDS = {"op", "manifest", "id", "timeout", "model"}


def story_result_payload(result: PredictionResult) -> dict:
    """Machine-readable per-story result, shared by every transport.

    The same structure ``repro predict-batch --json`` and ``repro
    serve-batch`` emit, so daemon clients and batch pipelines parse one
    format.  ``model`` names the registry model that produced the result,
    so mixed-model streams stay attributable.
    """
    distances = result.predicted.distances
    averages = result.accuracy_table.row_averages(distances)
    return {
        "model": result.model,
        "overall_accuracy": result.overall_accuracy,
        "parameters": result.parameters.to_json_dict(),
        "accuracy_by_distance": {
            str(distance): float(average) for distance, average in zip(distances, averages)
        },
    }


@dataclass
class DaemonJob:
    """One submitted manifest tracked for its whole lifetime.

    While the job runs, its per-story counts come from the live
    :class:`PredictionJob` objects in ``story_jobs``.  A terminal job
    answers from ``final_counts`` instead: a completed job freezes its
    counts and drops ``story_jobs`` (so the stories' surfaces and results
    are freed once streamed), and an ``interrupted`` job -- replayed from
    the journal of a daemon process that died with it in flight -- carries
    the counts reconstructed from the journal.
    """

    id: str
    submitted_at: float
    timeout: "float | None"
    skipped: "list[str]" = field(default_factory=list)
    story_jobs: "dict[str, PredictionJob]" = field(default_factory=dict)
    completed: bool = False
    interrupted: bool = False
    stories_pending: int = 0
    final_counts: "dict[str, int] | None" = None
    trace_id: "str | None" = None
    _span: "Span | None" = field(default=None, repr=False)

    @property
    def active(self) -> bool:
        """True while the job is still producing events (quota accounting)."""
        return not self.completed and not self.interrupted

    def story_counts(self) -> dict:
        """Per-status story counts (``skipped`` included)."""
        if self.final_counts is not None:
            return dict(self.final_counts)
        counts = {status.value: 0 for status in JobStatus}
        for job in self.story_jobs.values():
            counts[job.status.value] += 1
        counts["skipped"] = len(self.skipped)
        return counts

    def summary(self) -> dict:
        counts = self.story_counts()
        if self.interrupted:
            status = "interrupted"
        else:
            status = "completed" if self.completed else "running"
        summary = {
            "id": self.id,
            "status": status,
            "stories": counts,
            "age_seconds": time.time() - self.submitted_at,
        }
        if self.trace_id is not None:
            summary["trace"] = self.trace_id
        return summary


class PredictionDaemon:
    """Serve prediction jobs over JSON lines, backed by one shared service.

    Parameters
    ----------
    default_timeout:
        Per-story wall-clock deadline (seconds) applied to submissions that
        do not carry their own ``timeout``; ``None`` disables deadlines.
    max_completed_jobs:
        How many *terminal* jobs (completed or interrupted) stay queryable
        via ``status`` before the oldest are evicted (their per-story
        results are only streamed, so eviction loses nothing but history).
        Bounds the daemon's memory over an arbitrarily long life; active
        jobs are never evicted.
    quota:
        A :class:`~repro.service.session.ClientQuota` bounding each
        client's share of the queue (max in-flight jobs / queued stories
        per connection); ``None`` leaves clients unlimited.  Rejections
        are typed ``error`` events (``error_type: "quota_exceeded"``) and
        counted in ``daemon.quota_rejections``.
    journal_dir:
        Directory of the restart-surviving job journal
        (:mod:`repro.service.journal`).  Every accepted job is journalled
        -- durably, under the default fsync policy -- *before* its
        ``accepted`` event is sent; on start the journal is replayed and
        jobs the previous process never finished are registered with
        status ``interrupted``, so ``status`` answers for them instead of
        claiming they never existed.  ``None`` (default) disables
        journalling.
    journal_fsync:
        Journal fsync policy: ``"always"`` (default, sync every record)
        or ``"never"`` (flush only; the tail may be lost on power cut).
    resume:
        With ``resume=True`` (and a journal), jobs replayed as
        ``interrupted`` are *re-run* instead of only reported: each
        interrupted job whose journalled submit record carried its
        manifest is re-submitted to the fresh service under its original
        id (counted in ``daemon.jobs_resumed``); its results are
        recomputed but not streamed anywhere -- the submitting client's
        connection died with the previous process -- so ``status``
        answers with live (then ``completed``) counts instead of a
        permanent ``interrupted``.  Jobs journalled before manifests were
        recorded (or by daemons without ``resume``) stay report-only
        ``interrupted``.
    trace:
        Enable in-memory request tracing: every accepted job gets a root
        ``job`` span whose children cover parse, quota check, manifest
        resolution, per-story queue wait / shard solve (down to the
        calibration phases, across the process-executor boundary) and
        result emission.  Spans are queryable per job via the ``trace``
        protocol op / ``repro trace``.  Off by default: the no-op tracer
        costs one attribute check per instrumentation site.
    trace_dir:
        Directory spans are additionally exported to as JSON lines
        (``spans.jsonl``), one record per finished span.  Implies
        ``trace=True``.
    **service_kwargs:
        Forwarded to :class:`~repro.service.service.PredictionService`
        (workers, queue depth, shard size, the ``solver=``
        config, executor -- ``executor="process"`` runs
        shard solves on a crash-respawning process pool -- ...).  All jobs share this one
        service, so every manifest benefits from the same warmed operator
        caches; the ``stats`` event reports the
        executor kind and worker-pool size the daemon is actually running
        with.

    Call :meth:`serve` with any registered transport address; it runs
    until a ``shutdown`` request (or EOF on stdio) and drains gracefully.
    """

    def __init__(
        self,
        default_timeout: "float | None" = None,
        max_completed_jobs: int = 256,
        quota: "ClientQuota | None" = None,
        journal_dir: "str | None" = None,
        journal_fsync: str = "always",
        resume: bool = False,
        trace: bool = False,
        trace_dir: "str | None" = None,
        **service_kwargs,
    ) -> None:
        if default_timeout is not None and default_timeout <= 0:
            raise ValueError(f"default_timeout must be > 0, got {default_timeout}")
        if max_completed_jobs < 1:
            raise ValueError(
                f"max_completed_jobs must be >= 1, got {max_completed_jobs}"
            )
        self._default_timeout = default_timeout
        self._max_completed_jobs = max_completed_jobs
        self._quota = quota
        self._journal_dir = journal_dir
        # Validate the policy now (construction time), not at first serve.
        if journal_fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"fsync policy must be one of {FSYNC_POLICIES}, got "
                f"{journal_fsync!r}"
            )
        self._journal_fsync = journal_fsync
        self._resume = bool(resume)
        self._journal: "JobJournal | None" = None
        self._tracer: TracerLike = (
            Tracer(export_dir=trace_dir)
            if (trace or trace_dir is not None)
            else NOOP_TRACER
        )
        self._log = service_logger()
        self._service_kwargs = service_kwargs
        self._service: "PredictionService | None" = None
        self._jobs: "dict[str, DaemonJob]" = {}
        self._job_sequence = 0
        self._accepting = False
        self._drain_on_stop = True
        self._stop: "asyncio.Event | None" = None
        self._job_tasks: "set[asyncio.Task]" = set()
        self._connections: "set[Connection]" = set()
        self._listener: "Listener | None" = None
        self._started_at = 0.0

    # ------------------------------------------------------------------ #
    # Serving
    # ------------------------------------------------------------------ #
    async def serve(self, address: "str | Address") -> None:
        """Serve on any registered transport address until ``shutdown``.

        ``address`` follows the :func:`~repro.service.transport.parse_address`
        grammar: ``unix:/path/to.sock``, ``tcp:HOST:PORT``, ``stdio`` or a
        bare Unix-socket path.
        """
        await self._serve(create_listener(address))

    @property
    def listener(self) -> "Listener | None":
        """The live listener while serving (e.g. to read a bound TCP port)."""
        return self._listener

    async def _serve(self, listener: Listener) -> None:
        async with self._running_service():
            self._listener = listener
            try:
                await listener.start(self._handle_connection)
                assert self._stop is not None
                stop_wait = asyncio.ensure_future(self._stop.wait())
                served = asyncio.ensure_future(listener.wait())
                # Either a shutdown request stops us, or the transport
                # itself finishes (stdio: the pipe client reached EOF).
                await asyncio.wait(
                    {stop_wait, served}, return_when=asyncio.FIRST_COMPLETED
                )
                for future in (stop_wait, served):
                    if not future.done():
                        future.cancel()
                await asyncio.gather(stop_wait, served, return_exceptions=True)
                self._accepting = False
                await listener.stop()
                await self._settle()
            finally:
                for connection in list(self._connections):
                    connection.close()
                self._connections.clear()
                listener.cleanup()
                self._listener = None

    @property
    def tracer(self) -> TracerLike:
        """The daemon's tracer (the shared no-op one when tracing is off)."""
        return self._tracer

    @contextlib.asynccontextmanager
    async def _running_service(self):
        self._service = PredictionService(
            tracer=self._tracer, **self._service_kwargs
        )
        self._service.start()
        self._stop = asyncio.Event()
        self._accepting = True
        self._drain_on_stop = True
        self._started_at = time.time()
        if self._journal_dir is not None:
            self._journal = JobJournal(self._journal_dir, fsync=self._journal_fsync)
            self._register_interrupted_jobs(self._journal.replay())
        try:
            yield self
        finally:
            await self._service.close(drain=self._drain_on_stop)
            self._accepting = False
            if self._journal is not None:
                self._journal.close()
                self._journal = None
            # Flush (but keep) the tracer: its export handle must not leak,
            # and spans stay queryable after the server loop exits (tests,
            # post-mortem inspection).
            self._tracer.close()

    def _register_interrupted_jobs(self, replayed) -> None:
        """Re-register journalled jobs the previous process never finished.

        They answer ``status`` as ``interrupted`` -- with per-story counts
        reconstructed from the journal -- instead of ``unknown job``; the
        same retention cap as completed jobs bounds them.  With
        ``resume=True``, jobs whose submit record carried the manifest are
        additionally re-run on the fresh service (their interrupted entry
        is replaced by a live one); jobs without a journalled manifest
        cannot be reconstructed and stay report-only.
        """
        assert self._service is not None
        for job in replayed.values():
            self._jobs[job.id] = DaemonJob(
                id=job.id,
                submitted_at=job.submitted_at,
                timeout=None,
                skipped=list(job.skipped),
                interrupted=True,
                final_counts=job.story_counts(),
                trace_id=job.trace_id,
            )
            self._service.metrics.counter("daemon.jobs_interrupted").inc()
            log_job_event(
                self._log,
                "job.interrupted",
                job_id=job.id,
                trace_id=job.trace_id,
                stories=len(job.stories),
            )
            if self._resume and job.manifest is not None:
                task = asyncio.get_running_loop().create_task(
                    self._resume_job(job)
                )
                self._job_tasks.add(task)
                task.add_done_callback(self._job_tasks.discard)
        self._sync_journal_gauge()

    async def _resume_job(self, replayed: ReplayedJob) -> None:
        """Re-run one interrupted job from its journalled manifest.

        The submitting client's connection died with the previous daemon
        process, so the recomputed results stream into a null connection
        (they are discarded); what resume restores is the *work* and the
        job's queryable lifecycle -- ``status`` answers ``running`` then
        ``completed`` with real per-story counts, and a fresh submit
        record (manifest included) keeps the job resumable across a
        second crash.  A manifest that no longer resolves (e.g. a corpus
        store deleted since) leaves the job in its ``interrupted`` state.
        """
        assert self._service is not None
        manifest_payload = replayed.manifest
        assert manifest_payload is not None
        try:
            manifest = open_corpus(manifest_payload, source="<journal>")
            hours = manifest.hours or DEFAULT_HOURS
            training_times = [float(t) for t in range(1, hours + 1)]
            resolved = await asyncio.get_running_loop().run_in_executor(
                None,
                functools.partial(manifest.resolve, training_times=training_times),
            )
        except (ManifestError, OSError) as error:
            log_job_event(
                self._log,
                "job.resume_failed",
                job_id=replayed.id,
                trace_id=replayed.trace_id,
                level=logging.WARNING,
                error=str(error),
            )
            return
        job = DaemonJob(
            id=replayed.id,
            submitted_at=time.time(),
            timeout=replayed.timeout,
            skipped=list(resolved.skipped),
            stories_pending=len(resolved.surfaces),
        )
        if self._tracer.enabled:
            span = self._tracer.span(
                "job",
                attributes={
                    "job": job.id,
                    "stories": len(resolved.surfaces),
                    "skipped": len(job.skipped),
                    "resumed": True,
                },
            )
            job.trace_id = span.trace_id
            job._span = span
        # Replace the interrupted entry: the job is live again.
        self._jobs[job.id] = job
        if self._journal is not None:
            self._journal.record_submit(
                job.id,
                stories=list(resolved.surfaces),
                skipped=job.skipped,
                timeout=job.timeout,
                trace_id=job.trace_id,
                manifest=manifest_payload,
            )
            self._sync_journal_gauge()
        self._service.metrics.counter("daemon.jobs_resumed").inc()
        log_job_event(
            self._log,
            "job.resumed",
            job_id=job.id,
            trace_id=job.trace_id,
            stories=len(resolved.surfaces),
            skipped=len(job.skipped),
        )
        default_model = str(self._service_kwargs.get("model", "dl"))
        story_models = {
            story.name: resolved.model_for(story.name, None) or default_model
            for story in manifest.stories
        }
        await self._run_job(
            _NullConnection(), job, resolved.surfaces, training_times, story_models
        )

    def _sync_journal_gauge(self) -> None:
        if self._journal is not None and self._service is not None:
            self._service.metrics.gauge("daemon.journal_records").set(
                self._journal.records_written
            )

    async def _settle(self) -> None:
        """Finish every accepted job according to the drain policy."""
        assert self._service is not None
        if not self._drain_on_stop:
            # Abort: cancel queued stories now so the streamers can finish.
            await self._service.close(drain=False)
        if self._job_tasks:
            await asyncio.gather(*list(self._job_tasks), return_exceptions=True)

    async def _handle_connection(self, connection: Connection) -> None:
        assert self._service is not None
        metrics = self._service.metrics
        metrics.counter("daemon.connections").inc()
        metrics.counter(
            "daemon.connections", labels={"transport": connection.scheme}
        ).inc()
        active_gauge = metrics.gauge("daemon.active_connections")
        active_gauge.inc()
        self._connections.add(connection)
        session = ClientSession(self, connection, metrics, quota=self._quota)
        try:
            await session.run()
        finally:
            active_gauge.dec()
            if connection.scheme == "stdio":
                # The one stdio peer reached EOF; its stdout stays open so
                # in-flight jobs stream their results during the drain --
                # _serve closes it after _settle().
                pass
            elif self._stop is not None and self._stop.is_set():
                # Shutdown path: the read loop exits promptly, but in-flight
                # job streamers may still owe this peer result events during
                # the drain -- _serve closes every registered connection
                # after _settle().
                pass
            else:
                # Peer hung up: release the connection now.
                self._connections.discard(connection)
                connection.close()

    # ------------------------------------------------------------------ #
    # SessionHost surface (the routing layer calls back into these)
    # ------------------------------------------------------------------ #
    @property
    def stop_event(self) -> asyncio.Event:
        assert self._stop is not None
        return self._stop

    def begin_shutdown(self, drain: bool) -> None:
        """Bar new submissions and record the drain policy (shutdown op)."""
        self._accepting = False
        self._drain_on_stop = bool(drain)

    def job_summaries(self) -> "list[dict]":
        return [job.summary() for job in self._jobs.values()]

    def job_summary(self, job_id: str) -> "dict | None":
        job = self._jobs.get(job_id)
        return job.summary() if job is not None else None

    def _sync_uptime_gauge(self) -> None:
        """Refresh ``daemon.uptime_seconds`` right before it is reported."""
        assert self._service is not None
        self._service.metrics.gauge("daemon.uptime_seconds").set(
            time.time() - self._started_at
        )

    def metrics_text(self) -> str:
        assert self._service is not None
        self._sync_uptime_gauge()
        return self._service.metrics.to_prometheus()

    def trace_payload(self, job_id: str) -> "dict | None":
        """Recent spans of one job for the ``trace`` protocol op.

        ``None`` for unknown jobs (the session answers ``unknown job``);
        an empty span list for jobs the daemon knows but never traced
        (tracing disabled, or the ring buffer already evicted them).
        """
        job = self._jobs.get(job_id)
        if job is None:
            return None
        spans = (
            self._tracer.spans(job.trace_id) if job.trace_id is not None else []
        )
        return {
            "event": "trace",
            "id": job_id,
            "trace": job.trace_id,
            "spans": spans,
        }

    async def handle_worker(self, session: ClientSession, message: dict) -> None:
        """Solve one shipped :class:`ShardPayload` (the ``worker`` op).

        This is what makes every ordinary daemon usable as a cluster
        worker: the router's :class:`~repro.service.cluster.WorkerPool`
        ships a pickled payload, this daemon solves it on the default
        loop executor (deliberately bypassing its own service queue --
        the router's worker count bounds in-flight shards fleet-wide)
        and answers with a ``worker_result`` event carrying the pickled
        :class:`~repro.service.execution.ShardSolveReport`, so the
        router's spans re-parent exactly as the process executor's do.
        """
        assert self._service is not None
        request_id = message.get("id")
        request_id = str(request_id) if request_id is not None else None
        data = message.get("payload")
        if not isinstance(data, str):
            await session.error(
                "a worker request needs a base64 'payload' field",
                job_id=request_id,
            )
            return
        try:
            payload = pickle.loads(base64.b64decode(data, validate=True))
        except Exception as error:  # binascii.Error, UnpicklingError, ...
            self._service.metrics.counter("daemon.worker_op_errors").inc()
            await session.error(
                f"undecodable worker payload: {error}", job_id=request_id
            )
            return
        try:
            # Looked up through the module at call time, as the thread and
            # process backends do, so a patched ``solve_shard_report``
            # reaches worker daemons too.
            report = await asyncio.get_running_loop().run_in_executor(
                None, execution.solve_shard_report, payload
            )
        except Exception as error:
            # The router maps this error event onto the shard's bisection
            # path; the worker stays alive for the next shard.
            self._service.metrics.counter("daemon.worker_op_errors").inc()
            await session.error(
                f"worker shard solve failed: {error}", job_id=request_id
            )
            return
        self._service.metrics.counter("daemon.worker_shards_solved").inc()
        await session.connection.send(
            {
                "event": "worker_result",
                "id": request_id,
                "worker": f"pid-{os.getpid()}",
                "report": base64.b64encode(
                    pickle.dumps(report, protocol=pickle.HIGHEST_PROTOCOL)
                ).decode("ascii"),
            }
        )

    def stats_payload(self) -> dict:
        assert self._service is not None
        self._sync_uptime_gauge()
        active = sum(1 for job in self._jobs.values() if job.active)
        interrupted = sum(1 for job in self._jobs.values() if job.interrupted)
        jobs = {
            "active": active,
            "completed": len(self._jobs) - active - interrupted,
            "total": len(self._jobs),
        }
        payload = {
            "event": "stats",
            "uptime_seconds": time.time() - self._started_at,
            "jobs": jobs,
            "service": self._service.stats(),
            "metrics": self._service.metrics.snapshot(),
        }
        if self._journal is not None:
            # Journal state only appears when journalling is on, so the
            # default stats payload stays byte-compatible.
            jobs["interrupted"] = interrupted
            payload["journal"] = {
                "directory": self._journal.directory,
                "fsync": self._journal.fsync,
                "records_written": self._journal.records_written,
            }
        return payload

    # ------------------------------------------------------------------ #
    # Submission (job lifecycle proper)
    # ------------------------------------------------------------------ #
    async def handle_submit(self, session: ClientSession, message: dict) -> None:
        assert self._service is not None
        connection = session.connection
        if not self._accepting:
            await session.error("the daemon is shutting down")
            return
        unknown = sorted(set(message) - _SUBMIT_FIELDS)
        if unknown:
            await session.error(
                f"unknown submit field(s) {unknown}; expected a subset of "
                f"{sorted(_SUBMIT_FIELDS - {'op'})}"
            )
            return
        if "manifest" not in message:
            await session.error("submit needs a 'manifest' field")
            return
        job_id = str(message["id"]) if message.get("id") is not None else None
        if job_id is not None and job_id in self._jobs:
            await session.error(f"job id {job_id!r} already exists", job_id=job_id)
            return
        timeout = message.get("timeout", self._default_timeout)
        if timeout is not None and (
            not isinstance(timeout, (int, float))
            or isinstance(timeout, bool)
            or timeout <= 0
        ):
            await session.error(
                f"'timeout' must be a positive number, got {timeout!r}"
            )
            return
        quota_wall = time.time()
        quota_start = time.perf_counter()
        try:
            # Cheap fail-fast before any manifest work; the story quota is
            # checked again once the manifest is resolved and counted.
            session.check_job_quota()
        except QuotaExceededError as error:
            await session.reject_quota(error, job_id=job_id)
            return
        quota_seconds = time.perf_counter() - quota_start
        model_override = message.get("model")
        if model_override is not None:
            model_override = str(model_override)
            try:
                MODELS.get(model_override)
            except UnknownNameError as error:
                await session.error(str(error), job_id=job_id)
                return
        payload = message["manifest"]
        if not isinstance(payload, dict):
            # A protocol manifest is always an inline JSON object; a string
            # must never be interpreted as a server-side file path.
            await session.error(
                f"invalid manifest: the manifest must be an object, got "
                f"{type(payload).__name__}",
                job_id=job_id,
            )
            return
        try:
            manifest = open_corpus(payload, source="<protocol>")
        except ManifestError as error:
            await session.error(f"invalid manifest: {error}", job_id=job_id)
            return
        if not manifest.stories:
            await session.error("the manifest contains no stories", job_id=job_id)
            return
        hours = manifest.hours or DEFAULT_HOURS
        training_times = [float(t) for t in range(1, hours + 1)]
        resolve_wall = time.time()
        resolve_start = time.perf_counter()
        try:
            # Resolution may build a synthetic corpus (seconds of CPU); keep
            # the event loop -- and every other client -- responsive.
            resolved = await asyncio.get_running_loop().run_in_executor(
                None,
                functools.partial(
                    manifest.resolve, training_times=training_times
                ),
            )
        except ManifestError as error:
            await session.error(f"invalid manifest: {error}", job_id=job_id)
            return
        resolve_seconds = time.perf_counter() - resolve_start
        try:
            session.check_story_quota(len(resolved.surfaces))
        except QuotaExceededError as error:
            await session.reject_quota(error, job_id=job_id)
            return
        if job_id is None:
            # Generated ids must also dodge client-chosen ones ("job-1" is a
            # popular explicit id), or a generated job would silently
            # overwrite another job's registry entry.
            while True:
                self._job_sequence += 1
                job_id = f"job-{self._job_sequence}"
                if job_id not in self._jobs:
                    break
        job = DaemonJob(
            id=job_id,
            submitted_at=time.time(),
            timeout=timeout,
            skipped=list(resolved.skipped),
            stories_pending=len(resolved.surfaces),
        )
        self._jobs[job_id] = job
        session.track_job(job)
        if self._tracer.enabled:
            # The root span of everything this job does; the service and
            # the workers parent their spans under it via the TraceContext
            # threaded through submit().  The parse / quota / resolve work
            # already happened, so those children are recorded
            # retroactively from the measured intervals.
            span = self._tracer.span(
                "job",
                attributes={
                    "job": job_id,
                    "stories": len(resolved.surfaces),
                    "skipped": len(job.skipped),
                },
            )
            job.trace_id = span.trace_id
            job._span = span
            if session.last_parse is not None:
                parse_wall, parse_seconds = session.last_parse
                self._tracer.record_span(
                    "session.parse",
                    parent=span,
                    start=parse_wall,
                    duration=parse_seconds,
                    attributes={"transport": connection.scheme},
                )
            self._tracer.record_span(
                "quota.check",
                parent=span,
                start=quota_wall,
                duration=quota_seconds,
            )
            self._tracer.record_span(
                "manifest.resolve",
                parent=span,
                start=resolve_wall,
                duration=resolve_seconds,
                attributes={"stories": len(resolved.surfaces)},
            )
        if self._journal is not None:
            # Journalled (and, under fsync="always", durably synced) BEFORE
            # the accepted event: an acknowledged job is never lost.
            self._journal.record_submit(
                job_id,
                stories=list(resolved.surfaces),
                skipped=job.skipped,
                timeout=timeout,
                trace_id=job.trace_id,
                # The manifest itself makes the record re-runnable: a
                # restart with --resume re-submits it under the same id.
                manifest=payload,
            )
            self._sync_journal_gauge()
        self._service.metrics.counter("daemon.jobs_submitted").inc()
        log_job_event(
            self._log,
            "job.accepted",
            job_id=job_id,
            trace_id=job.trace_id,
            stories=len(resolved.surfaces),
            skipped=len(job.skipped),
            transport=connection.scheme,
        )
        await connection.send(
            {
                "event": "accepted",
                "id": job_id,
                "stories": list(resolved.surfaces),
                "skipped": job.skipped,
                "hours": hours,
                "timeout": timeout,
            }
        )
        # Fully resolved per-story model names (story-level override, then
        # the request's "model", then the manifest default, then the
        # service's default model), so every event -- skipped included --
        # attributes its story to a concrete model.
        default_model = str(self._service_kwargs.get("model", "dl"))
        story_models = {
            story.name: resolved.model_for(story.name, model_override)
            or default_model
            for story in manifest.stories
        }
        for story in job.skipped:
            await connection.send(
                {
                    "event": "result",
                    "id": job_id,
                    "story": story,
                    "status": "skipped",
                    "model": story_models.get(story, default_model),
                    "reason": "no influenced users at any distance in the "
                    "first observed hour",
                }
            )
        task = asyncio.get_running_loop().create_task(
            self._run_job(
                connection, job, resolved.surfaces, training_times, story_models
            )
        )
        self._job_tasks.add(task)
        task.add_done_callback(self._job_tasks.discard)

    def _record_story_terminal(self, job: DaemonJob, story: str, status: str) -> None:
        """Story bookkeeping every terminal path shares (journal + quota)."""
        job.stories_pending = max(0, job.stories_pending - 1)
        if self._journal is not None:
            self._journal.record_story(job.id, story, status)
            self._sync_journal_gauge()

    async def _run_job(
        self,
        connection: Connection,
        job: DaemonJob,
        surfaces: dict,
        training_times: "list[float]",
        story_models: "dict[str, str | None] | None" = None,
    ) -> None:
        assert self._service is not None
        evaluation_times = training_times[1:]
        story_models = story_models or {}
        try:
            watchers = []
            for name, surface in surfaces.items():
                try:
                    # Story names are prefixed with the job id so concurrent
                    # jobs listing the same story never collide in the
                    # service's in-flight namespace.
                    story_job = await self._service.submit(
                        f"{job.id}:{name}",
                        surface,
                        training_times,
                        evaluation_times,
                        timeout=job.timeout,
                        model=story_models.get(name),
                        trace=job._span.context if job._span is not None else None,
                    )
                except (RuntimeError, ValueError) as error:
                    # RuntimeError: the service stopped accepting (abort
                    # shutdown) while this job was still submitting.
                    # ValueError: a name collision in the service's in-flight
                    # namespace.  Either way, report the story instead of
                    # letting the job task die with results half-streamed.
                    self._record_story_terminal(job, name, "cancelled")
                    await connection.send(
                        {
                            "event": "result",
                            "id": job.id,
                            "story": name,
                            "status": "cancelled",
                            "model": story_models.get(name, "dl"),
                            "error": str(error),
                        }
                    )
                    continue
                job.story_jobs[name] = story_job
                watchers.append(
                    asyncio.get_running_loop().create_task(
                        self._stream_story(connection, job, name, story_job)
                    )
                )
            if watchers:
                await asyncio.gather(*watchers)
        finally:
            job.completed = True
            job.final_counts = job.story_counts()
            job.story_jobs = {}
            if self._journal is not None:
                self._journal.record_job(job.id, "completed")
                self._sync_journal_gauge()
            self._prune_jobs()
            counts = job.story_counts()
            if job._span is not None:
                for status, count in counts.items():
                    if count:
                        job._span.set_attribute(status, count)
                job._span.finish()
            log_job_event(
                self._log,
                "job.completed",
                job_id=job.id,
                trace_id=job.trace_id,
                seconds=time.time() - job.submitted_at,
                stories=counts,
            )
            await connection.send(
                {
                    "event": "job",
                    "id": job.id,
                    "status": "completed",
                    "stories": counts,
                    "seconds": time.time() - job.submitted_at,
                }
            )

    def _prune_jobs(self) -> None:
        """Evict the oldest terminal jobs beyond the retention cap.

        A long-lived daemon would otherwise retain every DaemonJob for the
        life of the process (a completed job keeps only its frozen story
        counts, but those still add up).  Only terminal jobs (completed or
        replayed as interrupted) are evicted (dict order is submission
        order, so the oldest go first); their results were already streamed
        (or lost with the process that owned them), so eviction only trims
        ``status`` history.
        """
        terminal = [
            job_id for job_id, job in self._jobs.items() if not job.active
        ]
        for job_id in terminal[: max(0, len(terminal) - self._max_completed_jobs)]:
            del self._jobs[job_id]

    async def _stream_story(
        self,
        connection: Connection,
        job: DaemonJob,
        name: str,
        story_job: PredictionJob,
    ) -> None:
        await story_job.finished()
        status = story_job.status.value
        self._record_story_terminal(job, name, status)
        payload = {
            "event": "result",
            "id": job.id,
            "story": name,
            "status": status,
        }
        if story_job.status is JobStatus.SUCCEEDED:
            assert story_job.result is not None
            payload.update(story_result_payload(story_job.result))
        else:
            # Failed / timed-out / cancelled stories never produced a
            # result, but the shard key still attributes them to a model.
            payload["model"] = story_job.key.model
            if story_job.error is not None:
                payload["error"] = str(story_job.error)
        emit_wall = time.time()
        emit_start = time.perf_counter()
        await connection.send(payload)
        if self._tracer.enabled:
            self._tracer.record_span(
                "result.emit",
                parent=story_job._span,
                start=emit_wall,
                duration=time.perf_counter() - emit_start,
                attributes={"story": name, "status": status},
            )
        log_job_event(
            self._log,
            "story.result",
            job_id=job.id,
            trace_id=job.trace_id,
            level=logging.DEBUG,
            story=name,
            status=status,
        )


class _NullConnection:
    """Sink for events of resumed jobs (their submitting client is gone).

    Quacks like :class:`~repro.service.transport.Connection` for the send
    side only; the daemon's job pipeline streams ``result`` / ``job``
    events into it and they are discarded.
    """

    scheme = "null"

    async def send(self, payload: dict) -> None:
        return None

    def close(self) -> None:
        return None


# ---------------------------------------------------------------------- #
# Client
# ---------------------------------------------------------------------- #
class DaemonClient:
    """Asyncio client for the daemon's JSON-lines protocol.

    Connect to any transport address::

        async with await DaemonClient.connect("unix:/tmp/repro.sock") as client:
            async for event in client.submit(manifest):
                ...

    ``tcp:HOST:PORT`` and bare Unix-socket paths work too (the
    :func:`~repro.service.transport.parse_address` grammar).  One client
    drives one request at a time; open several connections for concurrent
    submissions.
    """

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self._reader = reader
        self._writer = writer

    @classmethod
    async def connect(
        cls,
        address: "str | Address",
        retries: int = 0,
        backoff: float = 0.1,
    ) -> "DaemonClient":
        """Dial a daemon address (``unix:PATH``, ``tcp:HOST:PORT``, bare path).

        ``retries`` extra attempts are made after a refused or failed
        connection, sleeping ``backoff * 2**attempt`` seconds between them
        (capped at 2 s per sleep), so callers racing a daemon that is
        still binding its socket -- the router's
        :class:`~repro.service.cluster.WorkerPool` at fleet startup,
        ``repro submit --connect`` against a freshly spawned daemon --
        need no hand-rolled wait loops.  Address errors (a malformed or
        ``stdio`` address) never retry: they cannot heal.
        """
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if backoff <= 0:
            raise ValueError(f"backoff must be > 0, got {backoff}")
        attempt = 0
        while True:
            try:
                reader, writer = await open_client_connection(address)
            except (ConnectionError, OSError):
                if attempt >= retries:
                    raise
                await asyncio.sleep(min(backoff * (2 ** attempt), 2.0))
                attempt += 1
            else:
                return cls(reader, writer)

    async def __aenter__(self) -> "DaemonClient":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass

    def close_nowait(self) -> None:
        """Close without awaiting the transport teardown.

        For synchronous shutdown paths -- an
        :class:`~repro.service.execution.ExecutionBackend.shutdown` is a
        plain method -- where awaiting ``wait_closed()`` is impossible;
        the event loop finishes the close in the background.
        """
        self._writer.close()

    async def _send(self, payload: dict) -> None:
        self._writer.write((json.dumps(payload) + "\n").encode("utf-8"))
        await self._writer.drain()

    async def _receive(self) -> dict:
        """Read one event line; typed error when the daemon dies mid-stream.

        EOF here means the daemon hung up *after* accepting the connection
        -- it was stopped or killed between a request and its response (or
        part-way through an event stream), which callers must be able to
        tell from a connect-time failure.  A truncated or malformed line is
        the same condition caught mid-write.  A line longer than
        :data:`~repro.service.transport.LINE_LIMIT` is skipped and raises
        :class:`~repro.core.errors.LineTooLongError`.
        """
        line = await read_line(self._reader)
        if not line:
            raise DaemonConnectionError(
                "the daemon closed the connection mid-stream (it may have "
                "been stopped or killed); events already received are valid"
            )
        if not line.endswith(b"\n"):
            raise DaemonConnectionError(
                "the daemon died mid-response: the connection closed part-way "
                "through an event line"
            )
        try:
            return json.loads(line.decode("utf-8"))
        except json.JSONDecodeError as error:
            raise DaemonConnectionError(
                f"the daemon sent a malformed event line ({error}); the "
                f"connection is unusable"
            ) from None

    async def send(self, payload: dict) -> None:
        """Send one request line without awaiting its response.

        With :meth:`receive`, the pipelined half of the API: the cluster
        :class:`~repro.service.cluster.WorkerPool` keeps several worker
        requests in flight per connection and matches ``worker_result``
        events back by id, which the strict :meth:`request` call-and-wait
        shape cannot express.
        """
        await self._send(payload)

    async def receive(self) -> dict:
        """Read one event line (see :meth:`send` for the pipelined use)."""
        return await self._receive()

    async def request(self, payload: dict) -> dict:
        """Send one request and return its single response event."""
        await self._send(payload)
        return await self._receive()

    async def submit(
        self,
        manifest: dict,
        job_id: "str | None" = None,
        timeout: "float | None" = None,
        model: "str | None" = None,
    ) -> "AsyncIterator[dict]":
        """Submit a manifest; yield events through the final ``job`` event.

        Yields the ``accepted`` event, every per-story ``result`` event and
        the closing ``job`` event.  An ``error`` event ends the stream
        immediately (after being yielded) -- callers decide whether to
        raise.  ``model`` overrides the manifest-level default model
        (story-level ``"model"`` entries still win).
        """
        request: dict = {"op": "submit", "manifest": manifest}
        if job_id is not None:
            request["id"] = job_id
        if timeout is not None:
            request["timeout"] = timeout
        if model is not None:
            request["model"] = model
        await self._send(request)
        while True:
            event = await self._receive()
            yield event
            if event.get("event") == "error":
                return
            if event.get("event") == "job" and event.get("status") == "completed":
                return

    async def status(self, job_id: "str | None" = None) -> dict:
        request: dict = {"op": "status"}
        if job_id is not None:
            request["id"] = job_id
        return await self.request(request)

    async def stats(self) -> dict:
        return await self.request({"op": "stats"})

    async def trace(self, job_id: str) -> dict:
        """One job's buffered span records (``trace`` event or ``error``)."""
        return await self.request({"op": "trace", "id": job_id})

    async def metrics_text(self) -> str:
        """The daemon's telemetry in Prometheus text exposition format."""
        event = await self.request({"op": "metrics"})
        return event.get("text", "")

    async def ping(self) -> dict:
        return await self.request({"op": "ping"})

    async def shutdown(self, drain: bool = True) -> dict:
        return await self.request({"op": "shutdown", "drain": drain})
