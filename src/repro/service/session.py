"""Daemon session layer: framing, request routing and per-client quotas.

One :class:`ClientSession` serves one :class:`~repro.service.transport.Connection`
for its whole lifetime: it owns the JSON-lines read loop, parses and
validates each request, routes the ``submit`` / ``status`` / ``stats`` /
``metrics`` / ``trace`` / ``worker`` / ``ping`` / ``shutdown`` ops, and
emits ``error`` events for
everything malformed -- never a dead daemon.  Domain work (manifest
resolution, job creation, result streaming) stays on the host daemon
behind the narrow :class:`SessionHost` protocol, so the protocol surface
and the job lifecycle evolve independently.

Sessions also enforce the per-client :class:`ClientQuota`: a shared daemon
queue is only fair if one greedy client cannot monopolise it, so a client
over its in-flight-job or queued-story budget is rejected with a typed
``error`` event carrying the structured
:meth:`~repro.core.errors.QuotaExceededError.payload` (``error_type:
"quota_exceeded"`` plus the tripped limit), and every rejection is counted
in the :class:`~repro.service.telemetry.MetricsRegistry`
(``daemon.quota_rejections``, labelled by which limit tripped).  A
"client" is one connection: reconnecting resets the budget, which is the
standard socket-server notion of fairness and needs no authentication
layer.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass
from typing import Protocol

from repro.core.errors import LineTooLongError, QuotaExceededError
from repro.service.telemetry import MetricsRegistry
from repro.service.transport import Connection, read_line


@dataclass(frozen=True)
class ClientQuota:
    """Per-client bounds on the shared daemon queue.

    Attributes
    ----------
    max_jobs:
        Maximum jobs a client may have in flight (submitted and not yet
        completed) at once; ``None`` means unlimited.
    max_stories:
        Maximum stories queued or running across a client's in-flight
        jobs; a submit whose manifest would push the client past it is
        rejected whole.  ``None`` means unlimited.
    """

    max_jobs: "int | None" = None
    max_stories: "int | None" = None

    def __post_init__(self) -> None:
        for name, value in (("max_jobs", self.max_jobs), ("max_stories", self.max_stories)):
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")

    @property
    def unlimited(self) -> bool:
        return self.max_jobs is None and self.max_stories is None


class TrackedJob(Protocol):
    """What a session needs to know about a job it submitted (quota math)."""

    @property
    def active(self) -> bool: ...

    @property
    def stories_pending(self) -> int: ...


class SessionHost(Protocol):
    """The daemon surface a session routes requests into."""

    @property
    def stop_event(self) -> asyncio.Event: ...

    async def handle_submit(self, session: "ClientSession", message: dict) -> None: ...

    def job_summaries(self) -> "list[dict]": ...

    def job_summary(self, job_id: str) -> "dict | None": ...

    def stats_payload(self) -> dict: ...

    def metrics_text(self) -> str: ...

    def trace_payload(self, job_id: str) -> "dict | None": ...

    async def handle_worker(self, session: "ClientSession", message: dict) -> None: ...

    def begin_shutdown(self, drain: bool) -> None: ...


#: The ops a request may carry, in the order the error message lists them.
KNOWN_OPS = (
    "submit",
    "status",
    "stats",
    "metrics",
    "trace",
    "worker",
    "ping",
    "shutdown",
)


class ClientSession:
    """One connected peer: read loop, request routing, quota state."""

    def __init__(
        self,
        host: SessionHost,
        connection: Connection,
        metrics: MetricsRegistry,
        quota: "ClientQuota | None" = None,
    ) -> None:
        self._host = host
        self.connection = connection
        self._metrics = metrics
        self._quota = quota
        self._jobs: "list[TrackedJob]" = []
        #: ``(wall_start, seconds)`` of the last request's parse+validation,
        #: read by the daemon to record a retroactive ``session.parse`` span
        #: under the job it accepts.
        self.last_parse: "tuple[float, float] | None" = None

    # ------------------------------------------------------------------ #
    # Quota accounting
    # ------------------------------------------------------------------ #
    def track_job(self, job: TrackedJob) -> None:
        """Attribute a submitted job to this client for quota accounting."""
        self._jobs.append(job)

    def active_jobs(self) -> int:
        return sum(1 for job in self._jobs if job.active)

    def active_stories(self) -> int:
        return sum(job.stories_pending for job in self._jobs if job.active)

    def check_job_quota(self) -> None:
        """Raises :class:`QuotaExceededError` when one more job is too many."""
        if self._quota is None or self._quota.max_jobs is None:
            return
        in_flight = self.active_jobs()
        if in_flight + 1 > self._quota.max_jobs:
            raise QuotaExceededError(
                kind="jobs",
                limit=self._quota.max_jobs,
                in_flight=in_flight,
                requested=1,
            )

    def check_story_quota(self, requested: int) -> None:
        """Raises when ``requested`` more stories would bust the budget."""
        if self._quota is None or self._quota.max_stories is None:
            return
        in_flight = self.active_stories()
        if in_flight + requested > self._quota.max_stories:
            raise QuotaExceededError(
                kind="stories",
                limit=self._quota.max_stories,
                in_flight=in_flight,
                requested=requested,
            )

    # ------------------------------------------------------------------ #
    # Read loop and routing
    # ------------------------------------------------------------------ #
    async def run(self) -> None:
        """Serve this peer until EOF, hangup or daemon shutdown.

        The loop must exit the moment shutdown is requested, even while
        parked in readline() on an idle connection that the peer keeps
        open -- otherwise the stdio transport (and Server.wait_closed on
        Python >= 3.12, which awaits every live handler) would hang until
        the peer happened to hang up.
        """
        stop = self._host.stop_event
        stop_wait = asyncio.ensure_future(stop.wait())
        try:
            while not stop.is_set():
                read = asyncio.ensure_future(read_line(self.connection.reader))
                await asyncio.wait(
                    {read, stop_wait}, return_when=asyncio.FIRST_COMPLETED
                )
                if not read.done():
                    read.cancel()
                    await asyncio.gather(read, return_exceptions=True)
                    return
                try:
                    line = read.result()
                except (ConnectionResetError, BrokenPipeError):
                    return
                except LineTooLongError as error:
                    await self.error(f"request rejected: {error}")
                    continue
                if not line:
                    return
                text = line.decode("utf-8", errors="replace").strip()
                if not text:
                    continue
                await self.dispatch(text)
        finally:
            stop_wait.cancel()
            await asyncio.gather(stop_wait, return_exceptions=True)

    async def dispatch(self, text: str) -> None:
        """Parse one request line and route its op."""
        self._metrics.counter("daemon.requests").inc()
        wall_start = time.time()
        parse_start = time.perf_counter()
        try:
            message = json.loads(text)
        except json.JSONDecodeError as error:
            await self.error(f"invalid JSON: {error}")
            return
        if not isinstance(message, dict):
            await self.error(
                f"a request must be an object, got {type(message).__name__}"
            )
            return
        op = message.get("op")
        self.last_parse = (wall_start, time.perf_counter() - parse_start)
        if op == "submit":
            await self._host.handle_submit(self, message)
        elif op == "status":
            await self._handle_status(message)
        elif op == "stats":
            await self.connection.send(self._host.stats_payload())
        elif op == "metrics":
            # Prometheus text exposition of the shared telemetry registry;
            # `repro daemon-stats --prometheus` prints it verbatim.
            await self.connection.send(
                {"event": "metrics", "text": self._host.metrics_text()}
            )
        elif op == "trace":
            await self._handle_trace(message)
        elif op == "worker":
            # Cluster mode: a router daemon ships one pickled ShardPayload
            # for this daemon to solve and return as a ShardSolveReport.
            await self._host.handle_worker(self, message)
        elif op == "ping":
            await self.connection.send({"event": "pong"})
        elif op == "shutdown":
            drain = bool(message.get("drain", True))
            # Bar new submissions and record the drain policy before the
            # ack goes out, then wake every read loop.
            self._host.begin_shutdown(drain)
            await self.connection.send({"event": "shutdown", "drain": drain})
            self._host.stop_event.set()
        else:
            ops = ", ".join(f"'{known}'" for known in KNOWN_OPS)
            await self.error(f"unknown op {op!r}; expected one of {ops}")

    async def _handle_status(self, message: dict) -> None:
        job_id = message.get("id")
        if job_id is None:
            await self.connection.send(
                {"event": "status", "jobs": self._host.job_summaries()}
            )
            return
        summary = self._host.job_summary(str(job_id))
        if summary is None:
            await self.error(f"unknown job {job_id!r}", job_id=str(job_id))
            return
        await self.connection.send({"event": "status", **summary})

    async def _handle_trace(self, message: dict) -> None:
        job_id = message.get("id")
        if job_id is None:
            await self.error("a trace request needs an 'id' field")
            return
        payload = self._host.trace_payload(str(job_id))
        if payload is None:
            await self.error(f"unknown job {job_id!r}", job_id=str(job_id))
            return
        await self.connection.send(payload)

    async def error(
        self,
        message: str,
        job_id: "str | None" = None,
        extra: "dict | None" = None,
    ) -> None:
        """Emit an ``error`` event (optionally with typed extra fields)."""
        self._metrics.counter("daemon.errors").inc()
        payload: dict = {"event": "error", "error": message}
        if job_id is not None:
            payload["id"] = job_id
        if extra:
            payload.update(extra)
        await self.connection.send(payload)

    async def reject_quota(
        self, error: QuotaExceededError, job_id: "str | None" = None
    ) -> None:
        """Emit the typed quota-rejection error event and count it."""
        self._metrics.counter("daemon.quota_rejections").inc()
        self._metrics.counter(
            "daemon.quota_rejections", labels={"kind": error.kind}
        ).inc()
        await self.error(str(error), job_id=job_id, extra=error.payload())
