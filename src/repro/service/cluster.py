"""Cluster execution backend: a router daemon driving a worker-daemon fleet.

The third registered :class:`~repro.service.execution.ExecutionBackend`
(``cluster``): instead of solving shards on an in-process pool, the
*router* daemon fans each picklable
:class:`~repro.service.execution.ShardPayload` out to one of N *worker*
daemons over the existing JSON-lines socket protocol.  Workers are
ordinary ``repro daemon`` processes -- the ``worker`` protocol op (solve
one payload, answer a ``worker_result`` event carrying the pickled
:class:`~repro.service.execution.ShardSolveReport`) is answered by every
daemon, which is what makes any daemon usable as a cluster worker.  The
report crosses the wire exactly as it crosses the process executor's
pickle boundary, so spans recorded in workers re-parent under the
router's shard spans identically and the results are bit-identical by
construction (the ``service.cluster`` benchmark section and the CI
``cluster-smoke`` job assert a zero delta against the thread executor).

Topology::

    clients --> router daemon (executor="cluster")
                  |  WorkerPool: one persistent DaemonClient per worker
                  +--> worker daemon A   (repro daemon --listen tcp:...)
                  +--> worker daemon B
                  +--> ...

Scheduling is **hash-routed with work stealing**:

* :func:`route_hash` weighs each worker for a
  :class:`~repro.service.sharding.ShardKey` (SHA-256 over the key's
  deterministic signature and the worker's address, never Python's
  randomized ``hash()``), and the shard goes to the live worker with the
  highest weight (rendezvous hashing).  A given spatial/temporal
  signature lands on the same worker run after run and that worker's
  operator cache stays hot across jobs -- the same cache-affinity
  argument the process backend makes per worker process, lifted to
  hosts.  Losing a worker moves only the keys it held.
* When the hash-preferred worker's queue depth exceeds the fleet median,
  the shard is **stolen** by the least-loaded worker
  (``cluster.shards_stolen``): corpora whose stories share one shard key
  would otherwise serialize on a single worker.
* When a worker connection drops -- refused at dial time, EOF mid-shard,
  the worker SIGKILLed -- its in-flight shards fail with
  :class:`~repro.service.execution.WorkerCrashError` and are **rerouted**
  (``cluster.reroutes``): the service's existing bisection-retry path
  requeues them, the dead worker is excluded from routing, and the job
  completes on the survivors.  A worker-side *solve* error (a poisoned
  surface) instead raises :class:`ClusterShardError`, which takes the
  same bisection path without declaring the worker dead.  So does a
  ``worker_result`` line over the transport's
  :data:`~repro.service.transport.LINE_LIMIT`: the client skips it, and
  every shard then in flight on that worker fails and is retried in
  smaller halves.

Telemetry: the pool reports into the registry the service binds via
:meth:`~repro.service.execution.ExecutionBackend.bind_metrics` --
``cluster.worker_queue_depth{worker=}`` per-worker gauges,
``cluster.workers_alive``, and the ``cluster.shards_stolen`` /
``cluster.reroutes`` counters -- and :meth:`ClusterExecutionBackend.describe`
feeds the per-worker fleet table ``repro daemon-stats`` renders.
"""

from __future__ import annotations

import asyncio
import base64
import hashlib
import pickle

from repro.core.errors import DaemonConnectionError, LineTooLongError
from repro.service.daemon import DaemonClient
from repro.service.execution import (
    EXECUTORS,
    ExecutionBackend,
    ShardPayload,
    ShardSolveReport,
    WorkerCrashError,
)
from repro.service.sharding import ShardKey
from repro.service.telemetry import MetricsRegistry
from repro.service.transport import Address, AddressError, parse_address


class ClusterShardError(RuntimeError):
    """A worker daemon answered a shard with an error event.

    The worker is alive and healthy -- it *reported* the failure over a
    working connection -- so unlike :class:`WorkerCrashError` this does
    not mark the worker dead; it only fails the shard, which the service
    retries through the same bisection path.
    """


def route_hash(key: ShardKey, worker: str) -> int:
    """Stable rendezvous weight of ``worker`` for a shard key.

    A shard goes to the live worker with the highest weight, so losing a
    worker moves only the keys that worker held: every other key's
    highest-weight worker is still alive.

    Python's ``hash()`` is per-process randomized for strings, so it
    would scatter a corpus across the fleet differently on every router
    restart and forfeit worker-cache affinity; SHA-256 over the key's
    deterministic :meth:`~repro.service.sharding.ShardKey.signature`
    (plus the temporal grids, which the signature omits) and the worker's
    address is stable across processes, hosts and restarts.
    """
    material = "|".join(
        (
            key.signature(),
            repr(key.training_times),
            repr(key.evaluation_times),
            worker,
        )
    )
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class _WorkerLink:
    """One worker daemon: its connection, in-flight shards and liveness."""

    def __init__(self, address: Address) -> None:
        self.address = address
        #: Stable label for metrics/spans: the configured address string.
        self.label = str(address)
        self.client: "DaemonClient | None" = None
        #: request id -> future awaiting that shard's ``worker_result``.
        self.pending: "dict[str, asyncio.Future]" = {}
        self.inflight = 0
        self.alive = False
        self.shards_solved = 0
        self.reader: "asyncio.Task | None" = None


class WorkerPool:
    """Persistent connections to a worker-daemon fleet, with routing.

    One :class:`~repro.service.daemon.DaemonClient` per declared worker,
    dialed lazily on the first shard (with the client's capped-backoff
    ``retries`` so a router racing its own workers' startup wins), kept
    open for the router's whole life.  Requests are pipelined: several
    shards ride one connection concurrently, matched back to their
    futures by request id from a per-connection reader task.

    Parameters
    ----------
    addresses:
        The worker addresses (``unix:PATH`` / ``tcp:HOST:PORT`` strings
        or parsed :class:`~repro.service.transport.Address` values);
        ``stdio`` is rejected, a router must be able to dial its workers.
    connect_retries / connect_backoff:
        Forwarded to :meth:`DaemonClient.connect` per worker.
    metrics:
        The registry the pool's gauges and counters report into; the
        backend rebinds it to the service's shared registry via
        :meth:`ClusterExecutionBackend.bind_metrics`.
    """

    def __init__(
        self,
        addresses,
        connect_retries: int = 5,
        connect_backoff: float = 0.2,
        metrics: "MetricsRegistry | None" = None,
    ) -> None:
        parsed = [parse_address(address) for address in addresses]
        if not parsed:
            raise ValueError(
                "a cluster needs at least one worker address (--worker ADDR "
                "or --workers-file FILE)"
            )
        for address in parsed:
            if address.scheme == "stdio":
                raise AddressError(
                    "'stdio' is not a dialable worker address; use unix:PATH "
                    "or tcp:HOST:PORT"
                )
        self._links = [_WorkerLink(address) for address in parsed]
        self._connect_retries = connect_retries
        self._connect_backoff = connect_backoff
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        self._connect_lock = asyncio.Lock()
        self._connected = False
        self._closed = False
        self._sequence = 0
        self.shards_stolen = 0
        self.reroutes = 0

    def bind_metrics(self, registry: MetricsRegistry) -> None:
        self._metrics = registry
        # Pre-register the fleet counters so the Prometheus export shows
        # them at 0 from the first scrape, not only after the first event.
        registry.counter("cluster.shards_stolen")
        registry.counter("cluster.reroutes")

    @property
    def workers(self) -> "list[_WorkerLink]":
        return list(self._links)

    def alive_workers(self) -> "list[_WorkerLink]":
        return [link for link in self._links if link.alive]

    # ------------------------------------------------------------------ #
    # Connection lifecycle
    # ------------------------------------------------------------------ #
    async def ensure_connected(self) -> None:
        """Dial every worker once (concurrently); tolerate partial failure.

        A worker that stays unreachable after the connect retries starts
        life dead -- routing simply excludes it -- but a fleet with *no*
        reachable worker is a configuration error and raises.
        """
        async with self._connect_lock:
            if self._connected:
                return
            if self._closed:
                raise RuntimeError("the worker pool has been shut down")
            errors = await asyncio.gather(
                *(self._dial(link) for link in self._links)
            )
            if not self.alive_workers():
                details = "; ".join(error for error in errors if error)
                raise WorkerCrashError(
                    f"no cluster worker is reachable ({details})"
                )
            self._connected = True
            self._sync_gauges()

    async def _dial(self, link: _WorkerLink) -> "str | None":
        try:
            link.client = await DaemonClient.connect(
                link.address,
                retries=self._connect_retries,
                backoff=self._connect_backoff,
            )
        except (ConnectionError, OSError) as error:
            return f"{link.label}: {error}"
        link.alive = True
        link.reader = asyncio.get_running_loop().create_task(
            self._read_loop(link)
        )
        return None

    async def _read_loop(self, link: _WorkerLink) -> None:
        """Match this worker's event stream back to pending shard futures."""
        assert link.client is not None
        try:
            while True:
                try:
                    event = await link.client.receive()
                except LineTooLongError as error:
                    self._fail_pending(link, error)
                    continue
                request_id = event.get("id")
                future = (
                    link.pending.pop(str(request_id), None)
                    if request_id is not None
                    else None
                )
                if future is None or future.done():
                    continue
                if event.get("event") == "worker_result":
                    future.set_result(event)
                else:
                    # An error event for a specific shard: the worker is
                    # fine, the shard is not -- bisection territory.
                    future.set_exception(
                        ClusterShardError(
                            f"worker {link.label} failed the shard: "
                            f"{event.get('error', 'unknown error')}"
                        )
                    )
        except (DaemonConnectionError, ConnectionError, OSError):
            self._mark_dead(link)
        except asyncio.CancelledError:
            raise

    def _fail_pending(self, link: _WorkerLink, error: Exception) -> None:
        """Fail every shard in flight on a live worker after a lost event.

        The skipped line's request id is unknown, so any pending shard may
        have been its owner.  Each fails with :class:`ClusterShardError`:
        the worker stays alive and the service bisects the shards into
        smaller ones, whose results fit the line limit.
        """
        pending = list(link.pending.values())
        link.pending.clear()
        for future in pending:
            if not future.done():
                future.set_exception(
                    ClusterShardError(
                        f"worker {link.label}: a result was lost ({error})"
                    )
                )

    def _mark_dead(self, link: _WorkerLink) -> None:
        """Fail the worker's in-flight shards so the service reroutes them."""
        if not link.alive:
            return
        link.alive = False
        pending = list(link.pending.values())
        link.pending.clear()
        for future in pending:
            if not future.done():
                self.reroutes += 1
                self._metrics.counter("cluster.reroutes").inc()
                future.set_exception(
                    WorkerCrashError(
                        f"worker {link.label} dropped its connection with "
                        f"this shard in flight; the shard will be rerouted"
                    )
                )
        self._sync_gauges()

    def shutdown(self) -> None:
        """Cancel readers and close every connection (sync, idempotent)."""
        self._closed = True
        for link in self._links:
            if link.reader is not None:
                link.reader.cancel()
                link.reader = None
            if link.client is not None:
                link.client.close_nowait()
                link.client = None
            link.alive = False

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    def route(self, key: ShardKey) -> _WorkerLink:
        """Pick the worker for a shard: hash affinity, then work stealing.

        The hash-preferred worker keeps its operator cache hot; but when
        its queue depth exceeds the fleet median (strictly -- a balanced
        fleet never steals), the least-loaded worker steals the shard.
        Only live workers participate, which is what reroutes a dead
        worker's retried shards onto the survivors.
        """
        alive = self.alive_workers()
        if not alive:
            raise WorkerCrashError(
                "every cluster worker is dead; the shard cannot be routed"
            )
        preferred = max(alive, key=lambda link: route_hash(key, link.label))
        depths = sorted(link.inflight for link in alive)
        median = depths[(len(depths) - 1) // 2]
        if preferred.inflight > median:
            target = min(alive, key=lambda link: link.inflight)
            if target is not preferred:
                self.shards_stolen += 1
                self._metrics.counter("cluster.shards_stolen").inc()
                return target
        return preferred

    # ------------------------------------------------------------------ #
    # Solving
    # ------------------------------------------------------------------ #
    async def solve_payload(
        self, payload: ShardPayload
    ) -> "tuple[str, ShardSolveReport]":
        """Route one payload to a worker and await its report."""
        await self.ensure_connected()
        link = self.route(payload.key)
        assert link.client is not None
        self._sequence += 1
        request_id = f"w-{self._sequence}"
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        link.pending[request_id] = future
        link.inflight += 1
        self._queue_gauge(link)
        try:
            data = base64.b64encode(
                pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
            ).decode("ascii")
            try:
                await link.client.send(
                    {"op": "worker", "id": request_id, "payload": data}
                )
            except (ConnectionError, OSError) as error:
                # The send itself failed: the reader may not have seen the
                # EOF yet, so fail the worker here and reroute.
                link.pending.pop(request_id, None)
                self._mark_dead(link)
                self.reroutes += 1
                self._metrics.counter("cluster.reroutes").inc()
                raise WorkerCrashError(
                    f"worker {link.label} is unreachable ({error}); the "
                    f"shard will be rerouted"
                ) from error
            event = await future
        finally:
            link.pending.pop(request_id, None)
            link.inflight -= 1
            self._queue_gauge(link)
        report = pickle.loads(base64.b64decode(event["report"]))
        link.shards_solved += 1
        return link.label, report

    # ------------------------------------------------------------------ #
    # Telemetry
    # ------------------------------------------------------------------ #
    def _queue_gauge(self, link: _WorkerLink) -> None:
        self._metrics.gauge(
            "cluster.worker_queue_depth", labels={"worker": link.label}
        ).set(link.inflight)

    def _sync_gauges(self) -> None:
        self._metrics.gauge("cluster.workers_alive").set(
            len(self.alive_workers())
        )
        for link in self._links:
            self._queue_gauge(link)

    def fleet_stats(self) -> "list[dict]":
        """Per-worker state for ``stats`` payloads / ``daemon-stats``."""
        return [
            {
                "worker": link.label,
                "alive": link.alive,
                "inflight": link.inflight,
                "shards_solved": link.shards_solved,
            }
            for link in self._links
        ]


class ClusterExecutionBackend(ExecutionBackend):
    """Shard solving fanned out to a worker-daemon fleet over sockets.

    Parameters
    ----------
    max_workers:
        The router-side concurrency bound: how many shards the service
        keeps in flight across the whole fleet (the workers' own loop
        executors solve whatever arrives; this is the only admission
        control, exactly as ``max_workers`` bounds the in-process pools).
    workers:
        Worker daemon addresses (strings under the
        :func:`~repro.service.transport.parse_address` grammar, or
        parsed ``Address`` values).  Required and non-empty.
    connect_retries / connect_backoff:
        Per-worker dial policy (capped exponential backoff), so a router
        started alongside its workers tolerates their bind latency.
    """

    kind = "cluster"

    def __init__(
        self,
        max_workers: int,
        workers=None,
        connect_retries: int = 5,
        connect_backoff: float = 0.2,
    ) -> None:
        super().__init__(max_workers)
        if not workers:
            raise ValueError(
                "the cluster executor needs worker addresses "
                "(executor_options={'workers': [...]} / --worker ADDR)"
            )
        self._pool = WorkerPool(
            workers,
            connect_retries=connect_retries,
            connect_backoff=connect_backoff,
        )
        self._started = False

    @property
    def pool(self) -> WorkerPool:
        """The live worker pool (tests kill workers through its links)."""
        return self._pool

    def bind_metrics(self, registry) -> None:
        self._pool.bind_metrics(registry)

    def start(self) -> None:
        # Dialing is async and start() is sync by contract, so connections
        # open lazily on the first solve; start() just arms the pool.
        self._started = True

    def shutdown(self, wait: bool = True) -> None:
        self._pool.shutdown()

    async def solve(self, payload: ShardPayload) -> "tuple[str, ShardSolveReport]":
        assert self._started, "backend not started"
        return await self._pool.solve_payload(payload)

    def describe(self) -> dict:
        info = super().describe()
        info["fleet"] = self._pool.fleet_stats()
        info["shards_stolen"] = self._pool.shards_stolen
        info["reroutes"] = self._pool.reroutes
        return info


EXECUTORS.register("cluster", ClusterExecutionBackend, overwrite=True)
