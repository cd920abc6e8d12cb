"""Daemon transport layer: addresses, listeners and client connections.

The daemon used to hard-wire its two transports (stdin/stdout and a Unix
socket) into :mod:`repro.service.daemon`; this module is the carved-out
transport substrate, so new transports -- TCP today, the cluster mode's
router/worker links tomorrow -- plug in without touching protocol or job
lifecycle code:

* :class:`Address` / :func:`parse_address` -- the textual address grammar
  shared by ``repro daemon --listen`` and ``repro submit --connect``:
  ``unix:/path/to.sock``, ``tcp:HOST:PORT``, ``stdio``, or a bare path
  (treated as a Unix socket path).
* :class:`Connection` -- one JSON-lines peer with a serialized writer, so
  concurrent job streamers sharing a connection never interleave within a
  line.
* :class:`Listener` -- the server side: ``start(handler)`` accepts
  connections and invokes the handler per peer; :class:`StdioListener`,
  :class:`UnixListener` and :class:`TcpListener` implement it.
* a **transport registry** mirroring the solver/model/executor registries:
  :func:`register_transport` / :func:`get_transport` /
  :func:`available_transports`, with :func:`create_listener` and
  :func:`open_client_connection` dispatching on an address's scheme.

The Unix listener probes an existing socket file with a connect before
binding: a *live* daemon answers and the listener raises
:class:`~repro.core.errors.AddressInUseError` instead of clobbering it; a
stale file from a crashed daemon refuses the probe and is reclaimed.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
from dataclasses import dataclass
from typing import Awaitable, Callable

from repro.core.errors import AddressInUseError, UnknownTransportError


class AddressError(ValueError):
    """An address string does not parse under the transport grammar."""


@dataclass(frozen=True)
class Address:
    """One parsed daemon address: a scheme plus its scheme-specific fields."""

    scheme: str
    path: "str | None" = None
    host: "str | None" = None
    port: "int | None" = None

    def __str__(self) -> str:
        if self.scheme == "unix":
            return f"unix:{self.path}"
        if self.scheme == "tcp":
            return f"tcp:{self.host}:{self.port}"
        return self.scheme


def parse_address(spec: "str | Address") -> Address:
    """Parse ``unix:/path``, ``tcp:host:port``, ``stdio`` or a bare path.

    A bare string with no recognised scheme prefix is a Unix socket path.
    """
    if isinstance(spec, Address):
        return spec
    text = str(spec).strip()
    if not text:
        raise AddressError("empty address; expected unix:PATH, tcp:HOST:PORT or stdio")
    if text == "stdio":
        return Address(scheme="stdio")
    if text.startswith("unix:"):
        path = text[len("unix:"):]
        if not path:
            raise AddressError(f"address {text!r} is missing its socket path")
        return Address(scheme="unix", path=path)
    if text.startswith("tcp:"):
        rest = text[len("tcp:"):]
        host, sep, port_text = rest.rpartition(":")
        if not sep or not host:
            raise AddressError(
                f"address {text!r} must be tcp:HOST:PORT (e.g. tcp:127.0.0.1:7631)"
            )
        try:
            port = int(port_text)
        except ValueError:
            raise AddressError(
                f"address {text!r} has a non-numeric port {port_text!r}"
            ) from None
        if not 0 <= port <= 65535:
            raise AddressError(f"address {text!r} port {port} is out of range")
        return Address(scheme="tcp", host=host, port=port)
    # A bare path is a Unix socket path.
    return Address(scheme="unix", path=text)


def load_worker_addresses(path: str) -> "list[Address]":
    """Parse a cluster workers file: one dialable address per line.

    The file format of ``repro daemon --workers-file``: each non-blank
    line is one worker address under the :func:`parse_address` grammar
    (``unix:PATH``, ``tcp:HOST:PORT``, bare Unix path); ``#`` starts a
    comment, inline or whole-line.  ``stdio`` is rejected -- a router
    must be able to *dial* every worker.  Errors carry ``file:line`` so
    a typo in a 40-host fleet file points at its own line.
    """
    addresses: "list[Address]" = []
    with open(path, encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            try:
                address = parse_address(text)
            except AddressError as error:
                raise AddressError(f"{path}:{number}: {error}") from None
            if address.scheme == "stdio":
                raise AddressError(
                    f"{path}:{number}: 'stdio' is not a dialable worker "
                    f"address; use unix:PATH or tcp:HOST:PORT"
                )
            addresses.append(address)
    return addresses


class Connection:
    """One JSON-lines peer: a serialized writer shared by event streamers."""

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        scheme: str = "unix",
    ) -> None:
        self.reader = reader
        self.writer = writer
        self.scheme = scheme
        self._write_lock = asyncio.Lock()

    async def send(self, payload: dict) -> None:
        line = json.dumps(payload, sort_keys=True) + "\n"
        # Concurrent job streamers share this connection; the lock keeps
        # each event on its own line no matter how watchers interleave.
        async with self._write_lock:
            self.writer.write(line.encode("utf-8"))
            try:
                await self.writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                pass  # the peer hung up; the read loop will see EOF and exit

    def close(self) -> None:
        try:
            self.writer.close()
        except RuntimeError:
            pass  # event loop already closing


#: The per-peer callback a listener invokes: it owns the connection for the
#: peer's whole lifetime and returns when the peer is done.
ConnectionHandler = Callable[[Connection], Awaitable[None]]


class Listener:
    """Server side of one transport; subclasses bind and accept peers.

    Lifecycle: :meth:`start` binds and begins invoking ``handler`` per
    connection; :meth:`wait` completes when the transport itself is
    finished serving (never, for socket transports -- stdio finishes when
    its single peer reaches EOF); :meth:`stop` stops accepting new
    connections; :meth:`cleanup` releases OS resources (idempotent, safe
    in ``finally``).
    """

    scheme = "base"

    def __init__(self, address: Address) -> None:
        self.address = address

    async def start(self, handler: ConnectionHandler) -> None:
        raise NotImplementedError

    async def wait(self) -> None:
        # Socket transports serve until told to stop.
        await asyncio.Event().wait()

    async def stop(self) -> None:
        raise NotImplementedError

    def cleanup(self) -> None:
        """Release OS resources; idempotent."""

    def describe(self) -> str:
        """Human-readable bound address (the CLI's "listening on" line)."""
        return str(self.address)


class StdioListener(Listener):
    """One connection over this process's stdin/stdout."""

    scheme = "stdio"

    def __init__(self, address: Address) -> None:
        super().__init__(address)
        self._task: "asyncio.Task | None" = None

    async def start(self, handler: ConnectionHandler) -> None:
        loop = asyncio.get_running_loop()
        reader = asyncio.StreamReader()
        await loop.connect_read_pipe(
            lambda: asyncio.StreamReaderProtocol(reader), sys.stdin
        )
        transport, protocol = await loop.connect_write_pipe(
            asyncio.streams.FlowControlMixin, sys.stdout
        )
        writer = asyncio.StreamWriter(transport, protocol, reader, loop)
        connection = Connection(reader, writer, scheme=self.scheme)
        self._task = loop.create_task(handler(connection))

    async def wait(self) -> None:
        # EOF on stdin is the pipe client's shutdown: the handler returns
        # and the daemon drains.  Shield keeps a cancelled waiter from
        # killing the handler task itself.
        if self._task is not None:
            await asyncio.shield(self._task)

    async def stop(self) -> None:
        if self._task is not None and not self._task.done():
            await asyncio.gather(self._task, return_exceptions=True)


class UnixListener(Listener):
    """A Unix-domain socket server."""

    scheme = "unix"

    def __init__(self, address: Address) -> None:
        super().__init__(address)
        assert address.path is not None
        self.path = address.path
        self._server: "asyncio.AbstractServer | None" = None
        self._bound = False

    async def _reclaim_stale_socket(self) -> None:
        """Unlink an existing socket file only if no live daemon answers it.

        Unlinking unconditionally would clobber a *running* daemon's socket
        (its clients would hang against an orphaned bind); a connect probe
        tells live from stale: a live daemon accepts, a stale file from a
        crashed daemon refuses.
        """
        if not os.path.exists(self.path):
            return
        try:
            _, writer = await asyncio.open_unix_connection(self.path)
        except OSError:
            os.unlink(self.path)  # stale: nobody home, reclaim the path
        else:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            raise AddressInUseError(
                f"a daemon is already listening on {self.path}; stop it or "
                f"pick a different socket path"
            )

    async def start(self, handler: ConnectionHandler) -> None:
        await self._reclaim_stale_socket()

        async def on_client(
            reader: asyncio.StreamReader, writer: asyncio.StreamWriter
        ) -> None:
            await handler(Connection(reader, writer, scheme=self.scheme))

        self._server = await asyncio.start_unix_server(on_client, path=self.path)
        self._bound = True

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    def cleanup(self) -> None:
        # Only unlink a socket *we* bound: when start() found a live daemon
        # (AddressInUseError) the file belongs to that daemon, not us.
        if self._bound and os.path.exists(self.path):
            os.unlink(self.path)


class TcpListener(Listener):
    """A TCP server (the substrate the cluster mode's fan-out reuses)."""

    scheme = "tcp"

    def __init__(self, address: Address) -> None:
        super().__init__(address)
        assert address.host is not None and address.port is not None
        self.host = address.host
        self.port = address.port
        self._server: "asyncio.AbstractServer | None" = None

    async def start(self, handler: ConnectionHandler) -> None:
        async def on_client(
            reader: asyncio.StreamReader, writer: asyncio.StreamWriter
        ) -> None:
            await handler(Connection(reader, writer, scheme=self.scheme))

        self._server = await asyncio.start_server(on_client, self.host, self.port)
        if self.port == 0 and self._server.sockets:
            # An ephemeral bind resolved to a concrete port; report it so
            # tests and supervisors can discover where to connect.
            self.port = self._server.sockets[0].getsockname()[1]
            self.address = Address(scheme="tcp", host=self.host, port=self.port)

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None


async def _dial_unix(address: Address) -> "tuple[asyncio.StreamReader, asyncio.StreamWriter]":
    assert address.path is not None
    return await asyncio.open_unix_connection(address.path)


async def _dial_tcp(address: Address) -> "tuple[asyncio.StreamReader, asyncio.StreamWriter]":
    assert address.host is not None and address.port is not None
    return await asyncio.open_connection(address.host, address.port)


@dataclass(frozen=True)
class TransportSpec:
    """One registered transport: its listener factory and client connector.

    ``connector`` is ``None`` for transports that cannot be dialled from
    another process (stdio: the pipe pair belongs to whoever spawned the
    daemon).
    """

    scheme: str
    description: str
    listener: Callable[[Address], Listener]
    connector: "Callable[[Address], Awaitable[tuple[asyncio.StreamReader, asyncio.StreamWriter]]] | None" = None


_TRANSPORTS: "dict[str, TransportSpec]" = {}


def register_transport(spec: TransportSpec) -> None:
    """Register (or replace) a transport under its scheme.

    Mirrors the solver/model/executor registries: runtime registration is
    first-class, so an embedding can add e.g. a TLS transport without
    patching this module.
    """
    _TRANSPORTS[spec.scheme] = spec


def unregister_transport(scheme: str) -> None:
    _TRANSPORTS.pop(scheme, None)


def get_transport(scheme: str) -> TransportSpec:
    """Look up a transport; raises :class:`UnknownTransportError` with the
    registered schemes when the name is unknown."""
    try:
        return _TRANSPORTS[scheme]
    except KeyError:
        raise UnknownTransportError(scheme, tuple(_TRANSPORTS)) from None


def available_transports() -> "tuple[str, ...]":
    """The registered transport schemes, sorted."""
    return tuple(sorted(_TRANSPORTS))


def transport_descriptions() -> "dict[str, str]":
    """{scheme: one-line description} for every registered transport."""
    return {
        scheme: _TRANSPORTS[scheme].description for scheme in available_transports()
    }


def create_listener(spec: "str | Address") -> Listener:
    """A ready-to-start listener for an address (dispatch on its scheme)."""
    address = parse_address(spec)
    return get_transport(address.scheme).listener(address)


async def open_client_connection(
    spec: "str | Address",
) -> "tuple[asyncio.StreamReader, asyncio.StreamWriter]":
    """Dial a daemon address; raises on non-connectable schemes (stdio)."""
    address = parse_address(spec)
    transport = get_transport(address.scheme)
    if transport.connector is None:
        raise AddressError(
            f"transport {address.scheme!r} cannot be connected to from "
            f"another process; use unix:PATH or tcp:HOST:PORT"
        )
    return await transport.connector(address)


register_transport(
    TransportSpec(
        scheme="stdio",
        description="one client over this process's stdin/stdout pipes",
        listener=StdioListener,
    )
)
register_transport(
    TransportSpec(
        scheme="unix",
        description="Unix-domain socket (unix:PATH or a bare path)",
        listener=UnixListener,
        connector=_dial_unix,
    )
)
register_transport(
    TransportSpec(
        scheme="tcp",
        description="TCP socket (tcp:HOST:PORT)",
        listener=TcpListener,
        connector=_dial_tcp,
    )
)
