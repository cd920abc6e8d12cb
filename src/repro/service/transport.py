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
  line.  :func:`read_line` reads one line under :data:`LINE_LIMIT`, the
  line limit of every stream opened here, and skips a longer line whole.
* :class:`Listener` -- the server side: ``start(handler)`` accepts
  connections and invokes the handler per peer; :class:`StdioListener`,
  :class:`UnixListener` and :class:`TcpListener` implement it.
* :data:`TRANSPORTS`, the scheme -> :class:`TransportSpec` registry, with
  :func:`create_listener` and :func:`open_client_connection` dispatching
  on an address's scheme.

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

from repro.core.errors import AddressInUseError, LineTooLongError
from repro.core.registry import Registry

#: Longest line, in bytes, any stream opened here will buffer.  asyncio's
#: 64 KiB default is smaller than a ``worker_result`` line for a 16-story
#: shard (80-310 KB) or a large inline ``submit``, so every listener and
#: connector in this module uses this one limit instead.
LINE_LIMIT = 16 * 1024 * 1024


#: Schemes :func:`parse_address` parses itself; any other registered
#: scheme is handed its address text after the colon as ``path``.
_BUILTIN_SCHEMES = ("stdio", "unix", "tcp")


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
        if self.scheme == "tcp":
            return f"tcp:{self.host}:{self.port}"
        if self.path is not None:
            return f"{self.scheme}:{self.path}"
        return self.scheme


def parse_address(spec: "str | Address") -> Address:
    """Parse ``unix:/path``, ``tcp:host:port``, ``stdio``, ``SCHEME:REST`` or a bare path.

    ``SCHEME:REST``, where ``SCHEME`` names a transport registered in
    :data:`TRANSPORTS` beyond the built-in three, parses to
    ``Address(SCHEME, path=REST)`` for that transport to interpret.  A
    string with any other prefix is a bare Unix socket path.
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
    scheme, sep, rest = text.partition(":")
    if sep and scheme not in _BUILTIN_SCHEMES and scheme in TRANSPORTS:
        return Address(scheme=scheme, path=rest)
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


async def read_line(reader: asyncio.StreamReader) -> bytes:
    """Read one line: ``b""`` at EOF, no trailing newline if the peer hung up.

    A line longer than the reader's limit is read past in full and raises
    :class:`~repro.core.errors.LineTooLongError`, so the next call returns
    the next line.  (``StreamReader.readline`` drops only the buffered part
    of an over-long line, so its tail would come back as a bogus line.)
    """
    try:
        return await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as error:
        return error.partial
    except asyncio.LimitOverrunError:
        pass
    while True:
        try:
            await reader.readuntil(b"\n")
        except asyncio.LimitOverrunError as error:
            await reader.readexactly(error.consumed)
        except asyncio.IncompleteReadError:
            return b""  # EOF part-way through the over-long line
        else:
            raise LineTooLongError(
                "a line longer than the stream's line limit was skipped"
            )


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
        reader = asyncio.StreamReader(limit=LINE_LIMIT)
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
            _, writer = await asyncio.open_unix_connection(
                self.path, limit=LINE_LIMIT
            )
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

        self._server = await asyncio.start_unix_server(
            on_client, path=self.path, limit=LINE_LIMIT
        )
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

        self._server = await asyncio.start_server(
            on_client, self.host, self.port, limit=LINE_LIMIT
        )
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
    return await asyncio.open_unix_connection(address.path, limit=LINE_LIMIT)


async def _dial_tcp(address: Address) -> "tuple[asyncio.StreamReader, asyncio.StreamWriter]":
    assert address.host is not None and address.port is not None
    return await asyncio.open_connection(
        address.host, address.port, limit=LINE_LIMIT
    )


@dataclass(frozen=True)
class TransportSpec:
    """One transport: its listener factory and client connector.

    :data:`TRANSPORTS` holds it under its scheme.  ``connector`` is ``None`` for transports that cannot be dialled from
    another process (stdio: the pipe pair belongs to whoever spawned the
    daemon).
    """

    description: str
    listener: Callable[[Address], Listener]
    connector: "Callable[[Address], Awaitable[tuple[asyncio.StreamReader, asyncio.StreamWriter]]] | None" = None


#: scheme -> :class:`TransportSpec`.
TRANSPORTS: "Registry[TransportSpec]" = Registry("transport")


def create_listener(spec: "str | Address") -> Listener:
    """A ready-to-start listener for an address (dispatch on its scheme)."""
    address = parse_address(spec)
    return TRANSPORTS.get(address.scheme).listener(address)


async def open_client_connection(
    spec: "str | Address",
) -> "tuple[asyncio.StreamReader, asyncio.StreamWriter]":
    """Dial a daemon address; raises on non-connectable schemes (stdio)."""
    address = parse_address(spec)
    transport = TRANSPORTS.get(address.scheme)
    if transport.connector is None:
        raise AddressError(
            f"transport {address.scheme!r} cannot be connected to from "
            f"another process; use unix:PATH or tcp:HOST:PORT"
        )
    return await transport.connector(address)


TRANSPORTS.register(
    "stdio",
    TransportSpec(
        description="one client over this process's stdin/stdout pipes",
        listener=StdioListener,
    ),
)
TRANSPORTS.register(
    "unix",
    TransportSpec(
        description="Unix-domain socket (unix:PATH or a bare path)",
        listener=UnixListener,
        connector=_dial_unix,
    ),
)
TRANSPORTS.register(
    "tcp",
    TransportSpec(
        description="TCP socket (tcp:HOST:PORT)",
        listener=TcpListener,
        connector=_dial_tcp,
    ),
)
