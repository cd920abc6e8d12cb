"""Tests for the daemon transport layer: addresses, registry, listeners.

The round-trip tests serve a real daemon per transport and drive it with
:class:`DaemonClient.connect` on the textual address, so the full chain
(grammar -> registry -> listener -> session -> client connector) is
covered, including record-for-record equality between a TCP daemon and a
Unix-socket daemon on the same manifest.
"""

import asyncio
import json
import socket
import threading

import pytest

from repro.core.errors import (
    AddressInUseError,
    DaemonConnectionError,
    LineTooLongError,
    UnknownNameError,
)
from repro.service import DaemonClient, PredictionDaemon, transport
from repro.service.transport import (
    Address,
    AddressError,
    Listener,
    TRANSPORTS,
    TransportSpec,
    UnixListener,
    create_listener,
    open_client_connection,
    parse_address,
    read_line,
)

HOURS = 4


def inline_story(name: str, scale: float = 1.0) -> dict:
    return {
        "name": name,
        "distances": [1, 2, 3, 4, 5],
        "times": [1, 2, 3, 4],
        "values": [
            [scale * v for v in row]
            for row in (
                [5.0, 2.0, 2.5, 1.5, 1.0],
                [7.0, 3.0, 3.5, 2.0, 1.4],
                [9.0, 4.2, 4.6, 2.6, 1.9],
                [11.0, 5.5, 5.8, 3.3, 2.5],
            )
        ],
    }


def manifest_payload(*stories) -> dict:
    return {"metric": "hops", "hours": HOURS, "stories": list(stories)}


async def collect_submission(client: DaemonClient, manifest: dict, **kwargs):
    """Drive one submit; return (accepted, results-by-story, job, errors)."""
    accepted, results, job_event, errors = None, {}, None, []
    async for event in client.submit(manifest, **kwargs):
        kind = event["event"]
        if kind == "accepted":
            accepted = event
        elif kind == "result":
            results[event["story"]] = event
        elif kind == "job":
            job_event = event
        elif kind == "error":
            errors.append(event)
    return accepted, results, job_event, errors


class TestAddressGrammar:
    def test_unix_tcp_stdio_and_bare_path(self):
        assert parse_address("unix:/tmp/d.sock") == Address(
            scheme="unix", path="/tmp/d.sock"
        )
        assert parse_address("tcp:127.0.0.1:7631") == Address(
            scheme="tcp", host="127.0.0.1", port=7631
        )
        assert parse_address("stdio") == Address(scheme="stdio")
        # A bare path is a Unix socket path.
        assert parse_address("/tmp/d.sock") == Address(
            scheme="unix", path="/tmp/d.sock"
        )
        assert parse_address("relative/d.sock").scheme == "unix"

    def test_address_passthrough_and_str_round_trip(self):
        for spec in ("unix:/tmp/d.sock", "tcp:localhost:80", "stdio"):
            address = parse_address(spec)
            assert parse_address(address) is address
            assert parse_address(str(address)) == address

    def test_malformed_addresses_raise(self):
        for bad in ("", "  ", "unix:", "tcp:", "tcp:7631", "tcp:host:port",
                    "tcp:host:", "tcp:host:99999"):
            with pytest.raises(AddressError):
                parse_address(bad)

    def test_tcp_ipv6_style_host_uses_last_colon(self):
        address = parse_address("tcp:::1:7631")
        assert address.host == "::1" and address.port == 7631


class TestTransportRegistry:
    def test_builtin_transports_registered(self):
        assert TRANSPORTS.names() == ("stdio", "tcp", "unix")
        assert all(TRANSPORTS.get(scheme).description for scheme in TRANSPORTS.names())

    def test_unknown_scheme_raises_with_choices(self):
        with pytest.raises(UnknownNameError) as excinfo:
            TRANSPORTS.get("tls")
        message = str(excinfo.value)
        assert "unknown transport 'tls'" in message and "'unix'" in message

    def test_register_and_unregister_round_trip(self, tmp_path):
        # Replacing a built-in scheme takes overwrite=True, and
        # create_listener dispatches to whatever is registered now.
        class TaggedUnixListener(UnixListener):
            pass

        address = f"unix:{tmp_path}/d.sock"
        builtin = TRANSPORTS.get("unix")
        replacement = TransportSpec(description="tagged", listener=TaggedUnixListener)
        with pytest.raises(ValueError, match="already registered"):
            TRANSPORTS.register("unix", replacement)
        TRANSPORTS.register("unix", replacement, overwrite=True)
        try:
            assert isinstance(create_listener(address), TaggedUnixListener)
        finally:
            TRANSPORTS.register("unix", builtin, overwrite=True)
        assert type(create_listener(address)) is UnixListener

    def test_registered_custom_scheme_is_reachable(self, tmp_path):
        # A transport registered under a new scheme gets its own addresses;
        # an unregistered prefix still reads as a bare Unix path.
        class MemoryListener(Listener):
            scheme = "mem"

        assert parse_address("mem:x") == Address(scheme="unix", path="mem:x")
        TRANSPORTS.register("mem", TransportSpec(description="in memory", listener=MemoryListener))
        try:
            listener = create_listener("mem:x")
            assert isinstance(listener, MemoryListener)
            assert listener.address == Address(scheme="mem", path="x")
            assert str(listener.address) == "mem:x"
            assert parse_address(str(listener.address)) == listener.address
        finally:
            TRANSPORTS.unregister("mem")
        assert parse_address("mem:x") == Address(scheme="unix", path="mem:x")
        assert str(parse_address(f"{tmp_path}/d.sock")) == f"unix:{tmp_path}/d.sock"

    def test_stdio_cannot_be_dialled(self):
        async def run():
            with pytest.raises(AddressError) as excinfo:
                await open_client_connection("stdio")
            return str(excinfo.value)

        assert "cannot be connected" in asyncio.run(run())

    def test_create_listener_dispatches_on_scheme(self, tmp_path):
        listener = create_listener(f"unix:{tmp_path}/d.sock")
        assert listener.scheme == "unix"
        assert create_listener("tcp:127.0.0.1:0").scheme == "tcp"
        assert create_listener("stdio").scheme == "stdio"


async def _serve_and_ping(daemon, serve_coroutine, address_of):
    """Start a serve task, ping over DaemonClient.connect, shut down."""
    server = asyncio.ensure_future(serve_coroutine)
    try:
        deadline = asyncio.get_running_loop().time() + 5.0
        while True:
            try:
                client = await DaemonClient.connect(address_of())
                break
            except OSError:
                if server.done() or asyncio.get_running_loop().time() > deadline:
                    await server
                    raise
                await asyncio.sleep(0.01)
        async with client:
            pong = await client.ping()
            stats = await client.stats()
            await client.shutdown()
        return pong, stats
    finally:
        await asyncio.gather(server, return_exceptions=True)


class TestListenerRoundTrips:
    def test_unix_serve_and_connect(self, tmp_path):
        socket_path = str(tmp_path / "d.sock")
        daemon = PredictionDaemon(max_workers=1)
        pong, stats = asyncio.run(
            _serve_and_ping(
                daemon, daemon.serve(f"unix:{socket_path}"), lambda: f"unix:{socket_path}"
            )
        )
        assert pong == {"event": "pong"}
        assert stats["jobs"]["total"] == 0

    def test_tcp_serve_and_connect_on_ephemeral_port(self):
        daemon = PredictionDaemon(max_workers=1)

        def address():
            # Port 0 resolves to the kernel-assigned port once bound.
            listener = daemon.listener
            if listener is None or listener.address.port == 0:
                raise ConnectionRefusedError("not bound yet")
            return f"tcp:127.0.0.1:{listener.address.port}"

        pong, stats = asyncio.run(
            _serve_and_ping(daemon, daemon.serve("tcp:127.0.0.1:0"), address)
        )
        assert pong == {"event": "pong"}

    def test_tcp_and_unix_results_record_for_record_identical(self, tmp_path):
        manifest = manifest_payload(
            inline_story("alpha"), inline_story("beta", scale=1.7)
        )

        async def run_over(spec_factory):
            daemon = PredictionDaemon(max_workers=2)
            server = asyncio.ensure_future(daemon.serve(spec_factory(None)))
            deadline = asyncio.get_running_loop().time() + 5.0
            try:
                while True:
                    try:
                        client = await DaemonClient.connect(spec_factory(daemon))
                        break
                    except OSError:
                        if (
                            server.done()
                            or asyncio.get_running_loop().time() > deadline
                        ):
                            await server
                            raise
                        await asyncio.sleep(0.01)
                async with client:
                    _, results, _, errors = await collect_submission(
                        client, manifest, job_id="same-job"
                    )
                    await client.shutdown()
                assert not errors
                return results
            finally:
                await asyncio.gather(server, return_exceptions=True)

        socket_path = str(tmp_path / "d.sock")
        unix_results = asyncio.run(run_over(lambda _: f"unix:{socket_path}"))

        def tcp_spec(daemon):
            if daemon is None:
                return "tcp:127.0.0.1:0"
            listener = daemon.listener
            if listener is None or listener.address.port == 0:
                raise ConnectionRefusedError("not bound yet")
            return f"tcp:127.0.0.1:{listener.address.port}"

        tcp_results = asyncio.run(run_over(tcp_spec))
        # Record-for-record: the transport must never leak into results.
        assert set(unix_results) == set(tcp_results) == {"alpha", "beta"}
        for name in unix_results:
            assert json.dumps(unix_results[name], sort_keys=True) == json.dumps(
                tcp_results[name], sort_keys=True
            )


class TestStaleSocketReclaim:
    def test_stale_socket_file_is_reclaimed(self, tmp_path):
        socket_path = str(tmp_path / "d.sock")
        # A crashed daemon's leftover: a socket file nobody is listening on.
        leftover = socket.socket(socket.AF_UNIX)
        leftover.bind(socket_path)
        leftover.close()  # closed without accept: connects will be refused

        daemon = PredictionDaemon(max_workers=1)
        pong, _ = asyncio.run(
            _serve_and_ping(
                daemon, daemon.serve(socket_path), lambda: socket_path
            )
        )
        assert pong == {"event": "pong"}

    def test_live_daemon_raises_address_in_use(self, tmp_path):
        socket_path = str(tmp_path / "d.sock")

        async def run():
            first = PredictionDaemon(max_workers=1)
            server = asyncio.ensure_future(first.serve(socket_path))
            deadline = asyncio.get_running_loop().time() + 5.0
            try:
                while True:
                    try:
                        probe = await DaemonClient.connect(socket_path)
                        break
                    except OSError:
                        if server.done():
                            await server
                        assert asyncio.get_running_loop().time() < deadline
                        await asyncio.sleep(0.01)
                second = PredictionDaemon(max_workers=1)
                with pytest.raises(AddressInUseError) as excinfo:
                    await second.serve(socket_path)
                assert "already listening" in str(excinfo.value)
                # The live daemon and its socket survived the probe.
                async with probe:
                    assert (await probe.ping())["event"] == "pong"
                    await probe.shutdown()
                return True
            finally:
                await asyncio.gather(server, return_exceptions=True)

        assert asyncio.run(run())


class _HalfDeadDaemon:
    """A fake daemon that accepts one client, answers, then hangs up.

    Runs plain blocking sockets on its own thread so client-side tests
    (asyncio in the main thread) see a real peer disappear mid-stream.
    """

    def __init__(self, socket_path: str, responses: "list[bytes]") -> None:
        self.socket_path = socket_path
        self.responses = responses
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)

    def __enter__(self) -> "_HalfDeadDaemon":
        self._thread.start()
        assert self._ready.wait(timeout=5.0)
        return self

    def __exit__(self, *exc) -> None:
        self._thread.join(timeout=5.0)

    def _serve(self) -> None:
        server = socket.socket(socket.AF_UNIX)
        server.bind(self.socket_path)
        server.listen(1)
        self._ready.set()
        conn, _ = server.accept()
        conn.recv(65536)  # the request line
        for chunk in self.responses:
            conn.sendall(chunk)
        conn.close()  # mid-stream EOF
        server.close()


class TestMidStreamEof:
    def test_receive_raises_typed_error_on_clean_eof(self, tmp_path):
        socket_path = str(tmp_path / "dead.sock")
        accepted = (
            json.dumps({"event": "accepted", "id": "j", "stories": ["a"]}) + "\n"
        ).encode()

        async def run():
            async with await DaemonClient.connect(socket_path) as client:
                events = []
                with pytest.raises(DaemonConnectionError) as excinfo:
                    async for event in client.submit({"stories": []}):
                        events.append(event)
                return events, str(excinfo.value)

        with _HalfDeadDaemon(socket_path, [accepted]):
            events, message = asyncio.run(run())
        # Events before the hangup were delivered; then the typed error.
        assert [e["event"] for e in events] == ["accepted"]
        assert "mid-stream" in message

    def test_receive_raises_typed_error_on_torn_line(self, tmp_path):
        socket_path = str(tmp_path / "dead.sock")

        async def run():
            async with await DaemonClient.connect(socket_path) as client:
                with pytest.raises(DaemonConnectionError) as excinfo:
                    await client.request({"op": "ping"})
                return str(excinfo.value)

        # A partial event line with no newline: the daemon died mid-write.
        with _HalfDeadDaemon(socket_path, [b'{"event": "po']):
            message = asyncio.run(run())
        assert "part-way" in message

    def test_typed_error_is_still_a_connection_error(self):
        # Pre-transport callers catch ConnectionError; they keep working.
        assert issubclass(DaemonConnectionError, ConnectionError)


class TestLineLimit:
    @staticmethod
    def _read_all(*chunks, limit=64):
        async def run():
            reader = asyncio.StreamReader(limit=limit)
            for chunk in chunks:
                reader.feed_data(chunk)
            reader.feed_eof()
            lines = []
            while True:
                try:
                    line = await read_line(reader)
                except LineTooLongError:
                    lines.append("too long")
                    continue
                if not line:
                    return lines
                lines.append(line)

        return asyncio.run(run())

    def test_over_long_line_is_skipped_whole(self):
        # Newline already buffered (past the limit) and newline not yet
        # seen when the limit trips: either way the whole line goes and
        # the next line is intact.
        long_line = b'{"pad": "' + b"x" * 500 + b'"}\n'
        assert self._read_all(long_line + b'{"a": 1}\n') == ["too long", b'{"a": 1}\n']
        assert self._read_all(long_line[:300], long_line[300:], b"next\n") == [
            "too long",
            b"next\n",
        ]

    def test_eof_inside_an_over_long_line_reads_as_eof(self):
        assert self._read_all(b"x" * 500) == []
        assert self._read_all(b"ok\n", b"torn") == [b"ok\n", b"torn"]

    def test_daemon_rejects_over_long_request_and_keeps_connection(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(transport, "LINE_LIMIT", 1024)
        socket_path = str(tmp_path / "d.sock")
        daemon = PredictionDaemon(max_workers=1)

        async def run():
            server = asyncio.ensure_future(daemon.serve(f"unix:{socket_path}"))
            try:
                client = await DaemonClient.connect(
                    f"unix:{socket_path}", retries=40, backoff=0.05
                )
                async with client:
                    await client.send({"op": "ping", "pad": "x" * 5000})
                    rejected = await client.receive()
                    pong = await client.ping()
                    await client.shutdown()
                    return rejected, pong
            finally:
                await asyncio.wait_for(server, timeout=10)

        rejected, pong = asyncio.run(run())
        assert rejected["event"] == "error"
        assert "line limit" in rejected["error"]
        assert pong == {"event": "pong"}
