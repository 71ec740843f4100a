"""Network faults: dead servers, truncated frames, refused connections.

The contract under fire:

* **idempotent ops** (``hello``/``run``/``explain``/``count``/``stats``)
  ride reconnect + bounded-backoff retry and *succeed* once the server
  is back;
* a **cursor fetch** is never retried — the server-side stream died with
  its connection, so the client gets a crisp :class:`CursorError`
  telling it to re-run the query (not a hang, not a traceback);
* **no socket leaks**: every scenario runs under a recording
  ``ResourceWarning`` filter (the GC flags unclosed sockets) and asserts
  none were emitted.
"""

import contextlib
import gc
import socket
import struct
import threading
import time
import warnings

import pytest

from repro.errors import CursorError, NetworkError, ProtocolError
from repro.net.client import RemoteSession, connect_async
from repro.net.server import ServerThread
from repro.service import QueryService

from tests.conftest import graph_database

TRIANGLE = "edge(a,b), edge(b,c), edge(a,c), a<b, b<c"
TWO_HOP = "edge(a,b), edge(b,c)"


@pytest.fixture
def service():
    with QueryService(graph_database(14, 40, seed=5)) as service:
        yield service


@contextlib.contextmanager
def assert_no_socket_leaks():
    """Fail if the scenario leaves a socket for the GC to complain about.

    ``ResourceWarning`` for an unclosed socket is raised from ``__del__``
    during collection, where "warnings as errors" cannot propagate — so
    the filter *records* instead, and the assertion turns any recorded
    socket warning into a test failure.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        yield
        gc.collect()
    leaks = [str(entry.message) for entry in caught
             if issubclass(entry.category, ResourceWarning)
             and "socket" in str(entry.message)]
    assert not leaks, f"sockets leaked: {leaks}"


class TestServerKilledMidFetch:
    def test_cursor_raises_and_idempotent_ops_recover(self, service):
        with assert_no_socket_leaks():
            server = ServerThread(service).start()
            port = server.server.port
            session = RemoteSession(server.url, retries=4,
                                    retry_backoff=0.05)
            try:
                expected = session.run(TRIANGLE).count()
                stream = session.run(TWO_HOP, use_cache=False)
                assert len(stream.fetchmany(2)) == 2

                server.stop()  # the cursor's connection dies with it

                # The fetch is NOT retried: crisp CursorError, twice
                # (stable, not a hang or a traceback).
                with pytest.raises(CursorError, match="re-run the query"):
                    stream.fetchmany(2)
                with pytest.raises(CursorError, match="re-run the query"):
                    stream.fetchmany(1)

                # Restart on the same port: stale pooled sockets fail the
                # health check, idempotent ops reconnect and succeed.
                replacement = ServerThread(service, port=port).start()
                try:
                    assert session.run(TRIANGLE).count() == expected
                    fresh = session.run(TWO_HOP, use_cache=False)
                    assert len(fresh.fetchall()) > 0
                finally:
                    replacement.stop()
            finally:
                session.close()

    def test_async_cursor_does_not_survive_reconnect(self, service):
        with assert_no_socket_leaks():
            server = ServerThread(service).start()
            port = server.server.port

            async def main():
                session = await connect_async(server.url, retries=4,
                                              retry_backoff=0.05)
                try:
                    expected = await (await session.run(TRIANGLE)).count()
                    stream = await session.run(TWO_HOP, use_cache=False)
                    assert len(await stream.fetchmany(2)) == 2

                    server.stop()
                    replacement = ServerThread(service, port=port).start()
                    try:
                        # Idempotent op reconnects (new generation) ...
                        count = await (await session.run(TRIANGLE)).count()
                        assert count == expected
                        # ... but the old cursor did not survive it.
                        with pytest.raises(CursorError,
                                           match="re-run the query"):
                            await stream.fetchmany(1)
                    finally:
                        replacement.stop()
                finally:
                    await session.close()

            import asyncio

            asyncio.run(main())


class TestConnectionRefused:
    def test_refused_then_recovered_within_the_retry_window(self, service):
        with assert_no_socket_leaks():
            server = ServerThread(service).start()
            port = server.server.port
            session = RemoteSession(server.url, retries=6,
                                    retry_backoff=0.05)
            try:
                expected = session.run(TRIANGLE).count()
                server.stop()  # now every dial is refused
                revived = []

                def revive():
                    time.sleep(0.4)
                    revived.append(ServerThread(service, port=port).start())

                reviver = threading.Thread(target=revive)
                reviver.start()
                try:
                    # Early attempts are refused; the backoff schedule
                    # reaches past the outage and the request succeeds.
                    assert session.run(TRIANGLE).count() == expected
                finally:
                    reviver.join(timeout=30)
                    if revived:
                        revived[0].stop()
            finally:
                session.close()

    def test_refused_with_no_server_ever_fails_cleanly(self):
        with assert_no_socket_leaks():
            with socket.socket() as probe:
                probe.bind(("127.0.0.1", 0))
                free_port = probe.getsockname()[1]
            with pytest.raises(NetworkError, match="could not connect"):
                RemoteSession(f"repro://127.0.0.1:{free_port}",
                              retries=2, retry_backoff=0.01,
                              connect_timeout=0.5)


@contextlib.contextmanager
def half_frame_server():
    """A fake "server" that hands every connection a frame prefix
    promising 100 bytes, three actual bytes, then hangs up without
    reading anything — a half-written frame, the classic crash-mid-send
    shape.  Yields ``(port, dials)``; ``dials`` grows per connection."""
    listener = socket.socket()
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind(("127.0.0.1", 0))
    listener.listen(8)
    listener.settimeout(0.2)
    dials = []
    stop = threading.Event()

    def serve():
        while not stop.is_set():
            try:
                conn, _ = listener.accept()
            except socket.timeout:
                continue
            dials.append(1)
            with conn:
                conn.sendall(struct.pack("!I", 100) + b'{"x')

    acceptor = threading.Thread(target=serve, daemon=True)
    acceptor.start()
    try:
        yield listener.getsockname()[1], dials
    finally:
        stop.set()
        acceptor.join(timeout=5)
        listener.close()


class TestTruncatedFrames:
    def test_half_written_frame_fails_after_retrying_fresh_connections(
            self):
        with half_frame_server() as (port, dials):
            with assert_no_socket_leaks():
                with pytest.raises(ProtocolError, match="mid-frame"):
                    RemoteSession(f"repro://127.0.0.1:{port}",
                                  retries=2, retry_backoff=0.01)
            # The handshake is idempotent: each retry dialled a *fresh*
            # connection rather than reusing the poisoned one.
            assert len(dials) == 3

    def test_async_handshake_names_the_truncated_frame(self):
        # Whether the hang-up lands before or after the hello is written,
        # the handshake must report the truncated frame that killed the
        # connection — never a generic "not connected".
        import asyncio

        async def main(port):
            for _ in range(20):
                with pytest.raises(ProtocolError, match="mid-frame"):
                    await connect_async(f"repro://127.0.0.1:{port}",
                                        retries=0)

        with half_frame_server() as (port, dials):
            with assert_no_socket_leaks():
                asyncio.run(main(port))
            assert len(dials) == 20

    def test_async_failed_handshake_leaks_no_transport(self):
        # connect_async against an endpoint that accepts then hangs up:
        # the constructor must tear down its transport and reader task,
        # not abandon them (the caller never gets a handle to close).
        listener = socket.socket()
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind(("127.0.0.1", 0))
        listener.listen(8)
        listener.settimeout(0.2)
        port = listener.getsockname()[1]
        stop = threading.Event()

        def serve():
            while not stop.is_set():
                try:
                    conn, _ = listener.accept()
                except socket.timeout:
                    continue
                conn.close()

        acceptor = threading.Thread(target=serve, daemon=True)
        acceptor.start()
        try:
            with assert_no_socket_leaks():
                async def main():
                    with pytest.raises(NetworkError):
                        await connect_async(
                            f"repro://127.0.0.1:{port}",
                            retries=1, retry_backoff=0.01,
                            connect_timeout=0.5,
                        )

                import asyncio

                asyncio.run(main())
        finally:
            stop.set()
            acceptor.join(timeout=5)
            listener.close()

    def test_silent_endpoint_cannot_hang_the_handshake(self):
        # Accepts TCP but never answers (not a repro server): the
        # handshake must fail within connect_timeout, not hang forever.
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(8)
        port = listener.getsockname()[1]
        try:
            with assert_no_socket_leaks():
                started = time.monotonic()
                with pytest.raises(NetworkError):
                    RemoteSession(f"repro://127.0.0.1:{port}",
                                  retries=0, connect_timeout=0.3)
                assert time.monotonic() - started < 5.0
        finally:
            listener.close()


class TestCleanLifecycleLeaksNothing:
    def test_sync_sessions_leave_no_loop_thread(self, service):
        def loop_threads():
            return {thread for thread in threading.enumerate()
                    if thread.name == "repro-client-loop"}

        before = loop_threads()
        with ServerThread(service) as server:
            session = RemoteSession(server.url)
            session.run(TRIANGLE).count()
            session.close()
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            free_port = probe.getsockname()[1]
        with pytest.raises(NetworkError):
            RemoteSession(f"repro://127.0.0.1:{free_port}", retries=0,
                          connect_timeout=0.5)
        assert loop_threads() <= before

    def test_sync_session_with_abandoned_cursor(self, service):
        with assert_no_socket_leaks():
            with ServerThread(service) as server:
                with RemoteSession(server.url) as session:
                    session.run(TRIANGLE).count()
                    undrained = session.run(TWO_HOP, use_cache=False)
                    undrained.fetchmany(1)
                    # Deliberately neither drained nor closed: the
                    # session close must reap its pinned connection.

    def test_async_session_lifecycle(self, service):
        with assert_no_socket_leaks():
            with ServerThread(service) as server:
                async def main():
                    async with await connect_async(server.url) as session:
                        result_set = await session.run(TWO_HOP,
                                                       use_cache=False)
                        await result_set.fetchmany(3)

                import asyncio

                asyncio.run(main())
