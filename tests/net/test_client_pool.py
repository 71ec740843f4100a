"""The client resilience layer: one multiplexed connection per session,
retry and reconnect, cursors on that connection, multiplexing."""

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro
from repro.errors import CursorError, OptionsError
from repro.joins.naive import NaiveBacktrackingJoin
from repro.net.client import RemoteSession, connect_async
from repro.net.server import ServerThread
from repro.service import QueryService

from tests.conftest import graph_database

TRIANGLE = "edge(a,b), edge(b,c), edge(a,c), a<b, b<c"
TWO_HOP = "edge(a,b), edge(b,c)"


@pytest.fixture(scope="module")
def service():
    with QueryService(graph_database(14, 40, seed=5)) as service:
        yield service


@pytest.fixture(scope="module")
def server(service):
    with ServerThread(service) as server:
        yield server


class TestConnectionPool:
    """What the sync connection pool used to guarantee, now that every
    session multiplexes one connection: requests reuse it, cursors live
    on it until drained or closed, threads share it."""

    def test_sequential_requests_reuse_one_connection(self, server):
        with RemoteSession(server.url) as session:
            for _ in range(5):
                session.run(TRIANGLE).count()
            assert session.stats()["client"]["generation"] == 1

    def test_undrained_cursor_pins_a_connection_until_drained(self, server):
        with RemoteSession(server.url) as session:
            def cursors():
                return session.stats()["cursors"]["active"]

            result_set = session.run(TWO_HOP, use_cache=False)
            assert cursors() == 0  # run plans only: no cursor yet
            result_set.fetchmany(1)
            assert cursors() == 1  # the cursor lives on the connection
            # ... which keeps carrying other traffic meanwhile.
            assert session.run(TRIANGLE).count() > 0
            result_set.fetchall()
            assert cursors() == 0  # drained: released server-side
            assert session.stats()["client"]["generation"] == 1

    def test_closing_a_result_set_releases_its_connection(self, server):
        with RemoteSession(server.url) as session:
            result_set = session.run(TWO_HOP, use_cache=False)
            result_set.fetchmany(1)
            result_set.close()
            assert session.stats()["cursors"]["active"] == 0

    def test_many_undrained_cursors_share_one_connection(self, server):
        # More open cursors than the old pool had connections: nothing
        # is exhausted, every stream reads on, requests keep flowing.
        with RemoteSession(server.url) as session:
            total = session.run(TWO_HOP).count()
            streams = [session.run(TWO_HOP, use_cache=False)
                       for _ in range(6)]
            for stream in streams:
                assert len(stream.fetchmany(1)) == 1
            assert session.run(TRIANGLE).count() > 0
            for stream in streams:
                assert len(stream.fetchall()) == total - 1
            assert session.stats()["client"]["generation"] == 1

    def test_worker_threads_share_one_session(self, server):
        with RemoteSession(server.url) as session:
            expected = session.run(TRIANGLE).count()
            with ThreadPoolExecutor(8) as workers:
                counts = list(workers.map(
                    lambda _: session.run(TRIANGLE).count(), range(16)
                ))
            assert counts == [expected] * 16
            assert session.stats()["client"]["generation"] == 1

    def test_session_close_reaps_pinned_connections(self, server):
        session = RemoteSession(server.url)
        result_set = session.run(TWO_HOP, use_cache=False)
        result_set.fetchmany(1)  # opens a server-side cursor
        session.close()
        # No socket outlives the session; the cursor died with it.
        with pytest.raises(CursorError):
            result_set.fetchmany(1)


class TestRetryAndReconnect:
    def test_idempotent_ops_survive_a_server_restart(self, service):
        server = ServerThread(service).start()
        port = server.server.port
        session = RemoteSession(server.url, retries=3, retry_backoff=0.02)
        try:
            expected = session.run(TRIANGLE).count()
            server.stop()  # the session's connection is now dead
            replacement = ServerThread(service, port=port).start()
            try:
                # run/count/explain/stats reconnect and retry.
                assert session.run(TRIANGLE).count() == expected
                assert session.explain(TRIANGLE).as_dict()
                stats = session.stats()
                assert "service" in stats
                assert stats["client"]["reconnects"] >= 1
            finally:
                replacement.stop()
        finally:
            session.close()

    def test_remote_errors_are_not_retried_and_keep_the_connection(
            self, server):
        from repro.errors import ParseError

        with RemoteSession(server.url, retries=3) as session:
            with pytest.raises(ParseError):
                session.run("edge(a,")
            # The connection survived the application error: same socket.
            assert session.run(TRIANGLE).count() > 0
            client = session.stats()["client"]
            assert client["generation"] == 1
            assert client["retries"] == 0


class TestMultiplexing:
    """asyncio.gather over many runs shares (and pipelines) one socket."""

    def test_gather_shares_one_connection(self, service):
        with ServerThread(service) as server:
            async def main():
                async with await connect_async(server.url) as session:
                    async def one():
                        result_set = await session.run(TRIANGLE)
                        return await result_set.count()

                    counts = await asyncio.gather(*[one() for _ in range(12)])
                    return counts, len(server.server._connections)

            counts, connections = asyncio.run(main())
        assert connections == 1  # twelve concurrent runs, one socket
        assert len(set(counts)) == 1 and counts[0] > 0

    def test_responses_come_back_out_of_order(self, service):
        # A slow count issued *first* must not block a fast count issued
        # second: the server dispatches both concurrently and the client
        # matches responses by id, so the fast one completes first.
        class Sleepy(NaiveBacktrackingJoin):
            def count(self, database, query):
                time.sleep(0.4)
                return super().count(database, query)

        service.engine.register("sleepy",
                                lambda budget: Sleepy(budget=budget),
                                replace=True)
        with ServerThread(service) as server:
            async def main():
                completion_order = []
                async with await connect_async(server.url) as session:
                    async def one(algorithm, tag):
                        result_set = await session.run(
                            TWO_HOP, algorithm=algorithm, use_cache=False
                        )
                        await result_set.count()
                        completion_order.append(tag)

                    await asyncio.gather(one("sleepy", "slow"),
                                         one("naive", "fast"))
                return completion_order

            assert asyncio.run(main()) == ["fast", "slow"]

    def test_concurrent_cursor_streams_interleave_on_one_socket(
            self, service):
        with ServerThread(service) as server:
            async def main():
                async with await connect_async(server.url) as session:
                    first = await session.run(TWO_HOP, use_cache=False)
                    second = await session.run(TWO_HOP, use_cache=False)
                    a_rows, b_rows = [], []
                    # Alternate fetches between two open server cursors.
                    while True:
                        a_page, b_page = await asyncio.gather(
                            first.fetchmany(7), second.fetchmany(7)
                        )
                        a_rows.extend(a_page)
                        b_rows.extend(b_page)
                        if not a_page and not b_page:
                            break
                    return a_rows, b_rows

            a_rows, b_rows = asyncio.run(main())
        assert sorted(a_rows) == sorted(b_rows)
        assert len(a_rows) > 0


class TestOverloadAndCancellation:
    def test_admission_rejection_does_not_kill_the_cursor(self):
        # A queue-full rejection happens *before* the fetch reaches the
        # stream: the cursor is untouched server-side, so the client
        # must keep it usable instead of declaring the stream gone.
        from repro.errors import AdmissionError
        from repro.service import ServiceConfig

        class Sleepy(NaiveBacktrackingJoin):
            def count(self, database, query):
                time.sleep(1.0)
                return super().count(database, query)

        with QueryService(graph_database(14, 40, seed=5),
                          ServiceConfig(workers=1, max_pending=0)) as service:
            service.engine.register("sleepy",
                                    lambda budget: Sleepy(budget=budget))
            with ServerThread(service) as server:
                # Small fetch_size so iteration leaves rows in the client
                # buffer — the rejected fetchmany below must put its
                # partial take back rather than lose it.
                with RemoteSession(server.url, fetch_size=5) as session:
                    total = session.run(TWO_HOP).count()
                    stream = session.run(TWO_HOP, use_cache=False)
                    delivered = stream.fetchmany(2)
                    delivered.append(next(stream.rows()))  # buffers 4 more

                    import threading
                    hog = threading.Thread(
                        target=lambda: session.run(
                            TWO_HOP, algorithm="sleepy", use_cache=False
                        ).count())
                    hog.start()
                    time.sleep(0.3)  # let the slow count own the worker
                    try:
                        # Wants 4 buffered rows + a wire fetch, which is
                        # admission-rejected — and must not eat the 4.
                        with pytest.raises(AdmissionError):
                            stream.fetchmany(10)
                    finally:
                        hog.join(timeout=30)
                    # The queue drained: the same cursor resumes at the
                    # exact position — nothing skipped, nothing repeated.
                    delivered.extend(stream.fetchall())
                    assert len(delivered) == total
                    assert len(set(delivered)) == total

    def test_cancelling_one_request_does_not_poison_the_connection(
            self, service):
        # asyncio.wait_for cancelling a slow call must not desync the
        # multiplexed socket: its late response is discarded by id, and
        # every other in-flight / subsequent request still completes.
        class Sleepy(NaiveBacktrackingJoin):
            def count(self, database, query):
                time.sleep(0.6)
                return super().count(database, query)

        service.engine.register("sleepy2",
                                lambda budget: Sleepy(budget=budget),
                                replace=True)
        with ServerThread(service) as server:
            async def main():
                async with await connect_async(server.url) as session:
                    expected = await (await session.run(TRIANGLE)).count()

                    async def slow():
                        result_set = await session.run(
                            TWO_HOP, algorithm="sleepy2", use_cache=False
                        )
                        return await result_set.count()

                    with pytest.raises(asyncio.TimeoutError):
                        await asyncio.wait_for(slow(), 0.15)
                    # The cancelled request's response arrives later and
                    # must be dropped — give it time to land, then prove
                    # the connection still answers correctly.
                    await asyncio.sleep(0.8)
                    return await (await session.run(TRIANGLE)).count(), \
                        expected

            got, expected = asyncio.run(main())
            assert got == expected

    def test_concurrent_fetches_on_one_result_set_serialize(self, service):
        # Two fetchmany calls racing on one async result set must not
        # trip the server's one-fetch-per-cursor busy-guard; they
        # serialize client-side and split the stream between them.
        with ServerThread(service) as server:
            async def main():
                async with await connect_async(server.url) as session:
                    total = await (await session.run(TWO_HOP)).count()
                    stream = await session.run(TWO_HOP, use_cache=False)
                    pages = await asyncio.gather(
                        stream.fetchmany(total // 2),
                        stream.fetchmany(total // 2),
                    )
                    rest = await stream.fetchall()
                    return total, pages, rest

            total, pages, rest = asyncio.run(main())
        collected = [row for page in pages for row in page] + rest
        assert len(collected) == total
        assert len(set(collected)) == total  # no row repeated or skipped


class TestConnectKwargs:
    def test_repro_connect_forwards_pool_knobs(self, server):
        with repro.connect(server.url, retries=5) as session:
            assert isinstance(session, RemoteSession)
            assert session.retries == 5
            assert session.run(TRIANGLE).count() > 0

    def test_local_connect_rejects_pool_knobs(self):
        with pytest.raises(OptionsError, match="retries"):
            repro.connect(retries=1)
        # The connection-pool size is gone: one session, one connection.
        with pytest.raises(TypeError, match="pool_size"):
            repro.connect(pool_size=2)

    def test_nonsense_knob_values_are_rejected_not_clamped(self, server):
        # Boundary discipline matches QueryOptions: a typo'd knob is an
        # error, not silently different resilience behavior.
        with pytest.raises(OptionsError, match="retries"):
            RemoteSession(server.url, retries=-1)
        with pytest.raises(OptionsError, match="retry_backoff"):
            RemoteSession(server.url, retry_backoff=0)

        async def bad_async():
            await connect_async(server.url, retries=-2)

        with pytest.raises(OptionsError, match="retries"):
            asyncio.run(bad_async())

    def test_cli_rejects_nonsense_knob_values(self, server, capsys):
        from repro.cli import EXIT_BAD_OPTIONS, main

        code = main(["query", "--connect", server.url, "--text", TRIANGLE,
                     "--retries", "-1"])
        assert code == EXIT_BAD_OPTIONS
        assert "retries" in capsys.readouterr().err


class TestCliKnobs:
    def test_pool_flags_require_connect(self, capsys):
        from repro.cli import EXIT_BAD_OPTIONS, main

        code = main(["query", "--dataset", "ca-GrQc",
                     "--pattern", "3-clique", "--retries", "2"])
        assert code == EXIT_BAD_OPTIONS
        assert "--connect" in capsys.readouterr().err
        # --pool-size no longer exists: argparse rejects it outright.
        with pytest.raises(SystemExit) as info:
            main(["query", "--dataset", "ca-GrQc",
                  "--pattern", "3-clique", "--pool-size", "2"])
        assert info.value.code == 2

    def test_pool_flags_apply_over_the_wire(self, server, capsys):
        from repro.cli import main

        code = main(["query", "--connect", server.url, "--text", TRIANGLE,
                     "--retries", "1"])
        assert code == 0
        assert "results" in capsys.readouterr().out
