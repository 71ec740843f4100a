"""Prepared-statement handles: registry lifecycle, the three session
surfaces (local / remote / async), and the headline guarantee — zero
parses after ``prepare``.

The server registers compiled shapes per-connection (idle TTL + cap,
the cursor-registry discipline); the client holds a ``(text,
algorithm) -> handle`` map for its connection and re-prepares
transparently when a handle turns out dead (TTL expiry, deallocation
elsewhere, server restart), so a prepared handle survives everything
short of the client closing it.
"""

import asyncio

import pytest

import repro.engine as engine_module
from repro.api.session import Session
from repro.errors import PreparedError
from repro.net.client import RemoteSession, connect_async
from repro.net.server import ServerThread
from repro.service import PreparedRegistry, QueryService

from tests.conftest import graph_database

QUERY = "edge(a,b), edge(b,c)"


@pytest.fixture(scope="module")
def service():
    with QueryService(graph_database(14, 40, seed=5)) as service:
        yield service


@pytest.fixture(scope="module")
def server(service):
    with ServerThread(service) as server:
        yield server


def _normalized(rows):
    return sorted(tuple(row) for row in rows)


def _compile(service, text, algorithm="auto"):
    return service.session.engine.prepare(text, algorithm)


# ----------------------------------------------------------------------
# Registry lifecycle
# ----------------------------------------------------------------------
class TestRegistry:
    def test_register_resolve_deallocate(self, service):
        registry = PreparedRegistry()
        statement = registry.register(
            QUERY, "auto", lambda: _compile(service, QUERY))
        assert registry.resolve(statement.handle) is statement
        assert registry.deallocate(statement.handle) is True
        assert registry.deallocate(statement.handle) is False
        with pytest.raises(PreparedError, match="unknown prepared"):
            registry.resolve(statement.handle)

    def test_register_is_idempotent_per_shape(self, service):
        registry = PreparedRegistry()
        compiles = []

        def compile():
            compiles.append(1)
            return _compile(service, QUERY)

        first = registry.register(QUERY, "auto", compile)
        second = registry.register(QUERY, "auto", compile)
        assert first.handle == second.handle
        assert len(compiles) == 1
        assert registry.stats.deduped == 1
        # A different algorithm is a different shape.
        third = registry.register(QUERY, "lftj",
                                  lambda: _compile(service, QUERY, "lftj"))
        assert third.handle != first.handle

    def test_capacity_bound(self, service):
        registry = PreparedRegistry(max_statements=2)
        registry.register("a(x)", "auto", lambda: _compile(service, QUERY))
        registry.register("b(x)", "auto", lambda: _compile(service, QUERY))
        with pytest.raises(PreparedError, match="too many prepared"):
            registry.register("c(x)", "auto",
                              lambda: _compile(service, QUERY))

    def test_idle_ttl_expires_lazily_and_on_sweep(self, service):
        clock = [0.0]
        registry = PreparedRegistry(ttl=10.0, clock=lambda: clock[0])
        kept = registry.register(QUERY, "auto",
                                 lambda: _compile(service, QUERY))
        stale = registry.register("other(x)", "auto",
                                  lambda: _compile(service, QUERY))
        clock[0] = 8.0
        registry.resolve(kept.handle)  # touch: resets the idle clock
        clock[0] = 15.0
        assert registry.expire_idle() == [stale.handle]
        assert registry.resolve(kept.handle) is kept
        clock[0] = 40.0
        with pytest.raises(PreparedError, match="expired"):
            registry.resolve(kept.handle)  # lazy expiry between sweeps
        assert registry.stats.expired == 2
        assert registry.stats.active == 0

    def test_close_all(self, service):
        registry = PreparedRegistry()
        registry.register("a(x)", "auto", lambda: _compile(service, QUERY))
        registry.register("b(x)", "auto", lambda: _compile(service, QUERY))
        assert registry.close_all() == 2
        assert len(registry) == 0


# ----------------------------------------------------------------------
# Local session surface
# ----------------------------------------------------------------------
class TestLocalSession:
    def test_prepare_run_matches_plain_run(self):
        with Session(graph_database(14, 40, seed=5)) as session:
            expected = sorted(
                tuple(sorted((k.name, v) for k, v in b.items()))
                for b in session.run(QUERY)
            )
            handle = session.prepare(QUERY)
            # The local handle carries the engine's canonical text.
            assert handle.text.replace(" ", "") == QUERY.replace(" ", "")
            assert handle.algorithm != "auto"
            got = sorted(
                tuple(sorted((k.name, v) for k, v in b.items()))
                for b in handle.run()
            )
            assert got == expected
            assert handle.run().count() == len(expected)

    def test_zero_parses_after_local_prepare(self, monkeypatch):
        real = engine_module.parse_query
        calls = []

        def spy(text):
            calls.append(text)
            return real(text)

        monkeypatch.setattr(engine_module, "parse_query", spy)
        with Session(graph_database(10, 30, seed=3)) as session:
            handle = session.prepare("edge(p,q), edge(q,r), edge(r,s)")
            assert calls  # prepare itself parses, once
            parsed_during_prepare = len(calls)
            for _ in range(5):
                handle.run(use_cache=False).count()
            assert len(calls) == parsed_during_prepare

    def test_context_manager_and_explain(self):
        with Session(graph_database(10, 30, seed=3)) as session:
            with session.prepare(QUERY) as handle:
                report = handle.explain()
                assert report.as_dict()["algorithm"] == handle.algorithm


# ----------------------------------------------------------------------
# Remote sync surface
# ----------------------------------------------------------------------
class TestRemoteSession:
    def test_prepare_run_matches_plain_run(self, server):
        with RemoteSession(server.url) as session:
            expected = _normalized(session.run(QUERY).fetchall())
            handle = session.prepare(QUERY)
            assert handle.algorithm != "auto"
            assert _normalized(handle.run().fetchall()) == expected
            assert handle.run().count() == len(expected)
            handle.close()
            with pytest.raises(PreparedError, match="closed"):
                handle.run()
            handle.close()  # idempotent

    def test_prepare_is_idempotent_on_the_wire(self, server):
        with RemoteSession(server.url) as session:
            first = session.prepare(QUERY)
            second = session.prepare(QUERY)
            stats = session.stats()["prepared"]
            assert stats["deduped"] >= 1
            assert _normalized(first.run().fetchall()) == \
                _normalized(second.run().fetchall())

    def test_zero_parses_after_remote_prepare(self, server, monkeypatch):
        real = engine_module.parse_query
        calls = []

        def spy(text):
            calls.append(text)
            return real(text)

        monkeypatch.setattr(engine_module, "parse_query", spy)
        text = "edge(m,n), edge(n,o), edge(o,m)"  # not used elsewhere
        with RemoteSession(server.url) as session:
            handle = session.prepare(text)
            assert any(text == call for call in calls)
            parsed_during_prepare = len(calls)
            for _ in range(4):
                handle.run().fetchall()
                handle.run().count()
            assert len(calls) == parsed_during_prepare

    def test_execute_on_dead_handle_reprepares_transparently(self, server):
        with RemoteSession(server.url) as session:
            handle = session.prepare(QUERY)
            expected = _normalized(handle.run().fetchall())
            # Sabotage: deallocate server-side behind the client's back
            # (prepare answered with the handle it issued).
            body = session._request("deallocate",
                                    handle=handle._inner._meta["handle"])
            assert body["deallocated"]
            # The stale client-side mapping triggers PreparedError on the
            # wire; the session re-prepares on the same connection.
            assert _normalized(handle.run().fetchall()) == expected

    def test_handles_survive_ttl_expiry(self, service):
        with ServerThread(service, prepared_ttl=0.05,
                          max_prepared=8) as server:
            with RemoteSession(server.url) as session:
                handle = session.prepare(QUERY)
                expected = _normalized(handle.run().fetchall())
                import time
                time.sleep(0.2)  # let the handle idle out server-side
                assert _normalized(handle.run().fetchall()) == expected

    def test_stats_surface_prepared_counters(self, server):
        with RemoteSession(server.url) as session:
            session.prepare(QUERY).run().count()
            stats = session.stats()["prepared"]
            assert stats["prepared"] >= 1
            assert stats["executed"] >= 1
            assert stats["active"] >= 1


# ----------------------------------------------------------------------
# Async surface
# ----------------------------------------------------------------------
class TestAsyncSession:
    def test_prepare_run_matches_plain_run(self, server):
        async def go():
            session = await connect_async(server.url)
            try:
                expected = _normalized(
                    await (await session.run(QUERY)).fetchall())
                handle = await session.prepare(QUERY)
                assert handle.algorithm != "auto"
                got = _normalized(await (await handle.run()).fetchall())
                assert got == expected
                assert await (await handle.run()).count() == len(expected)
                await handle.close()
                with pytest.raises(PreparedError, match="closed"):
                    await handle.run()
            finally:
                await session.close()

        asyncio.run(go())

    def test_async_reprepares_after_server_deallocate(self, server):
        async def go():
            session = await connect_async(server.url)
            try:
                handle = await session.prepare(QUERY)
                expected = _normalized(
                    await (await handle.run()).fetchall())
                for wire_handle, _gen in list(session._prepared.values()):
                    await session._send("deallocate",
                                        {"handle": wire_handle})
                got = _normalized(await (await handle.run()).fetchall())
                assert got == expected
            finally:
                await session.close()

        asyncio.run(go())

    def test_async_pipelined_prepared_runs(self, server):
        async def go():
            session = await connect_async(server.url)
            try:
                handle = await session.prepare(QUERY)
                results = await asyncio.gather(*[
                    _drain(handle) for _ in range(6)
                ])
                assert len({tuple(r) for r in results}) == 1
            finally:
                await session.close()

        async def _drain(handle):
            result = await handle.run()
            return _normalized(await result.fetchall())

        asyncio.run(go())
