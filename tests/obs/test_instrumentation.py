"""Observability threaded through the stack: service, wire, clients.

The exactness hammer at the bottom is the point of the whole module:
one registry, hammered simultaneously by the service worker pool and
pipelined remote clients, must come out with exact counters.
"""

import asyncio
import re
import threading

import pytest

from repro.api.session import Session
from repro.net.client import RemoteSession, connect_async
from repro.net.server import ServerThread
from repro.obs.metrics import isolated_registry
from repro.service import QueryService, ServiceConfig

from tests.conftest import graph_database

TRIANGLE = "edge(a,b), edge(b,c), edge(a,c), a<b, b<c"
TWO_HOP = "edge(a,b), edge(b,c)"
PATH = "v1(a), edge(a,b), v2(b)"


@pytest.fixture
def database():
    return graph_database(14, 40, seed=5)


class TestServiceMetrics:
    def test_execute_counts_requests_and_caches(self, database):
        with isolated_registry() as registry:
            with QueryService(database) as service:
                service.execute(TRIANGLE, mode="count")
                service.execute(TRIANGLE, mode="count")  # result-cache hit
                # submit() goes through worker-pool admission.
                service.submit(TRIANGLE, mode="count").result()
            requests = registry.counter("repro_requests_total")
            assert requests.value(mode="count", outcome="ok") == 3
            cache = registry.counter("repro_cache_requests_total")
            assert cache.value(cache="result", event="hit") == 2
            assert registry.histogram("repro_query_seconds").total_count() \
                == 3
            admission = registry.counter("repro_admission_total")
            assert admission.value(decision="accepted") == 1
            assert registry.histogram(
                "repro_queue_wait_seconds").count() == 1

    def test_error_outcomes_are_labelled(self, database):
        with isolated_registry() as registry:
            with QueryService(database) as service:
                outcome = service.execute("nonsense(((", mode="count")
                assert not outcome.succeeded
            requests = registry.counter("repro_requests_total")
            assert requests.value(mode="count", outcome="error") == 1
            assert requests.value(mode="count", outcome="ok") == 0

    def test_slow_query_log_threshold_from_config(self, database):
        config = ServiceConfig(slow_query_seconds=0.0)  # record everything
        with isolated_registry() as registry:
            with QueryService(database, config) as service:
                outcome = service.execute(TRIANGLE, mode="count")
                assert len(service.slow_query_log) == 1
                entry = service.slow_query_log.recent()[0]
                # The recorded text is the parser's canonical form.
                assert entry["query"] == outcome.query
                assert entry["outcome"] == "ok"
            assert registry.counter(
                "repro_slow_queries_total").value() == 1

    def test_slow_query_log_disabled_by_none(self, database):
        config = ServiceConfig(slow_query_seconds=None)
        with isolated_registry():
            with QueryService(database, config) as service:
                service.execute(TRIANGLE, mode="count")
                assert len(service.slow_query_log) == 0

    def test_minesweeper_certificate_metrics(self, database):
        with isolated_registry() as registry:
            with Session(database) as session:
                session.run(PATH, algorithm="ms").fetchall()
            hist = registry.histogram("repro_ms_certificate_size")
            assert hist.count() >= 1
            assert registry.counter("repro_ms_probes_total").value() > 0


class TestWireMetrics:
    def test_server_counts_frames_bytes_and_requests(self, database):
        with isolated_registry() as registry:
            with QueryService(database) as service:
                with ServerThread(service) as server:
                    with RemoteSession(server.url) as session:
                        assert session.run(TRIANGLE).count() > 0
                        session.run(TWO_HOP).fetchall()
            frames = registry.counter("repro_server_frames_total")
            assert frames.value(direction="in", op="hello") >= 1
            assert frames.value(direction="in", op="count") == 1
            assert frames.value(direction="in", op="run") == 2
            assert frames.value(direction="in", op="fetch") >= 1
            bytes_total = registry.counter("repro_server_bytes_total")
            assert bytes_total.value(direction="in") > 0
            assert bytes_total.value(direction="out") > 0
            # Remote queries land on the request metrics even though they
            # bypass QueryService.execute.
            requests = registry.counter("repro_requests_total")
            assert requests.value(mode="count", outcome="ok") == 1
            assert requests.value(mode="tuples", outcome="ok") == 1
            assert registry.gauge("repro_server_inflight").value() == 0

    def test_metrics_op_returns_prometheus_text(self, database):
        with isolated_registry():
            with QueryService(database) as service:
                with ServerThread(service) as server:
                    with RemoteSession(server.url) as session:
                        session.run(TRIANGLE).count()
                        text = session.metrics()
        assert "# TYPE repro_requests_total counter" in text
        assert 'repro_requests_total{mode="count",outcome="ok"} 1' in text
        assert "# TYPE repro_ms_certificate_size histogram" in text

    def test_client_counters_and_stats(self, database):
        with isolated_registry() as registry:
            with QueryService(database) as service:
                with ServerThread(service) as server:
                    with RemoteSession(server.url) as session:
                        session.run(TRIANGLE).count()
                        session.run(TWO_HOP).count()
                        stats = session.stats()
            client = stats["client"]
            assert client == {"retries": 0, "reconnects": 0,
                              "generation": 1}
            assert registry.counter(
                "repro_client_retries_total").value() == client["retries"]
            assert registry.counter(
                "repro_client_reconnects_total").value() \
                == client["reconnects"]
            assert registry.counter("repro_client_bytes_total").value(
                direction="sent") > 0

    def test_trace_round_trips_over_the_wire(self, database):
        with isolated_registry():
            with QueryService(database) as service:
                with ServerThread(service) as server:
                    with RemoteSession(server.url) as session:
                        result = session.run(TRIANGLE, trace=True)
                        rows = result.fetchall()
                        trace = result.stats.trace
        assert rows
        assert trace is not None
        assert trace["root"]["name"] == "query"
        names = {child["name"]
                 for child in trace["root"].get("children", ())}
        assert "execute" in names

    def test_async_client_stats_report_generation(self, database):
        with isolated_registry():
            with QueryService(database) as service:
                with ServerThread(service) as server:

                    async def main():
                        async with await connect_async(server.url) \
                                as session:
                            result = await session.run(TRIANGLE)
                            count = await result.count()
                            stats = await session.stats()
                            return count, stats

                    count, stats = asyncio.run(main())
        assert count > 0
        client = stats["client"]
        assert client["retries"] == 0
        assert client["generation"] == 1
        assert client["reconnects"] == 0


class TestExactnessHammer:
    """Worker pool + pipelined remote clients against one registry."""

    SERVICE_THREADS = 4
    SERVICE_QUERIES = 15
    CLIENTS = 3
    CLIENT_QUERIES = 10

    def test_counters_exact_under_combined_load(self, database):
        queries = [TRIANGLE, TWO_HOP, PATH]
        with isolated_registry() as registry:
            config = ServiceConfig(workers=4)
            with QueryService(database, config) as service:
                with ServerThread(service) as server:
                    errors = []
                    barrier = threading.Barrier(self.SERVICE_THREADS + 1)

                    def service_worker(index: int) -> None:
                        barrier.wait()
                        try:
                            for i in range(self.SERVICE_QUERIES):
                                outcome = service.execute(
                                    queries[(index + i) % len(queries)],
                                    mode="count",
                                )
                                assert outcome.succeeded, outcome.error
                        except BaseException as error:  # pragma: no cover
                            errors.append(error)

                    async def client_load() -> None:
                        async def one_client() -> None:
                            async with await connect_async(server.url) \
                                    as s:
                                async def one(i: int) -> int:
                                    rs = await s.run(
                                        queries[i % len(queries)]
                                    )
                                    return await rs.count()

                                # Pipelined: every count in flight at
                                # once on one multiplexed connection.
                                await asyncio.gather(
                                    *(one(i)
                                      for i in range(self.CLIENT_QUERIES))
                                )

                        await asyncio.gather(
                            *(one_client() for _ in range(self.CLIENTS))
                        )

                    threads = [
                        threading.Thread(target=service_worker, args=(i,))
                        for i in range(self.SERVICE_THREADS)
                    ]
                    for thread in threads:
                        thread.start()
                    barrier.wait()
                    asyncio.run(client_load())
                    for thread in threads:
                        thread.join()
                    assert not errors

            expected = (self.SERVICE_THREADS * self.SERVICE_QUERIES
                        + self.CLIENTS * self.CLIENT_QUERIES)
            requests = registry.counter("repro_requests_total")
            assert requests.value(mode="count", outcome="ok") == expected
            assert requests.total() == expected
            # Latency histogram observed exactly once per request, and
            # the rendered cumulative buckets agree: every series'
            # +Inf bucket sums back to the same total.
            latency = registry.histogram("repro_query_seconds")
            assert latency.total_count() == expected
            inf_counts = re.findall(
                r'repro_query_seconds_bucket\{[^}]*le="\+Inf"\} (\d+)',
                registry.render(),
            )
            assert sum(int(count) for count in inf_counts) == expected
            # Every wire request decremented what it incremented.
            assert registry.gauge("repro_server_inflight").value() == 0
            # Frames: one count op per client query.
            frames = registry.counter("repro_server_frames_total")
            assert frames.value(direction="in", op="count") \
                == self.CLIENTS * self.CLIENT_QUERIES
