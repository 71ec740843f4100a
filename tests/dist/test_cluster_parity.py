"""Distributed parity: a :class:`ClusterSession` must return answers
identical to a single in-process :class:`Session` — for every registered
algorithm, both partitioning schemes, and 2- and 3-server fleets.

Shard disjointness is what makes the merge correct (counts sum, rows
concatenate); these tests are the empirical check of that invariant over
the same structural regimes the single-machine partitioner suite pins.
Error parity rides along: a cluster must surface the same error type a
local session would, not wrap it in transport noise.
"""

from typing import List, Tuple

import pytest

from repro.api.options import QueryOptions
from repro.api.session import Session, connect
from repro.dist import ClusterSession
from repro.engine import default_registry
from repro.errors import (
    OptionsError,
    ParseError,
    ReproError,
    UnknownAlgorithmError,
)
from repro.net.server import ServerThread
from repro.obs.metrics import isolated_registry
from repro.service import QueryService

from tests.conftest import graph_database

#: Every name in the default registry, paper aliases included.
ALGORITHMS = sorted(default_registry())

#: One query per structural regime the planner distinguishes.
QUERIES = (
    "edge(a,b), edge(b,c), edge(a,c), a<b, b<c",   # cyclic
    "v1(a), v2(c), edge(a,b), edge(b,c)",          # β-acyclic, sampled
)


@pytest.fixture(scope="module")
def service():
    with QueryService(graph_database(14, 40, seed=5)) as service:
        yield service


@pytest.fixture(scope="module")
def servers(service):
    # Three servers over one shared database: answers must not depend on
    # which server a shard lands on.
    started = [ServerThread(service).start() for _ in range(3)]
    yield started
    for server in started:
        server.stop()


@pytest.fixture(scope="module")
def local(service):
    with Session(service.database) as session:
        yield session


def _cluster_url(servers, count: int) -> str:
    hosts = [s.url.replace("repro://", "") for s in servers[:count]]
    return "repro://" + ",".join(hosts)


@pytest.fixture(scope="module", params=[2, 3], ids=["2servers", "3servers"])
def cluster(servers, request):
    with ClusterSession(_cluster_url(servers, request.param)) as session:
        yield session


def _sorted_rows(result_set) -> List[Tuple[Tuple[str, int], ...]]:
    # Normalize each row to sorted (column, value) pairs so parity does
    # not depend on either side's column order, then sort the bag.
    columns = [getattr(column, "name", column)
               for column in result_set.columns]
    return sorted(
        tuple(sorted(zip(columns, row))) for row in result_set.rows()
    )


@pytest.mark.parametrize("mode", ["hash", "hypercube"])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("query", QUERIES, ids=["cyclic", "acyclic"])
def test_cluster_matches_local(query, algorithm, mode, cluster, local):
    # The reference is a *partitioned* local run: distributing a query
    # means sharded execution, so an algorithm that rejects sharded
    # sub-queries (the clique-kernel baseline) must fail identically —
    # and one that accepts them must answer identically.
    try:
        expected = _sorted_rows(
            local.run(query, algorithm=algorithm, parallel=2,
                      partition_mode=mode)
        )
    except ReproError as error:
        with pytest.raises(type(error)):
            _sorted_rows(cluster.run(query, algorithm=algorithm,
                                     partition_mode=mode))
        return
    result = cluster.run(query, algorithm=algorithm, partition_mode=mode)
    assert _sorted_rows(result) == expected
    assert cluster.count(query, algorithm=algorithm,
                         partition_mode=mode) == len(expected)


@pytest.mark.parametrize("query", QUERIES, ids=["cyclic", "acyclic"])
def test_auto_mode_matches_local(query, cluster, local):
    expected = _sorted_rows(local.run(query))
    assert _sorted_rows(cluster.run(query)) == expected


@pytest.mark.parametrize("shards", [2, 3, 4, 5])
def test_explicit_shard_counts(shards, cluster, local):
    # More shards than servers wraps the round-robin deal; fewer leaves
    # servers idle — the answer must not notice either way.
    query = QUERIES[0]
    expected = _sorted_rows(local.run(query))
    result = cluster.run(query, parallel=shards)
    assert _sorted_rows(result) == expected
    assert result.shards == shards


def test_limit_pushdown_parity(cluster, local):
    query = QUERIES[0]
    total = local.run(query).count()
    limit = max(1, total - 3)
    assert cluster.count(query, limit=limit) == limit
    rows = _sorted_rows(cluster.run(query, limit=limit))
    assert len(rows) == limit
    # Every limited row is a genuine answer (a subset, not an invention).
    universe = set(_sorted_rows(local.run(query)))
    assert set(rows) <= universe


def test_serial_single_shard_proxies(cluster, local):
    query = QUERIES[0]
    result = cluster.run(query, parallel=1)
    assert result.shards == 1
    assert _sorted_rows(result) == _sorted_rows(local.run(query))


def test_variable_free_query_parity(cluster, local):
    # No variables → nothing to partition; the cluster proxies serially,
    # so whatever the engine says about Boolean queries (today: an
    # ExecutionError) surfaces identically — not the partitioner's
    # "cannot partition" complaint.
    query = "edge(1,2)"
    try:
        expected = local.run(query).count()
    except ReproError as error:
        with pytest.raises(type(error)):
            cluster.count(query)
        return
    assert cluster.count(query) == expected


class TestErrorParity:
    def test_parse_error(self, cluster):
        with pytest.raises(ParseError):
            cluster.run("edge(a,")

    def test_unknown_algorithm(self, cluster):
        with pytest.raises(UnknownAlgorithmError):
            cluster.run(QUERIES[0], algorithm="quantum")

    def test_bad_options(self, cluster):
        with pytest.raises(OptionsError):
            cluster.run(QUERIES[0], parallel=0)

    def test_prepared_after_close(self, cluster):
        from repro.errors import PreparedError

        handle = cluster.prepare(QUERIES[0])
        handle.close()
        with pytest.raises(PreparedError):
            handle.run()


def test_prepared_handles_match_adhoc(cluster, local):
    query = QUERIES[1]
    expected = _sorted_rows(local.run(query))
    with cluster.prepare(query) as handle:
        for _ in range(3):
            assert _sorted_rows(handle.run()) == expected


def test_explain_carries_distributed_section(cluster):
    report = cluster.explain(QUERIES[0]).as_dict()
    distributed = report["distributed"]
    assert distributed["servers"]["total"] == len(cluster.topology)
    assert distributed["shards"] == len(distributed["assignments"])
    assert distributed["shards"] >= 2
    # The base single-server report is intact underneath.
    assert report["algorithm"]
    assert "relation_estimates" in report


def test_connect_url_dispatches_to_cluster(servers, local):
    url = _cluster_url(servers, 2)
    with connect(url) as session:
        assert isinstance(session, ClusterSession)
        assert session.count(QUERIES[0]) == local.run(QUERIES[0]).count()


def test_dispatch_spreads_over_servers(servers, local):
    with ClusterSession(_cluster_url(servers, 3)) as session:
        expected = local.run(QUERIES[0]).count()
        assert session.count(QUERIES[0], parallel=3) == expected
        dispatched = [
            server["dispatched"]
            for server in session.stats()["topology"]["servers"]
        ]
        assert all(count >= 1 for count in dispatched)


def test_dist_metrics_observe_the_gather(servers, local):
    with isolated_registry() as registry:
        with ClusterSession(_cluster_url(servers, 2)) as session:
            list(session.run(QUERIES[0]).rows())
        counter = registry.get("repro_dist_shards_total")
        assert counter.value(event="dispatched") >= 2
        # The servers run in-process here, so their served increments
        # land in the same registry.
        assert counter.value(event="served") >= 2
        histogram = registry.get("repro_dist_server_seconds")
        assert histogram is not None
