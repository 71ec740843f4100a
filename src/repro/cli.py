"""Command-line interface for the repro library.

Ten subcommands cover the everyday workflows:

``repro datasets``
    List the dataset catalog (original SNAP sizes and the synthetic
    stand-in sizes).

``repro query``
    Run one query — either a named benchmark pattern or a Datalog-style
    query text — over a catalog dataset with a chosen join algorithm,
    or (``--connect repro://host:port``) against a running ``repro
    server`` over the wire protocol, or (``--cluster
    repro://h1:p1,h2:p2``) sharded across a fleet of servers.

``repro explain``
    Show the structured plan report for a query without executing it:
    acyclicity class, attribute order, chosen algorithm and why,
    partitioning scheme, and statistics-based size estimates.

``repro bench``
    Run a small benchmark grid (systems × datasets × queries) and print
    the paper-style table.

``repro analyze``
    Two modes.  With a query argument: EXPLAIN ANALYZE — run the query
    traced and print the plan report annotated with actual per-operator
    timings, row counts, and cache provenance; with ``--cluster``, the
    distributed run appends a per-shard timeline (dispatch → queue →
    execute → transfer → merge) with hedge/re-route/straggler
    annotations.  Without one: graph analytics over a dataset (size,
    triangle count, connected components, top PageRank nodes).

``repro metrics``
    Dump the metrics registry in Prometheus text format — the local
    process registry, (``--connect``) a running server's registry over
    the wire protocol's ``metrics`` op, or (``--cluster``) every server
    of a fleet merged into one text with ``server="host:port"`` labels
    plus the coordinator's ``repro_fleet_*`` rollups.

``repro events``
    Dump the query flight recorder — the bounded ring of recent query
    events (trace id, outcome, latency, shard → server map) kept by
    this process, one server (``--connect``), or a whole fleet merged
    and time-ordered (``--cluster``).

``repro serve``
    Start a :class:`~repro.service.QueryService` over a dataset and answer
    query lines read from stdin (an interactive/testable stand-in for a
    network front end).

``repro server``
    The real network front end: an asyncio TCP server speaking the
    :mod:`repro.net` wire protocol, with server-side cursors and
    graceful SIGINT/SIGTERM shutdown.  Clients connect with
    ``repro.connect("repro://host:port")`` or ``repro query --connect``.

``repro workload``
    Drive a declarative workload (query mix + parameter distributions)
    through the service and report throughput, latency percentiles, and
    cache effectiveness — including the cached-vs-cold comparison.
    With ``--cluster``, the same stream fans out over a fleet of
    ``repro server`` processes instead.

Errors are uniform: every failure prints a one-line message to stderr and
exits with a failure-specific code (see the ``EXIT_*`` constants) instead
of a traceback — parse failures, unknown algorithms, invalid options, and
timeouts are each distinguishable by a shell script.

The module is also importable: :func:`main` takes an argument list and
returns a process exit code, which is how the tests drive it.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional, Sequence, Tuple

from repro import __version__ as repro_version
from repro.analytics.graph_algorithms import connected_components, pagerank
from repro.api.options import QueryOptions
from repro.api.session import Session
from repro.bench.harness import BenchmarkConfig, run_cached_vs_cold, run_grid
from repro.bench.reporting import format_table
from repro.data.catalog import DATASET_CATALOG, dataset_names, load_dataset
from repro.data.sampling import attach_samples
from repro.datalog.parser import parse_query
from repro.errors import (
    OptionsError,
    ParseError,
    ReproError,
    TimeoutExceeded,
    UnknownAlgorithmError,
)
from repro.joins.graph_engine import GraphEngine
from repro.obs.analyze import explain_analyze
from repro.obs.logs import configure_logging, get_logger
from repro.obs.metrics import global_registry
from repro.queries.patterns import QUERY_PATTERNS, build_query, pattern
from repro.service import (
    QueryService,
    ServiceConfig,
    WorkloadRunner,
    WorkloadSpec,
)
from repro.storage import Database

#: Distinct process exit codes, one per failure class (2 is argparse's).
EXIT_ERROR = 1              # any other library error
EXIT_USAGE = 2              # bad command line (argparse)
EXIT_PARSE = 3              # query text could not be parsed
EXIT_UNKNOWN_ALGORITHM = 4  # algorithm not in the engine registry
EXIT_BAD_OPTIONS = 5        # invalid query options (parallel < 1, ...)
EXIT_TIMEOUT = 6            # soft timeout exceeded


def _add_target_arguments(sub: argparse.ArgumentParser) -> None:
    """The shared "which query on which dataset, how" argument block."""
    sub.add_argument("--dataset", choices=dataset_names(),
                     help="catalog dataset to query (omit with "
                          "--connect/--cluster)")
    sub.add_argument("--connect", metavar="URL", default=None,
                     help="run against a repro server at repro://host:port "
                          "instead of loading the dataset in-process")
    sub.add_argument("--cluster", metavar="URL", default=None,
                     help="shard the query across the servers of a "
                          "repro://h1:p1,h2:p2,... cluster (one shard per "
                          "server unless --parallel overrides)")
    # Default None so "explicitly asked" is distinguishable: this tunes
    # the remote client and is a contradiction without --connect or
    # --cluster, not a silently ignored knob.
    sub.add_argument("--retries", type=int, default=None, metavar="N",
                     help="with --connect: how many times an idempotent "
                          "request is replayed with backoff after a "
                          "connection failure (default: 2)")
    sub.add_argument("--fetch-size", type=int, default=None, metavar="K",
                     help="with --connect: rows per page when streaming "
                          "results from the server-side cursor "
                          "(default: 512)")
    sub.add_argument("--route", choices=("client", "peer"), default=None,
                     help="where distributed coordination happens: "
                          "'client' fans shards out from this process, "
                          "'peer' hands the query to one server which "
                          "sub-shards across its peers and merges "
                          "server-side (needs --connect against a "
                          "--peers server, or --cluster)")
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--pattern", choices=sorted(QUERY_PATTERNS),
                      help="named benchmark pattern")
    group.add_argument("--text", help="Datalog-style query text")
    sub.add_argument("--algorithm", default="auto",
                     help="join algorithm (default: auto)")
    # Default None so the remote path can tell "explicitly asked" from
    # "left alone": the server owns its dataset, so --selectivity with
    # --connect is a contradiction, not a silently ignored knob.
    sub.add_argument("--selectivity", type=int, default=None,
                     help="node-sample selectivity for patterns that need "
                          "v1/v2 relations (default: 10)")
    sub.add_argument("--scale", type=float, default=1.0,
                     help="dataset scale factor (default: 1.0)")
    sub.add_argument("--parallel", type=int, default=1, metavar="N",
                     help="partition the query into N shards evaluated on "
                          "N worker processes (default: 1, serial)")
    sub.add_argument("--partition-mode", default="auto",
                     choices=("auto", "hash", "hypercube"),
                     help="partitioning scheme for --parallel (default: auto)")


def _add_logging_arguments(sub: argparse.ArgumentParser) -> None:
    """The shared structured-logging knobs for the serving front ends."""
    sub.add_argument("--log-level", default="info",
                     choices=("debug", "info", "warning", "error"),
                     help="JSON log verbosity on stderr (default: info)")
    sub.add_argument("--slow-query-threshold", type=float, default=1.0,
                     metavar="SECONDS",
                     help="log queries at least this slow to the "
                          "slow-query log (0 records every query, "
                          "default: 1.0)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Worst-case optimal and beyond-worst-case join processing "
                    "for graph patterns (Nguyen et al., 2015 reproduction).",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {repro_version}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("datasets", help="list the dataset catalog")

    query = subparsers.add_parser("query", help="run one query on a dataset")
    _add_target_arguments(query)
    query.add_argument("--timeout", type=float, default=None,
                       help="soft timeout in seconds")
    query.add_argument("--limit", type=int, default=None, metavar="K",
                       help="stop after K output tuples (streamed lazily)")

    explain = subparsers.add_parser(
        "explain", help="show the plan for a query without executing it"
    )
    _add_target_arguments(explain)
    explain.add_argument("--json", action="store_true",
                         help="emit the structured report as JSON")

    bench = subparsers.add_parser("bench", help="run a small benchmark grid")
    bench.add_argument("--systems", default="lb/lftj,lb/ms,psql",
                       help="comma-separated system names")
    bench.add_argument("--datasets", default="ca-GrQc,p2p-Gnutella04",
                       help="comma-separated dataset names")
    bench.add_argument("--queries", default="3-clique",
                       help="comma-separated pattern names")
    bench.add_argument("--selectivity", type=int, default=10,
                       help="selectivity for acyclic patterns (default: 10)")
    bench.add_argument("--timeout", type=float, default=30.0,
                       help="per-cell soft timeout in seconds (default: 30)")
    bench.add_argument("--parallel", type=int, default=1, metavar="N",
                       help="evaluate every cell partitioned into N shards "
                            "on N worker processes (default: 1, serial)")
    bench.add_argument("--partition-mode", default="auto",
                       choices=("auto", "hash", "hypercube"),
                       help="partitioning scheme for --parallel (default: auto)")

    analyze = subparsers.add_parser(
        "analyze",
        help="EXPLAIN ANALYZE a query (or graph analytics on a dataset)",
    )
    analyze.add_argument("query", nargs="?", default=None,
                         help="Datalog-style query text to EXPLAIN ANALYZE; "
                              "omit for dataset-level graph analytics")
    analyze.add_argument("--dataset", choices=dataset_names(),
                         help="catalog dataset (default for query mode: "
                              "ca-GrQc; required for analytics mode)")
    analyze.add_argument("--connect", metavar="URL", default=None,
                         help="with a query: run it against a repro server "
                              "at repro://host:port instead of in-process")
    analyze.add_argument("--cluster", metavar="URL", default=None,
                         help="with a query: shard it across a "
                              "repro://h1:p1,h2:p2,... fleet and append "
                              "the per-shard timeline")
    analyze.add_argument("--route", choices=("client", "peer"),
                         default=None,
                         help="with --connect/--cluster: where distributed "
                              "coordination happens (peer = one server of "
                              "the fleet merges; default: client)")
    analyze.add_argument("--algorithm", default="auto",
                         help="with a query: join algorithm (default: auto)")
    analyze.add_argument("--timeout", type=float, default=None,
                         help="with a query: soft timeout in seconds")
    analyze.add_argument("--selectivity", type=int, default=10,
                         help="with a query: selectivity of the attached "
                              "v1..v4 node samples (default: 10)")
    analyze.add_argument("--json", action="store_true",
                         help="with a query: emit the annotated report "
                              "as JSON")
    analyze.add_argument("--top", type=int, default=5,
                         help="how many PageRank nodes to show (default: 5)")

    metrics = subparsers.add_parser(
        "metrics", help="dump metrics in Prometheus text format"
    )
    metrics.add_argument("--connect", metavar="URL", default=None,
                         help="scrape a running repro server at "
                              "repro://host:port instead of this process")
    metrics.add_argument("--cluster", metavar="URL", default=None,
                         help="scrape every server of a "
                              "repro://h1:p1,h2:p2,... fleet into one "
                              "Prometheus text with server=\"...\" labels")

    events = subparsers.add_parser(
        "events", help="dump the query flight recorder"
    )
    events.add_argument("--json", action="store_true",
                        help="emit events as JSON, one object per line")
    events.add_argument("--limit", type=int, default=None,
                        help="only the most recent N events")
    events.add_argument("--connect", metavar="URL", default=None,
                        help="pull a running repro server's flight "
                             "recorder at repro://host:port instead of "
                             "this process's")
    events.add_argument("--cluster", metavar="URL", default=None,
                        help="merge the flight recorders of every server "
                             "of a repro://h1:p1,h2:p2,... fleet, "
                             "time-ordered")

    serve = subparsers.add_parser(
        "serve", help="answer query lines from stdin through the query service"
    )
    serve.add_argument("--dataset", required=True, choices=dataset_names(),
                       help="catalog dataset to serve")
    serve.add_argument("--selectivity", type=int, default=10,
                       help="selectivity of the attached v1..v4 node samples "
                            "(default: 10)")
    serve.add_argument("--workers", type=int, default=4,
                       help="worker pool width (default: 4)")
    serve.add_argument("--timeout", type=float, default=None,
                       help="per-query soft timeout in seconds")
    serve.add_argument("--scale", type=float, default=1.0,
                       help="dataset scale factor (default: 1.0)")
    serve.add_argument("--parallel", type=int, default=1, metavar="N",
                       help="partition each query into N shards evaluated on "
                            "N worker processes (default: 1, serial)")
    serve.add_argument("--partition-mode", default="auto",
                       choices=("auto", "hash", "hypercube"),
                       help="partitioning scheme for --parallel (default: auto)")
    _add_logging_arguments(serve)

    server = subparsers.add_parser(
        "server", help="serve queries over TCP (repro:// wire protocol)"
    )
    server.add_argument("--dataset", required=True, choices=dataset_names(),
                        help="catalog dataset to serve")
    server.add_argument("--host", default="127.0.0.1",
                        help="bind address (default: 127.0.0.1)")
    server.add_argument("--port", type=int, default=9944,
                        help="bind port, 0 for ephemeral (default: 9944)")
    server.add_argument("--selectivity", type=int, default=10,
                        help="selectivity of the attached v1..v4 node "
                             "samples (default: 10)")
    server.add_argument("--scale", type=float, default=1.0,
                        help="dataset scale factor (default: 1.0)")
    server.add_argument("--workers", type=int, default=4,
                        help="worker pool width (default: 4)")
    server.add_argument("--timeout", type=float, default=None,
                        help="per-query soft timeout in seconds")
    server.add_argument("--cursor-ttl", type=float, default=300.0,
                        help="idle seconds before a server-side cursor "
                             "expires (default: 300)")
    server.add_argument("--prepared-ttl", type=float, default=300.0,
                        help="idle seconds before a prepared statement "
                             "expires (default: 300)")
    server.add_argument("--max-prepared", type=int, default=64,
                        help="prepared statements one connection may hold "
                             "(default: 64)")
    server.add_argument("--parallel", type=int, default=1, metavar="N",
                        help="partition each query into N shards evaluated "
                             "on N worker processes (default: 1, serial)")
    server.add_argument("--partition-mode", default="auto",
                        choices=("auto", "hash", "hypercube"),
                        help="partitioning scheme for --parallel "
                             "(default: auto)")
    server.add_argument("--peers", metavar="H1:P1,H2:P2,...", default=None,
                        help="comma-separated host:port fleet this server "
                             "belongs to (normally including itself); "
                             "enables peer coordination — cluster_* "
                             "frames make this server sub-shard across "
                             "the fleet and merge server-side")
    _add_logging_arguments(server)

    workload = subparsers.add_parser(
        "workload", help="drive a workload through the query service"
    )
    workload.add_argument("--dataset", required=True, choices=dataset_names(),
                          help="catalog dataset to serve (with --cluster: "
                               "used only to instantiate the workload mix; "
                               "the servers own the data)")
    workload.add_argument("--cluster", metavar="URL", default=None,
                          help="drive the workload through a "
                               "repro://h1:p1,h2:p2,... cluster instead of "
                               "an in-process query service")
    workload.add_argument("--spec", default=None,
                          help="JSON workload spec (default: built-in mix)")
    workload.add_argument("--operations", type=int, default=None,
                          help="override the spec's operation count")
    workload.add_argument("--qps", type=float, default=None,
                          help="target request rate (default: open throttle)")
    workload.add_argument("--workers", type=int, default=4,
                          help="worker pool width (default: 4)")
    workload.add_argument("--seed", type=int, default=None,
                          help="override the spec's random seed")
    workload.add_argument("--selectivity", type=int, default=10,
                          help="selectivity of attached node samples "
                               "(default: 10)")
    workload.add_argument("--timeout", type=float, default=None,
                          help="per-query soft timeout in seconds")
    workload.add_argument("--scale", type=float, default=1.0,
                          help="dataset scale factor (default: 1.0)")
    workload.add_argument("--prepare", action="store_true",
                          help="prepare each distinct query shape once and "
                               "execute by compiled handle (zero re-parses)")
    workload.add_argument("--compare-cold", action="store_true",
                          help="also measure an uncached engine loop on a "
                               "repeated-query stream and report the speedup")
    workload.add_argument("--parallel", type=int, default=1, metavar="N",
                          help="partition each query into N shards evaluated "
                               "on N worker processes (default: 1, serial)")
    workload.add_argument("--partition-mode", default="auto",
                          choices=("auto", "hash", "hypercube"),
                          help="partitioning scheme for --parallel "
                               "(default: auto)")
    return parser


# ----------------------------------------------------------------------
# Subcommand implementations
# ----------------------------------------------------------------------
def _cmd_datasets() -> int:
    print(f"{'dataset':<20} {'paper nodes':>12} {'paper edges':>12} "
          f"{'stand-in edges':>15}  regime")
    for name in dataset_names():
        spec = DATASET_CATALOG[name]
        stand_in = len(load_dataset(name)) // 2
        print(f"{name:<20} {spec.paper_nodes:>12,} {spec.paper_edges:>12,} "
              f"{stand_in:>15,}  {spec.regime}")
    return 0


def _remote_query(args: argparse.Namespace):
    """The query a remote target runs, built before anything is dialled:
    a parse error must not leave a connected session (and its loop
    thread) behind."""
    return pattern(args.pattern).build() if args.pattern \
        else parse_query(args.text)


def _target_session(args: argparse.Namespace,
                    timeout: Optional[float] = None) -> Tuple[object, object]:
    """Build the (session, query) pair a query/explain invocation targets.

    Options validate first — an invalid ``--parallel`` is rejected before
    the dataset is even loaded (or the server even dialled).  With
    ``--connect`` the session is a :class:`~repro.net.client.RemoteSession`
    against a running ``repro server``, which owns the dataset (and its
    node samples); without it, the dataset loads in-process.
    """
    options = QueryOptions(timeout=timeout, parallel=args.parallel,
                           partition_mode=args.partition_mode,
                           fetch_size=args.fetch_size,
                           route=getattr(args, "route", None))
    if args.cluster:
        if args.connect:
            raise OptionsError(
                "--connect targets one server and --cluster a fleet; "
                "pass one of them"
            )
        if args.scale != 1.0 or args.selectivity is not None:
            raise OptionsError(
                "--scale/--selectivity shape an in-process dataset; "
                "the servers at --cluster own their own"
            )
        from repro.dist import ClusterSession
        from repro.net.client import DEFAULT_RETRIES

        query = _remote_query(args)
        # --parallel left at its default (1) means "one shard per
        # healthy server" for a cluster target — sharding is the point.
        session = ClusterSession(
            args.cluster,
            options=options if args.parallel != 1
            else QueryOptions(timeout=timeout,
                              partition_mode=args.partition_mode,
                              fetch_size=args.fetch_size,
                              route=getattr(args, "route", None)),
            retries=DEFAULT_RETRIES if args.retries is None
            else args.retries,
        )
        return session, query
    if args.connect:
        if args.scale != 1.0 or args.selectivity is not None:
            # Same rule as repro.connect("repro://..."): the server owns
            # its database, so dataset-shaping flags cannot apply.
            raise OptionsError(
                "--scale/--selectivity shape an in-process dataset; "
                "the server at --connect owns its own"
            )
        from repro.net.client import DEFAULT_RETRIES, RemoteSession

        query = _remote_query(args)
        session: object = RemoteSession(
            args.connect, options=options,
            retries=DEFAULT_RETRIES if args.retries is None
            else args.retries,
        )
        return session, query
    if args.retries is not None:
        raise OptionsError(
            "--retries tunes the remote client's reconnect policy and "
            "needs --connect or --cluster"
        )
    if args.fetch_size is not None:
        raise OptionsError(
            "--fetch-size tunes remote cursor paging and needs --connect"
        )
    if getattr(args, "route", None) is not None:
        raise OptionsError(
            "--route picks where distributed coordination happens and "
            "needs --connect or --cluster; an in-process session has no "
            "fleet to route over"
        )
    if not args.dataset:
        raise OptionsError(
            "either --dataset, --connect, or --cluster is required"
        )
    database = Database([load_dataset(args.dataset, scale=args.scale)])
    if args.pattern:
        spec = pattern(args.pattern)
        if spec.sample_relations:
            attach_samples(database,
                           args.selectivity if args.selectivity is not None
                           else 10,
                           sample_names=spec.sample_relations)
        query = spec.build()
    else:
        query = parse_query(args.text)
    return Session(database, options=options), query


def _cmd_query(args: argparse.Namespace) -> int:
    session, query = _target_session(args, timeout=args.timeout)
    with session:
        result_set = session.run(query, algorithm=args.algorithm,
                                 limit=args.limit)
        count = result_set.count()
        stats = result_set.stats
    label = args.pattern or args.text
    target = args.cluster or args.connect or args.dataset
    sharding = f", {stats.shards} shards" if stats.shards > 1 else ""
    limited = f" (limit {args.limit})" if args.limit is not None else ""
    print(f"{label} on {target}: {count:,} results{limited} in "
          f"{stats.seconds:.3f}s using {stats.algorithm}{sharding}")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    session, query = _target_session(args)
    with session:
        report = session.explain(query, algorithm=args.algorithm)
    if args.json:
        print(json.dumps(report.as_dict(), indent=2))
    else:
        print(report.render())
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    config = BenchmarkConfig(timeout=args.timeout, repetitions=1,
                             warmup_discard=0, parallel=args.parallel,
                             partition_mode=args.partition_mode)
    cells = run_grid(
        systems=[s.strip() for s in args.systems.split(",") if s.strip()],
        dataset_names=[d.strip() for d in args.datasets.split(",") if d.strip()],
        query_names=[q.strip() for q in args.queries.split(",") if q.strip()],
        selectivities=(args.selectivity,),
        config=config,
    )
    for query_name in {cell.query for cell in cells}:
        subset = [cell for cell in cells if cell.query == query_name]
        print(format_table(f"{query_name} (seconds, '-' = timeout/unsupported)",
                           subset, rows="dataset", columns="system"))
        print()
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    if args.query is not None:
        return _cmd_explain_analyze(args)
    if args.connect or args.cluster:
        raise OptionsError(
            "--connect/--cluster need a query argument (EXPLAIN ANALYZE "
            "mode); dataset analytics run in-process"
        )
    if not args.dataset:
        raise OptionsError(
            "analytics mode needs --dataset (pass a query argument for "
            "EXPLAIN ANALYZE instead)"
        )
    edge = load_dataset(args.dataset)
    database = Database([edge])
    nodes = edge.active_domain()
    started = time.perf_counter()
    triangles = GraphEngine().count(database, build_query("3-clique"))
    triangle_seconds = time.perf_counter() - started
    components = connected_components(database)
    component_count = len(set(components.values()))
    ranks = pagerank(database)
    top = sorted(ranks.items(), key=lambda item: -item[1])[:args.top]

    print(f"dataset: {args.dataset}")
    print(f"  nodes: {len(nodes):,}")
    print(f"  undirected edges: {len(edge) // 2:,}")
    print(f"  triangles: {triangles:,} (counted in {triangle_seconds:.3f}s)")
    print(f"  connected components: {component_count}")
    print(f"  top-{args.top} PageRank nodes: "
          + ", ".join(f"{node} ({rank:.4f})" for node, rank in top))
    return 0


def _cmd_explain_analyze(args: argparse.Namespace) -> int:
    """EXPLAIN ANALYZE: run the query traced; print the annotated plan."""
    query = parse_query(args.query)
    route = getattr(args, "route", None)
    if route and not (args.cluster or args.connect):
        raise OptionsError(
            "--route picks where distributed coordination happens; it "
            "needs --connect or --cluster"
        )
    if args.cluster:
        if args.connect:
            raise OptionsError(
                "--connect targets one server and --cluster a fleet; "
                "pass one of them"
            )
        from repro.dist import ClusterSession

        session: object = ClusterSession(args.cluster)
    elif args.connect:
        from repro.net.client import RemoteSession

        session = RemoteSession(args.connect)
    else:
        database = Database([load_dataset(args.dataset or "ca-GrQc")])
        attach_samples(database, args.selectivity,
                       sample_names=("v1", "v2", "v3", "v4"))
        session = Session(database)
    with session:
        report = explain_analyze(session, query, algorithm=args.algorithm,
                                 timeout=args.timeout, route=route)
    if args.json:
        print(json.dumps(report.as_dict(), indent=2))
    else:
        print(report.render())
        if args.cluster or route == "peer":
            from repro.obs.fleet import render_timeline

            print()
            print(render_timeline(report.trace))
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    if args.cluster and args.connect:
        raise OptionsError(
            "--connect targets one server and --cluster a fleet; "
            "pass one of them"
        )
    if args.cluster:
        from repro.dist import ClusterSession

        with ClusterSession(args.cluster) as cluster:
            text = cluster.metrics()
    elif args.connect:
        from repro.net.client import RemoteSession

        with RemoteSession(args.connect) as session:
            text = session.metrics()
    else:
        text = global_registry().render()
    print(text, end="" if text.endswith("\n") else "\n")
    return 0


def _cmd_events(args: argparse.Namespace) -> int:
    """Dump the query flight recorder — local, one server, or a fleet."""
    if args.cluster and args.connect:
        raise OptionsError(
            "--connect targets one server and --cluster a fleet; "
            "pass one of them"
        )
    if args.limit is not None and args.limit < 1:
        raise OptionsError(
            f"--limit must be a positive number of events, got "
            f"{args.limit} (omit it for the whole ring)"
        )
    if args.cluster:
        from repro.dist import ClusterSession

        with ClusterSession(args.cluster) as cluster:
            events = cluster.events(args.limit)
    elif args.connect:
        from repro.net.client import RemoteSession

        with RemoteSession(args.connect) as session:
            events = session.events(args.limit)
    else:
        from repro.obs.events import global_events

        events = global_events().snapshot(args.limit)
    if args.json:
        for event in events:
            print(json.dumps(event, sort_keys=True))
    else:
        from repro.obs.events import format_event

        for event in events:
            print(format_event(event))
        if not events:
            print("(no recorded events)")
    return 0


def _service_database(dataset: str, selectivity: int,
                      scale: float) -> Database:
    """The dataset plus v1..v4 node samples, so every pattern is runnable."""
    database = Database([load_dataset(dataset, scale=scale)])
    attach_samples(database, selectivity,
                   sample_names=("v1", "v2", "v3", "v4"))
    return database


def _graceful_sigterm() -> None:
    """Make SIGTERM interrupt like Ctrl-C so ``finally``/context managers run.

    A drained worker pool and closed caches beat a traceback: ``repro
    serve`` / ``repro server`` catch the resulting KeyboardInterrupt and
    shut down cleanly.  A no-op off the main thread (tests drive the CLI
    in-process).
    """
    import signal

    def _handler(signum, frame):
        raise KeyboardInterrupt

    try:
        signal.signal(signal.SIGTERM, _handler)
    except ValueError:
        pass


def _cmd_serve(args: argparse.Namespace) -> int:
    configure_logging(level=args.log_level)
    log = get_logger("cli")
    database = _service_database(args.dataset, args.selectivity, args.scale)
    config = ServiceConfig(workers=args.workers, default_timeout=args.timeout,
                           parallel_shards=args.parallel,
                           partition_mode=args.partition_mode,
                           slow_query_seconds=args.slow_query_threshold)
    _graceful_sigterm()
    with QueryService(database, config) as service:
        log.info("serving %s on stdin", args.dataset,
                 extra={"data": {"dataset": args.dataset,
                                 "workers": args.workers,
                                 "edges": len(database.relation("edge"))}})
        print(f"serving {args.dataset} "
              f"({database.relation('edge').arity}-ary edge relation, "
              f"{len(database.relation('edge')):,} tuples); "
              f"one query per line, blank line or EOF to stop")
        try:
            for line in sys.stdin:
                text = line.strip()
                if not text:
                    break
                outcome = service.execute(text)
                if outcome.timed_out:
                    print(f"timeout after {outcome.seconds:.3f}s")
                elif outcome.error:
                    print(f"error: {outcome.error}")
                else:
                    cache = ("result-cache" if outcome.result_cached
                             else "plan-cache" if outcome.plan_cached
                             else "cold")
                    print(f"{outcome.count:,} results in "
                          f"{outcome.seconds:.4f}s "
                          f"[{outcome.algorithm}, {cache}]")
        except KeyboardInterrupt:
            print("interrupted; draining", flush=True)
        stats = service.stats().as_dict()
    log.info("serve loop finished", extra={"data": stats})
    print("served: " + ", ".join(f"{k}={v}" for k, v in stats.items()))
    return 0


def _cmd_server(args: argparse.Namespace) -> int:
    from repro.net.server import ReproServer

    configure_logging(level=args.log_level)
    log = get_logger("cli")
    database = _service_database(args.dataset, args.selectivity, args.scale)
    config = ServiceConfig(workers=args.workers, default_timeout=args.timeout,
                           parallel_shards=args.parallel,
                           partition_mode=args.partition_mode,
                           slow_query_seconds=args.slow_query_threshold)
    _graceful_sigterm()
    with QueryService(database, config) as service:
        server = ReproServer(service, host=args.host, port=args.port,
                             cursor_ttl=args.cursor_ttl,
                             prepared_ttl=args.prepared_ttl,
                             max_prepared=args.max_prepared,
                             peers=args.peers)

        def ready(srv: ReproServer) -> None:
            log.info("server ready on %s", srv.url,
                     extra={"data": {"dataset": args.dataset,
                                     "url": srv.url,
                                     "workers": args.workers}})
            print(f"serving {args.dataset} "
                  f"({len(database.relation('edge')):,} edge tuples) "
                  f"on {srv.url}; SIGINT/SIGTERM to stop", flush=True)

        try:
            # Blocks until SIGINT/SIGTERM: the server stops accepting,
            # closes every open cursor, and returns; the service context
            # then drains the worker pool.
            server.run(ready=ready)
        except KeyboardInterrupt:
            pass
        stats = service.stats().as_dict()
    log.info("server stopped", extra={"data": stats})
    print("server stopped; "
          + ", ".join(f"{k}={v}" for k, v in stats.items()))
    return 0


def _default_workload(database: Database, operations: int,
                      seed: int) -> WorkloadSpec:
    """A built-in LDBC-flavoured mix: hot-node 2-hops, triangles, 3-paths."""
    nodes = sorted(database.relation("edge").active_domain())
    domain = nodes[:min(len(nodes), 64)]
    return WorkloadSpec.from_dict({
        "name": "default-mix",
        "operations": operations,
        "seed": seed,
        "queries": [
            {"name": "two-hop", "weight": 4,
             "template": "edge({src}, b), edge(b, c)",
             "parameters": [{"name": "src", "distribution": "zipf",
                             "skew": 1.2, "values": domain}]},
            {"name": "triangle", "weight": 2,
             "template": "edge(a, b), edge(b, c), edge(a, c), a < b, b < c"},
            {"name": "3-path", "weight": 1,
             "template": "v1(a), v2(d), edge(a, b), edge(b, c), edge(c, d)"},
        ],
    })


def _run_cluster_workload(args: argparse.Namespace, spec) -> int:
    """Drive the instantiated workload stream through a cluster.

    Each request fans out as shards over the cluster's servers; a local
    thread pool (``--workers``) keeps ``--qps``-many requests in flight,
    mirroring the in-process runner's open-loop pacing closely enough
    for the same percentile table to be meaningful.
    """
    from concurrent.futures import ThreadPoolExecutor

    from repro.dist import ClusterSession
    from repro.service.workload import WorkloadReport

    report = WorkloadReport(
        name=spec.name, operations=spec.operations,
        succeeded=0, rejected=0, failed=0, elapsed_seconds=0.0,
    )
    options = QueryOptions(
        timeout=args.timeout,
        parallel=args.parallel if args.parallel != 1 else None,
        partition_mode=args.partition_mode,
    )
    with ClusterSession(args.cluster, options=options) as session, \
            ThreadPoolExecutor(max_workers=args.workers) as pool:
        prepared = {}

        def _execute(query, text):
            if args.prepare:
                handle = prepared.get((text, query.algorithm))
                if handle is None:
                    handle = session.prepare(text,
                                             algorithm=query.algorithm)
                    prepared[(text, query.algorithm)] = handle
                result = handle.run()
            else:
                result = session.run(text, algorithm=query.algorithm)
            try:
                return result.count() if query.mode == "count" \
                    else sum(1 for _ in result.rows())
            finally:
                result.close()

        interval = (1.0 / spec.qps) if spec.qps else 0.0
        started = time.perf_counter()
        pending = []
        for index, (query, text) in enumerate(spec.requests()):
            if interval:
                slot = started + index * interval
                delay = slot - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
            issued = time.perf_counter()
            pending.append(
                (query.name, issued, pool.submit(_execute, query, text))
            )
        for name, issued, future in pending:
            try:
                future.result()
            except ReproError:
                report.failed += 1
                continue
            report.succeeded += 1
            latency = time.perf_counter() - issued
            report.latencies_by_query.setdefault(name, []).append(latency)
        report.elapsed_seconds = time.perf_counter() - started
        topology = session.stats()["topology"]
        report.service_stats = {
            "cluster_servers": topology["total"],
            "cluster_healthy": topology["healthy"],
            "shards_dispatched": sum(
                server["dispatched"] for server in topology["servers"]
            ),
        }
    print(report.format())
    return 0 if report.failed == 0 else 2


def _cmd_workload(args: argparse.Namespace) -> int:
    database = _service_database(args.dataset, args.selectivity, args.scale)
    if args.spec:
        spec = WorkloadSpec.from_json(args.spec)
    else:
        spec = _default_workload(database, operations=args.operations or 200,
                                 seed=args.seed if args.seed is not None else 0)
    overrides = {}
    if args.operations is not None:
        overrides["operations"] = args.operations
    if args.qps is not None:
        overrides["qps"] = args.qps
    if args.seed is not None:
        overrides["seed"] = args.seed
    if overrides:
        from dataclasses import replace
        spec = replace(spec, **overrides)

    if args.cluster:
        if args.compare_cold:
            raise OptionsError(
                "--compare-cold measures the in-process engine cache; "
                "it does not apply to a --cluster run"
            )
        return _run_cluster_workload(args, spec)

    config = ServiceConfig(workers=args.workers, default_timeout=args.timeout,
                           parallel_shards=args.parallel,
                           partition_mode=args.partition_mode)
    with QueryService(database, config) as service:
        report = WorkloadRunner(service, spec, prepare=args.prepare).run()
    print(report.format())

    if args.compare_cold:
        unique = sorted({text for _, text in spec.requests()})
        comparison = run_cached_vs_cold(
            database, unique[:8], repeats=10, timeout=args.timeout
        )
        verdict = "identical answers" if comparison.consistent \
            else "ANSWER MISMATCH"
        print(f"\ncached vs cold ({comparison.operations} ops over "
              f"{comparison.unique_queries} unique queries): "
              f"{comparison.cold_qps:.1f} q/s cold vs "
              f"{comparison.cached_qps:.1f} q/s cached "
              f"({comparison.speedup:.1f}x, {verdict})")
        if not comparison.consistent:
            return 2
    return 0


def _fail(message: str, code: int) -> int:
    """Print a one-line error to stderr and return the exit code."""
    print(" ".join(message.split()), file=sys.stderr)
    return code


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code.

    Every library failure maps to a one-line stderr message and a
    failure-specific exit code — never a traceback: parse errors exit
    ``EXIT_PARSE``, unknown algorithms ``EXIT_UNKNOWN_ALGORITHM``,
    invalid options ``EXIT_BAD_OPTIONS``, timeouts ``EXIT_TIMEOUT``, and
    anything else the library can diagnose ``EXIT_ERROR``.
    """
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "datasets":
            return _cmd_datasets()
        if args.command == "query":
            return _cmd_query(args)
        if args.command == "explain":
            return _cmd_explain(args)
        if args.command == "bench":
            return _cmd_bench(args)
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "metrics":
            return _cmd_metrics(args)
        if args.command == "events":
            return _cmd_events(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "server":
            return _cmd_server(args)
        if args.command == "workload":
            return _cmd_workload(args)
    except ParseError as error:
        return _fail(f"parse error: {error}", EXIT_PARSE)
    except UnknownAlgorithmError as error:
        return _fail(f"error: {error}", EXIT_UNKNOWN_ALGORITHM)
    except OptionsError as error:
        return _fail(f"invalid options: {error}", EXIT_BAD_OPTIONS)
    except TimeoutExceeded as error:
        return _fail(f"timed out: {error}", EXIT_TIMEOUT)
    except ReproError as error:
        return _fail(f"error: {error}", EXIT_ERROR)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
