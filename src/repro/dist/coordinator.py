""":class:`ClusterSession` — one query, many machines.

This module is the *client-side front end* over the side-agnostic
:class:`~repro.dist.gather.GatherEngine` (the engine also powers the
server-side :class:`~repro.dist.gather.PeerCoordinator`).  One query
flows through four stages:

1. **Plan** — a ``run`` (plan-only) probe on any healthy server yields
   the output columns and algorithm choice (and surfaces parse /
   unknown-algorithm errors with single-server timing); the planner
   (:mod:`repro.dist.planner`) then picks a hash or HyperCube grid
   whose share sizes are weighted by per-relation statistics harvested
   from a server's Explain report.
2. **Dispatch** — each grid cell becomes one shard request carrying the
   scheme + cell in its wire frame; the server filters the relations
   down to that cell (:meth:`Partitioner.shard_database`) and runs the
   rewritten sub-query.  Cells are dealt round-robin over the healthy
   servers on the session's background asyncio loop, all multiplexed
   through one :class:`~repro.net.client.AsyncRemoteSession` socket per
   server.
3. **Gather** — ``asyncio.gather`` with per-shard deadlines, hedged
   re-dispatch of stragglers, and mid-gather re-route around dead
   servers (all in the engine).
4. **Merge** — counts sum, tuples concatenate in deterministic cell
   order, limits clamp exactly (:mod:`repro.dist.merge`).

Under ``QueryOptions(route="peer")`` stages 2–4 move *server-side*: the
session hands the whole query — as a ``cluster_*`` frame with ``hop=0``
and the fleet's peer list — to one server, which sub-shards across its
peers and merges before answering, so only the merged answer crosses
the final hop.  If that merging peer dies mid-gather, the session
re-routes the whole query to a sibling peer.

The session is synchronous on the outside — the exact ``Session``
surface (``run`` / ``count`` / ``explain`` / ``prepare`` / ``close``)
— and drives its asyncio fan-out on a private daemon thread, so callers
never touch an event loop.
"""

from __future__ import annotations

import asyncio
import time
from collections import OrderedDict
from typing import List, Optional, Tuple

from repro.api.options import QueryOptions
from repro.api.result import ResultStats, Row, RowCursor
from repro.datalog.query import ConjunctiveQuery
from repro.datalog.terms import Variable
from repro.errors import (
    CursorError,
    NetworkError,
    OptionsError,
    PreparedError,
    ProtocolError,
)
from repro.net.client import (
    DEFAULT_FETCH_SIZE,
    DEFAULT_RETRIES,
    DEFAULT_RETRY_BACKOFF,
    AsyncRemoteResultSet,
    _LoopThread,
    _options_payload,
    _validate_resilience_knobs,
    parse_cluster_url,
)
from repro.obs.events import global_events
from repro.obs.fleet import (
    fleet_rollup_text,
    merge_prometheus,
    server_label,
)
from repro.obs.metrics import global_registry
from repro.obs.trace import new_trace_id
from repro.dist.gather import (
    _FAILOVER_ERRORS,
    GatherEngine,
    _endpoint_url,
    resolve_query,
)
from repro.dist.planner import DistExplain, DistPlan
from repro.dist.topology import ServerState, Topology


class ClusterResultSet(RowCursor):
    """A distributed answer with the local result-set surface.

    Construction is pure (the plan probe already ran); the shard
    fan-out fires lazily at the first row pull, and the merged answer
    materializes client-side — the gather must see every shard to
    merge, so there is no cross-shard streaming to preserve.
    :meth:`count` never fetches rows: it fans out the servers' count
    paths and sums.
    """

    def __init__(self, cluster: "ClusterSession", text: str,
                 options: QueryOptions, plan: DistPlan, meta: dict) -> None:
        self._cluster = cluster
        self._text = text
        self._options = options
        self._plan = plan
        self._meta = meta
        self._variables = tuple(Variable(name) for name in meta["columns"])
        self._rows: Optional[List[Row]] = None
        self._position = 0
        self._delivered = 0
        self._count: Optional[int] = None
        self._execution_seconds = 0.0
        self._closed = False
        # One trace id per distributed query, minted up front: every
        # shard dispatch (hedges and re-routes included) is stamped with
        # it, so all participating servers' logs correlate even when
        # tracing itself is off.
        self._trace_id = new_trace_id()
        self._trace: Optional[dict] = None
        self._gather_info: dict = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def query_text(self) -> str:
        return self._text

    @property
    def algorithm(self) -> str:
        return self._meta["algorithm"]

    @property
    def shards(self) -> int:
        return self._plan.shards

    @property
    def complete(self) -> bool:
        return self._rows is not None

    @property
    def trace_id(self) -> str:
        """The query-level trace id every shard dispatch carries."""
        return self._trace_id

    @property
    def gather_info(self) -> dict:
        """Shard → server map and hedge/re-route counts of the gather.

        Under ``route="peer"`` this is the *merging server's* summary
        (its shard map names the peers it dispatched to) plus a
        ``coordinator`` key naming which server merged.
        """
        return dict(self._gather_info)

    @property
    def stats(self) -> ResultStats:
        scheme = self._plan.scheme
        return ResultStats(
            query=self._text,
            algorithm=self._meta["algorithm"],
            requested_algorithm=self._meta.get(
                "requested_algorithm", self._options.algorithm
            ),
            partitioning=scheme.key() if scheme is not None else "serial",
            shards=self._plan.shards,
            plan_cached=self._meta.get("plan_cached", False),
            result_cached=False,
            plan_seconds=0.0,
            execution_seconds=self._execution_seconds,
            rows_delivered=self._delivered,
            complete=self.complete,
            limit=self._options.limit,
            total=self._count,
            trace=self._trace,
        )

    # ------------------------------------------------------------------
    # Consumption
    # ------------------------------------------------------------------
    def _materialize(self) -> None:
        if self._rows is not None:
            return
        started = time.perf_counter()
        rows, info = self._cluster._gather_rows(
            self._text, self._options, self._plan, self._meta,
            self._trace_id,
        )
        self._execution_seconds += time.perf_counter() - started
        self._rows = rows
        self._gather_info = info
        self._trace = info.get("trace")
        # Per-shard counts are limit-clamped by pushdown and the merge
        # clamps again, so len(rows) == min(total, limit) — exactly what
        # count() reports on a limited local result set.
        self._count = len(rows)

    def _pull(self) -> Optional[Row]:
        if self._closed and self._rows is None:
            raise CursorError(
                "this distributed result set was closed before it was "
                "consumed; re-run the query for a fresh result set"
            )
        self._materialize()
        if self._position >= len(self._rows):
            return None
        row = self._rows[self._position]
        self._position += 1
        self._delivered += 1
        return row

    def count(self) -> int:
        """The number of answers, via every shard's count path, summed."""
        if self._count is None:
            started = time.perf_counter()
            value, info = self._cluster._gather_count(
                self._text, self._options, self._plan, self._meta,
                self._trace_id,
            )
            self._execution_seconds += time.perf_counter() - started
            self._count = value
            self._gather_info = info
            if self._trace is None:
                self._trace = info.get("trace")
        return self._count

    def close(self) -> None:
        """Drop the materialized answer; idempotent."""
        self._closed = True

    def __repr__(self) -> str:
        state = "materialized" if self._rows is not None else "pending"
        return (f"ClusterResultSet(query={self._text!r}, "
                f"shards={self._plan.shards}, {state})")


class ClusterPreparedHandle:
    """A reusable query shape on a cluster.

    Preparing validates the text once (one plan probe) and warms the
    statistics cache; each :meth:`run` re-plans the shard grid against
    the topology's *current* health, so a handle prepared on a full
    fleet keeps working — degraded — after a server dies.
    """

    def __init__(self, cluster: "ClusterSession", text: str,
                 options: QueryOptions, meta: dict,
                 query: ConjunctiveQuery) -> None:
        self._cluster = cluster
        self._text = text
        self._options = options
        self._meta = meta
        self._query = query
        self._closed = False

    @property
    def text(self) -> str:
        return self._text

    @property
    def algorithm(self) -> str:
        return self._meta["algorithm"]

    def run(self, options: Optional[QueryOptions] = None,
            **overrides) -> ClusterResultSet:
        if self._closed:
            raise PreparedError("this prepared handle is closed")
        opts = self._cluster.options(
            options if options is not None else self._options, **overrides
        )
        plan = self._cluster._plan_sync(self._query, self._text, opts)
        return ClusterResultSet(self._cluster, self._text, opts, plan,
                                dict(self._meta))

    def explain(self) -> DistExplain:
        return self._cluster.explain(self._text, self._options)

    def close(self) -> None:
        self._closed = True

    def __enter__(self) -> "ClusterPreparedHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (f"ClusterPreparedHandle(text={self._text!r}, "
                f"algorithm={self.algorithm!r}, {state})")


class ClusterSession:
    """A connected cluster client with the local ``Session`` surface.

    Parameters
    ----------
    url:
        ``repro://h1:p1,h2:p2,...`` — the multi-host cluster grammar of
        :func:`~repro.net.client.parse_cluster_url`.
    options:
        Session-default :class:`QueryOptions`.  ``parallel`` here (or
        per call) fixes the shard count; by default every query runs
        one shard per currently-healthy server.  ``route="peer"`` makes
        every gather travel as one peer-coordinated ``cluster_*`` query
        to a single server (which must be started with ``--peers``),
        merged server-side.
    hedge_after:
        Seconds a shard may run before a duplicate is dispatched to a
        sibling server (first answer wins); ``None`` disables hedging.
    shard_deadline:
        Hard per-shard deadline in seconds; a shard that misses it is
        treated like a transport failure and re-routed.  ``None`` (the
        default) leaves shards bounded only by ``QueryOptions.timeout``
        server-side.
    retries / retry_backoff / connect_timeout / fetch_size / wire_encoding:
        Per-server resilience knobs, passed to each underlying
        :class:`~repro.net.client.AsyncRemoteSession`.
    """

    def __init__(self, url: str, *,
                 options: Optional[QueryOptions] = None,
                 fetch_size: int = DEFAULT_FETCH_SIZE,
                 retries: int = DEFAULT_RETRIES,
                 retry_backoff: float = DEFAULT_RETRY_BACKOFF,
                 connect_timeout: float = 10.0,
                 hedge_after: Optional[float] = None,
                 shard_deadline: Optional[float] = None,
                 wire_encoding: Optional[str] = None) -> None:
        _validate_resilience_knobs(retries, retry_backoff)
        for name, value in (("hedge_after", hedge_after),
                            ("shard_deadline", shard_deadline)):
            if value is not None and (
                    isinstance(value, bool)
                    or not isinstance(value, (int, float)) or value <= 0):
                raise OptionsError(
                    f"{name} must be a positive number of seconds or "
                    f"None, got {value!r}"
                )
        self.url = url
        self.defaults = options if options is not None else QueryOptions()
        self.fetch_size = max(1, int(fetch_size))
        self.retries = int(retries)
        self.retry_backoff = float(retry_backoff)
        self.connect_timeout = connect_timeout
        self.hedge_after = hedge_after
        self.shard_deadline = shard_deadline
        endpoints = parse_cluster_url(url)
        self._engine = GatherEngine(
            Topology([_endpoint_url(host, port)
                      for host, port in endpoints]),
            defaults=self.defaults, fetch_size=self.fetch_size,
            retries=self.retries, retry_backoff=self.retry_backoff,
            connect_timeout=connect_timeout, hedge_after=hedge_after,
            shard_deadline=shard_deadline, wire_encoding=wire_encoding,
            source="coordinator", peer_dispatch=False,
        )
        self.topology = self._engine.topology
        self._closed = False
        self._loop = _LoopThread()
        try:
            self._loop.call(self._engine.open_initial())
        except BaseException:
            # A failed constructor must not leak sockets or the loop
            # thread (mirrors the RemoteSession handshake discipline).
            self._closed = True
            try:
                self._loop.call(self._engine.close_sessions())
            except Exception:
                pass
            self._loop.close()
            raise

    # ------------------------------------------------------------------
    # Peer delegation (loop thread)
    # ------------------------------------------------------------------
    async def _peer_gather(self, kind: str, text: str, opts: QueryOptions,
                           meta: dict, trace_id: str):
        """Hand the whole query to one server's peer coordinator.

        The frame carries ``hop=0`` (fan out) and the session's own
        fleet as the ``peers`` list, so the merging server coordinates
        exactly the topology this client was configured with — no
        server-side ``--peers`` required.  If the merging peer dies
        mid-gather the *whole query* re-routes to a sibling peer:
        peer-coordinated gathers are idempotent reads, so a fresh merge
        elsewhere returns the identical answer.
        """
        peers = self._engine.peer_list()
        payload = _options_payload(opts)
        errors: List[Exception] = []
        for server in self._engine.candidates():
            try:
                session = await self._engine.session_for(server)
                if kind == "count":
                    body = await session._request(
                        "cluster_count", query=text, options=payload,
                        hop=0, peers=peers, trace_id=trace_id,
                    )
                    value = body["count"]
                else:
                    result_set = AsyncRemoteResultSet(
                        session, text, opts, dict(meta),
                        trace_id=trace_id,
                        open_op="cluster_cursor",
                        open_extra={"hop": 0, "peers": peers},
                    )
                    value = await result_set.fetchall()
                    body = dict(result_set.open_body)
                    trace = (result_set.server_stats or {}).get("trace")
                    if trace is not None:
                        body["trace"] = trace
            except _FAILOVER_ERRORS as error:
                self.topology.mark_down(server)
                errors.append(error)
                continue
            self.topology.mark_up(server)
            return value, self._peer_info(body, server, trace_id)
        raise errors[-1] if errors else NetworkError(
            "every server of the cluster is marked down"
        )

    @staticmethod
    def _peer_info(body: dict, server: ServerState,
                   trace_id: str) -> dict:
        """The peer's gather summary in client ``gather_info`` shape."""
        return {
            "trace": body.get("trace"),
            "trace_id": body.get("trace_id") or trace_id,
            "seconds": body.get("seconds"),
            "shard_map": body.get("shard_map") or {},
            "hedges": body.get("hedges", 0),
            "reroutes": body.get("reroutes", 0),
            "coordinator": server_label(server.url),
            "route": "peer",
        }

    # ------------------------------------------------------------------
    # Sync bridges
    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise NetworkError("this cluster session is closed")

    def _plan_sync(self, query: ConjunctiveQuery, text: str,
                   opts: QueryOptions) -> DistPlan:
        self._check_open()
        return self._loop.call(self._engine.plan_for(query, text, opts))

    def _gather_rows(self, text: str, opts: QueryOptions,
                     plan: DistPlan, meta: dict,
                     trace_id: str) -> Tuple[List[Row], dict]:
        self._check_open()
        if opts.route == "peer":
            return self._loop.call(
                self._peer_gather("rows", text, opts, meta, trace_id)
            )
        return self._loop.call(
            self._engine.gather("rows", text, opts, plan, meta, trace_id)
        )

    def _gather_count(self, text: str, opts: QueryOptions,
                      plan: DistPlan, meta: dict,
                      trace_id: str) -> Tuple[int, dict]:
        self._check_open()
        if opts.route == "peer":
            return self._loop.call(
                self._peer_gather("count", text, opts, meta, trace_id)
            )
        return self._loop.call(
            self._engine.gather("count", text, opts, plan, meta, trace_id)
        )

    # ------------------------------------------------------------------
    # The Session surface
    # ------------------------------------------------------------------
    def options(self, options: Optional[QueryOptions] = None,
                **overrides) -> QueryOptions:
        """Resolve per-call options against the session defaults."""
        return QueryOptions.resolve(options, overrides,
                                    defaults=self.defaults)

    def run(self, query, options: Optional[QueryOptions] = None,
            **overrides) -> ClusterResultSet:
        """Plan a distributed execution; shards fly at first consumption.

        The plan probe (one ``run`` frame on a healthy server) runs
        eagerly so parse and options errors surface here, with exactly
        the single-server timing.  The client-side plan is computed
        either way — under ``route="peer"`` it is a preview (the
        merging server re-plans against its own health), but columns,
        algorithm, and shard count still describe the query.
        """
        self._check_open()
        opts = self.options(options, **overrides)
        text = str(query)
        meta, plan = self._loop.call(self._run_async(query, text, opts))
        return ClusterResultSet(self, text, opts, plan, meta)

    async def _run_async(self, query, text: str, opts: QueryOptions
                         ) -> Tuple[dict, DistPlan]:
        meta = await self._engine.on_any_server("run", {
            "query": text, "options": _options_payload(opts),
        })
        parsed = resolve_query(query, text)
        plan = await self._engine.plan_for(parsed, text, opts)
        return meta, plan

    def count(self, query, options: Optional[QueryOptions] = None,
              **overrides) -> int:
        """The number of answers — per-shard counts, summed client-side."""
        return self.run(query, options, **overrides).count()

    def prepare(self, query, options: Optional[QueryOptions] = None,
                **overrides) -> ClusterPreparedHandle:
        """Validate once, re-plan per run against current fleet health."""
        self._check_open()
        opts = self.options(options, **overrides)
        text = str(query)
        meta, parsed = self._loop.call(
            self._prepare_async(query, text, opts)
        )
        return ClusterPreparedHandle(self, text, opts, meta, parsed)

    async def _prepare_async(self, query, text: str, opts: QueryOptions
                             ) -> Tuple[dict, ConjunctiveQuery]:
        meta = await self._engine.on_any_server("run", {
            "query": text, "options": _options_payload(opts),
        })
        parsed = resolve_query(query, text)
        # Warm the statistics cache.
        await self._engine.query_info(text, parsed)
        return meta, parsed

    def explain(self, query, options: Optional[QueryOptions] = None,
                **overrides) -> DistExplain:
        """One server's plan report plus the distributed section.

        ``route`` is ignored here: the report always shows *this
        session's* distributed plan, which under ``route="peer"`` is
        what the merging server would compute for the same fleet.
        """
        self._check_open()
        opts = self.options(options, **overrides)
        text = str(query)
        return self._loop.call(self._explain_async(query, text, opts))

    async def _explain_async(self, query, text: str,
                             opts: QueryOptions) -> DistExplain:
        body = await self._engine.on_any_server("explain", {
            "query": text, "options": _options_payload(opts),
        })
        parsed = resolve_query(query, text)
        plan = await self._engine.plan_for(parsed, text, opts)
        if plan.scheme is not None:
            assignments = tuple(
                (cell, server.url)
                for cell, server in self.topology.assign(plan.cells)
            )
        else:
            assignments = ()
        return DistExplain(
            report=body["report"], rendered=body["rendered"], plan=plan,
            assignments=assignments,
            healthy_servers=len(self.topology.healthy()),
            total_servers=len(self.topology),
        )

    def stats(self) -> dict:
        """Topology health and per-server dispatch accounting (local —
        no wire traffic; per-server internals come from ``repro stats``
        against each server)."""
        return {
            "topology": self.topology.describe(),
            "client": {
                "hedge_after": self.hedge_after,
                "shard_deadline": self.shard_deadline,
                "retries": self.retries,
            },
        }

    def metrics(self) -> str:
        """One Prometheus text for the whole fleet.

        Every healthy server is scraped concurrently; each sample line
        gains a ``server="host:port"`` label so per-server series stay
        distinguishable after the merge, and the coordinator's own
        ``repro_fleet_*`` rollups (scrape latency, unreachable count,
        healthy/configured gauges) ride along unlabelled-by-server.
        """
        self._check_open()
        return self._loop.call(self._metrics_async())

    async def _metrics_async(self) -> str:
        registry = global_registry()
        loop = asyncio.get_running_loop()
        servers = self.topology.healthy()

        async def scrape(server: ServerState):
            label = server_label(server.url)
            started = loop.time()
            try:
                session = await self._engine.session_for(server)
                text = await session.metrics()
            except _FAILOVER_ERRORS:
                self.topology.mark_down(server)
                registry.counter("repro_fleet_unreachable_total").inc(
                    server=label,
                )
                return label, None
            registry.histogram("repro_fleet_scrape_seconds").observe(
                loop.time() - started, server=label,
            )
            return label, text

        scraped = await asyncio.gather(*(scrape(s) for s in servers))
        per_server = OrderedDict(
            (label, text)
            for label, text in sorted(scraped)
            if text is not None
        )
        gauge = registry.gauge("repro_fleet_servers")
        gauge.set(len(self.topology.healthy()), state="healthy")
        gauge.set(len(self.topology), state="configured")
        return merge_prometheus(per_server,
                                extra=fleet_rollup_text(registry))

    def events(self, limit: Optional[int] = None) -> List[dict]:
        """The fleet's flight recorder, merged and time-ordered.

        Pulls every healthy server's event ring and interleaves it with
        the coordinator's own gather events; each entry gains a
        ``server`` field naming where it was recorded.  Unreachable
        servers are skipped (and marked down) — a partial fleet still
        answers.
        """
        self._check_open()
        if limit is not None and (isinstance(limit, bool)
                                  or not isinstance(limit, int)
                                  or limit < 1):
            raise OptionsError(
                f"events limit must be a positive int or None, "
                f"got {limit!r}"
            )
        return self._loop.call(self._events_async(limit))

    async def _events_async(self, limit: Optional[int]) -> List[dict]:
        merged: List[dict] = []

        async def pull(server: ServerState):
            label = server_label(server.url)
            try:
                session = await self._engine.session_for(server)
                events = await session.events(limit)
            except _FAILOVER_ERRORS:
                self.topology.mark_down(server)
                return
            for event in events:
                # In-process server threads share this process's global
                # ring, so their pull would echo our own coordinator
                # events back — keep only what the server itself wrote.
                if event.get("source") != "coordinator":
                    merged.append(dict(event, server=label))

        await asyncio.gather(*(pull(s) for s in self.topology.healthy()))
        for event in global_events().snapshot(limit):
            if event.get("source") == "coordinator":
                merged.append(dict(event, server="coordinator"))
        merged.sort(key=lambda event: event.get("ts") or 0.0)
        if limit is not None and limit >= 0:
            merged = merged[-limit:] if limit else []
        return merged

    def close(self) -> None:
        """Close every server session and stop the loop; idempotent."""
        if self._closed:
            return
        self._closed = True
        try:
            self._loop.call(self._engine.close_sessions())
        finally:
            self._loop.close()

    def __enter__(self) -> "ClusterSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        up = len(self.topology.healthy())
        return (f"ClusterSession({self.url!r}, {state}, "
                f"{up}/{len(self.topology)} healthy)")
