""":func:`connect` and :class:`Session` — the unified client entry point.

One session wraps the whole stack the repository grew layer by layer::

    connect(...)  ──►  Session
                         ├─ Database            (catalog + change feed)
                         ├─ QueryEngine         (prepare → plan → executor)
                         ├─ PlanCache           (shape × partitioning)
                         └─ ResultCache         (instance, version-invalidated)

and exposes exactly one execution surface: ``run(query, options) ->
ResultSet`` with a frozen :class:`~repro.api.options.QueryOptions` bundle
instead of per-entry-point keyword sprawl, plus ``explain`` for plan
introspection.  The legacy surfaces — ``QueryEngine.count/bindings/
tuples/execute``, ``QueryService.submit``, the CLI verbs, the benchmark
harness — are thin shims over this path.

>>> import repro
>>> session = repro.connect("ca-GrQc")
>>> with session:
...     for binding in session.run("edge(a,b), edge(b,c)", limit=3):
...         ...                                     # streamed, lazy
...     session.run("edge(a,b), edge(b,c)").count() # count path
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple, Union

from repro.api.explain import Explain, explain_plan
from repro.api.options import QueryOptions
from repro.api.result import ResultCacheHooks, ResultSet
from repro.engine import (
    ExecutionResult,
    PreparedQuery,
    QueryEngine,
    run_to_record,
)
from repro.errors import OptionsError
from repro.exec.partitioner import ParallelConfig
from repro.exec.plan import PhysicalPlan
from repro.obs import trace as obs_trace
from repro.service.plan_cache import PlanCache, PlanCacheStats
from repro.service.result_cache import ResultCache, ResultCacheStats
from repro.storage.database import Database
from repro.storage.relation import Relation

#: Everything ``Session.run`` accepts as a query.
Query = Union[str, object, PreparedQuery, PhysicalPlan]


class _SessionCacheHooks(ResultCacheHooks):
    """Bind one prepared query's result-set to the session's result cache.

    Keys match :class:`repro.service.QueryService`'s layout —
    ``(canonical text, algorithm, "tuples" | "count")`` — so a session and
    a service sharing one :class:`ResultCache` also share answers.
    """

    def __init__(self, cache: ResultCache, prepared: PreparedQuery) -> None:
        self._cache = cache
        self._names = tuple(prepared.query.relation_names)
        self._rows_key = (prepared.text, prepared.algorithm, "tuples")
        self._count_key = (prepared.text, prepared.algorithm, "count")

    def lookup_rows(self):
        entry = self._cache.lookup(self._rows_key)
        return entry.value if entry is not None else None

    def store_rows(self, dependencies: Dict[str, int], rows) -> None:
        self._cache.store(
            self._rows_key, dependencies or self._names, tuple(rows)
        )

    def lookup_count(self) -> Optional[int]:
        entry = self._cache.lookup(self._count_key)
        return entry.value if entry is not None else None  # type: ignore

    def store_count(self, dependencies: Dict[str, int], value: int) -> None:
        self._cache.store(
            self._count_key, dependencies or self._names, value
        )

    def snapshot(self) -> Dict[str, int]:
        return self._cache.snapshot(self._names)


@dataclass
class SessionStats:
    """Point-in-time cache counters of one session."""

    plan_cache: PlanCacheStats
    result_cache: ResultCacheStats

    def as_dict(self) -> Dict[str, float]:
        return {
            "plan_hits": self.plan_cache.hits,
            "plan_misses": self.plan_cache.misses,
            "result_hits": self.result_cache.hits,
            "result_misses": self.result_cache.misses,
            "result_invalidations": self.result_cache.invalidations,
        }


class PreparedHandle:
    """A query shape compiled once and bound to its session.

    Returned by :meth:`Session.prepare`; the remote sessions return
    surface-compatible twins (:class:`~repro.net.client.
    RemotePreparedHandle` and its async sibling) so code written against
    this class works over the wire unchanged.  Repeated :meth:`run`
    calls never re-parse — locally the compiled
    :class:`~repro.engine.PreparedQuery` is handed straight to the
    engine with the plan cache keyed on its text; remotely the server
    executes by handle.
    """

    def __init__(self, session: "Session", prepared: PreparedQuery,
                 options: QueryOptions) -> None:
        self._session = session
        self._prepared = prepared
        self._options = options

    @property
    def text(self) -> str:
        return self._prepared.text

    @property
    def algorithm(self) -> str:
        return self._prepared.algorithm

    def run(self, options: Optional[QueryOptions] = None,
            **overrides) -> ResultSet:
        """Execute the prepared shape (options default to prepare-time)."""
        return self._session.run(
            self._prepared, options if options is not None else self._options,
            **overrides)

    def explain(self) -> Explain:
        return self._session.explain(self._prepared, self._options)

    def close(self) -> None:
        """Release the handle.  Local handles hold no server state, so
        this is a no-op kept for surface parity with the remote twins."""

    def __enter__(self) -> "PreparedHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"PreparedHandle(text={self.text!r}, "
                f"algorithm={self.algorithm!r})")


class Session:
    """A connected client: one database, one engine, shared caches.

    Parameters
    ----------
    database:
        The catalog to query.
    options:
        Session-default :class:`QueryOptions`; every :meth:`run` /
        :meth:`explain` starts from these and applies per-call overrides.
    engine:
        An existing engine to reuse (e.g. one with custom registered
        algorithms).  By default the session builds one sized to the
        default options (``parallel`` > 1 installs a process-pool
        executor) and closes it with the session.
    plan_cache / result_cache:
        Existing caches to share (the service layer passes its own);
        by default the session builds private ones.
    """

    def __init__(self, database: Database, *,
                 options: Optional[QueryOptions] = None,
                 engine: Optional[QueryEngine] = None,
                 plan_cache: Optional[PlanCache] = None,
                 result_cache: Optional[ResultCache] = None,
                 plan_cache_size: int = 128,
                 result_cache_size: int = 256) -> None:
        self.database = database
        self.defaults = options if options is not None else QueryOptions()
        if not isinstance(self.defaults, QueryOptions):
            raise OptionsError(
                f"options must be a QueryOptions instance, "
                f"got {self.defaults!r}"
            )
        self._owns_engine = engine is None
        if engine is None:
            engine = QueryEngine(
                database,
                timeout=self.defaults.timeout,
                parallel=ParallelConfig(
                    shards=self.defaults.parallel or 1,
                    mode=self.defaults.partition_mode,
                ),
            )
        self.engine = engine
        self._owns_result_cache = result_cache is None
        self.plan_cache = plan_cache if plan_cache is not None \
            else PlanCache(plan_cache_size)
        self.result_cache = result_cache if result_cache is not None \
            else ResultCache(database, result_cache_size)
        self._closed = False

    # ------------------------------------------------------------------
    # Options
    # ------------------------------------------------------------------
    def options(self, options: Optional[QueryOptions] = None,
                **overrides) -> QueryOptions:
        """Resolve per-call options against the session defaults."""
        return QueryOptions.resolve(options, overrides,
                                    defaults=self.defaults)

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def plan(self, query: Query,
             options: Optional[QueryOptions] = None,
             **overrides) -> PhysicalPlan:
        """Compile (or fetch from the plan cache) the physical plan."""
        opts = self.options(options, **overrides)
        plan, _, _ = self._plan(query, opts)
        return plan

    def _plan(self, query: Query,
              opts: QueryOptions) -> Tuple[PhysicalPlan, bool, float]:
        started = time.perf_counter()
        parallel = opts.parallel_request(self.engine.parallel)
        if isinstance(query, PhysicalPlan):
            # Pre-compiled input: planning is already paid for.
            plan, hit = self.engine.plan(query, opts.algorithm, parallel), True
        elif isinstance(query, PreparedQuery):
            if opts.use_cache:
                # Prepared statements key the plan cache on their text,
                # so repeated executes of one handle reuse the lowered
                # physical plan, not just the logical compilation.
                plan, hit = self.plan_cache.get_or_plan(
                    self.engine, query.text, opts.algorithm, parallel,
                    source=query,
                )
            else:
                plan = self.engine.plan(query, opts.algorithm, parallel)
                hit = True  # logical planning was already paid for
        elif opts.use_cache:
            # Non-text queries are keyed by their canonical text but
            # compiled from the object itself — a headed query's text
            # form is not re-parseable.
            plan, hit = self.plan_cache.get_or_plan(
                self.engine, str(query), opts.algorithm, parallel,
                source=None if isinstance(query, str) else query,
            )
        else:
            plan, hit = self.engine.plan(query, opts.algorithm, parallel), False
        return plan, hit, time.perf_counter() - started

    def prepare(self, query: Query,
                options: Optional[QueryOptions] = None,
                **overrides) -> PreparedHandle:
        """Compile ``query`` once and return a reusable handle.

        Parsing, hypergraph analysis, and attribute ordering are paid
        here; every ``handle.run()`` after that starts from the compiled
        shape.  Idempotent in effect: preparing the same text again
        returns an equivalent handle.
        """
        opts = self.options(options, **overrides)
        prepared = self.engine.prepare(query, opts.algorithm)
        return PreparedHandle(self, prepared, opts)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, query: Query,
            options: Optional[QueryOptions] = None,
            **overrides) -> ResultSet:
        """Run ``query`` and return a lazy, streaming :class:`ResultSet`.

        Nothing executes until the result set is consumed; iteration
        streams answers through the executor's shard-merge path.  With
        ``use_cache`` (the default) the session's result cache is
        consulted at first access and fed when a result fully streams.
        """
        opts = self.options(options, **overrides)
        qtrace: Optional[obs_trace.QueryTrace] = None
        if opts.trace:
            qtrace = obs_trace.QueryTrace()
            plan_span = qtrace.begin("plan")
            with qtrace.activate(plan_span):
                plan, plan_hit, plan_seconds = self._plan(query, opts)
            plan_span.annotate(
                cached=plan_hit, algorithm=plan.algorithm
            ).finish()
        else:
            plan, plan_hit, plan_seconds = self._plan(query, opts)
        hooks: Optional[ResultCacheHooks] = None
        if opts.use_cache:
            # With a limit the hooks are read-only in effect: a cached
            # full answer serves the prefix, but a limited stream is
            # never stored (ResultSet suppresses retention and stores).
            hooks = _SessionCacheHooks(self.result_cache, plan.prepared)
        return self.engine.run_plan(
            plan,
            timeout=opts.timeout,
            limit=opts.limit,
            plan_seconds=plan_seconds,
            plan_cached=plan_hit,
            hooks=hooks,
            trace=qtrace,
        )

    def execute(self, query: Query,
                options: Optional[QueryOptions] = None,
                **overrides) -> ExecutionResult:
        """Run a count query, capturing timing / timeout / error.

        The structured-record twin of :meth:`run` — what the benchmark
        harness consumes.  Shares the error-to-record mapping with
        :meth:`QueryEngine.execute`.
        """
        opts = self.options(options, **overrides)
        return run_to_record(
            lambda: self.run(query, opts), opts.algorithm, query
        )

    def explain(self, query: Query,
                options: Optional[QueryOptions] = None,
                **overrides) -> Explain:
        """The structured plan report for ``query`` (no execution)."""
        opts = self.options(options, **overrides)
        plan, _, _ = self._plan(query, opts)
        return explain_plan(plan, self.database)

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> SessionStats:
        return SessionStats(
            plan_cache=self.plan_cache.stats,
            result_cache=self.result_cache.stats,
        )

    def invalidate(self) -> None:
        """Drop cached results (plans stay: they depend only on shape)."""
        self.result_cache.clear()

    def close(self) -> None:
        """Detach owned caches and release the owned engine; idempotent."""
        if self._closed:
            return
        self._closed = True
        if self._owns_result_cache:
            self.result_cache.detach()
        if self._owns_engine:
            self.engine.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"Session(relations={self.database.names()}, "
                f"defaults={self.defaults})")


def connect(source: Union[Database, str, Iterable[Relation], None] = None,
            *,
            relations: Optional[Iterable[Relation]] = None,
            scale: float = 1.0,
            selectivity: Optional[int] = None,
            algorithm: str = "auto",
            parallel: Optional[int] = None,
            partition_mode: str = "auto",
            timeout: Optional[float] = None,
            use_cache: bool = True,
            limit: Optional[int] = None,
            trace: bool = False,
            fetch_size: Optional[int] = None,
            route: Optional[str] = None,
            engine: Optional[QueryEngine] = None,
            plan_cache_size: int = 128,
            result_cache_size: int = 256,
            retries: Optional[int] = None):
    """Open a :class:`Session` over a dataset, database, or relations —
    or a :class:`~repro.net.client.RemoteSession` over the network.

    ``source`` may be an existing :class:`Database`, the name of a catalog
    dataset (``scale`` scales it; ``selectivity`` attaches the ``v1..v4``
    node samples every benchmark pattern can run against), an iterable
    of relations, or a ``repro://host:port`` URL naming a running
    ``repro server`` (the query-option keywords still apply; the
    dataset-shaping and cache-sizing ones do not — the server owns its
    database and caches).  The remaining keyword arguments become the
    session's default :class:`QueryOptions` — callers override any of
    them per query via ``session.run(query, parallel=4, ...)``.

    A remote session multiplexes every request — from any number of
    threads — over one connection.  ``retries`` tunes how many times an
    idempotent request is replayed with backoff after a transport
    failure; it is remote-only and rejected for in-process sources.

    A comma-separated multi-host URL — ``repro://h1:p1,h2:p2,...`` —
    opens a :class:`~repro.dist.ClusterSession` instead: each query is
    partitioned and its shards fan out across the named servers, one
    multiplexed connection per server.

    ``route`` picks where distributed coordination happens:
    ``"client"`` (the default) fans shards out from this process;
    ``"peer"`` hands each query whole to one server, which sub-shards
    it across its peers and merges server-side so only the merged
    answer crosses the final hop.  ``route`` is remote-only — an
    in-process session has no fleet to route over.
    """
    if source is not None and relations is not None:
        raise OptionsError("pass either a source or relations=, not both")
    if isinstance(source, str) and source.startswith("repro://"):
        if engine is not None or scale != 1.0 or selectivity is not None \
                or plan_cache_size != 128 or result_cache_size != 256:
            raise OptionsError(
                "remote sessions take only query-option keywords; the "
                "server owns its database (scale/selectivity), engine, "
                "and caches (plan_cache_size/result_cache_size)"
            )
        from repro.net.client import (
            DEFAULT_RETRIES,
            RemoteSession,
            parse_cluster_url,
        )

        if len(parse_cluster_url(source)) > 1:
            from repro.dist import ClusterSession

            return ClusterSession(
                source,
                options=QueryOptions(
                    algorithm=algorithm, parallel=parallel,
                    partition_mode=partition_mode, timeout=timeout,
                    use_cache=use_cache, limit=limit, trace=trace,
                    fetch_size=fetch_size, route=route,
                ),
                retries=DEFAULT_RETRIES if retries is None else retries,
            )
        return RemoteSession(
            source,
            options=QueryOptions(
                algorithm=algorithm, parallel=parallel,
                partition_mode=partition_mode, timeout=timeout,
                use_cache=use_cache, limit=limit, trace=trace,
                fetch_size=fetch_size, route=route,
            ),
            retries=DEFAULT_RETRIES if retries is None else retries,
        )
    if retries is not None:
        raise OptionsError(
            "retries tunes the remote client's reconnect policy; an "
            "in-process session has no wire to retry"
        )
    if route is not None:
        raise OptionsError(
            "route picks where distributed coordination happens; an "
            "in-process session has no fleet to route over"
        )
    if isinstance(source, Database):
        database = source
    elif isinstance(source, str):
        from repro.data.catalog import load_dataset
        from repro.data.sampling import attach_samples

        database = Database([load_dataset(source, scale=scale)])
        if selectivity is not None:
            attach_samples(database, selectivity,
                           sample_names=("v1", "v2", "v3", "v4"))
    elif source is not None:
        database = Database(list(source))
    else:
        database = Database(list(relations) if relations is not None else [])
    options = QueryOptions(
        algorithm=algorithm, parallel=parallel,
        partition_mode=partition_mode, timeout=timeout,
        use_cache=use_cache, limit=limit, trace=trace,
        fetch_size=fetch_size,
    )
    return Session(
        database, options=options, engine=engine,
        plan_cache_size=plan_cache_size,
        result_cache_size=result_cache_size,
    )
