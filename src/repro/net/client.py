""":class:`RemoteSession` — the client end of the wire protocol.

``connect("repro://host:port")`` opens a client against a
:class:`~repro.net.server.ReproServer` and returns a session with the
exact :class:`~repro.api.session.Session` execution surface::

    with repro.connect("repro://127.0.0.1:9944") as session:
        for binding in session.run("edge(a,b), edge(b,c)", limit=10):
            ...
        session.explain("edge(a,b), edge(b,c)").render()

There is one wire client, and it is asynchronous.
:class:`AsyncRemoteSession` (``connect_async``) **multiplexes** one
socket: any number of requests may be in flight, matched to their
responses by the protocol's request ids, so ``asyncio.gather`` over
many ``session.run(...)`` calls pipelines them through one connection
and the server overlaps their execution on its worker pool.  It is also
the **resilience layer**:

* **automatic reconnect with bounded exponential-backoff retry** for
  the idempotent operations (:data:`IDEMPOTENT_OPS`): a request whose
  connection is lost is replayed on a fresh one up to ``retries`` times;
* **transparent re-prepare**: a prepared handle the server expired, or
  lost to a restart, is prepared again on the next execute;
* **never** a retried cursor ``fetch``: a server-side cursor lives on one
  connection and dies with it, so replaying a fetch could silently skip
  or repeat rows.  A lost connection mid-stream raises a crisp
  :class:`~repro.errors.CursorError` telling the caller to re-run the
  query instead.

``run`` returns a result set whose rows stay on the server as a
**server-side cursor**, paged with ``fetchmany``-sized ``fetch``
requests — consuming *k* rows of a huge join moves O(k) rows over the
wire and pulls O(k) rows from the executor, the same laziness contract
as a local :class:`~repro.api.result.ResultSet`.

:class:`RemoteSession`, :class:`RemoteResultSet` and
:class:`RemotePreparedHandle` are the synchronous surface: thin façades
that forward every call to the async core on a private event-loop
thread (:class:`_LoopThread`, shared with
:class:`~repro.dist.ClusterSession`).  Threads sharing one
``RemoteSession`` multiplex over its one socket.

Server-reported failures re-raise as their original
:class:`~repro.errors.ReproError` subclasses (parse errors as
:class:`ParseError`, timeouts as :class:`TimeoutExceeded`, ...), so error
handling — including the CLI's exit-code mapping — is transport-agnostic.
"""

from __future__ import annotations

import asyncio
import os
import queue
import threading
import time
from collections import deque
from dataclasses import asdict
from typing import Deque, Dict, List, Optional, Tuple

from repro.api.options import QueryOptions
from repro.api.result import ResultStats, Row, RowCursor
from repro.datalog.terms import Variable
from repro.errors import (
    AdmissionError,
    CursorError,
    NetworkError,
    OptionsError,
    PreparedError,
    ProtocolError,
    ReproError,
)
from repro.net import protocol
from repro.net.server import DEFAULT_PORT
from repro.obs.metrics import global_registry
from repro.obs.trace import new_trace_id

#: How many rows one iteration-driven fetch pulls by default.
DEFAULT_FETCH_SIZE = 512

#: Environment override for the row-page wire encoding ("binary" or
#: "json").  Forcing "json" makes a v2 client behave exactly like a v1
#: peer — it stops advertising encodings in ``hello`` — which is how the
#: CI smoke proves negotiation fallback against a live server.
WIRE_ENCODING_ENV = "REPRO_WIRE_ENCODING"


def _resolve_wire_encoding(value: Optional[str]) -> str:
    if value is None:
        value = os.environ.get(WIRE_ENCODING_ENV) or "binary"
    if value not in protocol.WIRE_ENCODINGS:
        raise OptionsError(
            f"wire_encoding must be one of {protocol.WIRE_ENCODINGS}, "
            f"got {value!r}"
        )
    return value

#: How many times an idempotent request is replayed after a transport
#: failure (so ``retries=2`` means up to three attempts in total).
DEFAULT_RETRIES = 2

#: First retry delay, seconds; doubles per attempt up to the cap below.
DEFAULT_RETRY_BACKOFF = 0.05
_MAX_RETRY_BACKOFF = 2.0

#: Operations safe to replay on a fresh connection after a transport
#: failure.  ``run`` / ``explain`` / ``execute`` only plan, ``count`` /
#: ``stats`` / ``metrics`` only read, ``hello`` is a handshake,
#: ``prepare`` is idempotent by design (the registry dedups), and a
#: replayed ``deallocate`` frees at most the same handle.  The peer ops
#: ``cluster_run`` / ``cluster_count`` are read-only like their
#: single-server twins.  Cursor ops (``cursor`` / ``cluster_cursor`` /
#: ``fetch`` / ``close``) are deliberately absent from this set: they
#: name server-side stream state that dies with its connection (cursor
#: *opens* are replayed anyway by ``_open_cursor``, which is safe
#: because an unacknowledged cursor died with its connection).
IDEMPOTENT_OPS = frozenset(
    {"hello", "run", "explain", "count", "stats", "metrics", "events",
     "prepare", "execute", "deallocate", "cluster_run", "cluster_count"}
)


def _validate_resilience_knobs(retries: int, retry_backoff: float) -> None:
    """Reject nonsense knob values instead of silently clamping them.

    Same boundary discipline as :class:`QueryOptions` (zero timeouts and
    negative limits raise): negative ``retries`` or a non-positive
    ``retry_backoff`` is a typo, not a request for different behavior.
    """
    if int(retries) < 0:
        raise OptionsError(f"retries must be >= 0, got {retries!r}")
    if not float(retry_backoff) > 0:
        raise OptionsError(
            f"retry_backoff must be positive seconds, got {retry_backoff!r}"
        )


def _parse_host_port(entry: str, url: str) -> Tuple[str, int]:
    """Validate one ``host[:port]`` entry of a (possibly multi-host) URL.

    The per-host grammar — including the IPv6 bracket rules — is shared
    verbatim between :func:`parse_url` and :func:`parse_cluster_url`, so
    every host of a cluster URL is held to exactly the single-host
    standard.
    """
    port_text: Optional[str]
    if entry.startswith("["):
        # Bracketed IPv6 literal: [v6]  or  [v6]:port
        closing = entry.find("]")
        if closing < 0:
            raise NetworkError(
                f"remote URL {url!r} has an unclosed '[' in its host"
            )
        host = entry[1:closing]
        tail = entry[closing + 1:]
        if not tail:
            port_text = None
        elif tail.startswith(":"):
            port_text = tail[1:]
        else:
            raise NetworkError(
                f"remote URL {url!r} has trailing text after the "
                f"bracketed host"
            )
    elif ":" in entry:
        host, _, port_text = entry.rpartition(":")
        if ":" in host:
            raise NetworkError(
                f"remote URL {url!r} looks like a bare IPv6 literal; "
                f"bracket it: repro://[{entry}] or repro://[host]:port"
            )
    else:
        host, port_text = entry, None
    if not host:
        raise NetworkError(f"remote URL {url!r} names no host")
    if port_text is None:
        return host, DEFAULT_PORT
    try:
        if not port_text.isdigit():
            raise ValueError(port_text)
        port = int(port_text)
    except ValueError:
        raise NetworkError(
            f"remote URL {url!r} has a non-numeric port {port_text!r}"
        ) from None
    if not 0 < port < 65536:
        raise NetworkError(f"remote URL {url!r} port out of range")
    return host, port


def parse_cluster_url(url: str) -> Tuple[Tuple[str, int], ...]:
    """Split ``repro://host[:port][,host[:port]...]`` into endpoints.

    The multi-host grammar of :func:`repro.connect`'s cluster form::

        repro://h1:9944,h2:9944       → (("h1", 9944), ("h2", 9944))
        repro://[::1]:9944,h2         → (("::1", 9944), ("h2", DEFAULT_PORT))

    Commas separate hosts unambiguously — bracketed IPv6 literals contain
    colons, never commas — and every entry is validated by the same
    single-host rules as :func:`parse_url` (empty entries, bare IPv6
    literals, and bad ports are each rejected with the entry named).  A
    single-host URL is a valid one-server cluster.
    """
    if not isinstance(url, str) or not url.startswith("repro://"):
        raise NetworkError(
            f"remote URL must look like repro://host:port, got {url!r}"
        )
    rest = url[len("repro://"):].rstrip("/")
    entries = rest.split(",")
    endpoints = []
    for position, entry in enumerate(entries):
        if entry != entry.strip():
            raise NetworkError(
                f"remote URL {url!r} has whitespace around entry "
                f"{position + 1} ({entry!r}); separate hosts with a "
                f"bare comma"
            )
        if not entry and len(entries) > 1 and position == len(entries) - 1:
            raise NetworkError(
                f"remote URL {url!r} has a trailing comma: the empty "
                f"entry after {entries[position - 1]!r} names no host"
            )
        endpoints.append(_parse_host_port(entry, url))
    return tuple(endpoints)


def parse_url(url: str) -> Tuple[str, int]:
    """Split ``repro://host[:port]`` into ``(host, port)``.

    The grammar::

        repro://host            → (host, DEFAULT_PORT)
        repro://host:9944       → (host, 9944)
        repro://[::1]:9944      → ("::1", 9944)     # brackets stripped
        repro://[2001:db8::2]   → ("2001:db8::2", DEFAULT_PORT)

    IPv6 literals must be bracketed (their colons are ambiguous with the
    port separator otherwise); the brackets are stripped so the result
    feeds :func:`socket.create_connection` directly.  Empty hosts
    (``repro://:9944``) and empty or non-numeric ports are rejected.
    Comma-separated multi-host URLs name a *cluster*, not a single
    server — those go through :func:`parse_cluster_url` (and
    ``repro.connect``, which builds a ``ClusterSession`` for them).
    """
    endpoints = parse_cluster_url(url)
    if len(endpoints) != 1:
        raise NetworkError(
            f"remote URL {url!r} names {len(endpoints)} hosts; a "
            f"single-server session takes one — pass the multi-host URL "
            f"to repro.connect for a ClusterSession"
        )
    return endpoints[0]


def _options_payload(options: QueryOptions) -> dict:
    """The options bundle as wire JSON (``None`` = inherit server default).

    ``fetch_size`` is a client-only paging knob — every ``fetch`` request
    names its page size explicitly — so it is stripped here, which also
    keeps new clients compatible with servers that predate the field.
    ``route`` is likewise client-side routing (which *op* to send, not
    how the server should run it) and never travels.
    """
    payload = asdict(options)
    payload.pop("fetch_size", None)
    payload.pop("route", None)
    return payload


def _result(response: dict) -> dict:
    """Unwrap a response: the body on ``ok``, the original error otherwise."""
    if response.get("ok"):
        return response
    protocol.raise_remote_error(response.get("error"))


# ----------------------------------------------------------------------
# The event-loop thread behind every synchronous façade
# ----------------------------------------------------------------------
class _LoopThread:
    """A private asyncio loop on a daemon thread; sync callers submit.

    The synchronous façades (:class:`RemoteSession` here,
    :class:`~repro.dist.ClusterSession` in :mod:`repro.dist`) each own
    one and drive the async wire core through :meth:`call`.
    """

    def __init__(self) -> None:
        self.loop = asyncio.new_event_loop()
        self._started = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="repro-client-loop", daemon=True,
        )
        self._thread.start()
        self._started.wait()

    def _run(self) -> None:
        asyncio.set_event_loop(self.loop)
        self.loop.call_soon(self._started.set)
        try:
            self.loop.run_forever()
        finally:
            # Cancel stragglers (hedge losers, abandoned gathers) so
            # their transports close before the loop does.
            pending = asyncio.all_tasks(self.loop)
            for task in pending:
                task.cancel()
            if pending:
                self.loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
            self.loop.close()

    def call(self, coro):
        """Run ``coro`` on the loop thread; block for (and raise) its result.

        Every synchronous wire call pays this hop, so it hands the
        finished task back through a :class:`queue.SimpleQueue` — about
        a third cheaper than ``run_coroutine_threadsafe``'s chained
        futures.  A caller interrupted while it waits
        (``KeyboardInterrupt``) cancels the coroutine rather than
        leaving it running unowned.
        """
        finished: "queue.SimpleQueue[asyncio.Task]" = queue.SimpleQueue()
        started: List[asyncio.Task] = []

        def start() -> None:
            task = self.loop.create_task(coro)
            task.add_done_callback(finished.put)
            started.append(task)

        self.loop.call_soon_threadsafe(start)
        try:
            task = finished.get()
        except BaseException:
            # Runs after start(): the loop's callbacks are FIFO.
            self.loop.call_soon_threadsafe(lambda: started[0].cancel())
            raise
        return task.result()

    def close(self) -> None:
        if self.loop.is_closed():
            return
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(timeout=30)


class RemoteExplain:
    """A plan report fetched over the wire.

    Mirrors the read surface of :class:`~repro.api.explain.Explain`:
    :meth:`as_dict` is the server report verbatim, :meth:`render` the
    server-rendered text.
    """

    def __init__(self, report: dict, rendered: str) -> None:
        self._report = report
        self._rendered = rendered

    def as_dict(self) -> dict:
        return self._report

    def render(self) -> str:
        return self._rendered

    def __str__(self) -> str:
        return self._rendered


# ----------------------------------------------------------------------
# The async wire core
# ----------------------------------------------------------------------
class AsyncRemoteResultSet:
    """A server-side cursor paged over the wire.

    Supports ``async for`` (bindings), ``await fetchmany/fetchall/count``,
    and ``await close``; :class:`RemoteResultSet` is its synchronous
    face.  Shares one forward-only position.  The server holds no cursor
    until the first fetch, so a result set that is only counted (or
    never consumed) pins nothing remotely.  The cursor lives on the
    session's single multiplexed connection; if that connection is lost
    or re-established (a reconnect after a server restart), the cursor
    did not survive and fetches raise :class:`CursorError` — never a
    silent retry, which could skip or repeat rows.
    """

    def __init__(self, session: "AsyncRemoteSession", query_text: str,
                 options: QueryOptions, meta: dict,
                 prepared_key: Optional[Tuple[str, str]] = None,
                 shard: Optional[dict] = None,
                 trace_id: Optional[str] = None,
                 span: Optional[dict] = None,
                 open_op: str = "cursor",
                 open_extra: Optional[dict] = None) -> None:
        self._session = session
        self._text = query_text
        self._options = options
        # Set when this result set executes a prepared statement: the
        # cursor and count travel by handle, never resending query text.
        self._prepared_key = prepared_key
        # Which verb opens the cursor ("cluster_cursor" for peer-routed
        # or peer-dispatched opens) and extra frame fields riding the
        # open ("hop", "peers").  Fetching afterwards is op-agnostic:
        # a cursor id names the same registry either way.
        self._open_op = open_op
        self._open_extra = open_extra or {}
        self._open_body: dict = {}
        # Optional shard restriction (the distributed coordinator's
        # {"scheme": ..., "cell": ...} wire form) and distributed trace
        # context (the coordinator's trace id plus its {"id", "shard",
        # "attempt"} span descriptor); stamped on every cursor open and
        # count so the server executes under the adopted context.  With
        # tracing on and no coordinator id, a client-minted id rides
        # instead, so the server's span tree correlates with client logs.
        self._shard = shard
        if trace_id is None and options.trace:
            trace_id = new_trace_id()
        self._trace_id = trace_id
        self._span = span
        self._server_stats: dict = {}
        self._cursor_id: Optional[int] = None  # opened at first fetch
        self._generation: Optional[int] = None  # connection it lives on
        self._variables = tuple(Variable(name) for name in meta["columns"])
        self._meta = meta
        self._buffer: Deque[Row] = deque()
        self._done = False
        self._closed = False
        self._gone: Optional[str] = None
        self._count: Optional[int] = None
        self._delivered = 0
        self._seconds = 0.0
        # A server cursor allows one fetch in flight (a stream has one
        # position); concurrent fetchmany calls on this result set
        # serialize here instead of tripping the server's busy-guard.
        self._fetch_lock = asyncio.Lock()

    @property
    def query_text(self) -> str:
        return self._text

    @property
    def columns(self) -> Tuple[str, ...]:
        return tuple(v.name for v in self._variables)

    @property
    def algorithm(self) -> str:
        return self._meta["algorithm"]

    @property
    def shards(self) -> int:
        return self._meta["shards"]

    @property
    def complete(self) -> bool:
        """True once the full answer has been pulled over the wire."""
        return self._done and not self._buffer

    @property
    def stats(self) -> ResultStats:
        """What this result did, merged from plan metadata and fetches."""
        final = self._server_stats
        return ResultStats(
            query=self._text,
            algorithm=self._meta["algorithm"],
            requested_algorithm=self._meta.get(
                "requested_algorithm", self._options.algorithm
            ),
            partitioning=self._meta.get("partitioning", "serial"),
            shards=self._meta["shards"],
            plan_cached=self._meta.get("plan_cached", False),
            result_cached=final.get("result_cached", False),
            plan_seconds=0.0,
            execution_seconds=self._seconds,
            rows_delivered=self._delivered,
            complete=self.complete,
            limit=self._options.limit,
            total=self._count,
            trace=final.get("trace"),
        )

    def _page_size(self) -> int:
        """Rows per iteration-driven fetch: per-query option, else the
        session default."""
        return self._options.fetch_size or self._session.fetch_size

    def _context(self) -> dict:
        """The shard and trace fields every cursor open and count carry."""
        fields = {"shard": self._shard, "trace_id": self._trace_id,
                  "span": self._span}
        return {key: value for key, value in fields.items()
                if value is not None}

    async def _ensure_cursor(self) -> None:
        """Open the server-side cursor on first use.

        Under ``route="peer"`` the open travels as ``cluster_cursor``
        with ``hop=0``: the server gathers from its peers and registers
        the *merged* stream in its normal cursor registry, so everything
        after the open (fetch paging, close, drain accounting) is the
        single-server path.
        """
        if self._cursor_id is not None:
            return
        payload = _options_payload(self._options)
        if self._prepared_key is not None:
            body, self._generation = await self._session._prepared_send(
                "cursor", self._prepared_key, self._text, payload,
                self._context(),
            )
        else:
            body, self._generation = await self._session._open_cursor(
                self._open_op, self._text, payload,
                {**self._context(), **self._open_extra},
            )
        self._cursor_id = body["cursor"]
        self._open_body = body

    async def _fetch(self, size: int) -> List[Row]:
        async with self._fetch_lock:
            return await self._fetch_page(size)

    async def _fetch_page(self, size: int) -> List[Row]:
        """One wire ``fetch`` of up to ``size`` rows; updates done state."""
        if self._closed:
            raise CursorError("this remote cursor was closed")
        if self._gone is not None:
            raise CursorError(self._gone)
        if self._done:
            # A concurrent fetch drained the stream while this one
            # waited on the lock.
            return []
        started = time.perf_counter()
        await self._ensure_cursor()
        if self._generation != self._session._generation:
            self._gone = (
                "the server-side cursor for this result set is gone: the "
                "connection was re-established (server restart or network "
                "failure) and cursors do not survive reconnection — "
                "re-run the query for a fresh result set"
            )
            raise CursorError(self._gone)
        params = {"cursor": self._cursor_id, "size": size}
        if self._session.wire_encoding == "binary":
            # Binary frames are self-describing and per-request: a server
            # that never advertised binary support is never asked.
            params["encoding"] = "binary"
        try:
            response = await self._session._send("fetch", params)
        except (NetworkError, ProtocolError) as error:
            # The connection carrying the cursor is gone, and with it the
            # server-side stream.  A fetch is NOT idempotent — replaying
            # it on a new connection could skip or repeat rows — so this
            # is a hard stop, not a retry.
            self._gone = (
                f"the server-side cursor for this result set is gone "
                f"({error}); a fetch is never retried — re-run the query "
                f"for a fresh result set"
            )
            raise CursorError(self._gone) from error
        try:
            body = _result(response)
        except AdmissionError:
            # Transient overload, rejected before the stream moved: the
            # cursor is untouched — fetch again when the queue drains.
            raise
        except ReproError:
            # A server-reported fetch failure (cursor expired, execution
            # error, timeout mid-stream): the server dropped the cursor.
            self._gone = (
                "the server-side cursor for this result set failed and "
                "was dropped by the server; re-run the query for a "
                "fresh result set"
            )
            raise
        self._seconds += time.perf_counter() - started
        rows = [tuple(row) for row in body["rows"]]
        if body["done"]:
            self._done = True
            stats = body.get("stats") or {}
            self._server_stats = stats
            if stats.get("total") is not None:
                self._count = stats["total"]
        return rows

    def _check_open(self) -> None:
        """A closed-but-undrained cursor must not read like a clean end."""
        if self._closed and not self._done:
            raise CursorError(
                "this remote cursor was closed before it was drained; "
                "re-run the query for a fresh result set"
            )

    async def _refill(self) -> bool:
        """Page rows into an empty buffer; False at the end of the answer."""
        if not self._buffer:
            self._check_open()
            if self._done:
                return False
            self._buffer.extend(await self._fetch(self._page_size()))
        return bool(self._buffer)

    def _pop(self) -> Row:
        """The next buffered row, counted as delivered."""
        self._delivered += 1
        return self._buffer.popleft()

    def __aiter__(self):
        return self

    async def __anext__(self):
        if not await self._refill():
            raise StopAsyncIteration
        return dict(zip(self._variables, self._pop()))

    async def fetchmany(self, size: int = 1) -> List[Row]:
        """Up to ``size`` more rows off the shared forward-only cursor.

        Rows already buffered by iteration are served first.  The
        remainder is requested from the server, which clamps one wire
        ``fetch`` to its ``MAX_FETCH_SIZE`` (65536 by default) — so a
        request for more than the clamp transparently loops over several
        round trips.  A short return therefore only ever means
        end-of-answer, exactly like a local result set; a request within
        the clamp costs a single round trip.
        """
        out: List[Row] = []
        while self._buffer and len(out) < size:
            out.append(self._buffer.popleft())
        try:
            if len(out) < size:
                self._check_open()
            while len(out) < size and not self._done:
                page = await self._fetch(size - len(out))
                if not page:
                    break
                out.extend(page)
        except BaseException:
            # A failed wire fetch must not lose rows already in hand
            # (buffered by iteration or pulled by an earlier loop page):
            # push them back so a retried call — e.g. after a transient
            # AdmissionError — resumes at exactly the same position.
            self._buffer.extendleft(reversed(out))
            raise
        self._delivered += len(out)
        return out

    async def fetchall(self) -> List[Row]:
        """Every remaining row; a failed wire fetch keeps rows in hand
        (they return to the buffer for the retry) instead of losing them."""
        out: List[Row] = list(self._buffer)
        self._buffer.clear()
        try:
            self._check_open()
            while not self._done:
                out.extend(await self._fetch(self._page_size()))
        except BaseException:
            self._buffer.extendleft(reversed(out))
            raise
        self._delivered += len(out)
        return out

    async def count(self) -> int:
        """The number of answers, via the server's count path.

        Like a local result set's :meth:`~repro.api.result.ResultSet.count`,
        this is a side execution — the cursor position is untouched and
        counting-optimized algorithms / the server's result cache apply.
        It is retried like any idempotent request.
        """
        if self._count is not None:
            return self._count
        started = time.perf_counter()
        payload = _options_payload(self._options)
        if self._prepared_key is not None:
            body, _ = await self._session._prepared_send(
                "count", self._prepared_key, self._text, payload,
                self._context(),
            )
        else:
            params = {"query": self._text, "options": payload,
                      **self._context()}
            op = "count"
            if self._options.route == "peer":
                op, params["hop"] = "cluster_count", 0
            body = await self._session._request(op, **params)
        self._seconds += time.perf_counter() - started
        final = dict(self._server_stats)
        if body.get("result_cached"):
            final.setdefault("result_cached", True)
        if body.get("trace") is not None:
            final["trace"] = body["trace"]
        self._server_stats = final
        self._count = body["count"]
        return self._count

    @property
    def open_body(self) -> dict:
        """The raw cursor-open response body (peer opens carry gather
        summary scalars: shard map, hedges, coordinator)."""
        return self._open_body

    @property
    def server_stats(self) -> dict:
        """The final server-side stats (set once the stream drains)."""
        return self._server_stats

    @property
    def server_trace(self) -> Optional[dict]:
        """The server's span subtree, if the response carried one."""
        trace = self._server_stats.get("trace")
        return trace if isinstance(trace, dict) else None

    async def close(self) -> None:
        """Release the server-side cursor early; idempotent."""
        if self._closed:
            return
        self._closed = True
        self._buffer.clear()
        if self._cursor_id is not None and not self._done \
                and self._gone is None \
                and self._generation == self._session._generation:
            try:
                _result(await self._session._send(
                    "close", {"cursor": self._cursor_id}
                ))
            except (NetworkError, CursorError):
                pass  # connection gone or cursor already expired


class AsyncRemoteSession:
    """An asyncio remote session that **multiplexes** one connection.

    Obtained from :func:`connect_async`.  Any number of requests may be
    in flight at once: each is written to the shared socket with a fresh
    id, a background reader task matches responses to their ids, and the
    server overlaps the work on its pool — so ``asyncio.gather`` over
    many ``session.run(...)`` / ``.count()`` calls pipelines them all
    through a single TCP connection.

    On a transport failure the session reconnects lazily and replays
    idempotent requests (:data:`IDEMPOTENT_OPS`) with exponential
    backoff.  Open cursors do not survive a reconnect: their fetches
    raise :class:`CursorError`.  :class:`RemoteSession` is the same
    session driven from synchronous code.
    """

    def __init__(self, url: str, *, options: Optional[QueryOptions] = None,
                 fetch_size: int = DEFAULT_FETCH_SIZE,
                 retries: int = DEFAULT_RETRIES,
                 retry_backoff: float = DEFAULT_RETRY_BACKOFF,
                 connect_timeout: float = 10.0,
                 wire_encoding: Optional[str] = None) -> None:
        _validate_resilience_knobs(retries, retry_backoff)
        self.url = url
        self.defaults = options if options is not None else QueryOptions()
        self.fetch_size = max(1, int(fetch_size))
        self.retries = int(retries)
        self.retry_backoff = float(retry_backoff)
        self.connect_timeout = connect_timeout
        self._wire_encoding = _resolve_wire_encoding(wire_encoding)
        self.wire_encoding = "json"  # until the handshake says otherwise
        # (text, algorithm) -> (handle, connection generation).  Handles
        # are per-connection server state, so a reconnect (generation
        # bump) strands every mapping; _ensure_prepared re-prepares.
        self._prepared: Dict[Tuple[str, str], Tuple[int, int]] = {}
        self._reader = None
        self._writer = None
        self._reader_task = None
        self._pending: Dict[int, "asyncio.Future"] = {}
        self._conn_lock = None   # created on the running loop in _open
        self._write_lock = None
        self._next_id = 0
        self._generation = 0  # bumped per (re)connect; cursors pin one
        self._retries_attempted = 0
        self._closed = False
        self.server_info: dict = {}

    async def _open(self) -> "AsyncRemoteSession":
        self._conn_lock = asyncio.Lock()
        self._write_lock = asyncio.Lock()
        try:
            await self._ensure_connected()
            hello_params = {}
            if self._wire_encoding == "binary":
                hello_params["encodings"] = list(protocol.WIRE_ENCODINGS)
            self.server_info = await self._request("hello", **hello_params)
            if self._wire_encoding == "binary" \
                    and self.server_info.get("encoding") == "binary":
                self.wire_encoding = "binary"
        except BaseException:
            # A failed handshake must not leak the transport or the
            # reader task out of a constructor the caller never got a
            # handle from.
            self._closed = True
            await self._teardown_transport()
            raise
        return self

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    async def _ensure_connected(self) -> None:
        async with self._conn_lock:
            if self._closed:
                raise NetworkError("this remote session is closed")
            if self._writer is not None and self._reader_task is not None \
                    and not self._reader_task.done():
                return
            await self._teardown_transport()
            host, port = parse_url(self.url)
            try:
                self._reader, self._writer = await asyncio.wait_for(
                    asyncio.open_connection(host, port),
                    self.connect_timeout,
                )
            except (OSError, asyncio.TimeoutError) as error:
                raise NetworkError(
                    f"could not connect to {self.url}: {error}"
                ) from None
            self._generation += 1
            if self._generation > 1:
                # Anything past the first connect is a reconnect.
                global_registry().counter(
                    "repro_client_reconnects_total").inc()
            self._pending = {}
            self._reader_task = asyncio.get_running_loop().create_task(
                self._read_loop(self._reader, self._pending)
            )

    async def _read_loop(self, reader,
                         pending: Dict[int, object]) -> ReproError:
        """Match every inbound frame to its waiting request by id.

        This is the demultiplexer that makes pipelining work: responses
        arrive in completion order, not request order.  On any transport
        failure every in-flight request fails with the same error, which
        is also the task's result — :meth:`_send` re-raises it for
        requests that arrive after the connection died.
        """
        missing = object()
        error: Optional[ReproError] = None
        bytes_counter = global_registry().counter("repro_client_bytes_total")

        async def counting_readexactly(size):
            data = await reader.readexactly(size)
            if data:
                bytes_counter.inc(len(data), direction="received")
            return data

        try:
            while True:
                frame = await protocol.read_frame_async(counting_readexactly)
                if frame is None:
                    error = NetworkError(
                        f"server at {self.url} closed the connection"
                    )
                    break
                future = pending.pop(frame.get("id"), missing)
                if future is missing:
                    error = ProtocolError(
                        f"response for unknown request id "
                        f"{frame.get('id')!r}"
                    )
                    break
                if future is None:
                    continue  # tombstone: the request was cancelled
                if not future.done():
                    future.set_result(frame)
        except ProtocolError as exc:
            error = exc
        except OSError as exc:
            error = NetworkError(f"connection to {self.url} failed: {exc}")
        except asyncio.CancelledError:
            error = NetworkError(f"connection to {self.url} was closed")
        finally:
            if error is None:  # pragma: no cover - belt and braces
                error = NetworkError(f"connection to {self.url} was lost")
            for future in list(pending.values()):
                if future is not None and not future.done():
                    future.set_exception(error)
            pending.clear()
        return error

    async def _send(self, op: str, params: dict) -> dict:
        """Write one frame and await its matched response (no retry)."""
        if self._closed:
            raise NetworkError("this remote session is closed")
        if self._reader_task is None:
            raise NetworkError(f"not connected to {self.url}")
        if self._reader_task.done():
            # Report why the connection died (a truncated frame, a
            # reset), not merely that it did.
            raise self._reader_task.result()
        # Snapshot the transport: if a concurrent request triggers a
        # reconnect while this one waits on the write lock, writing to
        # the *old* (now closed) writer fails cleanly — never a frame on
        # the new connection whose response the new reader can't match.
        writer = self._writer
        pending = self._pending
        self._next_id += 1
        request_id = self._next_id
        future = asyncio.get_running_loop().create_future()
        pending[request_id] = future
        frame = {"id": request_id, "op": op, **params}
        try:
            async with self._write_lock:
                data = protocol.encode_frame(frame)
                writer.write(data)
                await writer.drain()
                global_registry().counter(
                    "repro_client_bytes_total"
                ).inc(len(data), direction="sent")
        except (OSError, RuntimeError) as error:
            pending.pop(request_id, None)
            raise NetworkError(
                f"connection to {self.url} failed: {error}"
            ) from None
        try:
            return await future
        except asyncio.CancelledError:
            if pending.get(request_id) is future:
                # Tombstone: the response is still on its way; the read
                # loop must discard it rather than treat it as protocol
                # desync (which would fail every other in-flight call).
                pending[request_id] = None
            raise

    async def _teardown_transport(self) -> None:
        task, self._reader_task = self._reader_task, None
        writer, self._writer = self._writer, None
        self._reader = None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except (OSError, ConnectionResetError):
                pass
        if task is not None:
            task.cancel()
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    async def _retry(self, exchange, attempts: int):
        """(Re)connect, then ``await exchange()``, with bounded-backoff
        retry on transport failures; the one retry loop every request
        path shares.

        Returns the exchange's result and the connection *generation* it
        ran on (cursor opens pin their cursor to it).  Only
        :class:`NetworkError` / :class:`ProtocolError` retry; any other
        error, and a failure on the last attempt, propagates.
        """
        if self._closed:
            raise NetworkError("this remote session is closed")
        delay = self.retry_backoff
        for attempt in range(attempts):
            try:
                await self._ensure_connected()
                generation = self._generation
                return await exchange(), generation
            except (NetworkError, ProtocolError):
                if attempt + 1 >= attempts:
                    raise
                self._retries_attempted += 1
                global_registry().counter("repro_client_retries_total").inc()
                await asyncio.sleep(delay)
                delay = min(delay * 2, _MAX_RETRY_BACKOFF)
        raise AssertionError("unreachable")  # pragma: no cover

    async def _retry_send(self, op: str, params: dict,
                          attempts: int) -> Tuple[dict, int]:
        """One frame through :meth:`_retry`: the raw response and its
        connection generation.

        The ``hello`` handshake is additionally bounded by
        ``connect_timeout``: an endpoint that accepts TCP but never
        answers must not hang the client forever.
        """
        async def exchange() -> dict:
            if op != "hello":
                return await self._send(op, params)
            try:
                return await asyncio.wait_for(self._send(op, params),
                                              self.connect_timeout)
            except asyncio.TimeoutError:
                raise NetworkError(
                    f"server at {self.url} did not answer the "
                    f"handshake within {self.connect_timeout}s"
                ) from None

        return await self._retry(exchange, attempts)

    async def _request(self, op: str, **params) -> dict:
        """One request, reconnecting + retrying idempotent ops."""
        attempts = 1 + (self.retries if op in IDEMPOTENT_OPS else 0)
        response, _ = await self._retry_send(op, params, attempts)
        return _result(response)

    async def _open_cursor(self, op: str, text: str, payload: dict,
                           extra: dict) -> Tuple[dict, int]:
        """Open a server cursor; returns (open body, connection
        generation) — ``body["cursor"]`` is the id.

        Retried like an idempotent op — a cursor whose open response was
        lost died with its connection, so a replay leaks nothing.  ``op``
        is the open verb (``cluster_cursor`` for peer-coordinated opens)
        and ``extra`` the frame fields riding it (shard, trace context,
        ``hop``, ``peers``).
        """
        response, generation = await self._retry_send(
            op, {"query": text, "options": payload, **extra},
            1 + self.retries,
        )
        return _result(response), generation

    # ------------------------------------------------------------------
    # Prepared-statement plumbing
    # ------------------------------------------------------------------
    async def _ensure_prepared(self, key: Tuple[str, str], text: str,
                               payload: dict) -> int:
        """The handle for ``key`` on the *current* connection, preparing
        when the mapping is missing or pinned to a pre-reconnect
        generation.  Single attempt — the caller's retry loop owns
        reconnection."""
        entry = self._prepared.get(key)
        if entry is not None and entry[1] == self._generation:
            return entry[0]
        body = _result(await self._send(
            "prepare", {"query": text, "options": payload}
        ))
        self._prepared[key] = (body["handle"], self._generation)
        return body["handle"]

    async def _prepared_send(self, op: str, key: Tuple[str, str],
                             text: str, payload: dict,
                             extra: dict) -> Tuple[dict, int]:
        """Execute-by-handle through the shared retry loop, plus one
        transparent re-prepare on :class:`PreparedError` (the server
        idle-expired or lost the handle while the connection lived).
        A reconnect needs no special case: the new generation strands
        the old handle and :meth:`_ensure_prepared` prepares afresh.
        Returns the result body and the generation it was exchanged on.
        """
        async def exchange() -> dict:
            params = {"handle": await self._ensure_prepared(key, text,
                                                            payload),
                      "options": payload, **extra}
            try:
                return _result(await self._send(op, params))
            except PreparedError:
                self._prepared.pop(key, None)
                params["handle"] = await self._ensure_prepared(
                    key, text, payload)
                return _result(await self._send(op, params))

        return await self._retry(exchange, 1 + self.retries)

    # ------------------------------------------------------------------
    # The Session surface
    # ------------------------------------------------------------------
    def options(self, options: Optional[QueryOptions] = None,
                **overrides) -> QueryOptions:
        return QueryOptions.resolve(options, overrides,
                                    defaults=self.defaults)

    async def run(self, query, options: Optional[QueryOptions] = None,
                  **overrides) -> AsyncRemoteResultSet:
        """Open a server-side cursor for ``query``; nothing executes yet.

        ``route="peer"`` sends the peer-coordinated ``cluster_*`` ops
        (``hop=0``) so the server gathers from its fleet and merges
        before this hop.
        """
        opts = self.options(options, **overrides)
        text = str(query)
        if opts.route == "peer":
            meta = await self._request("cluster_run", query=text,
                                       options=_options_payload(opts),
                                       hop=0)
            return AsyncRemoteResultSet(self, text, opts, meta,
                                        open_op="cluster_cursor",
                                        open_extra={"hop": 0})
        meta = await self._request("run", query=text,
                                   options=_options_payload(opts))
        return AsyncRemoteResultSet(self, text, opts, meta)

    async def prepare(self, query, options: Optional[QueryOptions] = None,
                      **overrides) -> "AsyncRemotePreparedHandle":
        """Register ``query`` server-side and return a reusable handle.

        Parse/decompose/plan happen once, at prepare time; every
        subsequent ``handle.run()`` sends only the integer handle.  A
        reconnect strands server-side handles — the session re-prepares
        transparently on the next execute.
        """
        opts = self.options(options, **overrides)
        text = str(query)
        key = (text, opts.algorithm)
        response, generation = await self._retry_send(
            "prepare", {"query": text, "options": _options_payload(opts)},
            1 + self.retries,
        )
        meta = _result(response)
        self._prepared[key] = (meta["handle"], generation)
        return AsyncRemotePreparedHandle(self, text, opts, meta, key)

    async def explain(self, query, options: Optional[QueryOptions] = None,
                      **overrides) -> RemoteExplain:
        opts = self.options(options, **overrides)
        response = await self._request("explain", query=str(query),
                                       options=_options_payload(opts))
        return RemoteExplain(response["report"], response["rendered"])

    async def stats(self) -> dict:
        """Server counters plus this session's resilience accounting:
        retries attempted and reconnects (generation bumps past the
        first connect)."""
        response = await self._request("stats")
        stats = {key: response[key]
                 for key in ("connection", "cursors", "service")}
        if "prepared" in response:  # absent from protocol-v1 servers
            stats["prepared"] = response["prepared"]
        stats["client"] = {
            "retries": self._retries_attempted,
            "reconnects": max(0, self._generation - 1),
            "generation": self._generation,
        }
        return stats

    async def metrics(self) -> str:
        """The server's metrics registry in Prometheus text format."""
        return (await self._request("metrics"))["metrics"]

    async def events(self, limit: Optional[int] = None) -> List[dict]:
        """The server's flight-recorder ring, oldest first."""
        params = {} if limit is None else {"limit": int(limit)}
        return (await self._request("events", **params))["events"]

    async def close(self) -> None:
        if self._closed:
            return
        if self._writer is not None and self._reader_task is not None \
                and not self._reader_task.done():
            try:
                await self._send("goodbye", {})
            except (NetworkError, ProtocolError):
                pass
        self._closed = True
        await self._teardown_transport()

    async def __aenter__(self) -> "AsyncRemoteSession":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return f"AsyncRemoteSession({self.url!r}, {state})"


class AsyncRemotePreparedHandle:
    """A server-side prepared statement on an async session.

    Returned by :meth:`AsyncRemoteSession.prepare`.  ``run`` is a pure
    constructor — no frame travels until the result set is consumed,
    at which point the cursor opens by handle (never by text).
    """

    def __init__(self, session: AsyncRemoteSession, text: str,
                 options: QueryOptions, meta: dict,
                 key: Tuple[str, str]) -> None:
        self._session = session
        self._text = text
        self._options = options
        self._meta = meta
        self._key = key
        self._closed = False

    @property
    def text(self) -> str:
        return self._text

    @property
    def algorithm(self) -> str:
        return self._meta["algorithm"]

    async def run(self, options: Optional[QueryOptions] = None,
                  **overrides) -> AsyncRemoteResultSet:
        if self._closed:
            raise PreparedError("this prepared handle is closed")
        opts = self._session.options(
            options if options is not None else self._options, **overrides
        )
        return AsyncRemoteResultSet(self._session, self._text, opts,
                                    dict(self._meta),
                                    prepared_key=self._key)

    async def explain(self) -> RemoteExplain:
        return await self._session.explain(self._text, self._options)

    async def close(self) -> None:
        """Deallocate (best effort) and refuse further runs; idempotent."""
        if self._closed:
            return
        self._closed = True
        entry = self._session._prepared.pop(self._key, None)
        if entry is not None and entry[1] == self._session._generation:
            try:
                _result(await self._session._send(
                    "deallocate", {"handle": entry[0]}
                ))
            except (NetworkError, ProtocolError, ReproError):
                pass

    async def __aenter__(self) -> "AsyncRemotePreparedHandle":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (f"AsyncRemotePreparedHandle(text={self._text!r}, "
                f"algorithm={self.algorithm!r}, {state})")


async def connect_async(url: str, *,
                        algorithm: str = "auto",
                        parallel: Optional[int] = None,
                        partition_mode: str = "auto",
                        timeout: Optional[float] = None,
                        use_cache: bool = True,
                        limit: Optional[int] = None,
                        trace: bool = False,
                        route: Optional[str] = None,
                        fetch_size: int = DEFAULT_FETCH_SIZE,
                        retries: int = DEFAULT_RETRIES,
                        retry_backoff: float = DEFAULT_RETRY_BACKOFF,
                        connect_timeout: float = 10.0,
                        wire_encoding: Optional[str] = None
                        ) -> AsyncRemoteSession:
    """Open an :class:`AsyncRemoteSession`: ``await repro.net.connect_async(...)``."""
    options = QueryOptions(
        algorithm=algorithm, parallel=parallel,
        partition_mode=partition_mode, timeout=timeout,
        use_cache=use_cache, limit=limit, trace=trace, route=route,
    )
    session = AsyncRemoteSession(url, options=options, fetch_size=fetch_size,
                                 retries=retries, retry_backoff=retry_backoff,
                                 connect_timeout=connect_timeout,
                                 wire_encoding=wire_encoding)
    return await session._open()


# ----------------------------------------------------------------------
# The synchronous façade
# ----------------------------------------------------------------------
class RemoteResultSet(RowCursor):
    """A server-side cursor paged over the wire, with the local surface.

    The synchronous face of an :class:`AsyncRemoteResultSet`: the
    cursor is forward-only and shared across the consumption methods,
    exactly like a local :class:`~repro.api.result.ResultSet`.  Rows
    already paged in are served straight from the buffer; anything that
    needs the wire runs on the session's loop thread.  If the connection
    is lost mid-stream the cursor is gone — fetches raise
    :class:`CursorError` (never a silent retry, which could skip or
    repeat rows); re-run the query for a fresh result set.
    """

    def __init__(self, session: "RemoteSession",
                 inner: AsyncRemoteResultSet) -> None:
        self._session = session
        self._inner = inner
        self._variables = inner._variables

    @property
    def query_text(self) -> str:
        return self._inner.query_text

    @property
    def algorithm(self) -> str:
        return self._inner.algorithm

    @property
    def shards(self) -> int:
        return self._inner.shards

    @property
    def complete(self) -> bool:
        """True once the full answer has been pulled over the wire."""
        return self._inner.complete

    @property
    def stats(self) -> ResultStats:
        """What this result did, merged from plan metadata and fetches."""
        return self._inner.stats

    @property
    def open_body(self) -> dict:
        """The raw cursor-open response body (peer opens carry gather
        summary scalars: shard map, hedges, coordinator)."""
        return self._inner.open_body

    def _pull(self) -> Optional[Row]:
        inner = self._inner
        if not inner._buffer and (
                inner._done or not self._session._call(inner._refill())):
            return None
        return inner._pop()

    def fetchmany(self, size: int = 1) -> List[Row]:
        """See :meth:`AsyncRemoteResultSet.fetchmany`."""
        return self._session._call(self._inner.fetchmany(size))

    def fetchall(self) -> List[Row]:
        """See :meth:`AsyncRemoteResultSet.fetchall`."""
        return self._session._call(self._inner.fetchall())

    def count(self) -> int:
        """The number of answers via the server's count path; the
        cursor position is untouched."""
        return self._session._call(self._inner.count())

    def close(self) -> None:
        """Release the server-side cursor early; idempotent."""
        self._session._call(self._inner.close())


class RemotePreparedHandle:
    """A server-side prepared statement with the local handle surface.

    Returned by :meth:`RemoteSession.prepare`; the synchronous face of
    an :class:`AsyncRemotePreparedHandle`.  ``run`` builds a result set
    whose cursor and count travel by handle — the query text is never
    resent and never reparsed.  A handle the server expired or lost to
    a restart is re-prepared transparently on the next execute.
    """

    def __init__(self, session: "RemoteSession",
                 inner: AsyncRemotePreparedHandle) -> None:
        self._session = session
        self._inner = inner

    @property
    def text(self) -> str:
        return self._inner.text

    @property
    def algorithm(self) -> str:
        return self._inner.algorithm

    def run(self, options: Optional[QueryOptions] = None,
            **overrides) -> RemoteResultSet:
        """Execute the prepared shape; nothing touches the wire until
        the result set is consumed."""
        return RemoteResultSet(self._session, self._session._call(
            self._inner.run(options, **overrides)))

    def explain(self) -> RemoteExplain:
        return self._session._call(self._inner.explain())

    def close(self) -> None:
        """Deallocate (best effort) and refuse further runs; idempotent."""
        self._session._call(self._inner.close())

    def __enter__(self) -> "RemotePreparedHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._inner._closed else "open"
        return (f"RemotePreparedHandle(text={self.text!r}, "
                f"algorithm={self.algorithm!r}, {state})")


class RemoteSession:
    """A connected remote client with the local ``Session`` surface.

    The synchronous face of one :class:`AsyncRemoteSession`, driven on a
    private event-loop thread: every call forwards to the async core, so
    reconnect, retry, re-prepare and cursor paging behave exactly as
    they do there.  Worker threads may share one session; their
    requests multiplex over its single connection.

    Parameters
    ----------
    url:
        ``repro://host[:port]`` (bracket IPv6 literals: ``repro://[::1]``).
    options:
        Session-default :class:`QueryOptions`; per-call overrides apply
        exactly as on a local session.
    fetch_size:
        Page size for iteration-driven fetches (explicit ``fetchmany(k)``
        always fetches exactly ``k``).
    connect_timeout:
        Seconds to wait for a TCP connection and for the handshake
        (queries themselves are not bounded client-side; use
        ``QueryOptions.timeout`` for that).
    retries:
        How many times an idempotent request (:data:`IDEMPOTENT_OPS`) is
        replayed on a fresh connection after a transport failure, with
        exponential backoff starting at ``retry_backoff`` seconds.
        Cursor fetches are never retried.
    wire_encoding:
        ``"binary"`` (the default) advertises the columnar binary fetch
        encoding in the handshake and uses it when the server agrees;
        ``"json"`` skips the advertisement entirely — indistinguishable,
        on the wire, from a protocol-v1 client.  The environment
        variable :data:`WIRE_ENCODING_ENV` overrides the default when
        the argument is ``None``.  ``self.wire_encoding`` afterwards
        holds what was actually negotiated.
    """

    def __init__(self, url: str, *, options: Optional[QueryOptions] = None,
                 fetch_size: int = DEFAULT_FETCH_SIZE,
                 connect_timeout: float = 10.0,
                 retries: int = DEFAULT_RETRIES,
                 retry_backoff: float = DEFAULT_RETRY_BACKOFF,
                 wire_encoding: Optional[str] = None) -> None:
        core = AsyncRemoteSession(
            url, options=options, fetch_size=fetch_size, retries=retries,
            retry_backoff=retry_backoff, connect_timeout=connect_timeout,
            wire_encoding=wire_encoding,
        )
        self._async = core
        self._closed = False
        self._loop = _LoopThread()
        try:
            self._loop.call(core._open())
        except BaseException:
            # A failed handshake must leak neither sockets (the core
            # tore its transport down) nor the loop thread.
            self._closed = True
            self._loop.close()
            raise
        self.url = url
        self.defaults = core.defaults
        self.retries = core.retries
        self.server_info = core.server_info
        self.wire_encoding = core.wire_encoding

    def _call(self, coro):
        """Run one coroutine of the async core and return its result.

        Normally on the loop thread.  After :meth:`close` that thread is
        gone, so the coroutine runs on a throwaway loop against the
        closed core instead: whatever needs the wire fails exactly as on
        a closed async session (an undrained cursor with
        :class:`CursorError`), and rows or counts already in hand are
        still served.
        """
        if self._closed:
            return asyncio.run(coro)
        return self._loop.call(coro)

    def _request(self, op: str, **params) -> dict:
        """One raw request (retried if idempotent), unwrapped."""
        return self._call(self._async._request(op, **params))

    # ------------------------------------------------------------------
    # The Session surface
    # ------------------------------------------------------------------
    def options(self, options: Optional[QueryOptions] = None,
                **overrides) -> QueryOptions:
        """Resolve per-call options against the session defaults."""
        return self._async.options(options, **overrides)

    def run(self, query, options: Optional[QueryOptions] = None,
            **overrides) -> RemoteResultSet:
        """Plan ``query`` server-side; no cursor opens until the result
        set is consumed.

        Options validate client-side (the same
        :class:`~repro.errors.OptionsError` boundary as a local session)
        before anything touches the wire.  With ``route="peer"`` the
        plan probe travels as ``cluster_run`` (``hop=0``): the server
        answers with its peer-fleet plan and later consumption gathers
        server-side.
        """
        return RemoteResultSet(self, self._call(
            self._async.run(query, options, **overrides)))

    def prepare(self, query, options: Optional[QueryOptions] = None,
                **overrides) -> RemotePreparedHandle:
        """Register ``query`` server-side and return a reusable handle.

        Preparing pays the parse/decompose/plan cost once; every
        subsequent :meth:`RemotePreparedHandle.run` sends only the
        integer handle.  Preparing the same text twice dedups to the
        same server-side statement.
        """
        return RemotePreparedHandle(self, self._call(
            self._async.prepare(query, options, **overrides)))

    def explain(self, query, options: Optional[QueryOptions] = None,
                **overrides) -> RemoteExplain:
        """The server's structured plan report for ``query``."""
        return self._call(self._async.explain(query, options, **overrides))

    def stats(self) -> dict:
        """Connection, cursor, and service counters from the server.

        ``connection`` and ``cursors`` describe this session's
        connection; ``service`` is global.  ``client`` is local: this
        session's resilience accounting — retries attempted, reconnects,
        and the connection generation (1 until the first reconnect).
        """
        return self._call(self._async.stats())

    def metrics(self) -> str:
        """The server's metrics registry in Prometheus text format."""
        return self._call(self._async.metrics())

    def events(self, limit: Optional[int] = None) -> List[dict]:
        """The server's flight-recorder ring, oldest first."""
        return self._call(self._async.events(limit))

    def close(self) -> None:
        """Say goodbye, close the connection, stop the loop thread;
        idempotent.  Undrained result sets' cursors die with the
        connection."""
        if self._closed:
            return
        self._closed = True
        try:
            self._loop.call(self._async.close())
        finally:
            self._loop.close()

    def __enter__(self) -> "RemoteSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return f"RemoteSession({self.url!r}, {state})"


def connect(url: str, *,
            algorithm: str = "auto",
            parallel: Optional[int] = None,
            partition_mode: str = "auto",
            timeout: Optional[float] = None,
            use_cache: bool = True,
            limit: Optional[int] = None,
            trace: bool = False,
            route: Optional[str] = None,
            fetch_size: int = DEFAULT_FETCH_SIZE,
            connect_timeout: float = 10.0,
            retries: int = DEFAULT_RETRIES,
            retry_backoff: float = DEFAULT_RETRY_BACKOFF,
            wire_encoding: Optional[str] = None) -> RemoteSession:
    """Open a :class:`RemoteSession`; keyword args become its defaults.

    ``route="peer"`` makes every query travel as a peer-coordinated
    cluster op: the server sub-shards across its ``--peers`` fleet and
    merges server-side, so only the merged answer crosses this hop.
    """
    options = QueryOptions(
        algorithm=algorithm, parallel=parallel,
        partition_mode=partition_mode, timeout=timeout,
        use_cache=use_cache, limit=limit, trace=trace, route=route,
    )
    return RemoteSession(url, options=options, fetch_size=fetch_size,
                         connect_timeout=connect_timeout, retries=retries,
                         retry_backoff=retry_backoff,
                         wire_encoding=wire_encoding)
