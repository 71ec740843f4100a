"""Timed benchmark runs following the paper's protocol (§5.1).

The paper's protocol: every cell (system × dataset × query × selectivity)
is executed three times, the last two executions are averaged, a 30-minute
soft timeout turns a cell into "-", and every system sees the same node
samples.  The harness reproduces that protocol at laptop scale: the same
repetition/averaging rules, a configurable (much smaller) timeout, and
deterministic samples shared across systems.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.data.catalog import load_dataset
from repro.data.sampling import attach_samples
from repro.datalog.query import ConjunctiveQuery
from repro.queries.patterns import PatternSpec, pattern
from repro.storage.database import Database


def _connect(*args, **kwargs):
    """Open a session (imported lazily: the session module sits above the
    bench layer, and the service's workload module imports this one)."""
    from repro.api.session import connect

    return connect(*args, **kwargs)


@dataclass(frozen=True)
class BenchmarkConfig:
    """Knobs shared by every benchmark in the repository.

    ``parallel`` > 1 measures partitioned execution: every cell's query
    is split into that many shards evaluated on a process pool, via the
    same plan/executor seam the service uses.
    """

    timeout: float = 20.0
    repetitions: int = 3
    warmup_discard: int = 1
    scale: float = 1.0
    seed: int = 0
    parallel: int = 1
    partition_mode: str = "auto"

    def timed_repetitions(self) -> int:
        return max(1, self.repetitions - self.warmup_discard)


@dataclass
class BenchmarkCell:
    """One measured cell of a paper table."""

    system: str
    dataset: str
    query: str
    selectivity: Optional[int]
    seconds: Optional[float]
    count: Optional[int]
    timed_out: bool = False
    error: Optional[str] = None

    @property
    def succeeded(self) -> bool:
        return self.seconds is not None and not self.timed_out and self.error is None

    def cell(self, precision: int = 2) -> str:
        """Render like the paper: a duration, or "-" for timeout/unsupported."""
        if not self.succeeded:
            return "-"
        return f"{self.seconds:.{precision}f}"


def benchmark_database(dataset_name: str, query_name: Optional[str] = None,
                       selectivity: Optional[int] = None,
                       config: Optional[BenchmarkConfig] = None) -> Database:
    """Build the database for one benchmark cell.

    The edge relation comes from the dataset catalog; when the query pattern
    needs node samples they are attached at the requested selectivity using
    the shared deterministic seed, so every system measures the same cell.
    """
    config = config or BenchmarkConfig()
    database = Database([load_dataset(dataset_name, scale=config.scale)])
    if query_name is not None:
        spec = pattern(query_name)
        if spec.sample_relations:
            if selectivity is None:
                raise ValueError(
                    f"query {query_name!r} needs node samples; pass a selectivity"
                )
            attach_samples(database, selectivity,
                           sample_names=spec.sample_relations, seed=config.seed)
    return database


def run_cell(system: str, dataset_name: str, query_name: str,
             selectivity: Optional[int] = None,
             config: Optional[BenchmarkConfig] = None,
             database: Optional[Database] = None,
             query: Optional[ConjunctiveQuery] = None) -> BenchmarkCell:
    """Measure one (system, dataset, query, selectivity) cell.

    The first ``warmup_discard`` repetitions are discarded and the remaining
    ones averaged, mirroring the paper's "average the last two of three
    executions".  A timeout or an unsupported query (for example a path
    query on the graph engine) renders as "-".
    """
    config = config or BenchmarkConfig()
    if database is None:
        database = benchmark_database(dataset_name, query_name, selectivity, config)
    if query is None:
        query = pattern(query_name).build()

    durations: List[float] = []
    count: Optional[int] = None
    # Benchmarks measure raw execution: the session's caches are off, so
    # every repetition pays the full plan + execute cost like the paper's
    # protocol intends.
    with _connect(database, timeout=config.timeout, use_cache=False,
                  parallel=config.parallel,
                  partition_mode=config.partition_mode) as session:
        session.engine.warm_up()  # pool start-up is not billed to the cell
        for repetition in range(config.repetitions):
            result = session.execute(query, algorithm=system)
            if not result.succeeded:
                return BenchmarkCell(
                    system=system, dataset=dataset_name, query=query_name,
                    selectivity=selectivity, seconds=None, count=None,
                    timed_out=result.timed_out, error=result.error,
                )
            count = result.count
            if repetition >= config.warmup_discard or config.repetitions == 1:
                durations.append(result.seconds)
    seconds = sum(durations) / len(durations)
    return BenchmarkCell(
        system=system, dataset=dataset_name, query=query_name,
        selectivity=selectivity, seconds=seconds, count=count,
    )


def run_grid(systems: Sequence[str], dataset_names: Sequence[str],
             query_names: Sequence[str],
             selectivities: Sequence[Optional[int]] = (None,),
             config: Optional[BenchmarkConfig] = None) -> List[BenchmarkCell]:
    """Measure a full grid of cells, sharing databases across systems.

    Databases are built once per (dataset, query, selectivity) so every
    system sees identical inputs, then each system is timed on it.
    """
    config = config or BenchmarkConfig()
    cells: List[BenchmarkCell] = []
    for dataset_name in dataset_names:
        for query_name in query_names:
            spec = pattern(query_name)
            effective_selectivities: Sequence[Optional[int]]
            if spec.sample_relations:
                effective_selectivities = [s for s in selectivities if s is not None]
            else:
                effective_selectivities = [None]
            for selectivity in effective_selectivities:
                database = benchmark_database(
                    dataset_name, query_name, selectivity, config
                )
                query = spec.build()
                for system in systems:
                    cells.append(run_cell(
                        system, dataset_name, query_name, selectivity,
                        config=config, database=database, query=query,
                    ))
    return cells


@dataclass
class CachedVsColdResult:
    """Throughput of the serving layer vs. a cold per-query engine loop.

    ``consistent`` records whether both paths produced identical answers
    for every request of the stream (the correctness half of the
    experiment); ``speedup`` is ``cold_seconds / cached_seconds``.
    """

    operations: int
    unique_queries: int
    cold_seconds: float
    cached_seconds: float
    consistent: bool

    @property
    def cold_qps(self) -> float:
        return self.operations / self.cold_seconds if self.cold_seconds else 0.0

    @property
    def cached_qps(self) -> float:
        return (
            self.operations / self.cached_seconds if self.cached_seconds else 0.0
        )

    @property
    def speedup(self) -> float:
        if self.cached_seconds == 0:
            return float("inf")
        return self.cold_seconds / self.cached_seconds


def run_cached_vs_cold(database: Database, query_texts: Sequence[str],
                       repeats: int = 20,
                       timeout: Optional[float] = None) -> CachedVsColdResult:
    """Measure plan+result caching on a repeated-query stream.

    The stream interleaves ``repeats`` rounds over ``query_texts`` — the
    shape of a parameterized serving workload where the same instances
    recur.  The *cold* path is what the repo offered before the service
    layer: an uncached session whose every request re-parses, re-analyses,
    and re-executes.  The *cached* path serves the identical
    stream through :class:`repro.service.QueryService`.  Answers are
    compared request-by-request.
    """
    from repro.service.service import QueryService, ServiceConfig

    stream = [text for _ in range(repeats) for text in query_texts]

    cold_answers: List[Optional[int]] = []
    with _connect(database, timeout=timeout, use_cache=False) as session:
        cold_started = time.perf_counter()
        for text in stream:
            result = session.execute(text)
            cold_answers.append(result.count if result.succeeded else None)
        cold_seconds = time.perf_counter() - cold_started

    cached_answers: List[Optional[int]] = []
    with QueryService(
        database, ServiceConfig(default_timeout=timeout)
    ) as service:
        cached_started = time.perf_counter()
        for text in stream:
            outcome = service.execute(text)
            cached_answers.append(outcome.count if outcome.succeeded else None)
        cached_seconds = time.perf_counter() - cached_started

    return CachedVsColdResult(
        operations=len(stream),
        unique_queries=len(set(query_texts)),
        cold_seconds=cold_seconds,
        cached_seconds=cached_seconds,
        consistent=cold_answers == cached_answers,
    )


@dataclass
class SerialVsPartitionedResult:
    """Wall-clock of serial vs. partitioned multi-process execution.

    The correctness half: ``consistent`` records whether both paths
    returned identical counts for every request.  The performance half:
    ``speedup`` is ``serial_seconds / partitioned_seconds`` for the whole
    stream.  ``scheme_keys`` records the partitioning each query used
    (e.g. ``hypercube[a:2,b:2]``), for the report.
    """

    operations: int
    shards: int
    serial_seconds: float
    partitioned_seconds: float
    consistent: bool
    scheme_keys: Dict[str, str] = field(default_factory=dict)
    counts: Dict[str, Optional[int]] = field(default_factory=dict)

    @property
    def speedup(self) -> float:
        if self.partitioned_seconds == 0:
            return float("inf")
        return self.serial_seconds / self.partitioned_seconds

    def format(self) -> str:
        """A paper-style text table via the shared bench reporting."""
        from repro.bench.reporting import format_matrix

        rows = sorted(self.scheme_keys)
        cells = {}
        for query in rows:
            cells[(query, "scheme")] = self.scheme_keys.get(query, "-")
            count = self.counts.get(query)
            cells[(query, "count")] = f"{count:,}" if count is not None else "-"
        table = format_matrix(
            f"serial vs partitioned ({self.shards} worker processes)",
            rows, ["scheme", "count"], cells, row_header="query",
        )
        verdict = "identical answers" if self.consistent else "ANSWER MISMATCH"
        return "\n".join([
            table,
            f"serial: {self.serial_seconds:.3f}s  partitioned: "
            f"{self.partitioned_seconds:.3f}s  speedup: {self.speedup:.2f}x "
            f"({verdict})",
        ])


def run_serial_vs_partitioned(database: Database,
                              query_texts: Sequence[str],
                              shards: int = 4,
                              mode: str = "auto",
                              repeats: int = 1,
                              timeout: Optional[float] = None
                              ) -> SerialVsPartitionedResult:
    """Measure partitioned multi-process execution against the serial path.

    Every request is executed twice — once on a serial engine, once on an
    engine whose executor is a pool of ``shards`` worker processes — and
    the counts are compared request by request, which is the
    "verified-identical answers" requirement of the partitioned-execution
    experiment.  Real speedup requires real cores: on a single-CPU host
    the partitioned path measures pure overhead.
    """
    stream = [text for _ in range(repeats) for text in query_texts]

    serial_counts: List[Optional[int]] = []
    with _connect(database, timeout=timeout, use_cache=False) as session:
        serial_started = time.perf_counter()
        for text in stream:
            result = session.execute(text)
            serial_counts.append(result.count if result.succeeded else None)
        serial_seconds = time.perf_counter() - serial_started

    partitioned_counts: List[Optional[int]] = []
    scheme_keys: Dict[str, str] = {}
    with _connect(database, timeout=timeout, use_cache=False,
                 parallel=shards, partition_mode=mode) as session:
        session.engine.warm_up()  # measure shards, not pool start-up
        for text in query_texts:
            scheme_keys[text] = session.plan(text).partition_key()
        partitioned_started = time.perf_counter()
        for text in stream:
            result = session.execute(text)
            partitioned_counts.append(
                result.count if result.succeeded else None
            )
        partitioned_seconds = time.perf_counter() - partitioned_started

    return SerialVsPartitionedResult(
        operations=len(stream),
        shards=shards,
        serial_seconds=serial_seconds,
        partitioned_seconds=partitioned_seconds,
        consistent=serial_counts == partitioned_counts,
        scheme_keys=scheme_keys,
        counts={
            text: count for text, count in zip(stream, serial_counts)
        },
    )


@dataclass
class RemoteVsLocalResult:
    """Wire-protocol overhead: the same stream in-process vs. over TCP.

    Both paths hit the *same* :class:`~repro.service.QueryService`
    (identical caches, identical engine), so the difference is exactly
    the network layer: framing, the asyncio server, cursor paging.
    ``consistent`` records whether every request's answer matched;
    ``overhead`` is ``remote_seconds / local_seconds``.
    """

    operations: int
    unique_queries: int
    local_seconds: float
    remote_seconds: float
    consistent: bool
    url: str = ""

    @property
    def local_qps(self) -> float:
        return self.operations / self.local_seconds if self.local_seconds \
            else 0.0

    @property
    def remote_qps(self) -> float:
        return self.operations / self.remote_seconds if self.remote_seconds \
            else 0.0

    @property
    def overhead(self) -> float:
        if self.local_seconds == 0:
            return float("inf")
        return self.remote_seconds / self.local_seconds

    def format(self) -> str:
        verdict = "identical answers" if self.consistent \
            else "ANSWER MISMATCH"
        return (
            f"remote vs local ({self.operations} ops over "
            f"{self.unique_queries} unique queries via {self.url}): "
            f"{self.local_qps:.1f} q/s local vs {self.remote_qps:.1f} q/s "
            f"remote ({self.overhead:.2f}x wire overhead, {verdict})"
        )


def run_remote_vs_local(database: Database, query_texts: Sequence[str],
                        repeats: int = 10,
                        timeout: Optional[float] = None,
                        mode: str = "tuples") -> RemoteVsLocalResult:
    """Measure the wire protocol's overhead against in-process serving.

    One :class:`~repro.service.QueryService` serves a repeated-query
    stream twice: *local* calls it in-process, *remote* drives the same
    stream through a real TCP boundary (an in-thread
    :class:`~repro.net.server.ReproServer` plus a
    :class:`~repro.net.client.RemoteSession`).  A warm-up round over the
    unique queries runs first so both measured passes see the same cache
    state and the comparison isolates the wire, not cold planning.
    ``mode="tuples"`` drains every answer through cursor paging;
    ``mode="count"`` measures the scalar round trip.
    """
    from repro.net.client import RemoteSession
    from repro.net.server import ServerThread
    from repro.service.service import QueryService, ServiceConfig

    stream = [text for _ in range(repeats) for text in query_texts]

    with QueryService(
        database, ServiceConfig(default_timeout=timeout)
    ) as service:
        for text in query_texts:  # warm both caches once
            service.execute(text, mode=mode)

        local_answers: List[object] = []
        local_started = time.perf_counter()
        for text in stream:
            outcome = service.execute(text, mode=mode)
            local_answers.append(
                outcome.value if outcome.succeeded else None
            )
        local_seconds = time.perf_counter() - local_started

        remote_answers: List[object] = []
        with ServerThread(service) as server:
            with RemoteSession(server.url, options=None) as session:
                remote_started = time.perf_counter()
                for text in stream:
                    result_set = session.run(text, timeout=timeout)
                    if mode == "count":
                        remote_answers.append(result_set.count())
                    else:
                        remote_answers.append(
                            tuple(sorted(result_set.fetchall()))
                        )
                remote_seconds = time.perf_counter() - remote_started
            url = server.url

    return RemoteVsLocalResult(
        operations=len(stream),
        unique_queries=len(set(query_texts)),
        local_seconds=local_seconds,
        remote_seconds=remote_seconds,
        consistent=local_answers == remote_answers,
        url=url,
    )


@dataclass
class PipelinedThroughputResult:
    """Throughput of the three remote client shapes on one stream.

    * ``serial`` — one connection, one request at a time: the baseline.
    * ``threaded`` — ``concurrency`` worker threads sharing one
      :class:`~repro.net.client.RemoteSession`: the sync façade's
      requests multiplex over its single connection.
    * ``pipelined`` — ``asyncio.gather`` over the whole stream on one
      :class:`~repro.net.client.AsyncRemoteSession`: every request
      multiplexed over a *single* socket, matched by request id, with
      the server overlapping their execution on its worker pool.

    ``consistent`` records whether all three streams returned answers
    identical to a warm-up reference, request by request.
    """

    operations: int
    unique_queries: int
    concurrency: int
    serial_seconds: float
    threaded_seconds: float
    pipelined_seconds: float
    consistent: bool
    url: str = ""

    def _qps(self, seconds: float) -> float:
        return self.operations / seconds if seconds else float("inf")

    @property
    def serial_qps(self) -> float:
        return self._qps(self.serial_seconds)

    @property
    def threaded_qps(self) -> float:
        return self._qps(self.threaded_seconds)

    @property
    def pipelined_qps(self) -> float:
        return self._qps(self.pipelined_seconds)

    @property
    def threaded_speedup(self) -> float:
        return self.serial_seconds / self.threaded_seconds \
            if self.threaded_seconds else float("inf")

    @property
    def pipelined_speedup(self) -> float:
        return self.serial_seconds / self.pipelined_seconds \
            if self.pipelined_seconds else float("inf")

    def format(self) -> str:
        verdict = "identical answers" if self.consistent \
            else "ANSWER MISMATCH"
        return "\n".join([
            f"pipelined throughput ({self.operations} ops over "
            f"{self.unique_queries} unique queries via {self.url}, "
            f"concurrency {self.concurrency}):",
            f"  serial    (1 conn, 1 in flight) : "
            f"{self.serial_qps:>8.1f} q/s",
            f"  threaded  ({self.concurrency} threads, 1 conn)  : "
            f"{self.threaded_qps:>8.1f} q/s  "
            f"({self.threaded_speedup:.2f}x)",
            f"  pipelined (1 conn, multiplexed) : "
            f"{self.pipelined_qps:>8.1f} q/s  "
            f"({self.pipelined_speedup:.2f}x)",
            f"  ({verdict})",
        ])


def run_pipelined_throughput(database: Database,
                             query_texts: Sequence[str],
                             repeats: int = 10,
                             concurrency: int = 8,
                             timeout: Optional[float] = None
                             ) -> PipelinedThroughputResult:
    """Measure what threads and pipelining buy over a serial connection.

    One :class:`~repro.service.QueryService` behind one in-thread
    :class:`~repro.net.server.ReproServer` answers the same
    repeated-query count stream three ways: a serial one-request-at-a-
    time session, ``concurrency`` threads sharing one synchronous
    session, and a single multiplexed asyncio connection carrying every
    request concurrently (``asyncio.gather``).  A warm-up round runs
    first so all passes see the same cache state, and every answer of
    every pass is verified against the warm-up reference — the
    correctness half of the experiment.  Real overlap needs real cores
    (and a real network adds the latency that pipelining hides best);
    in-process over loopback the threaded/pipelined passes mostly
    measure scheduling overlap.
    """
    import asyncio
    from concurrent.futures import ThreadPoolExecutor

    from repro.net.client import RemoteSession, connect_async
    from repro.net.server import ServerThread
    from repro.service.service import QueryService, ServiceConfig

    stream = [text for _ in range(repeats) for text in query_texts]

    with QueryService(
        database,
        ServiceConfig(workers=max(4, concurrency), default_timeout=timeout),
    ) as service:
        with ServerThread(service) as server:
            url = server.url
            with RemoteSession(url) as warm:
                expected = {
                    text: warm.run(text, timeout=timeout).count()
                    for text in query_texts
                }
            reference = [expected[text] for text in stream]

            with RemoteSession(url) as session:
                started = time.perf_counter()
                serial_answers = [
                    session.run(text, timeout=timeout).count()
                    for text in stream
                ]
                serial_seconds = time.perf_counter() - started

            with RemoteSession(url) as session:
                with ThreadPoolExecutor(concurrency) as workers:
                    started = time.perf_counter()
                    threaded_answers = list(workers.map(
                        lambda text: session.run(
                            text, timeout=timeout
                        ).count(),
                        stream,
                    ))
                    threaded_seconds = time.perf_counter() - started

            async def _pipelined():
                session = await connect_async(url, timeout=timeout)
                try:
                    async def one(text: str) -> int:
                        result_set = await session.run(text)
                        return await result_set.count()

                    started = time.perf_counter()
                    answers = await asyncio.gather(
                        *[one(text) for text in stream]
                    )
                    return time.perf_counter() - started, list(answers)
                finally:
                    await session.close()

            pipelined_seconds, pipelined_answers = asyncio.run(_pipelined())

    return PipelinedThroughputResult(
        operations=len(stream),
        unique_queries=len(set(query_texts)),
        concurrency=concurrency,
        serial_seconds=serial_seconds,
        threaded_seconds=threaded_seconds,
        pipelined_seconds=pipelined_seconds,
        consistent=(serial_answers == reference
                    and threaded_answers == reference
                    and pipelined_answers == reference),
        url=url,
    )


def speedup(baseline: BenchmarkCell, improved: BenchmarkCell) -> Optional[float]:
    """``baseline.seconds / improved.seconds`` or ``None`` if either failed."""
    if not baseline.succeeded or not improved.succeeded:
        return None
    if improved.seconds == 0:
        return float("inf")
    return baseline.seconds / improved.seconds


def consistency_check(cells: Iterable[BenchmarkCell]) -> Dict[Tuple[str, str, Optional[int]], bool]:
    """Verify that every system that finished a cell reports the same count.

    Returns a map from (dataset, query, selectivity) to whether all counts
    agree — the "we verified the result for all implementations" step of
    §5.1.
    """
    by_cell: Dict[Tuple[str, str, Optional[int]], set] = {}
    for cell in cells:
        if not cell.succeeded:
            continue
        key = (cell.dataset, cell.query, cell.selectivity)
        by_cell.setdefault(key, set()).add(cell.count)
    return {key: len(counts) == 1 for key, counts in by_cell.items()}
