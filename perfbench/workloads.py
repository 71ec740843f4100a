"""The benchmark's four workloads.

Each workload sets up (several times, for a median set-up time), warms
its caches, runs a closed loop for the timed phase, and then checks
every answer it recorded.  Why each workload exists, and its sizes, are
recorded in ``BENCHMARK.json`` and ``perfbench/README.md``.
"""

from __future__ import annotations

import bisect
import itertools
import os
import random
import re
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from spans import LAYERS, Tracer, delta, read_published
from stats import latency_summary, self_times, trimmed_mean, vm_hwm_mb

import repro
from repro.api.options import QueryOptions
from repro.data.catalog import load_dataset
from repro.data.sampling import attach_samples, sample_relation
from repro.dist import ClusterSession
from repro.net.client import RemoteSession
from repro.obs.metrics import global_registry
from repro.queries import build_query
from repro.storage.database import Database
from repro.storage.loader import edge_relation_from_pairs

#: Server-side soft timeout of one request; a request past it fails.
REQUEST_TIMEOUT_S = 30.0
#: Set-ups before the timed phase; ``setup_s`` is the median of all.
SETUP_REPEATS = 3
#: CPUs this process may use (``--workers`` of each server), read at
#: import, before the run's affinity rotation narrows the mask.
NPROC = len(os.sched_getaffinity(0))
#: Distinct query texts per run checked against the reference session.
CHECK_SAMPLE = 100
#: Seconds between two steps of the read-only workloads' write probe.
PROBE_INTERVAL_S = 0.1
#: Seconds between two extra set-ups of an in-process workload during the
#: timed phase (its set-up takes milliseconds, so one burst of set-ups
#: would sample the machine at one instant).
SETUP_INTERVAL_S = 2.0
#: Selectivity of the v1..v4 node samples (as ``repro server`` attaches).
SELECTIVITY = 10
SAMPLES = ("v1", "v2", "v3", "v4")
ZIPF_SKEW = 1.1
#: Warm-up draws from ``seed + WARM_SEED_OFFSET``, a stream the timed
#: phase does not replay.
WARM_SEED_OFFSET = 7919

TEMPLATES = {
    "two-hop": ("edge({x}, b), edge(b, c)", "count"),
    "triangle": ("edge({x}, b), edge(b, c), edge({x}, c)", "count"),
    "neighbours": ("edge({x}, b)", "rows"),
}
TINY_PATH = "v1(a), edge(a, b), v2(b)"
TRIANGLES = str(build_query("3-clique"))

#: The paper's patterns (Tables 6/7) at selectivity 10 on ego-Facebook,
#: with their pinned counts; set-up cross-checks them with LFTJ and
#: Minesweeper.
PATTERN_COUNTS = {
    "3-clique": 1194, "4-clique": 820, "4-cycle": 4462, "3-path": 6296,
    "1-tree": 339, "2-comb": 6296, "2-hop": 29178,
}
PATTERN_TEXTS = {
    name: (str(build_query(name)) if name != "2-hop"
           else "edge(a, b), edge(b, c)")
    for name in PATTERN_COUNTS
}


class WrongAnswer(Exception):
    """An answer disagreed with the reference: the run fails."""


@dataclass
class Request:
    template: str
    text: str
    mode: str = "count"
    limit: Optional[int] = None
    #: Set on the first read after a write: the write's kind.
    reread: Optional[str] = None


def service_database(dataset: str) -> Database:
    """The database ``repro server --dataset`` builds (v1..v4 at sel. 10)."""
    database = Database([load_dataset(dataset)])
    attach_samples(database, SELECTIVITY, sample_names=SAMPLES)
    return database


def normalize(answer):
    if isinstance(answer, int):
        return answer
    return tuple(sorted(tuple(row) for row in answer))


def relations_of(text: str) -> Tuple[str, ...]:
    return tuple(sorted(set(re.findall(r"([A-Za-z_]\w*)\(", text))))


class Zipf:
    """Seeded Zipf(``skew``) draws over ``items`` (rank 1 first)."""

    def __init__(self, items, skew: float, rng: random.Random) -> None:
        self.items = list(items)
        weights = [1.0 / (rank ** skew)
                   for rank in range(1, len(self.items) + 1)]
        self.cumulative = list(itertools.accumulate(weights))
        self.rng = rng

    def draw(self):
        point = self.rng.random() * self.cumulative[-1]
        return self.items[bisect.bisect_left(self.cumulative, point)]

    def deal(self, k: int) -> list:
        """``k`` draws, one from each of ``k`` equal slices of the
        distribution, in seeded order: every ``k`` draws follow the
        distribution closely, whatever the seed."""
        total = self.cumulative[-1]
        drawn = [self.items[bisect.bisect_left(
            self.cumulative, (i + self.rng.random()) * total / k)]
            for i in range(k)]
        self.rng.shuffle(drawn)
        return drawn


def hot_order(nodes) -> list:
    """A fixed popularity ranking of ``nodes``, the same for every seed,
    so seeds change the draw sequence but not which nodes are hot."""
    ranked = sorted(nodes)
    random.Random(0).shuffle(ranked)
    return ranked


def weighted_stream(rng: random.Random, makers) -> Iterator[Request]:
    """Endless requests; ``makers`` is ``[(weight, fn(rng) -> Request)]``."""
    weights = [weight for weight, _ in makers]
    while True:
        _, make = rng.choices(makers, weights=weights)[0]
        yield make()


def deck_stream(rng: random.Random, zipf: Zipf, makers) -> Iterator[Request]:
    """Endless requests dealt from shuffled decks.

    ``makers`` is ``[(copies, fn(node) -> Request)]``: every deck holds
    each maker's request exactly ``copies`` times, anchored on Zipf draws
    dealt by :meth:`Zipf.deal` (a maker that takes no anchor ignores it).
    So every deck has the same mix and nearly the same anchors, and a run
    of whole decks does not depend on the seed's luck; the seed changes
    the order and the draws within each slice.
    """
    while True:
        deck = [make(node) for copies, make in makers
                for node in zipf.deal(copies)]
        rng.shuffle(deck)
        yield from deck


def anchored(template: str, node) -> Request:
    text, mode = TEMPLATES[template]
    return Request(template, text.format(x=node), mode)


#: The lookup mix of ``lookups`` and ``read-write``.  A neighbour fetch
#: costs more than a count even on a cache hit; at this share the median
#: stays on count hits instead of on the boundary between the two kinds
#: of hit.
LOOKUP_WEIGHTS = {"two-hop": 3, "triangle": 3, "neighbours": 1,
                  "tiny-path": 1}


def lookup_stream(rng: random.Random, nodes) -> Iterator[Request]:
    """The lookup mix, anchored on Zipf draws over ``nodes`` (rank order)."""
    zipf = Zipf(nodes, ZIPF_SKEW, rng)
    makers = [(LOOKUP_WEIGHTS[t], lambda t=t: anchored(t, zipf.draw()))
              for t in TEMPLATES]
    makers.append((LOOKUP_WEIGHTS["tiny-path"],
                   lambda: Request("tiny-path", TINY_PATH)))
    return weighted_stream(rng, makers)


# ----------------------------------------------------------------------
# The closed loop
# ----------------------------------------------------------------------
@dataclass
class Phase:
    latencies_ms: List[float] = field(default_factory=list)
    failed: int = 0
    attempted: int = 0
    elapsed_s: float = 0.0
    wrong: List[str] = field(default_factory=list)
    errors: Dict[str, int] = field(default_factory=dict)

    def summary(self, cap: str, side_s: float = 0.0) -> dict:
        """Latency summary; ``side_s`` is time the phase spent on the
        benchmark's own work between requests, left out of ``qps``."""
        out = latency_summary(self.latencies_ms, self.failed, cap)
        out["qps"] = len(self.latencies_ms) / (self.elapsed_s - side_s)
        out["error_rate"] = self.failed / self.attempted
        return out


def closed_loop(next_request: Callable[[], Request],
                execute: Callable[[Request, Phase], object],
                seconds: float, watchdog: Callable[[], None],
                max_requests: Optional[int] = None,
                granule: int = 1) -> Phase:
    """One client sending its next request only after the previous one
    completed, until ``seconds`` pass (or ``max_requests``) and the number
    of requests sent is a multiple of ``granule``.

    A request that raises counts as failed and as slower than every
    bound; a :class:`WrongAnswer` fails the run instead.  The client runs
    on its own thread: if it is still blocked well past the deadline,
    ``watchdog`` is called (it kills the servers, so a blocked request
    fails fast), and a request still in flight after that counts as
    failed.
    """
    phase = Phase()
    lock = threading.Lock()
    in_flight = [False]
    started = time.perf_counter()
    stop_at = started + seconds

    def client() -> None:
        while not ((time.perf_counter() >= stop_at
                    and phase.attempted % granule == 0)
                   or (max_requests is not None
                       and phase.attempted >= max_requests)):
            request = next_request()
            with lock:
                phase.attempted += 1
                in_flight[0] = True
            began = time.perf_counter()
            try:
                execute(request, phase)
                took = (time.perf_counter() - began) * 1000.0
                with lock:
                    phase.latencies_ms.append(took)
            except WrongAnswer as exc:
                with lock:
                    phase.wrong.append(str(exc))
            except Exception as exc:  # any failed request is counted
                with lock:
                    phase.failed += 1
                    kind = type(exc).__name__
                    phase.errors[kind] = phase.errors.get(kind, 0) + 1
            finally:
                in_flight[0] = False

    thread = threading.Thread(target=client, daemon=True)
    thread.start()
    thread.join(seconds + granule * REQUEST_TIMEOUT_S + 10.0)
    if thread.is_alive():
        watchdog()
        thread.join(10.0)
        with lock:
            if thread.is_alive() and in_flight[0]:
                phase.failed += 1
                phase.errors["Hung"] = phase.errors.get("Hung", 0) + 1
    phase.elapsed_s = time.perf_counter() - started
    return phase


# ----------------------------------------------------------------------
# Writes (read-write, and the write probe of the other workloads)
# ----------------------------------------------------------------------
class Writer:
    """The two write kinds, alternating, generated from one seed.

    ``edge``: replace ``edge`` with a copy of the base graph in which a
    few seeded node pairs are toggled.  ``samples``: redraw v1..v4 with a
    new seed.  Only the catalog calls are timed; building the replacement
    relations is the benchmark's own work.
    """

    TOGGLES = 4

    def __init__(self, database: Database, seed: int,
                 toggle_nodes: Optional[list] = None) -> None:
        self.database = database
        self.seed = seed
        edges = database.relation("edge")
        self.base = sorted({(min(a, b), max(a, b)) for a, b in edges.tuples})
        self.nodes = sorted(toggle_nodes if toggle_nodes is not None
                            else {n for pair in self.base for n in pair})
        self.count = 0

    def kind(self, index: int) -> str:
        return "edge" if index % 2 == 0 else "samples"

    def relations(self, index: int) -> list:
        rng = random.Random(self.seed * 1_000_003 + index)
        if self.kind(index) == "edge":
            pairs = set(self.base)
            for _ in range(self.TOGGLES):
                a, b = rng.sample(self.nodes, 2)
                pairs ^= {(min(a, b), max(a, b))}
            return [edge_relation_from_pairs(sorted(pairs), name="edge",
                                             undirected=True)]
        edges = self.database.relation("edge")
        sample_seed = rng.randrange(1, 2 ** 31)
        return [sample_relation(edges, SELECTIVITY, name,
                                sample_index=position, seed=sample_seed)
                for position, name in enumerate(SAMPLES, start=1)]

    def apply(self, database: Optional[Database] = None) -> Tuple[str, float]:
        """Apply the next write; return its kind and catalog-call seconds."""
        database = database if database is not None else self.database
        index = self.count
        relations = self.relations(index)
        began = time.perf_counter()
        for relation in relations:
            database.add(relation, replace=True)
        took = time.perf_counter() - began
        self.count += 1
        return self.kind(index), took


def write_summary(writes: Dict[str, List[float]],
                  rereads: Dict[str, List[float]]) -> Dict[str, float]:
    """The write metrics, in ms, from per-kind samples in seconds.

    The two kinds alternate and differ in cost by an order of magnitude,
    so each metric is the mean over the kinds of a per-kind statistic:
    ``write_ms`` / ``reread_ms`` use a 10%-trimmed mean (steady when the
    samples mix two CPU speeds), ``write_p50_ms`` / ``reread_p50_ms`` the
    median (printed, not gated: it jumps between the two speeds).
    """
    def per_kind(samples, statistic) -> float:
        values = [statistic(v) for v in samples.values() if v]
        return 1000.0 * sum(values) / len(values)

    return {
        "write_ms": per_kind(writes, trimmed_mean),
        "reread_ms": per_kind(rereads, trimmed_mean),
        "write_p50_ms": per_kind(writes, statistics.median),
        "reread_p50_ms": per_kind(rereads, statistics.median),
    }


class WriteProbe:
    """Writes, each followed by a re-read of one anchored lookup, on a
    private copy of a read-only workload's database.

    The read-only workloads report their write metrics from this probe.  It steps between requests every
    ``PROBE_INTERVAL_S`` through the whole timed phase, outside any
    request's clock, so its samples span the same stretch of time as the
    requests' do.
    """

    def __init__(self, database: Database, node, seed: int) -> None:
        self.copy = database.copy()
        self.writer = Writer(self.copy, seed)
        self.text = TEMPLATES["two-hop"][0].format(x=node)
        self.session = repro.Session(self.copy)
        self.session.run(self.text).count()
        self.writes: Dict[str, List[float]] = {"edge": [], "samples": []}
        self.rereads: Dict[str, List[float]] = {"edge": [], "samples": []}
        self.invalidations = 0
        self.due = 0.0
        self.jitter = random.Random(seed)

    def maybe_step(self) -> None:
        now = time.perf_counter()
        if now < self.due:
            return
        # Jittered, so the steps cannot lock onto the CPU rotation's
        # period and land on one CPU every time.
        self.due = now + PROBE_INTERVAL_S * self.jitter.uniform(0.5, 1.5)
        cache = self.session.result_cache
        before, lazy = len(cache), cache.stats.invalidations
        kind, took = self.writer.apply()
        self.invalidations += (before - len(cache)
                               + cache.stats.invalidations - lazy)
        self.writes[kind].append(took)
        began = time.perf_counter()
        self.session.run(self.text).count()
        self.rereads[kind].append(time.perf_counter() - began)

    def metrics(self) -> Dict[str, float]:
        return write_summary(self.writes, self.rereads)

    def layer_metrics(self, out: Dict[str, float]) -> None:
        """The write layers' per-layer values, from the probe's writes
        (each write's catalog calls are ``Database.add`` calls)."""
        out["storage.write_ms"] = self.metrics()["write_ms"]
        out["service.invalidations_per_write"] = (
            self.invalidations / max(1, self.writer.count))

    def close(self) -> None:
        self.session.close()


# ----------------------------------------------------------------------
# Prometheus text
# ----------------------------------------------------------------------
_SAMPLE = re.compile(r"^([a-zA-Z_:][\w:]*)(\{[^}]*\})?\s+(\S+)$")


def prometheus(text: str) -> Dict[Tuple[str, str], float]:
    out: Dict[Tuple[str, str], float] = {}
    for line in text.splitlines():
        match = _SAMPLE.match(line)
        if match:
            key = (match.group(1), match.group(2) or "")
            out[key] = out.get(key, 0.0) + float(match.group(3))
    return out


def metric_sum(samples: Dict[Tuple[str, str], float], name: str,
               label: str = "") -> float:
    return sum(value for (metric, labels), value in samples.items()
               if metric == name and label in labels)


def registry_snapshot() -> Dict[Tuple[str, str], float]:
    return prometheus(global_registry().render())


def per_layer_defaults() -> Dict[str, float]:
    names = [
        "storage.index_builds", "storage.index_build_ms", "storage.seeks",
        "storage.write_ms", "datalog.prepare_ms", "engine.plan_ms",
        "engine.plan_hit_ratio", "exec.execute_ms", "joins.self_ms",
        "joins.share", "joins.ms_probes", "joins.certificate_size",
        "api.rows", "service.result_hit_ratio",
        "service.invalidations_per_write", "service.queue_wait_ms",
        "net.rtt_floor_ms", "net.overhead_ms", "net.bytes_rx",
        "net.bytes_tx", "net.frames", "net.retries", "dist.shards",
        "dist.gather_ms", "dist.slowest_shard_ms", "dist.straggler_ratio",
        "obs.trace_overhead", "obs.unattributed_share",
    ]
    names += [f"{layer}.self_ms" for layer in LAYERS if layer != "joins"]
    names += ["net.self_ms", "dist.self_ms"]
    return {name: 0.0 for name in names}


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


#: Program trace span names (``repro.obs.trace``) → the layer charged.
PROGRAM_SPAN_LAYERS = {
    "queue": "service", "server": "service", "plan": "engine",
    "parse": "datalog", "analyze": "datalog", "gao": "datalog",
    "count": "exec", "fetch": "exec", "execute": "exec", "open": "exec",
    "partition": "exec", "join": "joins", "shard": "dist",
    "attempt": "net", "merge": "dist",
}


def remote_tree(wall_s: float, program: Optional[dict]) -> dict:
    """One request's span tree: the benchmark's request span around the
    program's own trace root (which it places centred — only durations
    matter for self time).  The request span's self time is the wire and
    client cost; the program root's self time is unattributed."""
    root = {"name": "request", "start": 0.0, "duration": wall_s,
            "children": []}
    if program and program.get("root"):
        inner = dict(program["root"])
        offset = max(0.0, (wall_s - float(inner.get("duration", 0.0))) / 2)
        root["children"].append(_shift(inner, offset))
    return root


def _shift(node: dict, offset: float) -> dict:
    out = dict(node)
    out["start"] = float(node.get("start", 0.0)) + offset
    out["children"] = [_shift(c, offset) for c in node.get("children") or []]
    return out


def remote_layer_of(name: str, depth: int) -> str:
    if depth == 0:
        return "net"
    if depth == 1:
        return "unattributed"
    return PROGRAM_SPAN_LAYERS.get(name, "unattributed")


def find_spans(node: dict, name: str) -> List[dict]:
    found = [node] if node.get("name") == name else []
    for child in node.get("children") or []:
        found.extend(find_spans(child, name))
    return found


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class Workload:
    name = ""
    #: The timed phase ends on a multiple of this many requests.
    granule = 1
    #: Highest tail percentile reported (the rule's pick at the design
    #: sample count; see ``stats.tail_choice``).
    tail_cap = "p99.9"

    def __init__(self, seed: int, traced: bool, fleet) -> None:
        self.seed = seed
        self.traced = traced
        self.fleet = fleet
        self.answers: Dict[str, object] = {}
        self.answers_lock = threading.Lock()
        self.request_ids = itertools.count()
        self.tracing = False
        #: Seconds the request stream spent on the benchmark's own work
        #: (the write probe, preparing writes) rather than on requests.
        self.side_s = 0.0
        self.probe: Optional[WriteProbe] = None
        #: Set-up times; ``setup_s`` is their median.
        self.setups: List[float] = []
        #: When the next extra set-up is due (``None``: no extra set-ups).
        self.setup_due: Optional[float] = None

    # Set-up -----------------------------------------------------------
    def setup(self) -> float:
        raise NotImplementedError

    def discard_setup(self) -> None:
        pass

    def warm(self) -> None:
        pass

    def stream(self, seed: int) -> Iterator[Request]:
        raise NotImplementedError

    def probe_target(self) -> Tuple[Database, object]:
        """The database and node the write probe runs on."""
        raise NotImplementedError

    def requests(self, seed: int) -> Iterator[Request]:
        """The timed request stream, with the benchmark's side work
        between requests."""
        self.probe = WriteProbe(*self.probe_target(), seed=seed)
        stream = self.stream(seed)
        while True:
            self.side_work()
            yield next(stream)

    def side_work(self) -> None:
        """Write-probe steps and extra set-ups, between two requests and
        outside their clocks; the time is kept out of ``qps``.  None while
        traced: this work is no request's."""
        if self.tracing:
            return
        began = time.perf_counter()
        if self.probe is not None:
            self.probe.maybe_step()
        if self.setup_due is not None and began >= self.setup_due:
            took, _, session = self.build()
            session.close()
            self.setups.append(took)
            self.setup_due = time.perf_counter() + SETUP_INTERVAL_S
        self.side_s += time.perf_counter() - began

    def build(self) -> Tuple[float, Database, "repro.Session"]:
        """One in-process set-up: (seconds to the first verified answer,
        database, session)."""
        raise NotImplementedError

    def execute(self, request: Request, phase: Phase) -> None:
        raise NotImplementedError

    def check(self) -> List[str]:
        return []

    def rss_mb(self) -> float:
        return vm_hwm_mb()

    def write_metrics(self) -> Dict[str, float]:
        return self.probe.metrics()

    def start_tracing(self) -> None:
        pass

    def stop_tracing(self) -> None:
        pass

    def layer_metrics(self, phase: Phase) -> Dict[str, float]:
        raise NotImplementedError

    def close(self) -> None:
        if self.probe is not None:
            self.probe.close()

    def remember(self, text: str, answer) -> None:
        """Record an answer; the same text must always get the same one."""
        with self.answers_lock:
            previous = self.answers.setdefault(text, answer)
        if previous != answer:
            raise WrongAnswer(f"{text!r} answered {answer!r}, earlier "
                              f"{previous!r}")

    def check_against(self, reference: repro.Session,
                      requests: Dict[str, Request]) -> List[str]:
        """Compare a seeded sample of distinct texts with the reference
        session (caches off, LFTJ): every template is in the sample."""
        rng = random.Random(self.seed ^ 0x5EED)
        by_template: Dict[str, List[str]] = {}
        for text, request in sorted(requests.items()):
            by_template.setdefault(request.template, []).append(text)
        chosen = [texts[0] for texts in by_template.values()]
        rest = sorted(set(requests) - set(chosen))
        rng.shuffle(rest)
        chosen += rest[:max(0, CHECK_SAMPLE - len(chosen))]
        wrong = []
        for text in chosen:
            request = requests[text]
            expected = reference_answer(reference, request)
            got = self.answers[text]
            if got != expected:
                wrong.append(f"{text!r}: got {str(got)[:80]}, reference "
                             f"{str(expected)[:80]}")
        return wrong


def reference_answer(session: repro.Session, request: Request):
    result = session.run(request.text, use_cache=False, algorithm="lftj")
    if request.mode == "count":
        return result.count()
    return normalize(result.fetchall())


class InProcess(Workload):
    """Shared traced-phase logic for workloads that run inside the
    benchmark process."""

    def setup(self) -> float:
        took, self.database, self.session = self.build()
        return took

    def discard_setup(self) -> None:
        self.session.close()

    def requests(self, seed: int) -> Iterator[Request]:
        self.setup_due = time.perf_counter() + SETUP_INTERVAL_S
        return super().requests(seed)

    def start_tracing(self) -> None:
        self.tracer = Tracer()
        self.records: List[dict] = []
        self.before = (self.tracer.totals(), registry_snapshot())
        self.tracer.install()
        self.tracing = True

    def stop_tracing(self) -> None:
        self.tracing = False
        self.tracer.uninstall()
        self.after = (self.tracer.totals(), registry_snapshot())

    def traced_run(self, request: Request, run):
        """Run ``run()`` inside a request span, keeping its stats."""
        with self.tracer.request(next(self.request_ids),
                                 request.template) as record:
            result = run()
        record["stats"] = result[1]
        with self.answers_lock:
            self.records.append(record)
        return result[0]

    def layer_metrics(self, phase: Phase) -> Dict[str, float]:
        out = per_layer_defaults()
        n = max(1, len(self.records))
        tracer_delta = delta(self.after[0], self.before[0])
        registry = delta(self.after[1], self.before[1])
        wall = sum(r["wall_s"] for r in self.records)
        stats = [r["stats"] for r in self.records if r.get("stats")]
        out["storage.index_builds"] = tracer_delta.get("index_builds", 0) / n
        out["storage.index_build_ms"] = 1000 * tracer_delta.get(
            "name.TrieIndex.__init__", 0.0) / n
        out["storage.seeks"] = tracer_delta.get("seeks", 0) / n
        out["datalog.prepare_ms"] = 1000 * tracer_delta.get(
            "name.QueryEngine.prepare", 0.0) / n
        if stats:
            out["engine.plan_ms"] = 1000 * statistics.fmean(
                s.plan_seconds for s in stats)
            out["engine.plan_hit_ratio"] = statistics.fmean(
                1.0 if s.plan_cached else 0.0 for s in stats)
            out["exec.execute_ms"] = 1000 * statistics.fmean(
                s.execution_seconds for s in stats)
            out["api.rows"] = statistics.fmean(
                s.rows_delivered for s in stats)
        joins = tracer_delta.get("self.joins", 0.0)
        out["joins.self_ms"] = 1000 * joins / n
        out["joins.share"] = ratio(joins, wall)
        out["joins.ms_probes"] = metric_sum(
            registry, "repro_ms_probes_total") / n
        out["joins.certificate_size"] = ratio(
            metric_sum(registry, "repro_ms_certificate_size_sum"),
            metric_sum(registry, "repro_ms_certificate_size_count"))
        hits = metric_sum(registry, "repro_cache_requests_total",
                          'cache="result",event="hit"')
        misses = metric_sum(registry, "repro_cache_requests_total",
                            'cache="result",event="miss"')
        out["service.result_hit_ratio"] = ratio(hits, hits + misses)
        for layer in LAYERS:
            if layer != "joins":
                out[f"{layer}.self_ms"] = 1000 * tracer_delta.get(
                    f"self.{layer}", 0.0) / n
        unattributed = sum(r["self"].get("unattributed", 0.0)
                           for r in self.records)
        out["obs.unattributed_share"] = ratio(unattributed, wall)
        return out

    def request_lines(self) -> List[Tuple[str, dict]]:
        return [(r["template"], r) for r in self.records]


class Patterns(InProcess):
    """The paper's own measurement: pattern counts in-process, no caches."""

    name = "patterns"
    dataset = "ego-Facebook"
    tail_cap = "p90"
    #: Whole rotations only, so every pattern is timed equally often and
    #: the median and p90 always fall on the same patterns.
    granule = len(PATTERN_COUNTS)

    def build(self) -> Tuple[float, Database, "repro.Session"]:
        began = time.perf_counter()
        database = service_database(self.dataset)
        session = repro.Session(database)
        first = session.run(PATTERN_TEXTS["3-clique"],
                            use_cache=False).count()
        took = time.perf_counter() - began
        if first != PATTERN_COUNTS["3-clique"]:
            raise WrongAnswer(f"3-clique counted {first} at set-up")
        return took, database, session

    def warm(self) -> None:
        """Cross-check every pinned count with LFTJ and Minesweeper (this
        also builds every index the timed phase uses)."""
        for name, text in PATTERN_TEXTS.items():
            for algorithm in ("lftj", "ms"):
                got = self.session.run(text, use_cache=False,
                                       algorithm=algorithm).count()
                if got != PATTERN_COUNTS[name]:
                    raise WrongAnswer(f"{name} with {algorithm}: {got}, "
                                      f"pinned {PATTERN_COUNTS[name]}")

    def stream(self, seed: int) -> Iterator[Request]:
        order = sorted(PATTERN_TEXTS)
        random.Random(seed).shuffle(order)
        for name in itertools.cycle(order):
            yield Request(name, PATTERN_TEXTS[name])

    def execute(self, request: Request, phase: Phase) -> None:
        def run():
            result = self.session.run(request.text, use_cache=False,
                                      algorithm="auto")
            return result.count(), result.stats

        if self.tracing:
            got = self.traced_run(request, run)
        else:
            got = run()[0]
        if got != PATTERN_COUNTS[request.template]:
            raise WrongAnswer(f"{request.template} counted {got}, pinned "
                              f"{PATTERN_COUNTS[request.template]}")

    def probe_target(self) -> Tuple[Database, object]:
        nodes = hot_order(self.database.relation("edge").active_domain())
        return self.database, nodes[0]

    def close(self) -> None:
        super().close()
        self.session.close()


class ReadWrite(InProcess):
    """Anchored lookups on a hot domain that fits the result cache, with a
    write every ``WRITE_PERIOD`` reads, in-process with caches on."""

    name = "read-write"
    dataset = "ego-Facebook"
    HOT_NODES = 64
    WRITE_PERIOD = 100
    tail_cap = "p99"

    def build(self) -> Tuple[float, Database, "repro.Session"]:
        began = time.perf_counter()
        database = service_database(self.dataset)
        session = repro.Session(database)
        first = session.run(TINY_PATH).count()
        took = time.perf_counter() - began
        expected = session.run(TINY_PATH, use_cache=False,
                               algorithm="lftj").count()
        if first != expected:
            raise WrongAnswer(f"tiny path {first}, reference {expected}")
        return took, database, session

    def warm(self) -> None:
        nodes = hot_order(self.database.relation("edge").active_domain())
        self.hot = nodes[:self.HOT_NODES]
        self.writer = Writer(self.database, self.seed, self.hot)
        for node in self.hot:
            for template in TEMPLATES:
                self._read(anchored(template, node))
        self.write_ms: Dict[str, List[float]] = {"edge": [], "samples": []}
        self.reread_ms: Dict[str, List[float]] = {"edge": [], "samples": []}
        self.invalidations = 0
        # (text, versions of the relations it reads) -> (writes applied
        # when first seen, answer)
        self.history: Dict[tuple, Tuple[int, object]] = {}

    def requests(self, seed: int) -> Iterator[Request]:
        """Reads, with a write applied every ``WRITE_PERIOD`` reads.

        The write runs here, while the closed loop draws the next request
        and before its clock starts, so a read's latency never includes a
        write, and its time counts as side time, not as read time.
        """
        self.setup_due = time.perf_counter() + SETUP_INTERVAL_S
        reads = lookup_stream(random.Random(seed), self.hot)
        while True:
            for _ in range(self.WRITE_PERIOD):
                self.side_work()
                yield next(reads)
            began = time.perf_counter()
            cache = self.session.result_cache
            before = len(cache)
            lazy = cache.stats.invalidations
            kind, took = self.writer.apply()
            self.invalidations += (before - len(cache)
                                   + cache.stats.invalidations - lazy)
            self.write_ms[kind].append(took)
            self.side_s += time.perf_counter() - began
            # The first read after a write is always the hottest node's
            # 2-hop count, so re-read latency measures the write's
            # invalidation and rebuild, not which template came next.
            request = anchored("two-hop", self.hot[0])
            request.reread = kind
            yield request

    def _read(self, request: Request):
        result = self.session.run(request.text)
        if request.mode == "count":
            answer = result.count()
        else:
            answer = normalize(result.fetchall())
        return answer, result.stats

    def execute(self, request: Request, phase: Phase) -> None:
        began = time.perf_counter()
        if self.tracing:
            answer = self.traced_run(request, lambda: self._read(request))
        else:
            answer = self._read(request)[0]
        if request.reread is not None:
            self.reread_ms[request.reread].append(
                time.perf_counter() - began)
        versions = tuple(self.database.relation_version(name)
                         for name in relations_of(request.text))
        key = (request.text, request.mode, versions)
        seen = self.history.setdefault(key, (self.writer.count, answer))
        if seen[1] != answer:
            raise WrongAnswer(f"{request.text!r} answered differently at "
                              f"one catalog state")

    def check(self) -> List[str]:
        """Replay the write sequence on a fresh database and re-evaluate
        every distinct (catalog state, query) pair with caches off."""
        replay = service_database(self.dataset)
        writer = Writer(replay, self.seed, self.hot)
        by_write: Dict[int, list] = {}
        for (text, mode, _), (writes, answer) in self.history.items():
            by_write.setdefault(writes, []).append((text, mode, answer))
        wrong = []
        with repro.Session(replay) as reference:
            for writes in range(self.writer.count + 1):
                while writer.count < writes:
                    writer.apply()
                for text, mode, answer in by_write.get(writes, ()):
                    expected = reference_answer(
                        reference, Request("", text, mode))
                    if expected != answer:
                        wrong.append(f"after {writes} writes {text!r}: got "
                                     f"{str(answer)[:60]}, replay "
                                     f"{str(expected)[:60]}")
        return wrong

    def write_metrics(self) -> Dict[str, float]:
        return write_summary(self.write_ms, self.reread_ms)

    def layer_metrics(self, phase: Phase) -> Dict[str, float]:
        out = super().layer_metrics(phase)
        writes = max(1, self.writes_traced)
        out["storage.write_ms"] = 1000 * delta(self.after[0], self.before[0]
                                               ).get("name.Database.add",
                                                     0.0) / writes
        out["service.invalidations_per_write"] = (
            self.invalidations - self.invalidations_before) / writes
        return out

    def start_tracing(self) -> None:
        self.writes_before = self.writer.count
        self.invalidations_before = self.invalidations
        super().start_tracing()

    def stop_tracing(self) -> None:
        super().stop_tracing()
        self.writes_traced = self.writer.count - self.writes_before

    def close(self) -> None:
        super().close()
        self.session.close()


class Served(Workload):
    """Shared logic for the workloads that drive ``repro server``s."""

    dataset = ""
    servers_count = 1

    def __init__(self, seed, traced, fleet) -> None:
        super().__init__(seed, traced, fleet)
        self.reference_db = service_database(self.dataset)
        self.reference = repro.Session(self.reference_db)
        self.nodes = hot_order(
            self.reference_db.relation("edge").active_domain())
        self.servers = []
        self.client = None
        self.asked: Dict[str, Request] = {}
        self.tiny_expected = reference_answer(
            self.reference, Request("tiny-path", TINY_PATH))

    def connect(self):
        raise NotImplementedError

    def setup(self) -> float:
        began = time.perf_counter()
        self.servers = self.fleet.start(self.dataset, self.servers_count,
                                        workers=NPROC, traced=self.traced)
        self.client = self.connect()
        first = self.client.run(TINY_PATH).count()
        took = time.perf_counter() - began
        if first != self.tiny_expected:
            raise WrongAnswer(f"tiny path {first}, reference "
                              f"{self.tiny_expected}")
        return took

    def discard_setup(self) -> None:
        self.client.close()
        self.fleet.stop(self.servers)

    def run_request(self, request: Request, trace: bool):
        options = {"trace": True} if trace else {}
        if request.limit is not None:
            options["limit"] = request.limit
        result = self.client.run(request.text, **options)
        if request.mode == "count":
            answer = result.count()
        else:
            answer = normalize(result.fetchall())
        return answer, result

    def execute(self, request: Request, phase: Phase) -> None:
        tracing = self.tracing
        began = time.perf_counter()
        answer, result = self.run_request(request, tracing)
        if tracing:
            wall = time.perf_counter() - began
            with self.answers_lock:
                self.records.append({"template": request.template,
                                     "wall_s": wall,
                                     "stats": result.stats})
        with self.answers_lock:
            self.asked.setdefault(request.text, request)
        self.remember(request.text, answer)

    def check(self) -> List[str]:
        return self.check_against(self.reference, self.asked)

    def rss_mb(self) -> float:
        return vm_hwm_mb() + sum(s.sample_rss() for s in self.servers)

    def probe_target(self) -> Tuple[Database, object]:
        return self.reference_db, self.nodes[0]

    def server_snapshot(self) -> Tuple[dict, Dict[Tuple[str, str], float],
                                       dict]:
        """(summed span totals, summed server metrics, summed service
        stats) over every server, through the wire ops."""
        totals: Dict[str, float] = {}
        samples: Dict[Tuple[str, str], float] = {}
        service: Dict[str, float] = {}
        for server in self.servers:
            with RemoteSession(server.url, retries=0) as session:
                text = session.metrics()
                stats = session.stats()["service"]
            for key, value in (read_published(text) or {}).items():
                totals[key] = totals.get(key, 0) + value
            for key, value in prometheus(text).items():
                samples[key] = samples.get(key, 0.0) + value
            for key, value in stats.items():
                service[key] = service.get(key, 0.0) + float(value)
        return totals, samples, service

    def start_tracing(self) -> None:
        for server in self.servers:
            server.start_tracing()
        deadline = time.monotonic() + 10.0
        while True:
            totals = self.server_snapshot()[0]
            if totals.get("installed", 0) >= len(self.servers):
                break
            if time.monotonic() > deadline:
                raise RuntimeError("servers did not install the spans")
            time.sleep(0.05)
        self.records = []
        self.rtt_ms = self.rtt_floor()
        self.before = (self.server_snapshot(), registry_snapshot())
        self.tracing = True

    def stop_tracing(self) -> None:
        self.tracing = False
        # The client registry first: the snapshot's own wire traffic
        # must not count against the traced requests.
        client = registry_snapshot()
        self.after = (self.server_snapshot(), client)

    def rtt_floor(self) -> float:
        """Median round trip of the ``stats`` op: the wire's fixed cost."""
        times = []
        with RemoteSession(self.servers[0].url, retries=0) as session:
            for _ in range(21):
                began = time.perf_counter()
                session.stats()
                times.append(time.perf_counter() - began)
        return 1000 * statistics.median(times)

    def layer_metrics(self, phase: Phase) -> Dict[str, float]:
        out = per_layer_defaults()
        n = max(1, len(self.records))
        (tot_a, srv_a, svc_a), client_a = self.after
        (tot_b, srv_b, svc_b), client_b = self.before
        totals = delta(tot_a, tot_b)
        server = delta(srv_a, srv_b)
        service = delta(svc_a, svc_b)
        client = delta(client_a, client_b)
        wall = sum(r["wall_s"] for r in self.records)
        out["storage.index_builds"] = totals.get("index_builds", 0) / n
        out["storage.index_build_ms"] = 1000 * totals.get(
            "name.TrieIndex.__init__", 0.0) / n
        out["storage.seeks"] = totals.get("seeks", 0) / n
        out["datalog.prepare_ms"] = 1000 * totals.get(
            "name.QueryEngine.prepare", 0.0) / n
        joins = totals.get("self.joins", 0.0)
        out["joins.self_ms"] = 1000 * joins / n
        out["joins.share"] = ratio(joins, wall)
        out["joins.ms_probes"] = metric_sum(
            server, "repro_ms_probes_total") / n
        out["joins.certificate_size"] = ratio(
            metric_sum(server, "repro_ms_certificate_size_sum"),
            metric_sum(server, "repro_ms_certificate_size_count"))
        for layer in LAYERS:
            if layer != "joins":
                out[f"{layer}.self_ms"] = 1000 * totals.get(
                    f"self.{layer}", 0.0) / n
        out["engine.plan_hit_ratio"] = ratio(
            service.get("plan_hits", 0.0),
            service.get("plan_hits", 0.0) + service.get("plan_misses", 0.0))
        out["service.result_hit_ratio"] = ratio(
            service.get("result_hits", 0.0),
            service.get("result_hits", 0.0)
            + service.get("result_misses", 0.0))
        out["service.queue_wait_ms"] = 1000 * ratio(
            metric_sum(server, "repro_queue_wait_seconds_sum"),
            metric_sum(server, "repro_queue_wait_seconds_count"))
        out["net.rtt_floor_ms"] = self.rtt_ms
        out["net.bytes_rx"] = metric_sum(
            client, "repro_client_bytes_total", 'direction="received"') / n
        out["net.bytes_tx"] = metric_sum(
            client, "repro_client_bytes_total", 'direction="sent"') / n
        out["net.frames"] = metric_sum(server,
                                       "repro_server_frames_total") / n
        out["net.retries"] = metric_sum(
            client, "repro_client_retries_total") + metric_sum(
            client, "repro_client_reconnects_total")
        stats = [r["stats"] for r in self.records]
        out["exec.execute_ms"] = 1000 * statistics.fmean(
            s.execution_seconds for s in stats) if stats else 0.0
        out["api.rows"] = statistics.fmean(
            s.rows_delivered for s in stats) if stats else 0.0
        layer_self: Dict[str, float] = {}
        plan_ms = []
        overhead = []
        for record in self.records:
            trace = record["stats"].trace
            tree = remote_tree(record["wall_s"], trace)
            self_times(tree, remote_layer_of, layer_self)
            record["self"] = self_times(tree, remote_layer_of)
            if trace and trace.get("root"):
                root = trace["root"]
                overhead.append(record["wall_s"] - root["duration"])
                plan_ms.append(sum(s["duration"]
                                   for s in find_spans(root, "plan")))
                self.shard_record(record, root)
        out["engine.plan_ms"] = 1000 * statistics.fmean(plan_ms) \
            if plan_ms else 0.0
        out["net.overhead_ms"] = 1000 * statistics.fmean(overhead) \
            if overhead else 0.0
        out["net.self_ms"] = 1000 * layer_self.get("net", 0.0) / n
        out["dist.self_ms"] = 1000 * layer_self.get("dist", 0.0) / n
        out["obs.unattributed_share"] = ratio(
            layer_self.get("unattributed", 0.0), wall)
        self.dist_metrics(out, client)
        return out

    def shard_record(self, record: dict, root: dict) -> None:
        pass

    def dist_metrics(self, out: Dict[str, float], client) -> None:
        pass

    def request_lines(self) -> List[Tuple[str, dict]]:
        return [(r["template"], r) for r in self.records]

    def warm(self) -> None:
        """Warm the servers' caches with ``WARM_REQUESTS`` requests from a
        stream the timed phase never repeats (a different seed)."""
        warm_stream = self.stream(self.seed + WARM_SEED_OFFSET)
        closed_loop(lambda: next(warm_stream), self.execute, 60.0,
                    self.fleet.kill_all, max_requests=self.WARM_REQUESTS)

    def close(self) -> None:
        super().close()
        if self.client is not None:
            self.client.close()
        self.reference.close()


class Lookups(Served):
    """Zipf lookups against one ``repro server`` on soc-Pokec."""

    name = "lookups"
    dataset = "soc-Pokec"
    #: The rule would allow p99 in most runs, but p99 sits on the
    #: boundary between two clusters of misses (about 37 and 70 ms) and
    #: jumps between them from run to run; p90 does not.
    tail_cap = "p90"
    WARM_REQUESTS = 300

    def connect(self):
        return RemoteSession(self.servers[0].url, options=QueryOptions(
            timeout=REQUEST_TIMEOUT_S))

    def stream(self, seed: int) -> Iterator[Request]:
        return lookup_stream(random.Random(seed), self.nodes)


class FleetMix(Served):
    """A mixed stream through ``ClusterSession`` over two servers, with
    caches off, so every request plans, fans out, gathers and merges."""

    name = "fleet"
    dataset = "ego-Facebook"
    servers_count = 2
    tail_cap = "p90"
    WARM_REQUESTS = 40
    LIMIT = 256
    #: One deck of the stream: (copies, template) for each request kind.
    DECK = (
        (16, "tiny-path"), (16, "two-hop"), (16, "triangle"),
        (8, "triangles"), (8, "triangles-256"),
    )
    #: Whole decks only, so every run times the same mix.
    granule = sum(copies for copies, _ in DECK)

    def __init__(self, seed, traced, fleet) -> None:
        super().__init__(seed, traced, fleet)
        #: Every distinct answer the limited triangle fetch returned.
        self.limited: set = set()

    def connect(self):
        url = "repro://" + ",".join(s.address for s in self.servers)
        return ClusterSession(url, options=QueryOptions(
            use_cache=False, timeout=REQUEST_TIMEOUT_S))

    def stream(self, seed: int) -> Iterator[Request]:
        rng = random.Random(seed)
        make = {
            "tiny-path": lambda node: Request("tiny-path", TINY_PATH),
            "two-hop": lambda node: anchored("two-hop", node),
            "triangle": lambda node: anchored("triangle", node),
            "triangles": lambda node: Request("triangles", TRIANGLES),
            "triangles-256": lambda node: Request(
                "triangles-256", TRIANGLES, "rows", limit=self.LIMIT),
        }
        return deck_stream(rng, Zipf(self.nodes, ZIPF_SKEW, rng),
                           [(copies, make[t]) for copies, t in self.DECK])

    def execute(self, request: Request, phase: Phase) -> None:
        if request.limit is None:
            return super().execute(request, phase)
        # A limited prefix depends on shard order: check it against the
        # full answer instead of remembering it.
        tracing = self.tracing
        began = time.perf_counter()
        answer, result = self.run_request(request, tracing)
        if tracing:
            with self.answers_lock:
                self.records.append({"template": request.template,
                                     "wall_s": time.perf_counter() - began,
                                     "stats": result.stats})
        with self.answers_lock:
            self.limited.add(answer)

    def check(self) -> List[str]:
        wrong = super().check()
        full = set(reference_answer(
            self.reference, Request("triangles", TRIANGLES, "rows")))
        for limited in self.limited:
            if len(limited) != min(self.LIMIT, len(full)) \
                    or not set(limited) <= full:
                wrong.append(f"a limit-{self.LIMIT} triangle fetch is not "
                             f"{self.LIMIT} rows of the triangle answer")
        return wrong

    def shard_record(self, record: dict, root: dict) -> None:
        servers = [s["duration"] for s in find_spans(root, "server")]
        if servers:
            record["slowest_shard_s"] = max(servers)
            record["gather_s"] = record["wall_s"] - max(servers)

    def dist_metrics(self, out: Dict[str, float], client) -> None:
        n = max(1, len(self.records))
        shards = [r for r in self.records if "slowest_shard_s" in r]
        out["dist.shards"] = metric_sum(client, "repro_dist_shards_total",
                                        'event="dispatched"') / n
        if shards:
            out["dist.slowest_shard_ms"] = 1000 * statistics.fmean(
                r["slowest_shard_s"] for r in shards)
            out["dist.gather_ms"] = 1000 * statistics.fmean(
                r["gather_s"] for r in shards)
        out["dist.straggler_ratio"] = ratio(
            metric_sum(client, "repro_dist_straggler_ratio_sum"),
            metric_sum(client, "repro_dist_straggler_ratio_count"))


WORKLOADS = {w.name: w for w in (Patterns, Lookups, ReadWrite, FleetMix)}
