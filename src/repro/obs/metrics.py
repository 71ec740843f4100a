"""Zero-dependency metrics: counters, gauges, histograms, Prometheus text.

The registry is deliberately tiny — three instrument kinds, one shared
lock, and a renderer emitting the Prometheus text exposition format — so
every layer of the stack can record without pulling in a client library
the container does not have:

* :class:`Counter` — monotonically increasing totals (requests served,
  frames on the wire, constraints inserted).
* :class:`Gauge` — a value that goes both ways (in-flight pipeline depth).
* :class:`Histogram` — fixed-bucket distributions with estimated
  p50/p95/p99 (query latency, admission queue wait, and — the paper's
  headline quantity — Minesweeper certificate size per run).

Instruments support a small fixed set of label names declared up front;
each distinct label-value combination is an independent series, exactly
like Prometheus.  All mutation happens under one registry lock, which
keeps counters exact under the service worker pool and the asyncio
server hammering the same process-global registry (the hot paths record
per *query*, not per tuple, so the lock is not a throughput concern).

The standard catalog below is declared on every registry at
construction, so ``render()`` always emits the ``# HELP`` / ``# TYPE``
preamble for every metric the system can produce — a scraper sees the
full schema even before the first Minesweeper run populates
``repro_ms_certificate_size``.

Tests swap the process-global registry with :func:`isolated_registry`
so concurrent suites do not observe each other's counts.
"""

from __future__ import annotations

import math
import re
import threading
from contextlib import contextmanager
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "global_registry",
    "set_global_registry",
    "isolated_registry",
    "record_minesweeper_run",
    "DEFAULT_TIME_BUCKETS",
    "SIZE_BUCKETS",
    "STRAGGLER_BUCKETS",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Latency buckets (seconds): sub-millisecond cache hits through
#: multi-second partitioned joins.
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

#: Count-valued buckets (certificate sizes, row counts).
SIZE_BUCKETS: Tuple[float, ...] = (
    1, 2, 5, 10, 25, 50, 100, 250, 500,
    1_000, 2_500, 5_000, 10_000, 50_000, 100_000, 500_000, 1_000_000,
)

#: Ratio-valued buckets for the distributed straggler signal (slowest
#: shard / median shard): 1.0 is perfectly balanced, 10x is one shard
#: gating the whole gather.
STRAGGLER_BUCKETS: Tuple[float, ...] = (
    1.0, 1.1, 1.25, 1.5, 2.0, 3.0, 5.0, 10.0, 25.0,
)

LabelKey = Tuple[str, ...]


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_number(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class _Metric:
    """Shared bookkeeping: name/help/label validation and series keying."""

    kind = "untyped"

    def __init__(self, name: str, help: str,
                 label_names: Sequence[str],
                 lock: threading.RLock) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in label_names:
            if not _LABEL_RE.match(label):
                raise ValueError(
                    f"invalid label name {label!r} on metric {name!r}"
                )
        self.name = name
        self.help = help
        self.label_names: Tuple[str, ...] = tuple(label_names)
        self._lock = lock

    def _key(self, labels: Mapping[str, object]) -> LabelKey:
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"metric {self.name!r} takes labels "
                f"{sorted(self.label_names)}, got {sorted(labels)}"
            )
        return tuple(str(labels[name]) for name in self.label_names)

    def _labels_text(self, key: LabelKey,
                     extra: Sequence[Tuple[str, str]] = ()) -> str:
        pairs = [
            f'{name}="{_escape_label_value(value)}"'
            for name, value in zip(self.label_names, key)
        ]
        pairs.extend(
            f'{name}="{_escape_label_value(value)}"' for name, value in extra
        )
        return "{" + ",".join(pairs) + "}" if pairs else ""

    def header_lines(self) -> List[str]:
        lines = []
        if self.help:
            lines.append(f"# HELP {self.name} {self.help}")
        lines.append(f"# TYPE {self.name} {self.kind}")
        return lines


class Counter(_Metric):
    """A monotonically increasing total, optionally partitioned by labels."""

    kind = "counter"

    def __init__(self, name, help, label_names, lock) -> None:
        super().__init__(name, help, label_names, lock)
        self._values: Dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if amount < 0:
            raise ValueError(
                f"counter {self.name!r} cannot decrease (inc({amount}))"
            )
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: object) -> float:
        key = self._key(labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def total(self) -> float:
        with self._lock:
            return sum(self._values.values())

    def series(self) -> Dict[Tuple[Tuple[str, str], ...], float]:
        with self._lock:
            return {
                tuple(zip(self.label_names, key)): value
                for key, value in self._values.items()
            }

    def render_lines(self) -> List[str]:
        lines = self.header_lines()
        with self._lock:
            if not self._values and not self.label_names:
                lines.append(f"{self.name} 0")
            for key in sorted(self._values):
                lines.append(
                    f"{self.name}{self._labels_text(key)} "
                    f"{_format_number(self._values[key])}"
                )
        return lines

    def reset(self) -> None:
        with self._lock:
            self._values.clear()


class Gauge(_Metric):
    """A value that can go up and down (queue depths, in-flight counts)."""

    kind = "gauge"

    def __init__(self, name, help, label_names, lock) -> None:
        super().__init__(name, help, label_names, lock)
        self._values: Dict[LabelKey, float] = {}

    def set(self, value: float, **labels: object) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: object) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: object) -> float:
        key = self._key(labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def render_lines(self) -> List[str]:
        lines = self.header_lines()
        with self._lock:
            if not self._values and not self.label_names:
                lines.append(f"{self.name} 0")
            for key in sorted(self._values):
                lines.append(
                    f"{self.name}{self._labels_text(key)} "
                    f"{_format_number(self._values[key])}"
                )
        return lines

    def reset(self) -> None:
        with self._lock:
            self._values.clear()


class _HistogramSeries:
    __slots__ = ("bucket_counts", "sum", "count")

    def __init__(self, n_buckets: int) -> None:
        self.bucket_counts = [0] * n_buckets   # per-bucket, not cumulative
        self.sum = 0.0
        self.count = 0


class Histogram(_Metric):
    """Fixed-bucket distribution with estimated quantiles.

    ``buckets`` are upper bounds (``le``) in increasing order; an implicit
    ``+Inf`` bucket catches the tail.  Quantiles are estimated by linear
    interpolation inside the owning bucket — the standard Prometheus
    ``histogram_quantile`` approximation.
    """

    kind = "histogram"

    def __init__(self, name, help, label_names, lock,
                 buckets: Sequence[float] = DEFAULT_TIME_BUCKETS) -> None:
        super().__init__(name, help, label_names, lock)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(
                b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(
                f"histogram {name!r} buckets must be strictly increasing"
            )
        self.buckets: Tuple[float, ...] = bounds
        self._series: Dict[LabelKey, _HistogramSeries] = {}

    def observe(self, value: float, **labels: object) -> None:
        key = self._key(labels)
        value = float(value)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = _HistogramSeries(
                    len(self.buckets) + 1
                )
            index = len(self.buckets)
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    index = i
                    break
            series.bucket_counts[index] += 1
            series.sum += value
            series.count += 1

    def count(self, **labels: object) -> int:
        key = self._key(labels)
        with self._lock:
            series = self._series.get(key)
            return series.count if series else 0

    def total_count(self) -> int:
        with self._lock:
            return sum(s.count for s in self._series.values())

    def sum_value(self, **labels: object) -> float:
        key = self._key(labels)
        with self._lock:
            series = self._series.get(key)
            return series.sum if series else 0.0

    def bucket_counts(self, **labels: object) -> List[int]:
        """Per-bucket (non-cumulative) counts, ``+Inf`` last."""
        key = self._key(labels)
        with self._lock:
            series = self._series.get(key)
            return list(series.bucket_counts) if series \
                else [0] * (len(self.buckets) + 1)

    def percentile(self, q: float, **labels: object) -> float:
        """Estimate the ``q``-quantile (``0 < q <= 1``) for one series.

        With labels omitted on a labelled histogram, the estimate merges
        every series (the "all algorithms" view).
        """
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {q}")
        with self._lock:
            if labels or not self.label_names:
                key = self._key(labels)
                series = self._series.get(key)
                merged = list(series.bucket_counts) if series \
                    else [0] * (len(self.buckets) + 1)
            else:
                merged = [0] * (len(self.buckets) + 1)
                for series in self._series.values():
                    for i, c in enumerate(series.bucket_counts):
                        merged[i] += c
        total = sum(merged)
        if total == 0:
            return 0.0
        rank = q * total
        cumulative = 0
        for i, count in enumerate(merged):
            cumulative += count
            if cumulative >= rank:
                if i >= len(self.buckets):       # +Inf bucket
                    return self.buckets[-1]
                upper = self.buckets[i]
                lower = self.buckets[i - 1] if i > 0 else 0.0
                within = rank - (cumulative - count)
                return lower + (upper - lower) * (within / count)
        return self.buckets[-1]

    def summary(self, **labels: object) -> Dict[str, float]:
        return {
            "count": float(self.count(**labels)
                           if (labels or not self.label_names)
                           else self.total_count()),
            "p50": self.percentile(0.50, **labels),
            "p95": self.percentile(0.95, **labels),
            "p99": self.percentile(0.99, **labels),
        }

    def render_lines(self) -> List[str]:
        lines = self.header_lines()
        with self._lock:
            for key in sorted(self._series):
                series = self._series[key]
                cumulative = 0
                for bound, count in zip(self.buckets,
                                        series.bucket_counts):
                    cumulative += count
                    le = _format_number(bound)
                    lines.append(
                        f"{self.name}_bucket"
                        f"{self._labels_text(key, [('le', le)])} "
                        f"{cumulative}"
                    )
                lines.append(
                    f"{self.name}_bucket"
                    f"{self._labels_text(key, [('le', '+Inf')])} "
                    f"{series.count}"
                )
                lines.append(
                    f"{self.name}_sum{self._labels_text(key)} "
                    f"{_format_number(series.sum)}"
                )
                lines.append(
                    f"{self.name}_count{self._labels_text(key)} "
                    f"{series.count}"
                )
        return lines

    def reset(self) -> None:
        with self._lock:
            self._series.clear()


class MetricsRegistry:
    """A named collection of instruments with get-or-create semantics.

    ``counter`` / ``gauge`` / ``histogram`` return the existing instrument
    when the name is already registered (kind and label names must
    match), so instrumentation sites can look instruments up by name
    without coordinating declaration order.
    """

    def __init__(self, declare_standard: bool = True) -> None:
        self._lock = threading.RLock()
        self._metrics: Dict[str, _Metric] = {}
        if declare_standard:
            declare_standard_metrics(self)

    def _get_or_create(self, cls, name, help, labels, **kwargs) -> _Metric:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} is a {existing.kind}, "
                        f"not a {cls.kind}"
                    )
                if labels is not None \
                        and tuple(labels) != existing.label_names:
                    raise ValueError(
                        f"metric {name!r} is declared with labels "
                        f"{existing.label_names}, got {tuple(labels)}"
                    )
                return existing
            metric = cls(name, help, tuple(labels or ()), self._lock,
                         **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "",
                labels: Optional[Sequence[str]] = None) -> Counter:
        return self._get_or_create(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "",
              labels: Optional[Sequence[str]] = None) -> Gauge:
        return self._get_or_create(Gauge, name, help, labels)

    def histogram(self, name: str, help: str = "",
                  labels: Optional[Sequence[str]] = None,
                  buckets: Optional[Sequence[float]] = None) -> Histogram:
        kwargs = {"buckets": buckets} if buckets is not None else {}
        return self._get_or_create(Histogram, name, help, labels, **kwargs)

    def get(self, name: str) -> Optional[_Metric]:
        with self._lock:
            return self._metrics.get(name)

    def render(self) -> str:
        """The Prometheus text exposition format, one block per metric."""
        with self._lock:
            metrics = list(self._metrics.values())
        lines: List[str] = []
        for metric in metrics:
            lines.extend(metric.render_lines())
        return "\n".join(lines) + "\n"

    def reset(self) -> None:
        """Zero every series; declarations stay."""
        with self._lock:
            for metric in self._metrics.values():
                metric.reset()


# ----------------------------------------------------------------------
# Standard catalog
# ----------------------------------------------------------------------
def declare_standard_metrics(registry: MetricsRegistry) -> None:
    """Declare every metric the stack emits (HELP/TYPE render eagerly)."""
    registry.counter(
        "repro_requests_total",
        "Queries served by the service layer, by mode and outcome.",
        ("mode", "outcome"),
    )
    registry.histogram(
        "repro_query_seconds",
        "End-to-end query latency by executing algorithm.",
        ("algorithm",),
    )
    registry.counter(
        "repro_admission_total",
        "Worker-pool admission decisions.",
        ("decision",),
    )
    registry.histogram(
        "repro_queue_wait_seconds",
        "Time between admission and a worker picking the request up.",
    )
    registry.counter(
        "repro_cache_requests_total",
        "Plan/result cache lookups by outcome.",
        ("cache", "event"),
    )
    registry.counter(
        "repro_slow_queries_total",
        "Queries recorded by the slow-query log.",
    )
    registry.counter(
        "repro_cursors_total",
        "Server-side cursor lifecycle events.",
        ("event",),
    )
    registry.counter(
        "repro_prepared_total",
        "Server-side prepared-statement lifecycle events.",
        ("event",),
    )
    registry.counter(
        "repro_wire_encoding_total",
        "Row pages served by wire encoding (binary columnar vs JSON).",
        ("encoding",),
    )
    registry.histogram(
        "repro_wire_fetch_payload_bytes",
        "Bytes per fetch-response frame body, by wire encoding.",
        ("encoding",),
        buckets=SIZE_BUCKETS,
    )
    registry.counter(
        "repro_server_frames_total",
        "Protocol frames by direction and operation.",
        ("direction", "op"),
    )
    registry.counter(
        "repro_server_bytes_total",
        "Bytes on the wire by direction.",
        ("direction",),
    )
    registry.gauge(
        "repro_server_inflight",
        "Pipelined requests currently being served.",
    )
    registry.counter(
        "repro_client_retries_total",
        "Idempotent request retries after a network/protocol failure.",
    )
    registry.counter(
        "repro_client_reconnects_total",
        "Client connections (re)dialed after the first.",
    )
    registry.counter(
        "repro_ms_probes_total",
        "Minesweeper index probes issued against ground atoms.",
    )
    registry.counter(
        "repro_ms_constraints_total",
        "Gap constraints inserted into the CDS across runs.",
    )
    registry.counter(
        "repro_ms_outputs_total",
        "Output tuples emitted by Minesweeper runs.",
    )
    registry.histogram(
        "repro_ms_certificate_size",
        "Constraints per Minesweeper run — the paper's certificate-size "
        "bound as a live distribution.",
        buckets=SIZE_BUCKETS,
    )
    registry.counter(
        "repro_dist_shards_total",
        "Distributed shard lifecycle events: dispatched/hedged/rerouted/"
        "failed on the coordinator, served on each server.",
        ("event",),
    )
    registry.histogram(
        "repro_dist_server_seconds",
        "Per-shard wall time observed by the coordinator, by server.",
        ("server",),
    )
    registry.histogram(
        "repro_dist_straggler_ratio",
        "Slowest shard over median shard per distributed gather — the "
        "tail-latency skew signal share sizing and hedging fight.",
        buckets=STRAGGLER_BUCKETS,
    )
    registry.counter(
        "repro_peer_total",
        "Server-side peer coordination events: gather when a server "
        "fans a cluster query out to its peers, leaf when it refuses "
        "to re-fan-out and executes locally (hop >= 1), plan for the "
        "hop-0 plan probe.",
        ("event",),
    )
    registry.counter(
        "repro_client_bytes_total",
        "Bytes crossing the client's wire, by direction — the "
        "bytes-to-client number peer coordination exists to shrink.",
        ("direction",),
    )
    registry.histogram(
        "repro_fleet_scrape_seconds",
        "Coordinator-side latency of each per-server metrics scrape.",
        ("server",),
    )
    registry.counter(
        "repro_fleet_unreachable_total",
        "Fleet scrapes that found a server unreachable, by server.",
        ("server",),
    )
    registry.gauge(
        "repro_fleet_servers",
        "Cluster size as seen at the last fleet scrape, by health state.",
        ("state",),
    )


# ----------------------------------------------------------------------
# Process-global registry
# ----------------------------------------------------------------------
_global_lock = threading.Lock()
_global_registry = MetricsRegistry()


def global_registry() -> MetricsRegistry:
    """The process-global default registry every layer records into."""
    return _global_registry


def set_global_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-global registry; returns the previous one."""
    global _global_registry
    with _global_lock:
        previous = _global_registry
        _global_registry = registry
        return previous


@contextmanager
def isolated_registry() -> Iterator[MetricsRegistry]:
    """Swap in a fresh registry for the duration of a test."""
    registry = MetricsRegistry()
    previous = set_global_registry(registry)
    try:
        yield registry
    finally:
        set_global_registry(previous)


# ----------------------------------------------------------------------
# Join-engine hook
# ----------------------------------------------------------------------
def record_minesweeper_run(statistics: object) -> None:
    """Fold one run's :class:`MinesweeperStatistics` into the registry.

    Duck-typed on purpose: this module stays importable by every layer,
    including :mod:`repro.joins.minesweeper.engine` itself.
    """
    registry = global_registry()
    probe_stats = getattr(statistics, "probe_statistics", None) or []
    probes = sum(int(entry.get("probes", 0)) for entry in probe_stats)
    if probes:
        registry.counter("repro_ms_probes_total").inc(probes)
    outputs = int(getattr(statistics, "outputs", 0))
    if outputs:
        registry.counter("repro_ms_outputs_total").inc(outputs)
    constraints = int(getattr(statistics, "constraints_inserted", 0))
    if constraints:
        registry.counter("repro_ms_constraints_total").inc(constraints)
    registry.histogram("repro_ms_certificate_size").observe(constraints)
