"""Benchmark-side spans around the program's public calls.

:class:`Tracer` patches public methods of each layer's classes (and puts
the originals back on :meth:`Tracer.uninstall`), so per-layer times come
from the benchmark's own files and no file of the program changes.  A
span is opened around each wrapped call; spans nest per thread, and a
span's self time is its duration minus the time of the spans opened
inside it.  A call into a layer that is already the innermost open span
(a join's ``count`` draining its own ``enumerate_bindings``) is not
given a span of its own, so one layer's self time is never split.

Seek calls are counted, not timed: there are millions of them and a span
each would cost more than the seek.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

#: Spans kept for the run's span file; later spans are counted only.
KEEP_SPANS = 200_000

#: The layers self time is charged to, in report order.
LAYERS = ("api", "service", "engine", "datalog", "exec", "joins", "storage")


def _wrap_targets():
    """``(class, method name, layer)`` for every wrapped public call."""
    from repro.api.result import ResultSet, RowCursor
    from repro.api.session import Session
    from repro.engine import QueryEngine
    from repro.exec.executor import SerialPlanExecutor
    from repro.joins.base import JoinAlgorithm
    from repro.service.plan_cache import PlanCache
    from repro.service.result_cache import ResultCache
    from repro.storage.database import Database
    from repro.storage.trie import TrieIndex

    targets = [
        (Session, "run", "api"),
        (ResultSet, "count", "api"),
        (RowCursor, "fetchall", "api"),
        (ResultCache, "lookup", "service"),
        (ResultCache, "store", "service"),
        (PlanCache, "get_or_plan", "service"),
        (QueryEngine, "plan", "engine"),
        (QueryEngine, "run_plan", "engine"),
        (QueryEngine, "prepare", "datalog"),
        (SerialPlanExecutor, "count", "exec"),
        (SerialPlanExecutor, "bindings", "exec"),
        (Database, "add", "storage"),
        (TrieIndex, "__init__", "storage"),
    ]
    seen = set()
    stack = [JoinAlgorithm]
    while stack:
        cls = stack.pop()
        for sub in cls.__subclasses__():
            stack.append(sub)
        for name in ("count", "enumerate_bindings"):
            if name in vars(cls) and (cls, name) not in seen:
                seen.add((cls, name))
                targets.append((cls, name, "joins"))
    return targets


def _seek_targets():
    from repro.storage.trie import TrieIndex

    return [(TrieIndex, name) for name in
            ("seek_value", "next_value", "gap_around", "prefix_range")]


class _Frame:
    __slots__ = ("layer", "name", "start", "children")

    def __init__(self, layer: str, name: str, start: float) -> None:
        self.layer = layer
        self.name = name
        self.start = start
        self.children = 0.0


class Tracer:
    """Per-layer spans and counters for one process."""

    def __init__(self, keep_spans: int = KEEP_SPANS) -> None:
        self._keep = keep_spans
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[type, str, object]] = []
        self._seeks = itertools.count()
        self._index_builds = itertools.count()
        self.self_seconds: Dict[str, float] = {}
        #: Total duration per span label (``"TrieIndex.__init__"``, ...).
        self.by_name: Dict[str, float] = {}
        self.spans: List[tuple] = []
        self.dropped_spans = 0
        self._origin = time.perf_counter()

    # ------------------------------------------------------------------
    # Counters
    # ------------------------------------------------------------------
    @staticmethod
    def _peek(counter: "itertools.count") -> int:
        # itertools.count advances atomically under the interpreter lock;
        # its repr is the only way to read it without advancing it.
        return int(repr(counter)[6:-1])

    def totals(self) -> Dict[str, float]:
        """Cumulative counters and layer times (seconds), for deltas."""
        with self._lock:
            out = {f"self.{k}": v for k, v in self.self_seconds.items()}
            out.update({f"name.{k}": v for k, v in self.by_name.items()})
        out["installed"] = int(bool(self._patches))
        out["seeks"] = self._peek(self._seeks)
        out["index_builds"] = self._peek(self._index_builds)
        return out

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _close(self, stack: List[_Frame], frame: _Frame, end: float) -> None:
        stack.pop()
        duration = end - frame.start
        own = max(0.0, duration - frame.children)
        if stack:
            stack[-1].children += duration
        request = getattr(self._local, "request", None)
        with self._lock:
            key = frame.name if frame.layer == "request" else frame.layer
            self.self_seconds[key] = self.self_seconds.get(key, 0.0) + own
            self.by_name[frame.name] = \
                self.by_name.get(frame.name, 0.0) + duration
            if len(self.spans) < self._keep:
                self.spans.append((
                    request["id"] if request else None, frame.layer,
                    frame.name, round(frame.start - self._origin, 9),
                    round(duration, 9), len(stack)))
            else:
                self.dropped_spans += 1
        if request is not None:
            layers = request["self"]
            name = "unattributed" if frame.layer == "request" else frame.layer
            layers[name] = layers.get(name, 0.0) + own

    @contextmanager
    def request(self, request_id: int, template: str) -> Iterator[dict]:
        """The root span of one request; yields its per-layer record.

        The root's own self time — request wall time that no layer span
        covers — is recorded as ``unattributed``.
        """
        record = {"id": request_id, "template": template, "self": {},
                  "wall_s": 0.0}
        self._local.request = record
        stack = self._stack()
        frame = _Frame("request", "request", time.perf_counter())
        stack.append(frame)
        try:
            yield record
        finally:
            end = time.perf_counter()
            record["wall_s"] = end - frame.start
            self._close(stack, frame, end)
            self._local.request = None

    def _span_call(self, original, layer: str, label: str):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack and stack[-1].layer == layer:
                return original(*args, **kwargs)
            frame = _Frame(layer, label, time.perf_counter())
            stack.append(frame)
            try:
                return original(*args, **kwargs)
            finally:
                tracer._close(stack, frame, time.perf_counter())

        return wrapper

    def _span_generator(self, original, layer: str, label: str):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            inner = original(*args, **kwargs)
            while True:
                stack = tracer._stack()
                if stack and stack[-1].layer == layer:
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                else:
                    frame = _Frame(layer, label, time.perf_counter())
                    stack.append(frame)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(stack, frame, time.perf_counter())
                yield item

        return wrapper

    def _counted(self, original, counter):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            next(counter)
            return original(*args, **kwargs)

        return wrapper

    # ------------------------------------------------------------------
    # Install / uninstall
    # ------------------------------------------------------------------
    def install(self) -> None:
        if self._patches:
            return
        for cls, name, layer in _wrap_targets():
            original = vars(cls)[name]
            label = f"{cls.__name__}.{name}"
            if inspect.isgeneratorfunction(original):
                wrapped = self._span_generator(original, layer, label)
            else:
                wrapped = self._span_call(original, layer, label)
            if name == "__init__":
                wrapped = self._counted(wrapped, self._index_builds)
            self._patches.append((cls, name, original))
            setattr(cls, name, wrapped)
        for cls, name in _seek_targets():
            original = vars(cls)[name]
            self._patches.append((cls, name, original))
            setattr(cls, name, self._counted(original, self._seeks))

    def uninstall(self) -> None:
        while self._patches:
            cls, name, original = self._patches.pop()
            setattr(cls, name, original)

    def write_spans(self, path: str) -> None:
        """Write the spans kept in memory, one JSON array per line."""
        with self._lock:
            spans = list(self.spans)
            dropped = self.dropped_spans
        with open(path, "w") as handle:
            handle.write(json.dumps({
                "fields": ["request", "layer", "name", "start_s",
                           "duration_s", "depth"],
                "dropped": dropped}) + "\n")
            for span in spans:
                handle.write(json.dumps(span) + "\n")


def delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {key: after.get(key, 0) - before.get(key, 0)
            for key in set(after) | set(before)}


def publish_in_metrics(tracer: Tracer) -> None:
    """Append the tracer's totals to the metrics exposition as one comment
    line, so the benchmark process can read a server's layer totals with the
    ``metrics`` op it already speaks."""
    from repro.obs.metrics import MetricsRegistry

    original = MetricsRegistry.render

    @functools.wraps(original)
    def render(self) -> str:
        return original(self) + "# perfbench " + json.dumps(
            tracer.totals()) + "\n"

    MetricsRegistry.render = render


def read_published(metrics_text: str) -> Optional[Dict[str, float]]:
    """The totals :func:`publish_in_metrics` appended, or ``None``."""
    for line in metrics_text.splitlines():
        if line.startswith("# perfbench "):
            return json.loads(line[len("# perfbench "):])
    return None
