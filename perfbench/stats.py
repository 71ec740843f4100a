"""Summary statistics the benchmark reports: percentiles, the tail rule,
span self time, spread across runs and peak resident memory.

Kept free of any import from the program under test so the benchmark's
own tests exercise these rules in isolation.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES: Tuple[Tuple[str, float], ...] = (
    ("p99.9", 0.999), ("p99", 0.99), ("p90", 0.9),
)

#: A tail percentile is trusted only with this many samples beyond it.
MIN_BEYOND = 10


def rank(n: int, q: float) -> int:
    """1-based nearest rank of quantile ``q`` among ``n`` sorted samples."""
    return max(1, min(n, math.ceil(q * n - 1e-9)))


def percentile(sorted_samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of already sorted samples."""
    if not sorted_samples:
        raise ValueError("no samples")
    return sorted_samples[rank(len(sorted_samples), q) - 1]


def beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``q`` quantile."""
    return n - rank(n, q)


def tail_choice(n: int, cap: str = "p99.9") -> Tuple[str, float, int]:
    """The highest of p90/p99/p99.9 with at least ten samples beyond it.

    ``cap`` is the highest percentile a workload may report (its pinned
    choice at the design sample count), so a run with a few more samples
    than usual does not jump to a different, noisier percentile.  When
    even p90 has fewer than ten samples beyond it, p90 is returned with
    its real (short) count, and the caller reports that count.
    """
    names = [name for name, _ in TAIL_PERCENTILES]
    allowed = TAIL_PERCENTILES[names.index(cap):]
    for name, q in allowed:
        if beyond(n, q) >= MIN_BEYOND:
            return name, q, beyond(n, q)
    name, q = TAIL_PERCENTILES[-1]
    return name, q, beyond(n, q)


def latency_summary(latencies_ms: Iterable[float], failed: int,
                    cap: str = "p99.9") -> Dict[str, object]:
    """Median and tail of one timed phase.

    A failed request counts as slower than every bound: it enters the
    sample as infinity, so failures push the median and tail up instead
    of vanishing from them.
    """
    samples = sorted(list(latencies_ms) + [math.inf] * failed)
    if not samples:
        raise ValueError("no requests completed or failed")
    name, q, count_beyond = tail_choice(len(samples), cap)
    return {
        "p50_ms": percentile(samples, 0.5),
        "tail_ms": percentile(samples, q),
        "tail_percentile": name,
        "tail_beyond": count_beyond,
        "samples": len(samples),
    }


def trimmed_mean(values: Sequence[float], cut: float = 0.1) -> float:
    """Mean of ``values`` without the lowest and highest ``cut`` share.

    Robust to the odd pause in a sub-millisecond sample, and unlike a
    median it does not jump between the modes of a two-speed mixture.
    """
    ordered = sorted(values)
    drop = int(len(ordered) * cut)
    kept = ordered[drop:len(ordered) - drop] or ordered
    return statistics.fmean(kept)


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (the run-to-run
    spread rule the bounds in ``BENCHMARK.json`` are checked against)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else math.inf


# ----------------------------------------------------------------------
# Span trees
# ----------------------------------------------------------------------
def covered(intervals: Iterable[Tuple[float, float]],
            lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(lo, a), min(hi, b)) for a, b in intervals)
    total = 0.0
    cur_a: Optional[float] = None
    cur_b = 0.0
    for a, b in clipped:
        if b <= a:
            continue
        if cur_a is None or a > cur_b:
            if cur_a is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_a is not None:
        total += cur_b - cur_a
    return total


def self_times(node: dict, layer_of, out: Optional[Dict[str, float]] = None
               ) -> Dict[str, float]:
    """Self time per layer of one span tree.

    A node is ``{"name", "start", "duration", "children"}`` (the shape the
    program's own traces use).  Its self time is its duration minus the
    part of its interval that its children cover; ``layer_of(name, depth)``
    maps a span to the layer its self time is charged to.
    """
    out = {} if out is None else out
    _self_times(node, layer_of, out, 0)
    return out


def _self_times(node: dict, layer_of, out: Dict[str, float],
                depth: int) -> None:
    start = float(node.get("start", 0.0))
    end = start + float(node.get("duration", 0.0))
    children = node.get("children") or []
    inner = covered(
        ((float(c.get("start", 0.0)),
          float(c.get("start", 0.0)) + float(c.get("duration", 0.0)))
         for c in children), start, end)
    layer = layer_of(node.get("name", "?"), depth)
    out[layer] = out.get(layer, 0.0) + max(0.0, (end - start) - inner)
    for child in children:
        _self_times(child, layer_of, out, depth + 1)


# ----------------------------------------------------------------------
# Memory
# ----------------------------------------------------------------------
def vm_hwm_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (VmHWM) of a process in MB, from ``/proc``."""
    path = f"/proc/{pid if pid is not None else 'self'}/status"
    with open(path) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line in {path}")


def quartiles_line(name: str, values: List[float]) -> str:
    q1, mid, q3 = statistics.quantiles(values, n=4)
    return (f"{name}: median {statistics.median(values):.6g} "
            f"q1 {q1:.6g} q3 {q3:.6g} spread {spread(values):.4f}")
