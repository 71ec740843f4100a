"""Threaded and pipelined remote clients vs. a serial connection.

A client that speaks one request at a time over one socket pays a full
round trip of dead time per request while the server sits idle.  The
wire client removes that limit: it multiplexes any number of
in-flight requests over a single socket, matched to their responses by
the request ids already on the wire, while the server dispatches them
concurrently to its worker pool.  Asyncio callers pipeline directly;
threads sharing one synchronous session multiplex the same way.

Two claims to check:

* **correctness** — every answer of every client shape (serial,
  threaded, pipelined) is identical to a warm-up reference, request by
  request;
* **throughput** — threads and pipelining do not cost throughput, and
  with real cores they gain it.  Everything here shares one process and
  one loopback socketpair, so the overlap is scheduling, not parallel
  CPU: the hard ≥-serial gate is conditioned on the host having cores
  to overlap on (like the partitioned-speedup gate), with an
  unconditional sanity floor so a regression that *halves* pipelined
  throughput fails anywhere.
"""

from __future__ import annotations

import os

import pytest

from repro.bench.harness import run_pipelined_throughput
from repro.queries.patterns import build_query

from benchmarks._common import build_database

DATASET = "ca-GrQc"
QUERIES = (
    str(build_query("3-clique")),
    "edge(a,b), edge(b,c), edge(c,d), a<b, b<c, c<d",
)
CONCURRENCY = 8


def test_pipelined_and_threaded_clients_match_and_keep_up():
    database = build_database(DATASET, "3-clique", selectivity=10)
    result = run_pipelined_throughput(
        database, list(QUERIES), repeats=10, concurrency=CONCURRENCY
    )
    print()
    print(result.format())

    assert result.consistent, \
        "threaded/pipelined answers diverged from serial"
    assert result.operations == 20

    # Unconditional sanity floor: multiplexing must never cost more than
    # half the serial throughput, even on a single busy CPU.
    assert result.pipelined_speedup >= 0.5, (
        f"pipelined client fell to {result.pipelined_speedup:.2f}x of "
        f"serial throughput"
    )
    assert result.threaded_speedup >= 0.5, (
        f"threaded client fell to {result.threaded_speedup:.2f}x of "
        f"serial throughput"
    )

    cpus = os.cpu_count() or 1
    if cpus < 2:
        pytest.skip(
            f"host has {cpus} CPU(s); request overlap is not measurable "
            f"(correctness was still verified)"
        )
    assert result.pipelined_speedup >= 1.0, (
        f"expected pipelined >= serial throughput, got "
        f"{result.pipelined_speedup:.2f}x"
    )
    # Thread-pool overlap contends on the GIL as well as the wire; hold
    # it to >= serial only where there are cores for the threads.
    if cpus >= 4:
        assert result.threaded_speedup >= 1.0, (
            f"expected threaded >= serial throughput, got "
            f"{result.threaded_speedup:.2f}x"
        )
