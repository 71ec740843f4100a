"""The benchmark's own rules: tail percentile, self time, failure
accounting and answer checking.

Run from the root of a checkout: ``python3 -m pytest perfbench/tests``.
"""

import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import stats  # noqa: E402


# ----------------------------------------------------------------------
# Tail percentile: the highest with at least ten samples beyond it
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n, expected, beyond", [
    (100, "p90", 10),
    (999, "p90", 99),
    (1000, "p99", 10),
    (9999, "p99", 99),
    (10000, "p99.9", 10),
])
def test_tail_rule_picks_highest_percentile_with_ten_beyond(n, expected,
                                                             beyond):
    name, _, count = stats.tail_choice(n)
    assert (name, count) == (expected, beyond)


def test_tail_rule_reports_short_count_below_hundred_samples():
    assert stats.tail_choice(50) == ("p90", 0.9, 5)


def test_tail_rule_respects_the_workload_cap():
    assert stats.tail_choice(20000, cap="p99")[0] == "p99"
    assert stats.tail_choice(20000, cap="p90")[0] == "p90"


def test_tail_value_is_the_nearest_rank_sample():
    samples = list(range(1, 1001))  # 1..1000 ms
    summary = stats.latency_summary(samples, failed=0)
    assert summary["tail_percentile"] == "p99"
    assert summary["tail_ms"] == 990
    assert summary["p50_ms"] == 500


# ----------------------------------------------------------------------
# Self time: duration minus the part of the interval children cover
# ----------------------------------------------------------------------
def test_covered_merges_overlaps_and_clips():
    assert stats.covered([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert stats.covered([(-2, 1), (9, 12)], 0, 10) == 2
    assert stats.covered([], 0, 10) == 0


def test_self_times_subtract_children_once():
    tree = {"name": "request", "start": 0.0, "duration": 10.0, "children": [
        {"name": "plan", "start": 1.0, "duration": 1.0},
        {"name": "join", "start": 2.0, "duration": 5.0, "children": [
            {"name": "index", "start": 3.0, "duration": 1.0},
        ]},
    ]}
    layer = {"request": "unattributed", "plan": "engine", "join": "joins",
             "index": "storage"}
    got = stats.self_times(tree, lambda name, depth: layer[name])
    # request: 10 - (1 + 5); join: 5 - 1.
    assert got == {"unattributed": 4.0, "engine": 1.0, "joins": 4.0,
                   "storage": 1.0}
    assert sum(got.values()) == tree["duration"]


def test_tracer_self_time_of_nested_spans():
    import time

    from spans import Tracer

    tracer = Tracer()
    spans = {}

    def inner():
        time.sleep(0.002)
        return 1

    spans["inner"] = tracer._span_call(inner, "joins", "inner")
    outer = tracer._span_call(lambda: spans["inner"]() + 1, "engine", "outer")
    with tracer.request(0, "t") as record:
        assert outer() == 2
    assert abs(sum(record["self"].values()) - record["wall_s"]) < 1e-9
    assert set(record["self"]) == {"unattributed", "engine", "joins"}
    assert record["self"]["joins"] >= 0.002 > record["self"]["engine"]
    assert tracer.totals()["self.joins"] == record["self"]["joins"]


# ----------------------------------------------------------------------
# Failures count against attempted requests and as slowest samples
# ----------------------------------------------------------------------
def test_injected_failures_count_against_attempted():
    from workloads import Request, closed_loop

    calls = []

    def execute(request, phase):
        calls.append(request)
        if len(calls) % 4 == 0:
            raise ConnectionError("injected")

    phase = closed_loop(lambda: Request("t", "q"), execute, seconds=60,
                        watchdog=lambda: None, max_requests=40)
    assert (phase.attempted, phase.failed) == (40, 10)
    assert len(phase.latencies_ms) == 30
    assert phase.errors == {"ConnectionError": 10}
    summary = phase.summary("p99.9")
    assert summary["error_rate"] == 0.25
    assert summary["samples"] == 40


def test_failures_are_slower_than_every_bound():
    summary = stats.latency_summary([1.0] * 89, failed=11)
    assert summary["tail_percentile"] == "p90"
    assert math.isinf(summary["tail_ms"])
    assert summary["p50_ms"] == 1.0


def test_hung_request_fails_once_the_watchdog_fires(monkeypatch):
    import threading

    import workloads
    from workloads import Request, closed_loop

    killed = threading.Event()

    def execute(request, phase):
        # Blocks like a request to a hung server until the watchdog kills
        # it, then fails like a request to a dead one.
        killed.wait(30)
        raise ConnectionResetError("server killed")

    monkeypatch.setattr(workloads, "REQUEST_TIMEOUT_S", -9.5)
    phase = closed_loop(lambda: Request("t", "q"), execute, seconds=0.1,
                        watchdog=killed.set)
    assert killed.is_set()
    assert (phase.attempted, phase.failed) == (1, 1)


# ----------------------------------------------------------------------
# A wrong answer fails the run
# ----------------------------------------------------------------------
def test_inconsistent_answers_are_wrong():
    from workloads import Workload, WrongAnswer

    workload = Workload(seed=1, traced=False, fleet=None)
    workload.remember("q", 3)
    workload.remember("q", 3)
    with pytest.raises(WrongAnswer):
        workload.remember("q", 4)


def test_reference_check_reports_a_corrupted_answer():
    import repro
    from workloads import Request, Workload

    database = repro.Database([repro.edge_relation_from_pairs(
        [(0, 1), (1, 2), (0, 2), (2, 3)])])
    workload = Workload(seed=1, traced=False, fleet=None)
    requests = {
        "edge(0, b), edge(b, c)": Request("two-hop", "edge(0, b), edge(b, c)"),
        "edge(1, b)": Request("neighbours", "edge(1, b)", "rows"),
    }
    with repro.Session(database) as reference:
        workload.answers = {"edge(0, b), edge(b, c)": 5,
                            "edge(1, b)": ((0,), (2,))}
        assert workload.check_against(reference, requests) == []
        workload.answers["edge(0, b), edge(b, c)"] = 6
        wrong = workload.check_against(reference, requests)
    assert len(wrong) == 1 and "edge(0, b)" in wrong[0]


def test_corrupted_pinned_count_fails_the_run(monkeypatch, capsys):
    import run
    import workloads

    counts = dict(workloads.PATTERN_COUNTS)
    counts["1-tree"] += 1
    monkeypatch.setattr(workloads, "PATTERN_COUNTS", counts)
    code = run.main(["--workload", "patterns", "--seed", "1",
                     "--seconds", "1", "--trace", "0"])
    assert code != 0
    assert "wrong answer" in capsys.readouterr().err


def test_trimmed_mean_drops_outliers_and_blends_modes():
    assert stats.trimmed_mean([1.0] * 9 + [100.0]) == 1.0
    mixed = [1.0] * 10 + [2.0] * 10
    assert stats.trimmed_mean(mixed) == 1.5


# ----------------------------------------------------------------------
# Stratified request decks
# ----------------------------------------------------------------------
def test_zipf_deal_draws_once_from_each_slice():
    import random

    from workloads import Zipf

    # Ranks 1..4 of Zipf(1) weigh 12:6:4:3 of 25: dealing 25 draws puts
    # exactly that many on each item, whatever the seed.
    for seed in range(5):
        drawn = Zipf("abcd", 1.0, random.Random(seed)).deal(25)
        assert sorted(drawn) == sorted("a" * 12 + "b" * 6 + "c" * 4
                                       + "d" * 3)


def test_every_deck_holds_the_same_mix():
    import itertools
    import random
    from collections import Counter

    from workloads import FleetMix, Request, Zipf, deck_stream

    makers = [(copies, lambda node, t=t: Request(t, str(node)))
              for copies, t in FleetMix.DECK]
    for seed in (1, 2):
        rng = random.Random(seed)
        stream = deck_stream(rng, Zipf(range(50), 1.1, rng), makers)
        for _ in range(3):
            deck = list(itertools.islice(stream, FleetMix.granule))
            assert Counter(r.template for r in deck) == {
                t: copies for copies, t in FleetMix.DECK}
