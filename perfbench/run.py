"""Run one workload of the benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload patterns --seed 1 --seconds 20 --trace 0

The workloads and the metrics are described in ``BENCHMARK.json``.  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it runs the same untimed-then-timed phase untraced, then once more with
the benchmark's spans installed, and reports the per-layer metrics and
the tracing overhead.  Human-readable lines come first; the last line of
standard output is one JSON object.  The exit code is 0 when every
answer checked out, 1 on a wrong answer, and 2 when the program cannot
be imported or run.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

#: Where span files are written, inside the checkout.
OUT_DIR = ROOT / ".perfbench"

END_TO_END_UNITS = {
    "setup_s": "s", "qps": "1/s", "p50_ms": "ms", "tail_ms": "ms",
    "rss_mb": "MB", "write_ms": "ms", "reread_ms": "ms",
}

#: What each per-layer value is divided by, for the report.
LAYER_BASES = {
    "storage.write_ms": "per write",
    "service.invalidations_per_write": "per write",
    "joins.share": "share of request wall time",
    "joins.certificate_size": "mean constraints per Minesweeper run",
    "engine.plan_hit_ratio": "share of plan lookups",
    "service.result_hit_ratio": "share of result-cache lookups",
    "service.queue_wait_ms": "mean per admitted request",
    "net.rtt_floor_ms": "median of 21 stats round trips",
    "net.retries": "total in the traced phase",
    "dist.straggler_ratio": "mean slowest/median shard per gather",
    "obs.trace_overhead": "traced p50_ms / untraced p50_ms",
    "obs.unattributed_share": "share of request wall time",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def finite_ms(value: float, ceiling_ms: float) -> float:
    """A failed request is slower than every bound; JSON has no
    infinity, so a failure in the tail reports the request deadline."""
    return ceiling_ms if math.isinf(value) else value


def run(args, fleet) -> Dict[str, object]:
    import workloads
    from workloads import REQUEST_TIMEOUT_S, SETUP_REPEATS, closed_loop

    workload = workloads.WORKLOADS[args.workload](args.seed, bool(args.trace),
                                                  fleet)
    try:
        for repeat in range(SETUP_REPEATS):
            if repeat:
                workload.discard_setup()
            workload.setups.append(workload.setup())
        warm_began = time.perf_counter()
        workload.warm()
        warm_s = time.perf_counter() - warm_began

        stream = workload.requests(args.seed)
        side = workload.side_s
        phase = closed_loop(lambda: next(stream), workload.execute,
                            args.seconds, fleet.kill_all,
                            granule=workload.granule)
        summary = phase.summary(workload.tail_cap, workload.side_s - side)
        rss = workload.rss_mb()
        attempted, failed = phase.attempted, phase.failed
        wrong = list(phase.wrong)

        layer = None
        if args.trace:
            workload.start_tracing()
            side = workload.side_s
            traced = closed_loop(lambda: next(stream), workload.execute,
                                 args.seconds, fleet.kill_all,
                                 granule=workload.granule)
            workload.stop_tracing()
            layer = workload.layer_metrics(traced)
            if workload.probe is not None:
                # The probe steps only in the untraced timed phase.
                workload.probe.layer_metrics(layer)
            traced_summary = traced.summary(workload.tail_cap,
                                            workload.side_s - side)
            layer["obs.trace_overhead"] = (traced_summary["p50_ms"]
                                           / summary["p50_ms"])
            attempted += traced.attempted
            failed += traced.failed
            wrong += traced.wrong
            write_spans(workload, args)

        wrong += workload.check()
        writes = workload.write_metrics()
    finally:
        workload.close()

    ceiling = REQUEST_TIMEOUT_S * 1000
    end_to_end = {
        "setup_s": statistics.median(workload.setups),
        "qps": summary["qps"],
        "p50_ms": finite_ms(summary["p50_ms"], ceiling),
        "tail_ms": finite_ms(summary["tail_ms"], ceiling),
        "rss_mb": rss,
        "write_ms": writes["write_ms"],
        "reread_ms": writes["reread_ms"],
    }
    report = [
        f"workload {args.workload} seed {args.seed}: "
        f"{summary['samples']} requests timed over {phase.elapsed_s:.1f} s "
        f"(one closed-loop client), warm-up {warm_s:.1f} s",
    ]
    for name, value in end_to_end.items():
        report.append(f"  {name:<14} {value:12.4f} {END_TO_END_UNITS[name]}")
    for name in ("write_p50_ms", "reread_p50_ms"):
        report.append(f"  {name:<14} {writes[name]:12.4f} ms")
    report.append(f"  {'error_rate':<14} {summary['error_rate']:12.4f} ratio"
                  f"  ({phase.failed} of {phase.attempted} failed"
                  + (f": {phase.errors}" if phase.errors else "") + ")")
    report.append(f"  tail_ms is {summary['tail_percentile']} with "
                  f"{summary['tail_beyond']} of {summary['samples']} "
                  f"samples beyond it")
    report.append(f"  setup_s runs: "
                  + ", ".join(f"{s:.3f}" for s in workload.setups))
    if layer is not None:
        report += layer_report(workload, layer)
    for line in wrong[:20]:
        report.append(f"  WRONG ANSWER: {line}")
    metrics = layer if layer is not None else end_to_end
    units = {} if layer is not None else END_TO_END_UNITS
    return {
        "report": report,
        "result": {
            "correct": not wrong,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value,
                               "unit": units.get(name) or layer_unit(name)}
                        for name, value in metrics.items()},
        },
    }


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("ratio", "share", "overhead")):
        return "ratio"
    if name.startswith("net.bytes"):
        return "bytes"
    return "count"


def layer_report(workload, layer: Dict[str, float]) -> List[str]:
    records = workload.request_lines()
    n = len(records)
    lines = [f"  per-layer metrics ({n} traced requests; per request unless "
             f"noted):"]
    for name, value in layer.items():
        base = LAYER_BASES.get(name, "per request")
        lines.append(f"    {name:<34} {value:12.4f} {layer_unit(name):<6}"
                     f" {base}")
    lines.append("  self time per request (span duration minus child spans):")
    by_layer: Dict[str, float] = {}
    for _, record in records:
        for name, seconds in record.get("self", {}).items():
            by_layer[name] = by_layer.get(name, 0.0) + seconds
    wall = sum(record["wall_s"] for _, record in records) or 1.0
    for name, seconds in sorted(by_layer.items(), key=lambda kv: -kv[1]):
        lines.append(f"    {name:<14} {1000 * seconds / max(1, n):10.4f} ms"
                     f"  {100 * seconds / wall:6.2f}% of wall")
    lines.append("  unattributed time per request, by template:")
    by_template: Dict[str, List[dict]] = {}
    for template, record in records:
        by_template.setdefault(template, []).append(record)
    for template, group in sorted(by_template.items()):
        group_wall = sum(r["wall_s"] for r in group)
        lost = sum(r.get("self", {}).get("unattributed", 0.0) for r in group)
        lines.append(f"    unattributed {template:<14} "
                     f"{1000 * lost / len(group):9.4f} ms of "
                     f"{1000 * group_wall / len(group):9.4f} ms wall "
                     f"({len(group)} requests)")
    return lines


def write_spans(workload, args) -> None:
    """Write the spans and per-request records kept in memory."""
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-{args.seed}"
    tracer = getattr(workload, "tracer", None)
    if tracer is not None:
        tracer.write_spans(f"{stem}-spans.jsonl")
    with open(f"{stem}-requests.jsonl", "w") as handle:
        for template, record in workload.request_lines():
            handle.write(json.dumps({
                "template": template, "wall_s": record["wall_s"],
                "self_s": record.get("self", {}),
            }) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        # Never fall back to some other installed copy of the program.
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    try:
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the program under {ROOT / 'src'}: "
              f"{exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    from affinity import Rotator
    from servers import Fleet

    rotator = Rotator().start()
    fleet = Fleet(on_start=rotator.register)

    def terminate(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, terminate)
    try:
        outcome = run(args, fleet)
    except workloads.WrongAnswer as exc:
        print(f"perfbench: wrong answer during set-up: {exc}",
              file=sys.stderr)
        return 1
    finally:
        fleet.close()
        rotator.stop()
    for line in outcome["report"]:
        print(line)
    print(json.dumps(outcome["result"]), flush=True)
    return 0 if outcome["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
