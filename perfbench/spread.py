"""Run a workload with several seeds and report each end-to-end metric's
median, quartiles and spread (inter-quartile distance over median), the
rule the bounds in ``BENCHMARK.json`` are checked against.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --workload lookups --seeds 1-10

Runs one at a time; each run's result line is kept in ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from stats import quartiles_line, spread  # noqa: E402


def seeds_of(text: str):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {name: [] for name in bounds}
    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    for seed in seeds_of(args.seeds):
        began = time.perf_counter()
        done = subprocess.run(
            spec["command"] + ["--workload", args.workload, "--seed",
                               str(seed), "--seconds",
                               str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        took = time.perf_counter() - began
        last = done.stdout.strip().splitlines()[-1] if done.stdout else ""
        with open(out / f"spread-{args.workload}.jsonl", "a") as handle:
            handle.write(json.dumps({"seed": seed, "exit": done.returncode,
                                     "wall_s": took, "result": last}) + "\n")
        if done.returncode != 0:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}")
            return 1
        result = json.loads(last)
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: {took:.1f} s " + " ".join(
            f"{name}={result['metrics'][name]['value']:.4g}"
            for name in values), flush=True)
    if len(next(iter(values.values()))) >= 2:
        for name, series in values.items():
            flag = "" if name == "setup_s" or spread(series) <= bounds[name] / 3 \
                else "  <-- above a third of its bound"
            print(quartiles_line(name, series) + f" bound {bounds[name]}"
                  + flag)
    return 0


if __name__ == "__main__":
    sys.exit(main())
