"""Steadiness check: run-to-run spread of every metric across seeds.

Runs ``perfbench/run.py`` once per seed and workload, one run at a time,
and prints for each metric its median and its spread: the distance between
the first and third quartile (``statistics.quantiles(values, n=4)``) as a
share of the median.  Spreads should stay under a third of each metric's
bound in ``BENCHMARK.json``.  Run from the root of a checkout::

    python3 perfbench/steadiness.py --seeds 1-10 --seconds 40
    python3 perfbench/steadiness.py --workloads roadmesh --seeds 1-5 --out spread.json
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text: str) -> list:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def spread(values: list) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    started = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - started
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if done.returncode != 0 or result is None:
        sys.stderr.write(done.stdout[-2000:] + done.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
    result["wall_s"] = wall
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="powerlaw,roadmesh")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="write all runs as JSON")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bounds = {m["name"]: m.get("bound") for m in json.load(handle)["end_to_end"]}

    report = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds(args.seeds):
            runs.append(run_once(workload, seed, args.seconds, args.trace))
            print(f"{workload} seed {seed}: {runs[-1]['wall_s']:.1f}s wall", flush=True)
        report[workload] = runs
        print(f"\n{workload}: {len(runs)} runs, "
              f"{sum(not r['correct'] for r in runs)} incorrect")
        print(f"{'metric':28s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread(values) > bound / 3:
                flag = "  > bound/3"
            print(f"{name:28s} {statistics.median(values):12.5g} "
                  f"{spread(values):8.3f} {bound if bound is not None else '':>6}{flag}")
        print()
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
