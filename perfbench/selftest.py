"""Self-test of the benchmark at smoke size.

Checks ``BENCHMARK.json`` against the metric tables in ``metrics.py``, runs
every workload untraced and traced at a tenth of its graph size (metric
names, units, positive end-to-end values, correctness), checks that the
correctness gates fire on wrong reads and false refusals, and that the
benchmark fails without a result when the program is missing.  Run from
the root of a checkout::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(ROOT, ".bench_selftest")


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def run(args, cwd=ROOT):
    command = [sys.executable, os.path.join(cwd, "perfbench", "run.py")] + args
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_spec(spec: dict) -> None:
    import metrics
    check(set(spec) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    check([(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]]
          == list(metrics.END_TO_END), "end_to_end table differs from metrics.py")
    check([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
          == list(metrics.PER_LAYER), "per_layer table differs from metrics.py")
    check(all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"]), "bounds in (0, 0.25]")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    check(setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
          and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
          "setup_s is present, in seconds, lower-better, with the largest bound")
    import run as entry
    check(tuple(w["name"] for w in spec["workloads"]) == entry.WORKLOADS, "workload list")


def check_result(proc, names: dict, workload: str, trace: int) -> None:
    label = f"{workload} trace={trace}"
    check(proc.returncode == 0, f"{label} exit {proc.returncode}: {proc.stderr[-800:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label} keys")
    check(result["correct"] is True and result["failed"] == 0, f"{label} correctness")
    check(result["attempted"] >= 1, f"{label} attempted")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    check(got == names, f"{label} metric names/units: {sorted(set(got) ^ set(names))}")
    for name, metric in result["metrics"].items():
        value = metric["value"]
        check(math.isfinite(value), f"{label} {name} is not finite")
        check(trace or value > 0, f"{label} end-to-end {name} is {value}")


def check_gates() -> None:
    """Wrong reads and false refusals are counted as failures."""
    import numpy as np
    import churn
    import graphs
    import session
    from repro.dynamic import DynamicCFCM, DynamicGraph
    from repro.exceptions import DisconnectedGraphError

    graph = graphs.powerlaw_graph(3, scale=0.05)
    group = graphs.monitored_group(graph)

    class Skewed(DynamicCFCM):
        def evaluate(self, group, mode="exact"):
            return 1.5 * super().evaluate(group, mode)

    record = session.Record("powerlaw", 3)
    engine = Skewed(DynamicGraph(graph), seed=1, backend="auto")
    session.churn_phase(record, engine, group, 3, 0.0, bursts=session.CHECK_EVERY)
    check(record.failed > 0, "a read 50% off the reference is not caught")

    class Refusing(DynamicGraph):
        def remove_edge(self, u, v):
            raise DisconnectedGraphError("refused")

    record = session.Record("powerlaw", 3)
    engine = DynamicCFCM(Refusing(graph), seed=1, backend="auto")
    session.churn_phase(record, engine, group, 3, 0.0, bursts=4)
    check(record.refusals > 0 and record.failed == record.refusals,
          "false refusals of deletions are not caught")

    path = churn.ChurnGenerator([(0, 1), (1, 2), (2, 0), (2, 3)], range(4), [],
                                np.random.default_rng(0))
    check(path.disconnects("delete", (2, 3)) and not path.disconnects("delete", (0, 1)),
          "connectivity reference")


def check_isolated() -> None:
    """With only BENCHMARK.json and perfbench/, the run fails without a result."""
    shutil.rmtree(WORKDIR, ignore_errors=True)
    os.makedirs(WORKDIR)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), WORKDIR)
        shutil.copytree(HERE, os.path.join(WORKDIR, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(["--workload", "powerlaw", "--seed", "1", "--seconds", "1",
                    "--trace", "0"], cwd=WORKDIR)
        check(proc.returncode != 0, "isolated run exits 0")
        check(not any(line.startswith("{") for line in proc.stdout.splitlines()),
              "isolated run printed a result")
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)


def main() -> int:
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    check_spec(spec)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, names in ((0, end_to_end), (1, per_layer)):
            proc = run(["--workload", workload, "--seed", "7", "--seconds", "2",
                        "--trace", str(trace), "--scale", "0.1"])
            check_result(proc, names, workload, trace)
            print(f"ok  {workload} trace={trace}", flush=True)
    check_gates()
    print("ok  correctness gates")
    check_isolated()
    print("ok  fails without the program")
    return 0


if __name__ == "__main__":
    sys.exit(main())
