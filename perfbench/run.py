"""Benchmark entry point.

Run from the root of a checkout::

    python3 perfbench/run.py --workload powerlaw --seed 1 --seconds 30 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the same
session with the per-layer instrumentation on and prints every per-layer
metric.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the exit code is non-zero
when a correctness check failed.  The program is imported from ``src/`` of
the checkout; without it the run fails before printing a result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("powerlaw", "roadmesh")
# Tracing overhead: two engines replay the same churn bursts side by side,
# one traced and one not, alternating which goes first, so drift in the
# host's speed hits both alike.
OVERHEAD_BURSTS = 48


def parse(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="graph-size factor (the self-test runs at 0.1)")
    return parser.parse_args(argv)


def load_program() -> None:
    """Put the checkout's ``src/`` and this directory on the import path."""
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        raise SystemExit(f"error: no program to benchmark under {source}")
    sys.path[:0] = [source, HERE]


def trace_overhead(args) -> float:
    """Timed churn wall of the traced engine over that of the untraced one."""
    import graphs
    import layers
    import session

    records, loops = {}, {}
    for traced in (True, False):
        records[traced] = session.Record(args.workload, args.seed)
        _, group, engine = session.setup(
            records[traced], lambda s: graphs.BUILDERS[args.workload](s, args.scale),
            reps=1)
        loops[traced] = session.churn_bursts(records[traced], engine, group, args.seed)
    for burst in range(OVERHEAD_BURSTS):
        for traced in ((True, False) if burst % 2 == 0 else (False, True)):
            probe = layers.Instrumentation() if traced else None
            try:
                next(loops[traced])
            finally:
                if probe is not None:
                    probe.close()
    return records[True].churn_wall / records[False].churn_wall


def measure(args) -> dict:
    import metrics
    import session

    if not args.trace:
        record = session.run(args.workload, args.seed, args.seconds, scale=args.scale)
        values = metrics.end_to_end(record)
    else:
        import layers
        probe = layers.Instrumentation()
        try:
            record = session.run(args.workload, args.seed, args.seconds,
                                 scale=args.scale)
        finally:
            probe.close()
        values = metrics.per_layer(record, probe)
        # Free the run's spans so they do not slow the collector.
        probe.tracer.clear()
        gc.collect()
        values["obs.trace_overhead_ratio"] = trace_overhead(args)
    for name, value in values.items():
        print(f"{name:28s} {value:14.6g} {metrics.UNITS[name]}")
    print(f"graph {record.graph}  selection calls {len(record.select)}  "
          f"churn bursts {record.bursts}  refusals {record.refusals}")
    for failure in record.failures:
        print(f"FAILED: {failure}")
    return {
        "correct": record.failed == 0,
        "attempted": int(record.attempted),
        "failed": int(record.failed),
        "metrics": {name: {"value": float(value), "unit": metrics.UNITS[name]}
                    for name, value in values.items()},
    }


def main(argv=None) -> int:
    args = parse(argv)
    load_program()
    result = measure(args)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
