"""Metric definitions and their derivation from one run's raw record.

``END_TO_END`` and ``PER_LAYER`` are the benchmark's contract: the self-test
checks ``BENCHMARK.json`` against them.  Each per-layer entry names the
end-to-end metric it should move (see README.md for the full table).
"""

from __future__ import annotations

import numpy as np

import session
from session import Record, median

# name, unit, better, bound
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("ok_ratio", "ratio", "higher", 0.02),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("select_s", "s", "lower", 0.25),
    ("cfcc_ratio", "ratio", "higher", 0.05),
    ("update_ms_p95", "ms", "lower", 0.25),
    ("exact_ms_p50", "ms", "lower", 0.25),
    ("exact_ms_p90", "ms", "lower", 0.25),
    ("forest_ms_p50", "ms", "lower", 0.25),
    ("events_per_s", "1/s", "higher", 0.25),
    ("read_accuracy", "ratio", "higher", 0.05),
    ("in_limit_ratio", "ratio", "higher", 0.05),
)

# name, unit, better
PER_LAYER = (
    ("graph.delete_ms_p50", "ms", "lower"),
    ("graph.guard_rejects", "count", "lower"),
    ("graph.insert_ms_p50", "ms", "lower"),
    ("linalg.sync_ms_p50", "ms", "lower"),
    ("linalg.sync_ms_max", "ms", "lower"),
    ("linalg.refreshes", "count", "lower"),
    ("linalg.batched_events", "count", "higher"),
    ("linalg.trace_ms_p50", "ms", "lower"),
    ("pool.reweight_ms_p50", "ms", "lower"),
    ("pool.topup_ms_p50", "ms", "lower"),
    ("pool.forests_drawn", "count", "lower"),
    ("pool.reuse_ratio", "ratio", "higher"),
    ("pool.ess_mean", "count", "higher"),
    ("sampling.lockstep_s", "s", "lower"),
    ("sampling.forests", "count", "lower"),
    ("estimator.fold_s", "s", "lower"),
    ("estimator.forests_folded", "count", "lower"),
    ("estimator.early_stop_ratio", "ratio", "higher"),
    ("centrality.other_s", "s", "lower"),
    ("engine.eval_hit_ratio", "ratio", "higher"),
    ("service.queue_wait_ms_p50", "ms", "lower"),
    ("service.queue_wait_ms_p95", "ms", "lower"),
    ("service.batch_mean", "count", "higher"),
    ("service.worker_busy_ratio", "ratio", "lower"),
    ("service.gen_lag_ms_max", "ms", "lower"),
    ("service.latency_ms_mean", "ms", "lower"),
    ("service.latency_ms_p95", "ms", "lower"),
    ("share.select.fold", "ratio", "lower"),
    ("share.select.sampling", "ratio", "lower"),
    ("share.churn.delete", "ratio", "lower"),
    ("share.churn.sync", "ratio", "lower"),
    ("share.churn.trace", "ratio", "lower"),
    ("share.churn.reweight", "ratio", "lower"),
    ("share.churn.topup", "ratio", "lower"),
    ("share.churn.fold", "ratio", "lower"),
    ("obs.trace_overhead_ratio", "ratio", "lower"),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def pair_seconds(record: Record) -> list:
    """Wall time of each (schur, forest) selection pair."""
    pairs: dict = {}
    for call in record.select:
        pairs[call["pair"]] = pairs.get(call["pair"], 0.0) + call["seconds"]
    return list(pairs.values())


def end_to_end(record: Record) -> dict:
    in_limit = sum(1 for o in record.serve
                   if o["ok"] and o["latency_ms"] <= session.LIMIT_MS)
    return {
        "setup_s": median(record.setup_s),
        "ok_ratio": 1.0 - record.failed / max(record.attempted, 1),
        "peak_rss_mb": record.peak_rss_mb,
        "select_s": median(pair_seconds(record)),
        "cfcc_ratio": float(np.mean(record.cfcc_ratios)) if record.cfcc_ratios else 0.0,
        "update_ms_p95": pct(record.update_ms, 95),
        "exact_ms_p50": pct(record.exact_ms, 50),
        "exact_ms_p90": pct(record.exact_ms, 90),
        "forest_ms_p50": pct(record.forest_ms, 50),
        "events_per_s": record.churn_events / record.churn_wall if record.churn_wall else 0.0,
        "read_accuracy": 1.0 - float(np.mean(record.read_errors)) if record.read_errors else 0.0,
        "in_limit_ratio": in_limit / max(len(record.serve), 1),
    }


def per_layer(record: Record, probe: "layers.Instrumentation") -> dict:
    """Every per-layer metric but ``obs.trace_overhead_ratio`` (run.py adds it)."""
    select = probe.spans(*record.windows["select"])
    churn = probe.spans(*record.windows["churn"])
    serve = probe.spans(*record.windows["serve"])
    calls = max(len(record.select), 1)
    select_wall = sum(c["seconds"] for c in record.select)
    sampling_s = select.total("bench.sampling.draw")
    fold_s = select.total("bench.estimator.add_batch")
    steps = sum(c["steps"] for c in record.select)

    # Trackers alive in the churn loop; one built during it (after a node
    # eviction) factorises from scratch, so it counts as a refresh too.
    churn_start, churn_end = record.windows["churn"]
    trackers = probe.trackers_between(0.0, churn_end)
    rebuilt = len(probe.trackers_between(churn_start, churn_end))
    stats = record.churn_stats
    drawn = churn.attr_sum("pool.topup", "missing")
    kept = stats["forests_kept"]

    waits = []
    for outcome in record.serve:
        began = (record.write_starts if outcome["kind"] == "write"
                 else probe.read_starts).get(outcome["rid"])
        if began is not None:
            waits.append(1000.0 * (began - outcome["due"]))
    window = record.windows["serve"][1] - record.windows["serve"][0]
    busy = sum(serve.total(name) for name in
               ("service.evaluate", "service.apply_batch", "service.query"))
    latencies = [o["latency_ms"] for o in record.serve]
    hits, misses = record.serve_engine["eval_hits"], record.serve_engine["eval_misses"]
    churn_wall = max(record.churn_wall, 1e-12)
    deletes = churn.times_ms("bench.graph.remove_edge") + churn.times_ms("bench.graph.remove_node")
    return {
        "graph.delete_ms_p50": pct(churn.times_ms("bench.graph.remove_edge"), 50),
        "graph.guard_rejects": churn.count("bench.graph.remove_edge", "DisconnectedGraphError")
        + churn.count("bench.graph.remove_node", "DisconnectedGraphError"),
        "graph.insert_ms_p50": pct(churn.times_ms("bench.graph.add_edge"), 50),
        "linalg.sync_ms_p50": pct(churn.times_ms("resistance.sync"), 50),
        "linalg.sync_ms_max": max(churn.times_ms("resistance.sync"), default=0.0),
        "linalg.refreshes": sum(t.stats.refreshes for t in trackers) + rebuilt,
        "linalg.batched_events": sum(t.stats.batched_events for t in trackers),
        "linalg.trace_ms_p50": pct(churn.times_ms("bench.linalg.group_cfcc", self_time=True), 50),
        "pool.reweight_ms_p50": pct(churn.times_ms("pool.reweight"), 50),
        "pool.topup_ms_p50": pct(churn.times_ms("pool.topup"), 50),
        "pool.forests_drawn": drawn,
        "pool.reuse_ratio": kept / (kept + drawn) if kept + drawn else 0.0,
        "pool.ess_mean": float(np.mean(record.ess)) if record.ess else 0.0,
        "sampling.lockstep_s": sampling_s / calls,
        "sampling.forests": select.attr_sum("sampling.lockstep", "forests") / calls,
        "estimator.fold_s": fold_s / calls,
        "estimator.forests_folded": select.attr_sum("estimator.fold", "forests") / calls,
        "estimator.early_stop_ratio": sum(c["early"] for c in record.select) / max(steps, 1),
        "centrality.other_s": (select_wall - sampling_s - fold_s) / calls,
        "engine.eval_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "service.queue_wait_ms_p50": pct(waits, 50),
        "service.queue_wait_ms_p95": pct(waits, 95),
        "service.batch_mean": float(record.serve_stats.get("mean_batch_size", 0.0)),
        "service.worker_busy_ratio": busy / window if window > 0 else 0.0,
        "service.gen_lag_ms_max": max(record.gen_lag_ms, default=0.0),
        "service.latency_ms_mean": float(np.mean(latencies)) if latencies else 0.0,
        "service.latency_ms_p95": pct(latencies, 95),
        "share.select.fold": fold_s / select_wall,
        "share.select.sampling": sampling_s / select_wall,
        "share.churn.delete": sum(deletes) / 1000.0 / churn_wall,
        "share.churn.sync": churn.total("resistance.sync") / churn_wall,
        "share.churn.trace": sum(churn.times_ms("bench.linalg.group_cfcc", self_time=True))
        / 1000.0 / churn_wall,
        "share.churn.reweight": churn.total("pool.reweight") / churn_wall,
        "share.churn.topup": churn.total("pool.topup") / churn_wall,
        "share.churn.fold": churn.total("estimator.fold") / churn_wall,
    }
