"""One benchmark run: set-up, then selection, churn and serving on one graph.

Every workload is a session on its own input graph.  The phases run one
after another, each on a fresh copy of that graph:

* **select** — ``maximize_cfcc`` with ``method="schur"`` and ``"forest"``
  (k=8, ``SamplingConfig(eps=0.3, max_samples=64)``) over seeds derived from
  the workload seed; scored against exact greedy.
* **churn** — a closed loop with one caller on ``DynamicCFCM(backend="auto")``
  (forest pools of 8):
  bursts of 8 unit-weight events (~40% insert, 40% delete an existing edge
  off the monitored group, 10% node join, 10% node leave), each followed by a
  ``DynamicCFCM.sync()`` and a fresh exact read of a 4-node monitored group,
  and every 2nd also by a forest read.
* **serve** — ``AsyncCFCMService(workers=2)`` under open-loop arrivals at a
  fixed rate: 25% writes, 60% fresh exact reads, 15% relaxed forest reads,
  each request timed from its due time.

The graph, the monitored group and the set-up are fixed per workload; the
workload seed drives everything the run does to them (selection seeds, churn
events, arrival times and request mix), so runs with different seeds differ
in their operations, not in the input topology.  References (exact greedy,
direct-factorisation CFCC, connectivity of refused deletions) are computed
outside every timed region.
"""

from __future__ import annotations

import asyncio
import resource
import statistics
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

import numpy as np

import repro
from repro.centrality.estimators import SamplingConfig
from repro.dynamic import DynamicCFCM, DynamicGraph
from repro.exceptions import DisconnectedGraphError, ReproError
from repro.service import AsyncCFCMService
from repro.utils.timer import clock

import churn
import graphs
import reference

GRAPH_SEED = 0          # topology seed of both workload graphs
SETUP_SEED = 0          # engine seed of the set-up
SELECT_K = 8
SAMPLING = SamplingConfig(eps=0.3, max_samples=64)
GROUP_SIZE = 4
# Forests per pool.  With the default 24, a relaxed forest read on the road
# mesh redraws ~250 ms of long Wilson walks after any deletion; serving rates
# low enough for that left too few requests per run for steady percentiles.
POOL_SIZE = 8
# Set-ups per run; setup_s is their median.  One takes ~0.1 s, short enough
# that a single slow one (a collection, a neighbour's burst) moves it.
SETUP_REPS = 15
BURST = 8
FOREST_EVERY = 2        # bursts per forest read
CHECK_EVERY = 12        # bursts per reference checkpoint
MIN_BURSTS = 100        # so exact_ms_p90 has 10 reads beyond it
# Requests per second.  The state lock serialises requests, and a relaxed
# forest read holds it for ~35 ms on the power-law graph and ~100 ms on the
# road mesh (long Wilson walks).  The rate keeps the lock ~20-30% busy,
# below the knee where queueing amplifies run-to-run drift in the host's
# speed.  One rate with 200+ requests: a second, lower rate with fewer
# requests gave latencies whose run-to-run spread exceeded any usable bound.
RATES = {"powerlaw": 40.0, "roadmesh": 10.0}
MIN_REQUESTS = 200
SERVE_MIX = (("write", 0.25), ("exact", 0.60), ("forest", 0.15))
LIMIT_MS = 250.0
SHARES = {"select": 0.45, "churn": 0.25, "serve": 0.30}
SERVE_CHECKS = 3        # exact reads checked against the reference
# Coarse gate: a read further off is wrong, not merely noisy.  Accuracy
# itself is reported (read_accuracy), not gated, so drift stays visible.
READ_TOLERANCE = 0.25
CFCC_RATIO_FLOOR = 0.85


@dataclass
class Record:
    """Raw measurements of one run; metrics are derived from it afterwards."""

    workload: str
    seed: int
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    setup_s: List[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    graph: dict = field(default_factory=dict)
    windows: Dict[str, tuple] = field(default_factory=dict)
    select: List[dict] = field(default_factory=list)
    cfcc_ratios: List[float] = field(default_factory=list)
    update_ms: List[float] = field(default_factory=list)
    exact_ms: List[float] = field(default_factory=list)
    forest_ms: List[float] = field(default_factory=list)
    churn_wall: float = 0.0
    churn_events: int = 0
    refusals: int = 0
    read_errors: List[float] = field(default_factory=list)
    ess: List[float] = field(default_factory=list)
    churn_stats: dict = field(default_factory=dict)
    serve: List[dict] = field(default_factory=list)
    gen_lag_ms: List[float] = field(default_factory=list)
    serve_stats: dict = field(default_factory=dict)
    serve_engine: dict = field(default_factory=dict)
    write_starts: Dict[int, float] = field(default_factory=dict)
    bursts: int = 0

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)


def _seeds(seed: int, stream: int, count: int) -> List[int]:
    rng = np.random.default_rng([seed, stream])
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------- set-up
def setup(record: Record, build, reps: int = SETUP_REPS):
    """Graph build + engine construction + first exact and forest reads."""
    for _ in range(reps):
        started = clock()
        graph = build(GRAPH_SEED)
        group = graphs.monitored_group(graph, GROUP_SIZE)
        engine = DynamicCFCM(DynamicGraph(graph), seed=SETUP_SEED, backend="auto",
                             pool_size=POOL_SIZE)
        engine.evaluate(group, "exact")
        engine.evaluate(group, "forest")
        record.setup_s.append(clock() - started)
    record.graph = graphs.degree_shares(graph)
    return graph, group, engine


# -------------------------------------------------------------- selection
def select_phase(record: Record, graph, seed: int, budget: float) -> None:
    """Selection pairs (schur, forest) while the next one fits the budget."""
    seeds = _seeds(seed, 2, 64)
    started = clock()
    done = 0
    while True:
        for method in ("schur", "forest"):
            record.attempted += 1
            t0 = clock()
            result = repro.maximize_cfcc(graph, SELECT_K, method=method,
                                         config=SAMPLING, seed=seeds[done])
            elapsed = clock() - t0
            record.select.append({
                "pair": done, "method": method, "seconds": elapsed,
                "group": list(result.group), "steps": len(result.iteration_log),
                "early": sum(bool(s["stopped_early"]) for s in result.iteration_log),
            })
        done += 1
        spent = clock() - started
        if spent + spent / done > budget or done >= len(seeds):
            return


def score_selection(record: Record, graph) -> None:
    """cfcc_ratio of every selected group against exact greedy (untimed)."""
    exact = repro.maximize_cfcc(graph, SELECT_K, method="exact")
    nodes, edges = range(graph.n), reference.graph_edges(graph)
    best = reference.group_cfcc(nodes, edges, exact.group)
    for call in record.select:
        ratio = reference.group_cfcc(nodes, edges, call["group"]) / best
        record.cfcc_ratios.append(ratio)
        if ratio < CFCC_RATIO_FLOOR:
            record.fail(f"{call['method']} group scores {ratio:.3f} of exact greedy")


# ------------------------------------------------------------------ churn
def churn_bursts(record: Record, engine: DynamicCFCM, group: List[int],
                 seed: int) -> Iterator[int]:
    """The closed churn loop, one burst per step; yields the bursts done."""
    graph = engine.graph
    generator = churn.ChurnGenerator(graph.edges(), graph.node_ids().tolist(),
                                     group, np.random.default_rng([seed, 3]))
    done = 0
    while True:
        for _ in range(BURST):
            kind, args = generator.draw()
            record.attempted += 1
            t0 = clock()
            try:
                event = churn.apply_event(graph, kind, args)
            except DisconnectedGraphError:
                event = None
            elapsed = clock() - t0
            record.update_ms.append(1000.0 * elapsed)
            record.churn_wall += elapsed
            if event is not None:
                generator.applied(kind, args, event.node)
                record.churn_events += 1
                continue
            record.refusals += 1
            if not generator.disconnects(kind, args):
                record.fail(f"{kind} {args} refused on a graph it keeps connected")
        # Pool maintenance (reweighting stored forests for the burst) runs
        # as its own step, as a front end pumping DynamicCFCM.sync would, so
        # the read below times only the tracker sync and the trace.
        t0 = clock()
        engine.sync()
        record.churn_wall += clock() - t0
        record.attempted += 1
        t0 = clock()
        exact = engine.evaluate(group, "exact")
        elapsed = clock() - t0
        record.exact_ms.append(1000.0 * elapsed)
        record.churn_wall += elapsed
        forest = None
        if done % FOREST_EVERY == FOREST_EVERY - 1:
            record.ess.extend(h["ess"] for h in engine.pool_health().values())
            record.attempted += 1
            t0 = clock()
            forest = engine.evaluate(group, "forest")
            elapsed = clock() - t0
            record.forest_ms.append(1000.0 * elapsed)
            record.churn_wall += elapsed
        if done % CHECK_EVERY == CHECK_EVERY - 1:
            truth = reference.group_cfcc(generator.nodes.items,
                                         generator.edges.items, group)
            for mode, value in (("exact", exact), ("forest", forest)):
                if value is None:
                    continue
                error = reference.relative_error(value, truth)
                record.read_errors.append(error)
                if error > READ_TOLERANCE:
                    record.fail(f"{mode} read {value:.6g} vs reference {truth:.6g}")
        done += 1
        yield done


def churn_phase(record: Record, engine: DynamicCFCM, group: List[int], seed: int,
                budget: float, bursts: Optional[int] = None) -> int:
    """Runs ``bursts`` bursts, or by default at least ``MIN_BURSTS`` and
    ``budget`` seconds of timed churn; returns the number of bursts run."""
    for done in churn_bursts(record, engine, group, seed):
        if bursts is not None:
            if done >= bursts:
                break
        elif done >= MIN_BURSTS and record.churn_wall >= budget:
            break
    record.churn_stats = dict(engine.stats.as_dict(), pool_ess=None)
    return done


# ------------------------------------------------------------------ serve
class RequestGroup(tuple):
    """A group tuple tagged with its request id (read by the traced run)."""

    rid: int = -1


def _schedule(rng: np.random.Generator, rate: float, count: int) -> tuple:
    """Due offsets and request kinds.

    Gaps are the mean gap ``1/rate`` jittered uniformly by +-50% from the
    seed: Poisson clustering stacks the slow road-mesh forest reads so much
    that latency percentiles jump run to run.  The kind sequence is one
    fixed shuffle with the exact mix, so every run interleaves reads and
    writes alike; the seed picks the write targets.
    """
    offsets = np.cumsum(rng.uniform(0.5, 1.5, size=count)) / rate
    kinds = []
    for kind, share in SERVE_MIX[1:]:
        kinds += [kind] * int(round(share * count))
    kinds += [SERVE_MIX[0][0]] * (count - len(kinds))
    order = np.random.default_rng(churn.PATTERN_SEED).permutation(count)
    return offsets, [kinds[i] for i in order]


async def _request(service: AsyncCFCMService, kind: str, payload, due: float,
                   group: tuple, marks: Dict[int, float], rid: int) -> dict:
    outcome = {"kind": kind, "rid": rid, "due": due, "ok": True}
    try:
        if kind == "write":
            op, args = payload

            def mutation(graph):
                marks[rid] = clock()
                return churn.apply_event(graph, op, args)
            ticket = await service.submit(mutation)
            await ticket.result()
            outcome["version"] = ticket.version
        else:
            tagged = RequestGroup(group)
            tagged.rid = rid
            if kind == "exact":
                response = await service.evaluate(tagged, "exact", "fresh")
            else:
                response = await service.evaluate(tagged, "forest", "relaxed")
            outcome["value"] = float(response.result)
            outcome["version"] = int(response.version)
    except ReproError as exc:
        outcome["ok"] = False
        outcome["error"] = type(exc).__name__
    outcome["latency_ms"] = 1000.0 * (clock() - due)
    return outcome


async def _serve(record: Record, graph, group, seed: int, rate: float, count: int,
                 marks: Dict[int, float]) -> list:
    rng = np.random.default_rng([seed, 4])
    offsets, kinds = _schedule(rng, rate, count)
    writes = churn.service_writes(reference.graph_edges(graph), list(range(graph.n)),
                                  kinds.count("write"), rng)
    service = AsyncCFCMService(DynamicGraph(graph), seed=_seeds(seed, 5, 1)[0],
                               workers=2, backend="auto", pool_size=POOL_SIZE)
    write_cursor = 0
    async with service:
        await service.evaluate(group, "exact")
        await service.evaluate(group, "forest", consistency="relaxed")
        tasks = []
        window_start = clock()
        origin = window_start + 0.01
        for rid, (offset, kind) in enumerate(zip(offsets, kinds)):
            due = origin + float(offset)
            delay = due - clock()
            if delay > 0:
                await asyncio.sleep(delay)
            record.gen_lag_ms.append(max(0.0, 1000.0 * (clock() - due)))
            payload = None
            if kind == "write":
                payload = writes[write_cursor]
                write_cursor += 1
            tasks.append(asyncio.ensure_future(
                _request(service, kind, payload, due, group, marks, rid)))
        record.serve = list(await asyncio.gather(*tasks))
        record.windows["serve"] = (window_start, clock())
        record.serve_stats = service.stats.as_dict()
        stats = service.engine.stats
        record.serve_engine = {"eval_hits": stats.eval_hits,
                               "eval_misses": stats.eval_misses}
    return writes


def serve_phase(record: Record, graph, group, seed: int, seconds: float,
                marks: Dict[int, float]) -> list:
    rate = RATES[record.workload]
    count = max(MIN_REQUESTS, int(rate * SHARES["serve"] * seconds))
    record.attempted += count
    return asyncio.run(_serve(record, graph, group, seed, rate, count, marks))


def check_serve(record: Record, graph, group, writes: list) -> None:
    """Refused writes are failures; sampled reads match the reference."""
    for outcome in record.serve:
        if not outcome["ok"]:
            record.fail(f"served {outcome['kind']} failed: {outcome['error']}")
    exact = [o for o in record.serve if o["kind"] == "exact" and o["ok"]]
    forest = [o for o in record.serve if o["kind"] == "forest" and o["ok"]]
    picks = [exact[i] for i in np.linspace(0, len(exact) - 1, SERVE_CHECKS,
                                           dtype=int)] if exact else []
    picks += forest[-1:]
    for outcome in picks:
        edges = set(reference.graph_edges(graph))
        for op, edge in writes[:outcome["version"]]:
            (edges.add if op == "insert" else edges.discard)(edge)
        truth = reference.group_cfcc(range(graph.n), edges, group)
        error = reference.relative_error(outcome["value"], truth)
        if error > READ_TOLERANCE:
            record.fail(f"served {outcome['kind']} read off by {error:.3f}")


# ---------------------------------------------------------------- session
def run(workload: str, seed: int, seconds: float, scale: float = 1.0) -> Record:
    """One run of ``workload``."""
    def build(s):
        return graphs.BUILDERS[workload](s, scale)

    record = Record(workload=workload, seed=seed)
    graph, group, engine = setup(record, build)

    start = clock()
    select_phase(record, graph, seed, SHARES["select"] * seconds)
    middle = clock()
    bursts = churn_phase(record, engine, group, seed, SHARES["churn"] * seconds)
    record.windows["select"] = (start, middle)
    record.windows["churn"] = (middle, clock())
    writes = serve_phase(record, graph, group, seed, seconds, record.write_starts)
    record.peak_rss_mb = _peak_rss_mb()
    record.bursts = bursts

    score_selection(record, graph)
    check_serve(record, graph, group, writes)
    return record


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0
