"""Dynamic CFCM query engine: cached queries with importance-weighted pools.

:class:`DynamicCFCM` fronts the batch CFCM algorithms with three layers of
state that survive across graph mutations:

1. **Query cache** — ``query(k, method, eps)`` results are memoised per graph
   version, so repeated queries on an unchanged graph are O(1) hits; any
   mutation invalidates them wholesale (the optimal group can move
   arbitrarily far under a single edge edit).
2. **Forest pools** — :meth:`evaluate_forest` estimates the group CFCC of a
   root set from a pool of sampled spanning forests, held as one
   :class:`repro.sampling.WeightedForestPool` per root set: a ``(B, n)``
   parent matrix plus per-forest importance weights.  Mutations *reweight*
   instead of flushing: a deleted edge drops exactly the forests whose
   parent pointers use it (the survivors are exact samples of the shrunk
   graph), a reweighted edge multiplies its users by the exact density
   ratio ``w'/w``, an inserted edge down-weights every stored forest by a
   cheap inclusion prior, and an inserted *node* extends every stored
   forest with a leaf attachment — insertions never force a flush.  Once
   the pool's effective sample size falls below ``ess_floor * pool_size``
   the next evaluation tops it up with a vectorised lockstep draw, evicting
   the lowest-weight forests.  Node removals remain structural (compact ids
   shift), so they still evict/flush.  Each pool also owns the path system
   and JL projection its cached estimator rows are valid against, and
   retires them in its own mutation hooks.
3. **Incremental inverses** — :meth:`evaluate_exact` delegates to a cached
   :class:`repro.dynamic.IncrementalResistance` per group, which folds each
   pending journal suffix in as a single rank-``t`` Woodbury batch (O(n²t),
   one BLAS-3 pass) instead of O(n³) inversions, growing/downdating rows on
   node events.

The engine also *bounds the journal*: after each synchronisation it asks the
graph to :meth:`~repro.dynamic.DynamicGraph.compact` the prefix every cached
consumer has already seen, so a long-running service's journal stays flat.
(External consumers of the same graph that fall behind a compaction rebuild
from the snapshot — see :meth:`DynamicGraph.journal_since`.)

Hit/miss, reweighting/top-up counters and per-pool ESS are exposed via
:attr:`stats` so operators can see whether the caches earn their memory.
"""

from __future__ import annotations

import copy
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import GraphError, InvalidParameterError
from repro.obs.metrics import REGISTRY, SIZE_BUCKETS
from repro.obs.tracing import trace
from repro.centrality.estimators import (
    PathSystem,
    SamplingConfig,
    batched_diag_estimates,
    batched_projected_estimates,
    rademacher_weights,
)
from repro.linalg.backends import ResistanceBackend
from repro.centrality.result import CFCMResult
from repro.dynamic.graph import ADD, ADD_NODE, REMOVE, REMOVE_NODE, DynamicGraph
from repro.dynamic.resistance import IncrementalResistance
from repro.graph.graph import Graph
from repro.sampling.batch import sample_forest_batch_vectorized
from repro.sampling.pool import (
    WeightedForestPool,
    edge_inclusion_prior,
    node_internal_prior,
)
from repro.utils.rng import RandomState, as_rng
from repro.utils.timer import clock
from repro.utils.validation import check_integer

# Hot-path metrics (no-ops until the default registry is enabled).
_OP_SECONDS = REGISTRY.histogram(
    "repro_engine_op_seconds", "Wall time of one engine operation",
    labels=("op",),
)
_TOPUP_FORESTS = REGISTRY.histogram(
    "repro_engine_topup_forests", "Fresh forests drawn per pool top-up",
    buckets=SIZE_BUCKETS,
)
_FOLD_FORESTS = REGISTRY.histogram(
    "repro_engine_fold_forests", "Stale forests folded per estimator fold",
    buckets=SIZE_BUCKETS,
)


@contextmanager
def _op_timer(op: str):
    """Record one engine operation's wall time onto the op histogram."""
    if not REGISTRY.enabled:
        yield
        return
    start = clock()
    try:
        yield
    finally:
        _OP_SECONDS.observe(clock() - start, op=op)


@dataclass
class EngineStats:
    """Cache-effectiveness counters of one :class:`DynamicCFCM` instance.

    ``pools_flushed`` is retained for compatibility: with importance
    weighting it only counts the structural flushes that remain (node
    removals, journal-loss recovery), never edge churn.  ``pool_ess`` maps
    each live pool's root set (as a comma-joined key) to its current
    effective sample size.
    """

    query_hits: int = 0
    query_misses: int = 0
    eval_hits: int = 0
    eval_misses: int = 0
    forests_kept: int = 0
    forests_resampled: int = 0
    forests_reweighted: int = 0
    forests_dropped: int = 0
    forests_folded: int = 0
    pools_flushed: int = 0
    pools_evicted: int = 0
    ess_topups: int = 0
    batch_updates: int = 0
    batched_events: int = 0
    node_evictions: int = 0
    pool_ess: Dict[str, float] = field(default_factory=dict)

    def hit_rate(self) -> float:
        """Fraction of ``query`` calls answered from cache."""
        total = self.query_hits + self.query_misses
        return self.query_hits / total if total else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "query_hits": self.query_hits,
            "query_misses": self.query_misses,
            "eval_hits": self.eval_hits,
            "eval_misses": self.eval_misses,
            "forests_kept": self.forests_kept,
            "forests_resampled": self.forests_resampled,
            "forests_reweighted": self.forests_reweighted,
            "forests_dropped": self.forests_dropped,
            "forests_folded": self.forests_folded,
            "pools_flushed": self.pools_flushed,
            "pools_evicted": self.pools_evicted,
            "ess_topups": self.ess_topups,
            "batch_updates": self.batch_updates,
            "batched_events": self.batched_events,
            "node_evictions": self.node_evictions,
            "hit_rate": self.hit_rate(),
            # Deep-copied so a snapshot attached to a response cannot mutate
            # under later engine activity (pool_ess nests per-pool state).
            "pool_ess": copy.deepcopy(self.pool_ess),
        }


def _pool_key(roots: Tuple[int, ...]) -> str:
    return ",".join(str(r) for r in roots)


class DynamicCFCM:
    """Query engine maintaining CFCM state across edge and node updates.

    Parameters
    ----------
    graph:
        A :class:`DynamicGraph` (a plain connected :class:`repro.Graph` is
        wrapped automatically).  Groups and query results use the dynamic
        graph's *stable* node ids throughout, also after node churn.
    seed:
        Master seed; every cache miss derives an independent child seed so
        results are reproducible for a fixed call sequence.
    config:
        Optional :class:`SamplingConfig` forwarded to the sampling methods.
    pool_size:
        Number of forests kept per evaluation root set.
    refresh_interval:
        Staleness budget of the per-group incremental inverses.
    cache_capacity:
        Maximum entries per cache (query results, forest pools, incremental
        inverses); least-recently-used entries are evicted beyond it so a
        long-running engine's memory stays bounded.
    ess_floor:
        Fraction of ``pool_size``: when a pool's effective sample size falls
        below ``ess_floor * pool_size``, the next evaluation replaces its
        stale mass with fresh lockstep draws.
    backend:
        Resistance backend spec for the exact evaluation path: ``"dense"``
        (explicit inverse, the default), ``"sparse"`` (solver-backed, never
        materialises the inverse), ``"auto"`` (picks dense or sparse by
        graph size/sparsity) or ``"sharded"`` (per-shard inner backends
        stitched through a Schur complement over a vertex separator);
        forwarded to every :class:`~repro.dynamic.IncrementalResistance`
        this engine creates.
    backend_options:
        Keyword arguments for the backend constructor: the sparse backend's
        solver options, or the sharded backend's ``shards`` and ``inner``.
    watchdog_interval:
        Probe the numerical health of every cached incremental inverse once
        per this-many synchronisations (the backward residual
        ``max|L_{-S}(B⁻¹e) − e|`` of a sampled unit solve); drift past
        ``drift_threshold`` triggers an automatic refactorisation.  ``0``
        (the default) disables the watchdog.
    drift_threshold:
        Residual above which a watchdog probe refactorises the tracker.
    """

    def __init__(self, graph: DynamicGraph | Graph, seed: RandomState = None,
                 config: Optional[SamplingConfig] = None, pool_size: int = 24,
                 refresh_interval: int = 64,
                 cache_capacity: int = 64, ess_floor: float = 0.5,
                 backend: str | ResistanceBackend = "dense",
                 backend_options: Optional[Dict[str, object]] = None,
                 watchdog_interval: int = 0,
                 drift_threshold: float = 1e-6):
        if isinstance(graph, Graph):
            graph = DynamicGraph(graph)
        self.graph = graph
        if isinstance(backend, ResistanceBackend):
            # One backend instance holds the factorisation of exactly one
            # grounded matrix; the engine keeps a tracker per *group*, so a
            # shared instance would corrupt state across groups.
            raise InvalidParameterError(
                "DynamicCFCM takes a backend spec string ('dense', 'sparse', "
                "'auto' or 'sharded'), not a backend instance — each cached group "
                "tracker needs its own"
            )
        backend = str(backend).lower()
        if backend not in ("dense", "sparse", "auto", "sharded"):
            raise InvalidParameterError(
                f"unknown resistance backend {backend!r} (expected "
                f"'dense', 'sparse', 'auto' or 'sharded')"
            )
        self.backend = backend
        self.backend_options = dict(backend_options) if backend_options else None
        self.rng = as_rng(seed)
        self.config = config
        self.pool_size = check_integer("pool_size", pool_size, minimum=1)
        self.ess_floor = float(ess_floor)
        if not 0.0 <= self.ess_floor <= 1.0:
            raise InvalidParameterError(
                f"ess_floor must lie in [0, 1], got {ess_floor}"
            )
        self.refresh_interval = check_integer("refresh_interval", refresh_interval,
                                              minimum=1)
        self.cache_capacity = check_integer("cache_capacity", cache_capacity,
                                            minimum=1)
        self.watchdog_interval = check_integer("watchdog_interval",
                                               watchdog_interval, minimum=0)
        self.drift_threshold = float(drift_threshold)
        if self.drift_threshold <= 0.0:
            raise InvalidParameterError(
                f"drift_threshold must be positive, got {drift_threshold}"
            )
        self.stats = EngineStats()
        self._query_cache: Dict[Tuple, Tuple[int, CFCMResult]] = {}
        self._eval_cache: Dict[Tuple, Tuple[int, float]] = {}
        # One pool per root set; each owns its forests, weights, cached
        # estimator rows and the path system / JL projection behind them.
        self._pools: Dict[Tuple[int, ...], WeightedForestPool] = {}
        self._trackers: Dict[Tuple[int, ...], IncrementalResistance] = {}
        self._pool_version = graph.version

    # ---------------------------------------------------------------- queries
    @property
    def version(self) -> int:
        """Current version of the underlying dynamic graph."""
        return self.graph.version

    @property
    def synced_version(self) -> int:
        """Graph version the cached pools and journal cursor have folded in."""
        return self._pool_version

    @property
    def pending_events(self) -> int:
        """Journal events applied to the graph but not yet seen by the caches."""
        return self.graph.version - self._pool_version

    def sync(self) -> int:
        """Fold pending journal events into every cached consumer *now*.

        This is the maintenance half of every query, exposed as a
        non-blocking hook so a front end (e.g. the asyncio service in
        :mod:`repro.service`) can pump pool reweighting and journal
        compaction off the query hot path — between traffic bursts, from a
        worker thread, without answering anything.  Returns the version the
        caches now reflect, which callers can use as a consistency token.
        """
        self._sync_pools()
        return self._pool_version

    def query(self, k: int, method: str = "schur", eps: float = 0.2,
              evaluate: bool | str = False) -> CFCMResult:
        """Solve CFCM on the current graph, reusing the cache when unchanged.

        Parameters mirror :func:`repro.maximize_cfcc`; the result of a miss
        is computed by the corresponding batch algorithm on the current
        snapshot and memoised until the next mutation.  ``result.group``
        holds stable node ids (snapshot ids are translated back after node
        churn).
        """
        from repro.centrality.api import maximize_cfcc, validate_cfcm_parameters

        k = validate_cfcm_parameters(self.graph.n, k, str(method).lower(), eps,
                                     self.config)
        if not self.graph.is_unit_weighted:
            # snapshot() exposes only the topology, so every batch method
            # (including exact greedy) would silently optimise the wrong
            # objective on a weighted graph.
            raise InvalidParameterError(
                "selection queries assume unit edge weights; reset weights "
                "to 1 (weighted graphs are supported for evaluation via "
                "evaluate_exact only)"
            )
        with trace("engine.query", k=k, method=str(method).lower()) as span, \
                _op_timer("query"):
            # Keep the pool/tracker state machine and journal compaction
            # moving under query-only traffic too, or the journal would grow
            # unboundedly in a service that never calls the evaluate paths.
            self._sync_pools()
            # True and "exact" request the same evaluation; normalising the
            # key keeps them from occupying two cache slots for one result.
            if evaluate is True:
                evaluate = "exact"
            key = (k, str(method).lower(), round(float(eps), 9),
                   str(evaluate) if evaluate else "")
            cached = self._query_cache.get(key)
            if cached is not None and cached[0] == self.graph.version:
                self.stats.query_hits += 1
                span.set(cache="hit")
                _lru_store(self._query_cache, key, cached, self.cache_capacity)
                return cached[1]
            self.stats.query_misses += 1
            span.set(cache="miss")
            child_seed = int(self.rng.integers(0, 2**62))
            result = maximize_cfcc(self.graph.snapshot(), k, method=method,
                                   eps=eps, seed=child_seed, config=self.config,
                                   evaluate=evaluate)
            mapping = self.graph.snapshot_mapping()
            if int(mapping[-1]) != mapping.size - 1:
                # Node churn left holes in the id space: translate the
                # snapshot's compact ids back to the stable ids callers
                # reason in — in the group and in the per-iteration
                # diagnostics alike.
                result.group = [int(mapping[node]) for node in result.group]
                for entry in result.iteration_log:
                    if "node" in entry:
                        entry["node"] = int(mapping[entry["node"]])
            _lru_store(self._query_cache, key, (self.graph.version, result),
                       self.cache_capacity)
            return result

    def evaluate(self, group: Sequence[int], mode: str = "exact") -> float:
        """Group CFCC of ``group`` on the current graph.

        ``mode="exact"`` uses the incremental grounded inverse (one rank-``t``
        Woodbury batch per pending journal suffix); ``mode="forest"`` uses the
        importance-weighted forest pool (estimator accuracy grows with
        ``pool_size``).
        """
        mode = str(mode).lower()
        if mode == "exact":
            return self.evaluate_exact(group)
        if mode == "forest":
            return self.evaluate_forest(group)
        raise InvalidParameterError(f"unknown evaluation mode {mode!r}")

    def tracker(self, group: Sequence[int]) -> IncrementalResistance:
        """The cached per-group incremental inverse, created on first use.

        The maintenance entry point behind :meth:`evaluate_exact`, exposed
        so front ends can reach the tracker's solve surface
        (:meth:`~repro.dynamic.IncrementalResistance.resistance_column`,
        :attr:`~repro.dynamic.IncrementalResistance.kept`) without going
        through a scalar evaluation.  The tracker is LRU-cached under the
        validated group key exactly like an evaluation would cache it.
        """
        self._sync_pools()
        key = self.graph.validate_group(group)
        tracker = self._trackers.get(key)
        if tracker is None:
            self.stats.eval_misses += 1
            tracker = IncrementalResistance(
                self.graph, key, refresh_interval=self.refresh_interval,
                backend=self.backend,
                backend_options=self.backend_options,
                watchdog=self._make_watchdog(key))
        else:
            self.stats.eval_hits += 1
        _lru_store(self._trackers, key, tracker, self.cache_capacity)
        return tracker

    def evaluate_exact(self, group: Sequence[int]) -> float:
        """Exact group CFCC via the per-group incremental inverse."""
        with trace("engine.evaluate_exact") as span, _op_timer("evaluate_exact"):
            key = self.graph.validate_group(group)
            span.set(group=_pool_key(key))
            cached = key in self._trackers
            span.set(cache="hit" if cached else "miss")
            tracker = self.tracker(key)
            batches = tracker.stats.batch_updates
            events = tracker.stats.batched_events
            value = tracker.group_cfcc()
            self.stats.batch_updates += tracker.stats.batch_updates - batches
            self.stats.batched_events += tracker.stats.batched_events - events
            return value

    def evaluate_forest(self, group: Sequence[int]) -> float:
        """Estimated group CFCC from the importance-weighted forest pool.

        ``Tr(inv(L_{-S}))`` is the sum of the per-node diagonal estimators of
        Lemma 3.3, evaluated as a *weighted* mean over the pooled forests
        rooted at ``S`` (one batched ``(B, n)`` fold, shared with the static
        estimators).  Stale forests contribute with their importance weight;
        the pool is topped up with fresh lockstep draws whenever its
        effective sample size falls below the ESS floor.
        """
        return self._pooled_read(group, "forest", self._fold_trace)

    def evaluate_forest_delta(self, group: Sequence[int]) -> Dict[int, float]:
        """ForestDelta gains ``Δ(u, S)`` for every ``u ∉ S``, from the pool.

        The pooled counterpart of
        :func:`repro.centrality.estimators.estimate_forest_delta`:
        ``gains[u] ≈ (inv(L_{-S})²)_uu / (inv(L_{-S}))_uu``, with the
        numerator JL-sketched through ``config.jl_rows(n)`` Rademacher
        weight rows.  Per-forest projected and diagonal estimator rows are
        cached against the pool's path system and JL projection, so a churn
        evaluation folds only the freshly drawn forests — the same
        incremental contract :meth:`evaluate_forest` has for traces.  Keys
        are stable node ids.
        """
        return dict(self._pooled_read(group, "forest_delta", self._fold_gains))

    def refill_pool(self, group: Sequence[int]) -> int:
        """Top the forest pool of ``group`` up; returns the number drawn.

        The sampling half of :meth:`evaluate_forest`, exposed so a front end
        can refresh pools ahead of query traffic (prefetching).
        """
        roots = self._pool_roots(group)
        self._sync_pools()
        pool, _, drawn = self._topped_up_pool(roots)
        self._record_pool_health(roots, pool)
        return drawn

    def pool_health(self) -> Dict[str, Dict[str, float]]:
        """Per-pool health snapshots (size, capacity, ESS, stale fraction)."""
        return {
            _pool_key(roots): pool.health()
            for roots, pool in self._pools.items()
        }

    # ----------------------------------------------------- durability hooks
    def checkpoint(self, path: str) -> str:
        """Serialise the full engine state to ``path`` (see
        :mod:`repro.resilience.checkpoint` for the format).  The engine is
        quiesced first (pending journal events folded in) and remains fully
        usable afterwards.  Returns the path written."""
        from repro.resilience.checkpoint import checkpoint_engine

        return checkpoint_engine(self, path)

    @classmethod
    def restore(cls, path: str) -> "DynamicCFCM":
        """Rebuild an engine from a :meth:`checkpoint` archive.

        The restored engine continues *bit-equal* with the checkpointed one:
        identical RNG stream, caches, pools and factor state.  To recover a
        crashed primary, replay its post-checkpoint mutations onto
        :attr:`graph` — the journal-replayed engine reconverges exactly.
        """
        from repro.resilience.checkpoint import restore_engine

        return restore_engine(path)

    def _make_watchdog(self, key: Tuple[int, ...]):
        """A per-tracker drift watchdog, or ``None`` when disabled.

        Seeded from the group key so every tracker probes an independent,
        deterministic row stream (and a restored checkpoint replays it).
        """
        if self.watchdog_interval <= 0:
            return None
        from repro.resilience.watchdog import ResidualWatchdog

        return ResidualWatchdog(
            threshold=self.drift_threshold, interval=self.watchdog_interval,
            seed=zlib.crc32(_pool_key(key).encode("utf-8")),
        )

    # ------------------------------------------------------------ maintenance
    def _pool_roots(self, group: Sequence[int]) -> Tuple[int, ...]:
        """Validated root key of a pooled call (unit weights only)."""
        if not self.graph.is_unit_weighted:
            raise InvalidParameterError(
                "forest pools assume unit edge weights; use mode='exact'"
            )
        return self.graph.validate_group(group)

    def _pooled_read(self, group: Sequence[int], kind: str, fold: Callable):
        """Shared body of the pooled evaluations.

        sync → eval-cache lookup → pool → top-up → path system, then
        ``fold(pool, snapshot, compact_roots)`` computes the value that is
        cached under ``(kind, roots)`` until the next mutation.
        """
        roots = self._pool_roots(group)
        with trace(f"engine.evaluate_{kind}", roots=_pool_key(roots)) as span, \
                _op_timer(f"evaluate_{kind}"):
            self._sync_pools()
            cache_key = (kind, roots)
            cached = self._eval_cache.get(cache_key)
            if cached is not None and cached[0] == self.graph.version:
                self.stats.eval_hits += 1
                span.set(cache="hit")
                _lru_store(self._eval_cache, cache_key, cached,
                           self.cache_capacity)
                return cached[1]
            self.stats.eval_misses += 1
            span.set(cache="miss")
            pool, kept, _ = self._topped_up_pool(roots)
            self.stats.forests_kept += kept
            snapshot = self.graph.snapshot()
            compact_roots = self.graph.compact_nodes(roots)
            if pool.path is None:
                pool.attach_path(PathSystem.from_graph(snapshot, compact_roots))
            value = fold(pool, snapshot, compact_roots)
            _lru_store(self._eval_cache, cache_key,
                       (self.graph.version, value), self.cache_capacity)
            self._record_pool_health(roots, pool)
            return value

    def _fold_trace(self, pool: WeightedForestPool, snapshot: Graph,
                    compact_roots: Sequence[int]) -> float:
        """Group CFCC from the pooled per-forest traces.

        One weight-aware batched fold — and only over the forests whose
        trace contribution is not already cached against the pool's path
        system (fresh draws, or everything after a path invalidation).
        """
        stale = np.flatnonzero(~pool.trace_valid)
        if stale.size:
            with trace("estimator.fold", forests=int(stale.size)):
                diag = batched_diag_estimates(pool.batch().parent[stale],
                                              pool.path)
                pool.set_traces(stale, diag.sum(axis=1))
            _FOLD_FORESTS.observe(int(stale.size))
            self.stats.forests_folded += int(stale.size)
        weights = pool.weights()
        pooled = float(weights @ pool.traces) / float(weights.sum())
        return self.graph.n / pooled

    def _fold_gains(self, pool: WeightedForestPool, snapshot: Graph,
                    compact_roots: Sequence[int]) -> Dict[int, float]:
        """ForestDelta gains from the pooled projected and diagonal rows."""
        rows = (self.config or SamplingConfig()).jl_rows(snapshot.n)
        if pool.jl is None or pool.jl.shape != (rows, snapshot.n):
            pool.attach_projection(
                rademacher_weights(rows, snapshot.n, compact_roots, self.rng)
            )
        stale = np.flatnonzero(~pool.projected_valid)
        if stale.size:
            with trace("estimator.fold_projected", forests=int(stale.size)):
                mask = np.zeros(pool.size, dtype=bool)
                mask[stale] = True
                sub = pool.batch().select(mask)
                projected = batched_projected_estimates(sub, pool.path, pool.jl)
                diag = batched_diag_estimates(sub.parent, pool.path)
                pool.set_projected(stale, projected, diag)
            _FOLD_FORESTS.observe(int(stale.size))
            self.stats.forests_folded += int(stale.size)
        weights = pool.weights()
        total = float(weights.sum())
        mean_projected = np.einsum("b,bwn->wn", weights,
                                   pool.projected) / total
        mean_diag = (weights @ pool.projected_diag) / total
        numerators = np.sum(mean_projected * mean_projected, axis=0)

        mapping = self.graph.snapshot_mapping()
        degrees = snapshot.degrees
        compact_set = set(int(r) for r in compact_roots)
        gains: Dict[int, float] = {}
        for u in range(snapshot.n):
            if u in compact_set:
                continue
            # Same denominator floor as the batch estimator:
            # (inv(L_{-S}))_uu >= 1/d_u by the Neumann series.
            floor = 1.0 / max(int(degrees[u]), 1)
            denominator = max(float(mean_diag[u]), floor)
            gains[int(mapping[u])] = float(numerators[u]) / denominator
        return gains

    def _topped_up_pool(self, roots: Tuple[int, ...]
                        ) -> Tuple[WeightedForestPool, int, int]:
        """The pool for ``roots`` after its top-up, with the number of
        forests it kept from before and the number it drew.

        An empty pool is rebuilt from the current snapshot, so it restarts
        with the mapping (and weights) in force right now.  The top-up draws
        what the pool's refresh plan asks for: both the size deficit
        (forests killed by deletions) and the ESS floor (stale mass from
        insertions/reweights); fresh forests are drawn as one lockstep
        vectorised batch and admitted at weight 1, evicting the
        lowest-weight forests beyond capacity.
        """
        compact_roots = self.graph.compact_nodes(roots)
        pool = self._pools.get(roots)
        if pool is None or pool.size == 0:
            pool = WeightedForestPool(compact_roots, capacity=self.pool_size,
                                      ess_floor=self.ess_floor)
        _lru_store(self._pools, roots, pool, self.cache_capacity,
                   on_evict=self._on_pool_evicted)
        kept = pool.size
        missing = pool.plan_refresh()
        if missing <= 0:
            return pool, kept, 0
        if missing > self.pool_size - pool.size:
            self.stats.ess_topups += 1
        snapshot = self.graph.snapshot()
        with trace("pool.topup", missing=missing):
            pool.admit(sample_forest_batch_vectorized(
                snapshot, compact_roots, missing, seed=self.rng
            ))
        _TOPUP_FORESTS.observe(missing)
        self.stats.forests_resampled += missing
        return pool, kept, missing

    def _sync_pools(self) -> None:
        """Replay pending journal events onto every cached consumer.

        Edge events reweight forest pools (removals kill exactly the using
        forests, reweights apply exact density ratios, insertions decay by an
        inclusion prior); node insertions extend every stored forest with a
        leaf attachment.  Only node *removals* remain structural: compact
        snapshot ids shift, so dependent pools/trackers are evicted and the
        survivors flushed.  Afterwards the journal prefix every cached
        consumer has seen is compacted away.
        """
        if self.graph.version == self._pool_version:
            # Nothing pending: skip the replay (and the span) entirely.
            self._compact_journal()
            return
        with trace("engine.sync_pools",
                   pending=self.graph.version - self._pool_version):
            dirty = True
            try:
                events = self.graph.journal_since(self._pool_version)
                dirty = bool(events)
            except GraphError:
                # Another consumer compacted the journal past our cursor; the
                # replay is lost, so conservatively flush every pool and
                # resume from the current version (trackers recover the same
                # way).
                for pool in self._pools.values():
                    self._flush_pool(pool)
                self._pool_version = self.graph.version
                events = []
            removals = [event for event in events if event.kind == REMOVE_NODE]
            if removals:
                # Structural: process the node removals (evicting dependent
                # state, flushing survivors).  Every pool ends up empty, so
                # the edge/insertion events of the same suffix are no-ops for
                # pools — which also means the per-event replay below may
                # safely use the *current* id mapping.
                for event in removals:
                    self._evict_node(int(event.node))
            elif events:
                with trace("pool.reweight", events=len(events)):
                    for event in events:
                        if event.kind == ADD_NODE:
                            self._extend_pools(event)
                        elif event.kind == ADD:
                            self._decay_pools(event)
                        elif event.kind == REMOVE:
                            self._invalidate_pools(event)
                        else:  # reweight: exact density-ratio update
                            self._reweight_pools(event)
            if events:
                self._pool_version = self.graph.version
            if dirty:
                # Only re-snapshot pool health when something actually
                # changed: ess() is O(B) per pool, and _sync_pools runs on
                # every request.
                for roots, pool in self._pools.items():
                    self._record_pool_health(roots, pool)
            self._compact_journal()

    def _extend_pools(self, event) -> None:
        """Attach an inserted node to every stored forest as a leaf.

        With no node removal in the replayed suffix, the inserted node's
        compact id is exactly the next column of every pool's parent matrix
        (fresh stable ids sort last), and the attachment neighbours keep
        their compact ids — so the extension is a pure column append.
        """
        neighbours = [int(nb) for nb, _ in event.edges]
        attachment = [float(w) for _, w in event.edges]
        if not all(self.graph.has_node(nb) for nb in neighbours):
            for pool in self._pools.values():
                self._flush_pool(pool)
            return
        compact = self.graph.compact_nodes(neighbours)
        stale = node_internal_prior(
            [self.graph.degree(nb) for nb in neighbours]
        )
        new_column = self.graph.compact_index(int(event.node))
        for pool in self._pools.values():
            if pool.size == 0:
                continue
            if pool.n != new_column:
                self._flush_pool(pool)  # id-space mismatch: rebuild lazily
                continue
            extended = pool.extend_leaf(compact, attachment, stale, self.rng)
            self.stats.forests_reweighted += extended
            self.stats.forests_dropped += pool.take_dead_drops()
            # The pool's path system gained the same leaf, leaving every
            # cached trace row intact; cached rows only gain the new node's
            # column, priced by a single-column walk instead of a refold.
            cached = np.flatnonzero(pool.trace_valid)
            if cached.size:
                column = batched_diag_estimates(
                    pool.batch().parent[cached], pool.path, columns=[new_column]
                )
                pool.add_to_traces(cached, column[:, 0])

    def _decay_pools(self, event) -> None:
        """Down-weight every pool after an edge insertion (stale stratum).

        The decay is the exact balance-heuristic importance ratio wherever
        the pool can price it: a stored forest avoids the new edge ``e``,
        so its density under the new distribution is ``Z/Z' = 1 - p`` with
        ``p = Pr_new[e ∈ F] = w_e R'(u, v)`` (matrix-forest theorem, ``R'``
        the grounded effective resistance *after* the insertion).  ``R'``
        follows from the pre-insertion resistance ``R`` via the rank-one
        identity ``R' = R / (1 + w_e R)``, and ``R`` is estimated from the
        pool's own draws with the projected forest estimator
        ``(e_u - e_v)^T inv(L_{-S}) (e_u - e_v)``.  Pools that cannot price
        the edge (empty, no path system yet, non-unit weights, degenerate
        estimate) fall back to the conservative degree prior
        (:func:`edge_inclusion_prior`).
        """
        if not (self.graph.has_node(event.u) and self.graph.has_node(event.v)):
            return
        prior = edge_inclusion_prior(self.graph.degree(event.u),
                                     self.graph.degree(event.v))
        cu = cv = None
        if self.graph.is_unit_weighted:
            cu, cv = self._compact_endpoints(event.u, event.v)
        for pool in self._pools.values():
            stale = prior
            if cu is not None:
                stale = self._balance_decay(pool, cu, cv, prior)
            self.stats.forests_reweighted += pool.apply_addition(stale)
            self.stats.forests_dropped += pool.take_dead_drops()

    def _balance_decay(self, pool: WeightedForestPool, cu: int, cv: int,
                       prior: float) -> float:
        """Balance-heuristic decay for one pool, or ``prior`` when unpriceable.

        One projected-estimator fold with the single probe row
        ``e_u - e_v`` against the pool's path system prices the inserted
        unit edge's grounded effective resistance from the pooled draws
        (self-normalised over the importance weights); see
        :meth:`_decay_pools` for the algebra.
        """
        path = pool.path
        if path is None or max(cu, cv) >= path.n:
            return prior
        probe = np.zeros((1, path.n))
        probe[0, cu] = 1.0
        probe[0, cv] = -1.0
        projected = batched_projected_estimates(pool.batch(), path, probe)
        samples = projected[:, 0, cu] - projected[:, 0, cv]
        weights = pool.weights()
        total = float(weights.sum())
        if not np.isfinite(total) or total <= 0.0:
            return prior
        resistance = float(weights @ samples) / total
        if not np.isfinite(resistance) or resistance <= 0.0:
            return prior
        # Unit insertion: p = R' = R / (1 + R), capped away from certainty.
        stale = resistance / (1.0 + resistance)
        return min(stale, 0.95)

    def _invalidate_pools(self, event) -> None:
        """Drop exactly the forests whose parent pointers use a deleted edge."""
        cu, cv = self._compact_endpoints(event.u, event.v)
        if cu is None:
            return
        for pool in self._pools.values():
            self.stats.forests_dropped += pool.apply_removal(cu, cv)

    def _reweight_pools(self, event) -> None:
        """Apply the exact density ratio ``w'/w`` to an edge's using forests."""
        cu, cv = self._compact_endpoints(event.u, event.v)
        if cu is None:
            return
        old_weight = event.weight - event.delta
        if old_weight <= 0.0:
            # The journal stores (new weight, delta); reconstructing the old
            # weight cancels catastrophically for extreme ratios (e.g.
            # 1e-25 -> 1).  An unrecoverable ratio means unknowable
            # importance weights, so fall back to the conservative flush.
            for pool in self._pools.values():
                self._flush_pool(pool)
            return
        ratio = event.weight / old_weight
        for pool in self._pools.values():
            self.stats.forests_reweighted += pool.apply_reweight(cu, cv, ratio)
            self.stats.forests_dropped += pool.take_dead_drops()

    def _flush_pool(self, pool: WeightedForestPool) -> None:
        """Flush a pool (its path system and JL projection go with it)."""
        if pool.size:
            pool.flush()
            self.stats.pools_flushed += 1

    def _evict_node(self, node: int) -> None:
        """Drop cached state referencing a removed node."""
        for roots in [r for r in self._pools if node in r]:
            del self._pools[roots]
            self.stats.pool_ess.pop(_pool_key(roots), None)
            self.stats.node_evictions += 1
        for group in [g for g in self._trackers if node in g]:
            del self._trackers[group]
            self.stats.node_evictions += 1
        # Surviving pools' forests no longer span a valid snapshot id space.
        for pool in self._pools.values():
            self._flush_pool(pool)

    def _on_pool_evicted(self, roots: Tuple[int, ...],
                         pool: WeightedForestPool) -> None:
        """LRU-eviction hook: record the event and drop the health entry.

        :attr:`EngineStats.pool_ess` only ever lists live pools, so nothing
        is left behind for a silently vanished pool (its path system and
        JL projection go with the pool object itself).
        """
        self.stats.pools_evicted += 1
        self.stats.pool_ess.pop(_pool_key(roots), None)

    def _record_pool_health(self, roots: Tuple[int, ...],
                            pool: WeightedForestPool) -> None:
        self.stats.pool_ess[_pool_key(roots)] = pool.ess()

    def _compact_endpoints(self, u: int, v: int) -> Tuple[Optional[int], Optional[int]]:
        if not (self.graph.has_node(u) and self.graph.has_node(v)):
            return None, None
        return self.graph.compact_index(u), self.graph.compact_index(v)

    def _compact_journal(self) -> None:
        """Ask the graph to drop the journal prefix all consumers have seen.

        A cached tracker lagging more than ``refresh_interval`` events (or
        its own larger budget, on a self-refreshing backend) will refresh
        from the snapshot rather than replay on its next sync, so it never
        needs the old suffix — don't let it pin the floor (and the journal's
        memory) at its stale version forever.
        """
        version = self.graph.version
        floor = self._pool_version
        for tracker in self._trackers.values():
            lag_floor = version - max(self.refresh_interval, tracker.refresh_budget)
            floor = min(floor, max(tracker.synced_version, lag_floor))
        self.graph.compact(floor)


def _lru_store(cache: Dict, key, value, capacity: int,
               on_evict: Optional[Callable] = None) -> None:
    """Insert ``key`` as the most-recent entry, evicting down to ``capacity``.

    Called on every hit and miss alike, so dict insertion order doubles as
    LRU order; the caches hold dense inverses / forest pools, so bounding
    them is what keeps a long-running engine's memory flat.  ``on_evict``
    receives ``(key, value)`` for every entry dropped, so owners can record
    the eviction and release any per-entry bookkeeping (a silently vanishing
    pool used to leave its health/cursor state behind).
    """
    cache.pop(key, None)
    cache[key] = value
    while len(cache) > capacity:
        old_key = next(iter(cache))
        old_value = cache.pop(old_key)
        if on_evict is not None:
            on_evict(old_key, old_value)
