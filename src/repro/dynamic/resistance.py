"""Incremental effective-resistance state under batched edge and node updates.

:class:`IncrementalResistance` maintains the grounded-Laplacian inverse
``inv(L_{-S})`` of a :class:`repro.dynamic.DynamicGraph` for a fixed grounded
group ``S`` — *through* a pluggable :class:`repro.linalg.ResistanceBackend`
rather than one hard-coded representation.  A pending journal suffix of ``t``
edge events is one rank-``t`` Laplacian perturbation ``B D Bᵀ``, handed to
the backend as a single batch: the ``dense`` backend folds it with an
explicit-inverse Woodbury solve (O(n²t) in one BLAS-3 pass, bit-identical to
the historical engine), the ``sparse`` backend accumulates it as an implicit
low-rank correction over a sparse LU base factor (Õ(m·t)).  Node events
bracket the edge batches:

* ``add_node`` *grows* the state by one row/column after a batched diagonal
  correction for the kept neighbours' new degrees;
* ``remove_node`` *downdates* the removed row and then batch-corrects the
  neighbours' diagonals — removing a node deletes its edges, which grounding
  alone would not reflect.

Backends that do not implement incremental grow/downdate (the sparse one)
answer node events with a refactorisation instead — at Õ(m) that is cheaper
there than the dense-style surgery would be.

Staleness policy
----------------
Low-rank updates are exact in exact arithmetic but accumulate floating-point
drift, and long journals eventually cost more than one clean factorisation.
The tracker therefore refreshes (re-factorises from the current graph state)

* when the pending suffix would push the low-rank updates since the last
  factorisation past ``refresh_interval`` (clamped to the backend's own
  ``max_updates`` correction-rank cap, when it has one; a backend that keeps
  its own float hygiene — ``self_refreshing``, the sharded one — is
  refreshed at its ``max_updates`` alone),
* whenever a batch is singular (its capacitance matrix is not invertible),
  which for deletions means the grounded graph lost its last path to ground —
  the connectivity guards of :class:`DynamicGraph` make this rare, but
  grounded *sub*-graphs can still degenerate numerically,
* when the graph compacted its journal past this tracker's synced version
  (the suffix can no longer be replayed).

All query methods synchronise lazily: mutate the graph freely, then call
:meth:`trace` / :meth:`resistance_to_group` and the journal suffix is folded
in on demand.  Removing a *grounded* node invalidates the tracker (its group
no longer exists) and raises :class:`repro.exceptions.GraphError`;
:class:`repro.dynamic.DynamicCFCM` evicts such trackers before they sync.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import (
    BackendUnavailableError,
    ConvergenceError,
    GraphError,
    InvalidParameterError,
    NumericalDriftError,
)
from repro.dynamic.graph import ADD_NODE, DynamicGraph, GraphUpdate
from repro.linalg.backends import (
    DenseResistanceBackend,
    ResistanceBackend,
    make_resistance_backend,
)
from repro.obs.metrics import REGISTRY, SIZE_BUCKETS
from repro.obs.tracing import trace
from repro.resilience.policy import record_failover
from repro.resilience.watchdog import ResidualWatchdog
from repro.utils.faultpoints import fault_point
from repro.utils.timer import clock
from repro.utils.validation import check_integer

_SYNC_SECONDS = REGISTRY.histogram(
    "repro_resistance_sync_seconds",
    "Wall time of one IncrementalResistance journal synchronisation",
)
_SYNC_EVENTS = REGISTRY.histogram(
    "repro_resistance_sync_events",
    "Pending journal events folded per synchronisation",
    buckets=SIZE_BUCKETS,
)
_BACKEND_SYNC_SECONDS = REGISTRY.histogram(
    "repro_backend_sync_seconds",
    "Wall time of one journal synchronisation, split by resistance backend",
    labels=("backend",),
)

# (i, j, delta) in local row indices; j is None for a grounded endpoint.
_Triple = Tuple[int, Optional[int], float]


@dataclass
class ResistanceStats:
    """Counters describing how the incremental state was maintained."""

    rank1_updates: int = 0
    batch_updates: int = 0
    batched_events: int = 0
    node_grows: int = 0
    node_downdates: int = 0
    refreshes: int = 0
    singular_refreshes: int = 0
    drift_refreshes: int = 0
    failovers: int = 0
    events_seen: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "rank1_updates": self.rank1_updates,
            "batch_updates": self.batch_updates,
            "batched_events": self.batched_events,
            "node_grows": self.node_grows,
            "node_downdates": self.node_downdates,
            "refreshes": self.refreshes,
            "singular_refreshes": self.singular_refreshes,
            "drift_refreshes": self.drift_refreshes,
            "failovers": self.failovers,
            "events_seen": self.events_seen,
        }


class IncrementalResistance:
    """Maintains ``inv(L_{-S})`` of a dynamic graph across edge/node updates.

    Parameters
    ----------
    graph:
        The dynamic graph to track.
    group:
        Grounded node group ``S`` (non-empty strict subset of the active
        nodes, by stable id).
    refresh_interval:
        Staleness budget ``r``: when the pending journal suffix would push
        the number of low-rank updates since the last factorisation past
        ``r``, the synchronisation re-factorises from scratch instead.  The
        effective budget (:attr:`refresh_budget`) is
        ``min(r, backend.max_updates)`` when the backend caps its own
        correction rank, and ``backend.max_updates`` alone when the backend
        is ``self_refreshing``.
    backend:
        Resistance backend spec: ``"dense"`` (explicit inverse, the
        default — bit-identical to the historical engine), ``"sparse"``
        (solver-backed, never materialises the inverse), ``"auto"`` (picks
        by graph size/sparsity), or a ready
        :class:`repro.linalg.ResistanceBackend` instance.
    backend_options:
        Keyword arguments for the backend constructor (sparse backend only).

    Attributes
    ----------
    kept:
        Stable node ids of the tracked (non-grounded) rows, in row order.
        Sorted after a factorisation; rows appended by ``add_node`` events
        keep arrival order until the next refresh.
    """

    def __init__(self, graph: DynamicGraph, group: Sequence[int],
                 refresh_interval: int = 64,
                 backend: Union[str, ResistanceBackend] = "dense",
                 backend_options: Optional[Dict[str, object]] = None,
                 watchdog: Optional[ResidualWatchdog] = None):
        self.graph = graph
        self.group = list(graph.validate_group(group))
        self.refresh_interval = check_integer("refresh_interval", refresh_interval,
                                              minimum=1)
        self.backend = make_resistance_backend(
            backend, n=graph.n, m=graph.m, options=backend_options,
        )
        self.watchdog = watchdog
        self.stats = ResistanceStats()
        self._updates_since_refresh = 0
        self._synced_version = -1
        self._probing = False
        self._factorize()

    @property
    def refresh_budget(self) -> int:
        """Effective staleness budget (tracker policy ∧ backend rank cap).

        A self-refreshing backend sets its own budget (its ``max_updates``).
        """
        cap = self.backend.max_updates
        if self.backend.self_refreshing and cap is not None:
            return cap
        if cap is None:
            return self.refresh_interval
        return min(self.refresh_interval, cap)

    # ---------------------------------------------------------------- syncing
    def sync(self) -> "IncrementalResistance":
        """Fold any pending journal events into the inverse; returns ``self``.

        Consecutive edge events are applied as one rank-``t`` Woodbury batch;
        node events split the suffix into segments (each grows or downdates a
        row between batches).  Any singular update falls back to a fresh
        factorisation of the current state.
        """
        graph = self.graph
        if self._synced_version < graph.version:
            pending = graph.version - self._synced_version
            start = clock()
            with trace("resistance.sync", pending=pending, backend=self.backend.name):
                try:
                    self._sync_pending(graph)
                finally:
                    if REGISTRY.enabled:
                        elapsed = clock() - start
                        _SYNC_SECONDS.observe(elapsed)
                        _SYNC_EVENTS.observe(pending)
                        _BACKEND_SYNC_SECONDS.observe(elapsed, backend=self.backend.name)
        if (self.watchdog is not None and not self._probing
                and self.watchdog.tick()):
            self._probing = True
            try:
                self.verify(repair=True)
            finally:
                self._probing = False
        return self

    def _sync_pending(self, graph: DynamicGraph) -> "IncrementalResistance":
        """The replay half of :meth:`sync` (pending events guaranteed)."""
        if self._synced_version < graph.journal_floor:
            # The suffix we need was compacted away; rebuild from scratch.
            self._factorize()
            self.stats.refreshes += 1
            return self
        events = graph.journal_since(self._synced_version)
        self.stats.events_seen += len(events)

        # Relevant low-rank work in the suffix: edge events touching at least
        # one kept row (grounded–grounded edges never enter L_{-S}) count 1;
        # node events count their true cost — one grow/downdate plus one
        # diagonal correction per kept neighbour.  Group membership is fixed,
        # so relevance is decided up front; local row indices are resolved
        # batch by batch because node events reshape the row set mid-suffix.
        grounded = set(self.group)
        relevant: List[GraphUpdate] = []
        cost = 0
        node_events = False
        for event in events:
            if event.is_node_event:
                relevant.append(event)
                node_events = True
                cost += 1 + sum(neighbour not in grounded
                                for neighbour, _ in event.edges)
            elif event.u not in grounded or event.v not in grounded:
                relevant.append(event)
                cost += 1
        if node_events and not self.backend.supports_node_updates:
            # Backends without incremental grow/downdate (sparse) answer
            # node churn with a clean factorisation — Õ(m) there.  A removed
            # *grounded* node still surfaces as the usual GraphError, raised
            # by the missing-group check inside the factorisation.
            self._factorize()
            self.stats.refreshes += 1
            return self
        if self._updates_since_refresh + cost > self.refresh_budget:
            self._factorize()
            self.stats.refreshes += 1
            return self

        try:
            batch: List[GraphUpdate] = []
            for event in relevant:
                if not event.is_node_event:
                    batch.append(event)
                    continue
                self._apply_edge_batch(batch)
                batch = []
                if event.kind == ADD_NODE:
                    self._apply_node_add(event)
                else:
                    self._apply_node_remove(event)
            self._apply_edge_batch(batch)
        except (InvalidParameterError, ConvergenceError) as exc:
            # Singular capacitance or a solver that failed mid-batch: the
            # backend committed nothing (or, the sharded one, awaits exactly
            # this refactorisation), so a fresh factorisation of the current
            # state is always a valid answer.
            self._factorize()
            self.stats.refreshes += 1
            if isinstance(exc, InvalidParameterError):
                self.stats.singular_refreshes += 1
            return self
        self._synced_version = graph.version
        return self

    # ---------------------------------------------------------------- queries
    def trace(self) -> float:
        """Current ``Tr(inv(L_{-S})) = Σ_u R(u, S)`` (synchronises first).

        Backends serving sketched diagonals (sparse, large n) return the
        Hutchinson estimate here; pass exactness concerns through
        :meth:`diagonal` with ``mode="exact"`` instead.
        """
        self.sync()
        return self.backend.trace()

    def group_cfcc(self) -> float:
        """Current group CFCC ``C(S) = n / Tr(inv(L_{-S}))``."""
        return self.graph.n / self.trace()

    def diagonal(self, mode: str = "auto") -> np.ndarray:
        """Diagonal of the current inverse, indexed by :attr:`kept`.

        ``mode`` selects the backend's policy: ``"exact"`` forces the
        escape hatch (n solves on solver-backed engines), ``"sketch"`` a
        Hutchinson estimate where supported, ``"auto"`` the backend default.
        """
        self.sync()
        return self.backend.diagonal(mode=mode)

    def resistance_to_group(self, node: int) -> float:
        """Effective resistance ``R(u, S)`` of one node to the grounded group."""
        node = self.graph._check_active(node)
        self.sync()
        local = self._local.get(node)
        if local is None:
            return 0.0
        return self.backend.diag_entry(local)

    def resistance_column(self, node: int) -> np.ndarray:
        """Column of ``inv(L_{-S})`` for one kept node, by stable id.

        Lazily materialised and version-cached by the backend, so repeated
        single-column walks only pay for the columns they actually touch.
        The all-grounded convention returns a zero column.
        """
        node = self.graph._check_active(node)
        self.sync()
        local = self._local.get(node)
        if local is None:
            return np.zeros(len(self.kept), dtype=np.float64)
        return np.asarray(self.backend.column(local), dtype=np.float64).copy()

    @property
    def inverse(self) -> np.ndarray:
        """The explicit dense inverse — dense backend only.

        The sparse backend never materialises it; callers needing matrix
        entries should go through :meth:`diagonal` /
        :meth:`resistance_column` instead.
        """
        if isinstance(self.backend, DenseResistanceBackend):
            return self.backend.inverse
        raise InvalidParameterError(
            f"backend {self.backend.name!r} does not materialise the dense "
            f"inverse; query diagonal()/resistance_column() instead"
        )

    @property
    def synced_version(self) -> int:
        """Graph version the inverse currently reflects."""
        return self._synced_version

    # ----------------------------------------------------- numerical health
    def verify(self, threshold: Optional[float] = None,
               repair: bool = True) -> float:
        """Probe the backward residual ``max|L_{-S}(B⁻¹e) − e|`` of the state.

        Solves one sampled unit system against the tracked factorisation and
        measures the residual against the *actual* grounded Laplacian of the
        current graph.  Past ``threshold`` (default: the watchdog's, else
        ``1e-6``), ``repair=True`` auto-refactorises from scratch while
        ``repair=False`` raises
        :class:`repro.exceptions.NumericalDriftError`.  Returns the observed
        residual (``inf`` when the solver could not even answer the probe).
        """
        self.sync()
        if threshold is None:
            threshold = (self.watchdog.threshold if self.watchdog is not None
                         else 1e-6)
        n = self.backend.n
        if n == 0:
            return 0.0
        row = (self.watchdog.pick_row(n) if self.watchdog is not None else 0)
        unit = np.zeros(n, dtype=np.float64)
        unit[row] = 1.0
        try:
            solution = self.backend.solve(unit)
            matrix = self._grounded_matrix()
            residual = float(np.max(np.abs(matrix @ solution - unit)))
        except ConvergenceError:
            residual = float("inf")
        if self.watchdog is not None:
            self.watchdog.record(residual, group=self._group_label())
        if residual > threshold:
            if not repair:
                raise NumericalDriftError(
                    f"tracked inverse drifted: probe residual {residual:.3e} "
                    f"exceeds threshold {threshold:.3e}",
                    residual=residual, threshold=threshold,
                )
            if self.watchdog is not None:
                self.watchdog.count_trip()
            self._factorize()
            self.stats.refreshes += 1
            self.stats.drift_refreshes += 1
        return residual

    def _group_label(self) -> str:
        return ",".join(str(int(node)) for node in self.group)

    def _grounded_matrix(self):
        """The current grounded Laplacian in this tracker's row order."""
        graph = self.graph
        mapping = graph.snapshot_mapping()
        position = {int(x): i for i, x in enumerate(mapping)}
        rows = np.fromiter((position[int(x)] for x in self.kept),
                           dtype=np.int64, count=len(self.kept))
        full = graph.laplacian_sparse()
        return full[rows][:, rows].tocsr()

    # -------------------------------------------------------------- internals
    def _apply_edge_batch(self, batch: List[GraphUpdate]) -> None:
        """Fold one run of (relevant) edge events in as a rank-``t`` update."""
        triples: List[_Triple] = []
        for event in batch:
            i = self._local.get(event.u, -1)
            j = self._local.get(event.v, -1)
            if i < 0:
                i, j = j, -1
            triples.append((i, None if j < 0 else j, event.delta))
        self._apply_triples(triples)

    def _apply_triples(self, triples: List[_Triple]) -> None:
        if not triples:
            return
        self.backend.apply_triples(triples)
        fault_point("backend.drift", subject=self.backend)
        if len(triples) == 1:
            self.stats.rank1_updates += 1
        else:
            self.stats.batch_updates += 1
            self.stats.batched_events += len(triples)
        self._updates_since_refresh += len(triples)

    def _apply_node_add(self, event: GraphUpdate) -> None:
        """Grow one row for the new node, after fixing its neighbours' degrees.

        The grown grounded Laplacian is ``[[M + ΔD, c], [cᵀ, d]]``: the kept
        neighbours' diagonals gain the new edge weights (``ΔD``, applied as a
        Woodbury batch of ``e_y e_yᵀ`` terms), the coupling column ``c`` holds
        ``-w`` at kept neighbours, and ``d`` is the node's weighted degree
        (edges to grounded nodes contribute to ``d`` only).
        """
        self._apply_triples([
            (self._local[neighbour], None, weight)
            for neighbour, weight in event.edges
            if neighbour in self._local
        ])
        rows = len(self.kept)
        column = np.zeros(rows, dtype=np.float64)
        for neighbour, weight in event.edges:
            local = self._local.get(neighbour)
            if local is not None:
                column[local] = -weight
        degree = sum(weight for _, weight in event.edges)
        self.backend.grow(column, degree)
        self._local[int(event.node)] = rows
        self.kept = np.append(self.kept, int(event.node))
        self.stats.node_grows += 1
        self._updates_since_refresh += 1

    def _apply_node_remove(self, event: GraphUpdate) -> None:
        """Downdate the removed node's row, then fix its neighbours' degrees."""
        node = int(event.node)
        if node in self.group:
            raise GraphError(
                f"grounded node {node} was removed from the graph; the "
                f"tracked group {self.group} no longer exists"
            )
        local = self._local.pop(node)
        self.backend.downdate(local)
        self.kept = np.delete(self.kept, local)
        for other, row in self._local.items():
            if row > local:
                self._local[other] = row - 1
        self.stats.node_downdates += 1
        self._updates_since_refresh += 1
        self._apply_triples([
            (self._local[neighbour], None, -weight)
            for neighbour, weight in event.edges
            if neighbour in self._local
        ])

    def _factorize(self) -> None:
        graph = self.graph
        mapping = graph.snapshot_mapping()
        missing = [node for node in self.group if not graph.has_node(node)]
        if missing:
            raise GraphError(
                f"grounded node(s) {missing} were removed from the graph; the "
                f"tracked group {self.group} no longer exists"
            )
        grounded = set(self.group)
        keep_mask = np.array([int(x) not in grounded for x in mapping])
        positions = np.flatnonzero(keep_mask)
        if self.backend.wants_sparse:
            full = graph.laplacian_sparse()
            matrix = full[positions][:, positions].tocsc()
        else:
            full = graph.laplacian_dense()
            matrix = full[np.ix_(positions, positions)]
        try:
            self.backend.factorize(matrix)
        except (RuntimeError, ConvergenceError, InvalidParameterError,
                np.linalg.LinAlgError) as exc:
            self._failover(matrix, exc)
        self.kept = mapping[keep_mask].copy()
        self._local = {int(x): row for row, x in enumerate(self.kept)}
        self._updates_since_refresh = 0
        self._synced_version = graph.version

    def _failover(self, matrix, exc: Exception) -> None:
        """Degrade after a failed factorisation: sparse → dense, dense → retry.

        The failed backend committed nothing (its factorize raises before
        swapping state in), so retrying — on the dense fallback, or once
        more on the dense backend itself — is always sound.  A second
        failure is terminal: :class:`BackendUnavailableError`.
        """
        failed = self.backend.name
        fallback = (self.backend if isinstance(self.backend, DenseResistanceBackend)
                    else DenseResistanceBackend())
        dense = matrix.toarray() if hasattr(matrix, "toarray") else matrix
        try:
            fallback.factorize(np.asarray(dense, dtype=np.float64))
        except (RuntimeError, ConvergenceError, InvalidParameterError,
                np.linalg.LinAlgError) as retry_exc:
            raise BackendUnavailableError(
                f"factorisation failed on backend {failed!r} and on the "
                f"dense fallback: {retry_exc}"
            ) from exc
        self.backend = fallback
        self.stats.failovers += 1
        record_failover(failed)
