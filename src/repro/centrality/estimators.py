"""Spanning-forest estimators of grounded-Laplacian quantities.

This module implements the statistical core shared by ForestCFCM and
SchurCFCM:

* ``Phi_{u,S}(v)`` — the unbiased estimator of ``(inv(L_{-S}))_{uv}`` built
  from edge-current counts of sampled rooted forests (Lemma 3.3).  The fixed
  path ``P_{v,S}`` required by the lemma is the BFS-tree path from ``v`` to
  the root set, so each per-sample value is bounded by the diameter τ (the
  bound used in Lemmas 3.9 / 4.5).
* JL-projected estimators ``Phi_{w_j,S}(v)`` of ``w_j^T inv(L_{-S}) e_v``
  (Section III-B), from which ``diag(inv(L_{-S})^2)`` is recovered as squared
  projected column norms.
* the rooted-probability matrix ``F`` and the sampled Schur complement
  ``S_T(L_{-S})`` of Section IV (Lemma 4.2 and Eq. 15).

Implementation note (documented substitution): the paper's C++ code maintains
per-directed-edge counters ``N~^{a->b}_{u,S}`` incrementally in O(1) amortised
per node.  Here forests are drawn as ``(B, n)`` batches by the lockstep
sampler and folded a whole batch at a time with vectorised NumPy passes —
batched forest subtree sums per depth level, BFS-level prefix sums, and a
lane-compressed ancestor walk with an Euler-tour path test — which computes
*exactly the same estimators* (same expectations, same per-sample values)
with Python-friendly constant factors.  :meth:`ForestAccumulator.add_batch`
is the one fold and :func:`run_adaptive_sampling` the one stopping rule
(Lemma 3.6's empirical-Bernstein half-widths, line 17 of Algorithm 2).

Per-sample quantities
---------------------
For a sampled forest with parent map ``π`` and a BFS tree (parent ``b``) from
the root set:

* ``alpha_x = 1`` iff ``π_x = b_x`` — the BFS edge of ``x`` is traversed
  upward by every node in the forest subtree of ``x``;
* ``beta_x = 1`` iff ``π_{b_x} = x`` — the BFS edge of ``x`` is traversed
  downward by every node in the forest subtree of ``b_x``.

The projected estimator for node ``u`` is the sum over the BFS path of
``alpha_x * Tw(x) - beta_x * Tw(b_x)`` where ``Tw(x)`` is the forest-subtree
sum of the weight vector, computed as a prefix sum along BFS levels.  The
diagonal estimator for ``u`` restricts the same sum to the contribution of
``u`` itself, i.e. keeps a term only when ``x`` (resp. ``b_x``) is a forest
ancestor of ``u`` — an O(1) Euler-tour interval test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import GraphError, InvalidParameterError
from repro.graph.graph import Graph
from repro.graph.traversal import bfs_tree
from repro.linalg.jl import jl_dimension
from repro.obs.tracing import trace
from repro.sampling.batch import (
    ForestBatch,
    LOCKSTEP_STATE_LIMIT,
    require_rooted_components,
    sample_forest_batch_vectorized,
)
from repro.utils.rng import RandomState, as_rng


@dataclass
class SamplingConfig:
    """Tunable knobs of the forest-sampling estimators.

    Parameters
    ----------
    eps:
        Target relative error of the marginal-gain estimates.
    delta:
        Failure probability of the concentration bounds; ``None`` uses the
        paper's ``1/n``.
    max_samples:
        Hard cap on sampled forests per estimation call.  The theoretical
        Hoeffding-style bound of the paper (``r = O(eps^-2 τ^2 dmax^{2τ+2}
        log n)``) is astronomically conservative; as in the paper the real
        driver is the empirical-Bernstein early-stopping rule, and this cap
        bounds worst-case work.
    min_samples / initial_batch:
        Floor and first batch size of the doubling schedule.
    jl_constant / max_jl_dimension:
        JL dimension is ``min(ceil(jl_constant * eps^-2 * log n),
        max_jl_dimension)``; set ``theoretical_constants=True`` to use the
        paper's ``24 (eps/7)^-2 log n`` without a cap (only sensible for very
        small graphs).
    """

    eps: float = 0.2
    delta: Optional[float] = None
    max_samples: int = 512
    min_samples: int = 16
    initial_batch: int = 16
    jl_constant: float = 1.0
    max_jl_dimension: int = 96
    theoretical_constants: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.eps < 1.0:
            raise InvalidParameterError(f"eps must lie in (0, 1), got {self.eps}")
        if self.delta is not None and not 0.0 < self.delta < 1.0:
            raise InvalidParameterError(f"delta must lie in (0, 1), got {self.delta}")
        if self.max_samples < 1:
            raise InvalidParameterError("max_samples must be >= 1")
        self.min_samples = max(1, min(self.min_samples, self.max_samples))
        self.initial_batch = max(1, self.initial_batch)

    def failure_probability(self, n: int) -> float:
        """Effective delta (``1/n`` unless overridden)."""
        return self.delta if self.delta is not None else 1.0 / max(n, 2)

    def jl_rows(self, n: int) -> int:
        """Number of JL projection rows for a graph with ``n`` nodes."""
        if self.theoretical_constants:
            return jl_dimension(n, self.eps / 7.0, constant=24.0)
        return jl_dimension(n, self.eps, constant=self.jl_constant,
                            maximum=self.max_jl_dimension)

    def sample_cap(self, n: int) -> int:
        """Worst-case sample count for a graph with ``n`` nodes."""
        if self.theoretical_constants:
            return self.max_samples  # even then, keep the explicit cap
        scaled = int(math.ceil(4.0 * self.eps ** -2 * math.log(max(n, 2))))
        return int(min(self.max_samples, max(self.min_samples, scaled) * 4))


class PathSystem:
    """A fixed path system ``P_{u,S}`` from every node to the root set.

    Lemma 3.3's diagonal estimator is unbiased for *any* fixed choice of
    graph paths from each node to ``S``; this library uses the BFS-tree
    paths (so per-sample values are bounded by the diameter τ).  The path
    system is deliberately decoupled from the sampled forests: the engine's
    importance-weighted pools keep one path system alive across graph
    mutations and cache each stored forest's estimator value against it —
    cached values stay exact as long as every path edge still exists, which
    edge insertions, reweights and (leaf-extended) node insertions all
    preserve.

    Parameters
    ----------
    parent:
        ``(n,)`` path-tree parents (``-1`` on roots): ``parent[u]`` is the
        next hop of ``u``'s fixed path towards the root set.
    roots:
        The root set ``S``.
    """

    def __init__(self, parent: np.ndarray, roots: Sequence[int]):
        self.parent = np.asarray(parent, dtype=np.int64)
        self.roots = sorted(set(int(r) for r in roots))
        n = self.parent.size
        if self.parent.ndim != 1:
            raise GraphError(f"path parents must be 1-D, got shape {self.parent.shape}")
        # A one-row forest batch checks the parent range and root pointers,
        # and its pointer-doubling depths reject cycles and parentless
        # non-roots, so a malformed path tree (a tampered checkpoint, say)
        # fails here with a GraphError.
        depth = ForestBatch(parent=self.parent[None, :], roots=self.roots).depths()[0]
        self.root_mask = np.zeros(n, dtype=bool)
        self.root_mask[self.roots] = True
        self.nonroot = np.flatnonzero(~self.root_mask)
        self._levels = [np.flatnonzero(depth == level)
                        for level in range(int(depth.max()) + 1)]
        # Euler-tour intervals give the O(1) "x on the path of u" test the
        # diagonal walk needs.
        self.tin, self.tout = _euler_intervals(self.parent, self.roots)

    @classmethod
    def from_graph(cls, graph: Graph, roots: Sequence[int]) -> "PathSystem":
        """The BFS-tree path system of ``graph`` (paths bounded by τ).

        Raises :class:`~repro.exceptions.DisconnectedGraphError` when a
        connected component holds no root (no path can reach the roots).
        """
        roots = sorted(set(int(r) for r in roots))
        require_rooted_components(graph, roots)
        return cls(bfs_tree(graph, roots).parent, roots)

    @property
    def n(self) -> int:
        return int(self.parent.size)

    def uses_edge(self, u: int, v: int) -> bool:
        """Whether the path tree traverses the undirected edge ``(u, v)``."""
        u, v = int(u), int(v)
        return bool(self.parent[u] == v or self.parent[v] == u)

    def levels(self) -> list:
        """Nodes grouped by path-tree depth (level 0 = roots).

        The projected-estimator fold needs exactly this grouping for its
        per-level prefix sums; deriving it from the path tree itself (rather
        than a separate BFS object) lets pooled consumers fold projected
        rows against a long-lived path system.
        """
        return self._levels

    def extended(self, attachment: int) -> "PathSystem":
        """A path system for the graph grown by one node (id ``n``).

        The new node's fixed path is the edge to ``attachment`` followed by
        the attachment's path — i.e. the path tree gains one leaf, leaving
        every existing path unchanged.
        """
        attachment = int(attachment)
        if not 0 <= attachment < self.n:
            raise InvalidParameterError(
                f"attachment {attachment} outside node range [0, {self.n})"
            )
        parent = np.concatenate([self.parent, [attachment]])
        return PathSystem(parent, self.roots)


def _euler_intervals(parent: np.ndarray, roots: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
    """Euler-tour entry/exit times ``(tin, tout)`` of a rooted forest.

    ``a`` is an ancestor of ``u`` (or equal) iff ``tin[a] <= tin[u] <= tout[a]``.
    """
    n = parent.size
    # Children lists in CSR form from one stable argsort of the parent
    # array: the children of ``p`` are ``by_parent[starts[p]:ends[p]]``.
    by_parent = np.argsort(parent, kind="stable").astype(np.int64)
    sorted_parents = parent[by_parent]
    nodes = np.arange(n, dtype=np.int64)
    starts = np.searchsorted(sorted_parents, nodes, side="left")
    ends = np.searchsorted(sorted_parents, nodes, side="right")
    tin = np.zeros(n, dtype=np.int64)
    tout = np.zeros(n, dtype=np.int64)
    clock = 0
    for root in roots:
        root = int(root)
        tin[root] = clock
        clock += 1
        stack = [[root, int(starts[root])]]
        while stack:
            node, cursor = stack[-1]
            if cursor < ends[node]:
                stack[-1][1] = cursor + 1
                child = int(by_parent[cursor])
                tin[child] = clock
                clock += 1
                stack.append([child, int(starts[child])])
            else:
                tout[node] = clock
                clock += 1
                stack.pop()
    return tin, tout


def batched_diag_estimates(forest_parent: np.ndarray, path: PathSystem,
                           columns: Optional[Sequence[int]] = None,
                           ) -> np.ndarray:
    """Per-forest Lemma 3.3 diagonal estimates over a ``(B, n)`` batch.

    Returns the ``(B, n)`` matrix whose row ``i`` is the per-node diagonal
    estimator of forest ``i`` under the fixed ``path`` system (columns on
    roots are zero) — the quantity :class:`ForestAccumulator` accumulates,
    exposed per forest so pooled consumers can cache it.  ``columns``
    restricts the walk to the given start nodes and returns ``(B, k)``
    (used to price a newly inserted node without refolding the batch).

    The kernel is a lane-compressed ancestor walk: one lane per (sample,
    start-node) pair climbs its forest path with batch-wide fancy gathers,
    so the Python loop runs over the batch-wide maximum forest depth.
    """
    forest_parent = np.asarray(forest_parent, dtype=np.int64)
    if forest_parent.ndim != 2 or forest_parent.shape[1] != path.n:
        raise InvalidParameterError(
            f"forest parents must have shape (B, {path.n}), "
            f"got {forest_parent.shape}"
        )
    size = forest_parent.shape[0]
    n = path.n
    if columns is None:
        starts = path.nonroot
    else:
        starts = np.asarray([int(c) for c in columns], dtype=np.int64)
        if starts.size and (starts.min() < 0 or starts.max() >= n):
            raise InvalidParameterError("columns outside node range")
    bfs_parent = path.parent
    nonroot = path.nonroot
    tin, tout = path.tin, path.tout

    alpha = np.zeros((size, n), dtype=bool)
    alpha[:, nonroot] = forest_parent[:, nonroot] == bfs_parent[nonroot]
    has_parent = forest_parent >= 0
    safe_parent = np.where(has_parent, forest_parent, 0)
    delta = has_parent & (bfs_parent[safe_parent] == np.arange(n))

    diag = np.zeros((size, starts.size))
    lane_sample = np.repeat(np.arange(size, dtype=np.int64), starts.size)
    lane_start = np.tile(np.arange(starts.size, dtype=np.int64), size)
    cursor = np.tile(starts, size)
    tin_lane = tin[cursor]
    # Lanes rooted at a root node are done before they start.
    live = ~path.root_mask[cursor]
    lane_sample, lane_start = lane_sample[live], lane_start[live]
    cursor, tin_lane = cursor[live], tin_lane[live]
    while lane_sample.size:
        x = cursor
        on_path_x = (tin[x] <= tin_lane) & (tin_lane <= tout[x])
        pi_x = forest_parent[lane_sample, x]
        safe_pi = np.where(pi_x >= 0, pi_x, x)
        on_path_pi = (tin[safe_pi] <= tin_lane) & (tin_lane <= tout[safe_pi])
        step = (
            (alpha[lane_sample, x] & on_path_x).astype(np.float64)
            - (delta[lane_sample, x] & on_path_pi & (pi_x >= 0)).astype(np.float64)
        )
        # (sample, start) pairs are unique within the lane set, so the
        # fancy-indexed accumulate cannot collide.
        diag[lane_sample, lane_start] += step
        keep = (pi_x >= 0) & ~path.root_mask[safe_pi]
        lane_sample = lane_sample[keep]
        lane_start = lane_start[keep]
        cursor = pi_x[keep]
        tin_lane = tin_lane[keep]
    if columns is None:
        full = np.zeros((size, n))
        full[:, starts] = diag
        return full
    return diag


def batched_projected_estimates(batch: ForestBatch, path: PathSystem,
                                weights: np.ndarray) -> np.ndarray:
    """Per-forest projected estimators ``w_j^T inv(L_{-S}) e_u`` over a batch.

    Returns the ``(B, w, n)`` tensor whose slice ``i`` holds forest ``i``'s
    unaggregated projected estimator rows under the fixed ``path`` system —
    the quantity :meth:`ForestAccumulator._fold_batched` weight-sums over
    the batch axis, exposed per forest so pooled consumers (the engine's
    JL-projected gain evaluation) can cache rows per forest and fold only
    fresh draws.  Columns of ``weights`` on roots are zeroed defensively.
    """
    weights = np.asarray(weights, dtype=np.float64)
    n = path.n
    if weights.ndim != 2 or weights.shape[1] != n:
        raise InvalidParameterError(f"weights must have shape (w, {n})")
    if batch.n != n:
        raise InvalidParameterError(
            f"forest batch spans {batch.n} nodes, path system {n}"
        )
    weights = weights.copy()
    weights[:, path.roots] = 0.0
    parent = batch.parent
    size = batch.batch_size
    bfs_parent = path.parent
    nonroot = path.nonroot
    alpha = np.zeros((size, n), dtype=bool)
    beta = np.zeros((size, n), dtype=bool)
    alpha[:, nonroot] = parent[:, nonroot] == bfs_parent[nonroot]
    beta[:, nonroot] = parent[:, bfs_parent[nonroot]] == nonroot
    subtree = batch.subtree_sums(weights)  # (B, w, n)
    contribution = np.zeros_like(subtree)
    contribution[:, :, nonroot] = (
        subtree[:, :, nonroot] * alpha[:, None, nonroot]
        - subtree[:, :, bfs_parent[nonroot]] * beta[:, None, nonroot]
    )
    projected = np.zeros_like(subtree)
    levels = path.levels()
    for level in range(1, len(levels)):
        nodes = levels[level]
        if nodes.size == 0:
            continue
        projected[:, :, nodes] = (
            projected[:, :, bfs_parent[nodes]] + contribution[:, :, nodes]
        )
    return projected


def rademacher_weights(rows: int, n: int, excluded: Sequence[int],
                       rng: np.random.Generator) -> np.ndarray:
    """JL weight matrix of shape ``(rows, n)``, zeroed on ``excluded`` columns."""
    scale = 1.0 / math.sqrt(rows)
    weights = np.where(rng.random((rows, n)) < 0.5, -scale, scale)
    if len(excluded):
        weights[:, list(excluded)] = 0.0
    return weights


class ForestAccumulator:
    """Accumulates forest-sample estimates for a fixed root set.

    Parameters
    ----------
    graph:
        Connected graph.
    roots:
        Root set of the sampled forests (``S`` for ForestDelta, ``S ∪ T`` for
        SchurDelta, ``{s}`` for the first greedy pick).
    weights:
        ``(w, n)`` weight matrix; every row defines one linear functional
        ``w_j^T inv(L_{-roots}) e_u`` to estimate.  Columns on ``roots`` must
        be zero (they are zeroed defensively).
    tracked_roots:
        Optional subset of ``roots`` whose rooted probabilities
        ``Pr(ρ_u = t)`` must be estimated (the ``T`` set of SchurDelta).
    seed:
        Seed or generator driving Wilson's algorithm.
    """

    def __init__(self, graph: Graph, roots: Sequence[int],
                 weights: Optional[np.ndarray] = None,
                 tracked_roots: Optional[Sequence[int]] = None,
                 seed: RandomState = None):
        self.graph = graph
        self.roots = sorted(set(int(r) for r in roots))
        if not self.roots:
            raise InvalidParameterError("root set must be non-empty")
        self.rng = as_rng(seed)
        # The fixed path system (BFS-tree paths with Euler-tour intervals):
        # the diagonal estimator walks each node's forest path and tests
        # membership of the BFS path with the intervals, so no per-sample
        # tour is ever needed.  Its height τ bounds every per-sample value.
        self._path = PathSystem.from_graph(graph, self.roots)
        self.tau = len(self._path.levels()) - 1

        n = graph.n
        if weights is None:
            weights = np.zeros((0, n))
        weights = np.asarray(weights, dtype=np.float64)
        if weights.ndim != 2 or weights.shape[1] != n:
            raise InvalidParameterError(f"weights must have shape (w, {n})")
        weights = weights.copy()
        weights[:, self.roots] = 0.0
        self.weights = weights

        self.tracked_roots = sorted(set(int(t) for t in tracked_roots or []))
        unknown = set(self.tracked_roots) - set(self.roots)
        if unknown:
            raise InvalidParameterError(
                f"tracked roots {sorted(unknown)} are not part of the root set"
            )

        rows = weights.shape[0]
        # `count` is the total *importance weight* folded in (a float): plain
        # samples contribute 1 each, pooled forests their self-normalising
        # importance weight, so every estimate below is a weighted mean.
        self.count = 0.0
        self.projected_sum = np.zeros((rows, n))
        self.diag_sum = np.zeros(n)
        self.diag_sumsq = np.zeros(n)
        self.root_counts = np.zeros((n, len(self.tracked_roots)))

    # ----------------------------------------------------------------- sampling
    def add_samples(self, batch_size: int) -> None:
        """Sample ``batch_size`` forests and fold them into the running sums.

        Forests are drawn with the lockstep vectorised sampler in chunks
        sized so the batched subtree-sum tensor stays memory-bounded, and
        each chunk is folded through :meth:`add_batch`.
        """
        remaining = int(batch_size)
        if remaining <= 0:
            return
        n = self.graph.n
        rows = max(self.weights.shape[0], 1)
        # Bound both the sampler's (B, n) state and the (B, n, w) subtree
        # tensor of the batched fold.
        chunk_cap = max(1, min(LOCKSTEP_STATE_LIMIT // max(n, 1),
                               (1 << 24) // max(n * rows, 1)))
        while remaining > 0:
            take = min(remaining, chunk_cap)
            batch = sample_forest_batch_vectorized(self.graph, self.roots,
                                                   take, seed=self.rng)
            self.add_batch(batch)
            remaining -= take

    def add_batch(self, batch: ForestBatch,
                  weights: Optional[np.ndarray] = None) -> None:
        """Fold a whole :class:`~repro.sampling.batch.ForestBatch` in at once.

        Runs the fully vectorised ``(B, n)`` fold of :meth:`_fold_batched`:
        one batched subtree-sum / root-map kernel plus a lane-compressed
        ancestor walk whose Python loop runs over the *batch-wide* maximum
        forest depth instead of once per forest.

        ``weights`` optionally assigns each forest an importance weight
        (default 1), making every estimate a self-normalised weighted mean —
        this is how the dynamic engine's reweighted pools are evaluated.
        """
        if batch.n != self.graph.n:
            raise InvalidParameterError(
                f"forest batch has {batch.n} nodes, graph has {self.graph.n}"
            )
        if [int(r) for r in batch.roots] != self.roots:
            raise InvalidParameterError(
                f"batch roots {batch.roots.tolist()} do not match the "
                f"accumulator root set {self.roots}"
            )
        if batch.batch_size == 0:
            return
        if weights is None:
            weights = np.ones(batch.batch_size, dtype=np.float64)
        else:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape != (batch.batch_size,):
                raise InvalidParameterError(
                    f"per-forest weights must have shape "
                    f"({batch.batch_size},), got {weights.shape}"
                )
            if np.any(weights < 0.0) or not np.all(np.isfinite(weights)):
                raise InvalidParameterError(
                    "per-forest weights must be finite and non-negative"
                )
        with trace("estimator.fold", forests=batch.batch_size):
            self._fold_batched(batch, weights)

    def _fold_batched(self, batch: ForestBatch, weights: np.ndarray) -> None:
        """Fold a whole batch with ``(B, n)`` kernels (no per-forest pass).

        Computes exactly the sums of folding every row of the batch one
        forest at a time (up to float summation order):

        * ``alpha``/``beta``/``delta`` indicators as ``(B, n)`` comparisons;
        * the projected estimators via the batched subtree-sum kernel and a
          BFS-level prefix fold vectorised over the batch axis;
        * the diagonal estimators via a lane-compressed ancestor walk: one
          lane per (sample, node) pair climbs its forest path, all lanes
          advance together with fancy gathers, and finished lanes are
          compressed away — so the Python loop runs ``max`` forest depth
          times for the whole batch instead of once per forest;
        * rooted-at counts from the batched pointer-doubling root map.

        The per-forest ``weights`` multiply every contribution, which is
        what lets one kernel serve both the fresh-sample estimators and the
        importance-weighted pool evaluation.
        """
        parent = batch.parent

        if self.weights.shape[0]:
            projected = batched_projected_estimates(batch, self._path,
                                                    self.weights)
            self.projected_sum += np.einsum("b,bwn->wn", weights, projected)

        diag = batched_diag_estimates(parent, self._path)
        self.diag_sum += weights @ diag
        self.diag_sumsq += weights @ (diag * diag)

        if self.tracked_roots:
            root_of = batch.root_of()
            for idx, target in enumerate(self.tracked_roots):
                self.root_counts[:, idx] += (
                    weights @ (root_of == target).astype(np.float64)
                )

        self.count += float(weights.sum())

    # ------------------------------------------------------------------ results
    def projected_estimates(self) -> np.ndarray:
        """``(w, n)`` estimates of ``w_j^T inv(L_{-roots}) e_u``."""
        self._require_samples()
        return self.projected_sum / self.count

    def diag_estimates(self) -> np.ndarray:
        """``(n,)`` estimates of ``(inv(L_{-roots}))_uu`` (zero on roots)."""
        self._require_samples()
        return self.diag_sum / self.count

    def diag_variances(self) -> np.ndarray:
        """Per-node empirical variance of the diagonal per-sample values."""
        self._require_samples()
        mean = self.diag_sum / self.count
        return np.maximum(self.diag_sumsq / self.count - mean * mean, 0.0)

    def diag_half_widths(self, delta: float) -> np.ndarray:
        """Empirical-Bernstein half-widths of the diagonal estimates.

        Lemma 3.6 with failure probability ``delta``: for ``r`` samples of
        empirical variance ``V_u`` bounded by the path height ``τ``,
        ``err_u = sqrt(2 V_u ln(3/δ) / r) + 3 τ ln(3/δ) / r``.
        """
        if not 0.0 < delta < 1.0:
            raise InvalidParameterError(f"delta must lie in (0, 1), got {delta}")
        self._require_samples()
        variances = self.diag_variances()
        bound = float(max(self.tau, 1))
        log_term = math.log(3.0 / delta)
        return (np.sqrt(2.0 * variances * log_term / self.count)
                + 3.0 * bound * log_term / self.count)

    def root_fractions(self) -> np.ndarray:
        """``(n, |tracked_roots|)`` empirical probabilities ``Pr(ρ_u = t)``.

        Rows of root-set nodes are zeroed: the Schur machinery only uses the
        interior rows ``u ∈ U``.
        """
        self._require_samples()
        fractions = self.root_counts / self.count
        fractions[self._path.root_mask] = 0.0
        return fractions

    def _require_samples(self) -> None:
        if self.count <= 0.0:
            raise InvalidParameterError("no forests sampled yet")


def run_adaptive_sampling(accumulator: ForestAccumulator, config: SamplingConfig,
                          monitored: Optional[np.ndarray] = None,
                          ) -> Dict[str, float]:
    """Doubling-batch sampling with empirical-Bernstein early stopping.

    The stopping rule mirrors line 17 of Algorithm 2: sampling ends once the
    Bernstein half-width of every monitored diagonal estimate satisfies
    ``err_u <= eps * (estimate_u - err_u)`` (or the sample cap is reached).

    Parameters
    ----------
    monitored:
        Boolean mask of nodes whose diagonal estimates drive the stopping
        rule; defaults to all non-root nodes.

    Returns
    -------
    Diagnostics dictionary with the number of samples and whether the rule
    fired before the cap.
    """
    n = accumulator.graph.n
    delta = config.failure_probability(n)
    cap = config.sample_cap(n)
    if monitored is None:
        monitored = ~accumulator._path.root_mask
    monitored = np.asarray(monitored, dtype=bool)

    batch = config.initial_batch
    stopped_early = False
    while accumulator.count < cap:
        take = min(batch, cap - accumulator.count)
        accumulator.add_samples(take)
        batch *= 2
        if accumulator.count < config.min_samples:
            continue
        estimates = accumulator.diag_estimates()
        widths = accumulator.diag_half_widths(delta)
        slack = estimates - widths
        satisfied = widths <= config.eps * np.maximum(slack, 0.0)
        if bool(np.all(satisfied[monitored])):
            stopped_early = True
            break
    return {
        "samples": float(accumulator.count),
        "stopped_early": float(stopped_early),
        "cap": float(cap),
    }


def estimate_first_pick(graph: Graph, config: SamplingConfig,
                        seed: RandomState = None,
                        anchor: Optional[int] = None,
                        ) -> Tuple[int, np.ndarray, Dict[str, float]]:
    """First greedy pick shared by ForestCFCM and SchurCFCM (Algorithm 3/5, lines 1-14).

    Samples forests rooted at the maximum-degree node ``s`` and estimates, for
    every node ``u``,

    ``x_u = Phi_{u,{s}}(u) - (2/n) Phi_{1,{s}}(u)``

    which equals ``L†_uu`` up to the common constant ``(1/n^2) 1^T inv(L_{-s}) 1``
    (Lemma 3.5); the node minimising ``x_u`` therefore minimises ``L†_uu``.

    Returns
    -------
    (node, scores, diagnostics):
        The selected node, the estimated ``x_u`` vector (``x_s = 0``) and the
        sampling diagnostics.
    """
    rng = as_rng(seed)
    n = graph.n
    s = int(np.argmax(graph.degrees)) if anchor is None else int(anchor)
    ones = np.ones((1, n))
    accumulator = ForestAccumulator(graph, [s], weights=ones, seed=rng)
    diagnostics = run_adaptive_sampling(accumulator, config)
    column_sums = accumulator.projected_estimates()[0]
    diagonal = accumulator.diag_estimates()
    scores = diagonal - (2.0 / n) * column_sums
    scores[s] = 0.0
    best = int(np.argmin(scores))
    return best, scores, diagnostics


def estimate_forest_delta(graph: Graph, group: Sequence[int],
                          config: SamplingConfig, seed: RandomState = None,
                          ) -> Tuple[Dict[int, float], Dict[str, float]]:
    """ForestDelta (Algorithm 2): estimate ``Δ(u, S)`` for every ``u ∉ S``.

    Returns
    -------
    (gains, diagnostics):
        ``gains[u]`` approximates ``(inv(L_{-S})^2)_uu / (inv(L_{-S}))_uu``.
    """
    rng = as_rng(seed)
    group = sorted(set(int(v) for v in group))
    n = graph.n
    rows = config.jl_rows(n)
    weights = rademacher_weights(rows, n, group, rng)
    accumulator = ForestAccumulator(graph, group, weights=weights, seed=rng)
    diagnostics = run_adaptive_sampling(accumulator, config)

    projected = accumulator.projected_estimates()
    diagonal = accumulator.diag_estimates()
    numerators = np.sum(projected * projected, axis=0)
    gains: Dict[int, float] = {}
    for u in range(n):
        if u in group:
            continue
        # (inv(L_{-S}))_uu >= 1/d_u (Neumann series), a sound floor for the
        # denominator when the sampled estimate is noisy or non-positive.
        floor = 1.0 / max(graph.degrees[u], 1)
        denominator = max(float(diagonal[u]), floor)
        gains[u] = float(numerators[u]) / denominator
    return gains, diagnostics


def estimate_schur_delta(graph: Graph, group: Sequence[int], extra_roots: Sequence[int],
                         config: SamplingConfig, seed: RandomState = None,
                         ) -> Tuple[Dict[int, float], Dict[str, float]]:
    """SchurDelta (Algorithm 4): ``Δ(u, S)`` estimates using extra roots ``T``.

    The forests are rooted at ``S ∪ T`` — cheaper to sample and better
    conditioned — and ``inv(L_{-S})`` is reassembled through the Eq. (11)
    block representation with the sampled rooted-probability matrix ``F`` and
    the sampled Schur complement of Eq. (15).
    """
    rng = as_rng(seed)
    group = sorted(set(int(v) for v in group))
    extras = sorted(set(int(t) for t in extra_roots) - set(group))
    if not extras:
        return estimate_forest_delta(graph, group, config, seed=rng)

    n = graph.n
    roots = sorted(set(group) | set(extras))
    rows = config.jl_rows(n)
    # One Rademacher matrix over all non-grounded coordinates; the columns on
    # U act as the paper's W block and the columns on T as its Q block.
    full_weights = rademacher_weights(rows, n, group, rng)
    interior_weights = full_weights.copy()
    interior_weights[:, roots] = 0.0
    q_block = full_weights[:, extras]

    accumulator = ForestAccumulator(
        graph, roots, weights=interior_weights, tracked_roots=extras, seed=rng
    )
    diagnostics = run_adaptive_sampling(accumulator, config)

    projected = accumulator.projected_estimates()
    diagonal = accumulator.diag_estimates()
    fractions = accumulator.root_fractions()  # (n, |T|), zero rows on roots

    schur = _sampled_schur_complement(graph, group, extras, fractions)
    inv_schur = _robust_inverse(schur)

    # (w, |T|) combination (W F + Q) used by both the U and T columns.
    combined = interior_weights @ fractions + q_block

    gains: Dict[int, float] = {}
    extras_index = {t: i for i, t in enumerate(extras)}
    for u in range(n):
        if u in group:
            continue
        floor = 1.0 / max(graph.degrees[u], 1)
        if u in extras_index:
            idx = extras_index[u]
            column = combined @ inv_schur[:, idx]
            denominator = max(float(inv_schur[idx, idx]), floor)
        else:
            f_row = fractions[u]
            correction = inv_schur @ f_row
            column = projected[:, u] + combined @ correction
            denominator = max(float(diagonal[u]) + float(f_row @ correction), floor)
        gains[u] = float(column @ column) / denominator
    return gains, diagnostics


def _sampled_schur_complement(graph: Graph, group: Sequence[int],
                              extras: Sequence[int],
                              fractions: np.ndarray) -> np.ndarray:
    """Assemble the sampled ``S_T(L_{-S})`` from rooted probabilities (Eq. 15)."""
    grounded = set(int(v) for v in group)
    extras = list(extras)
    index = {t: i for i, t in enumerate(extras)}
    size = len(extras)
    schur = np.zeros((size, size))
    for t in extras:
        i = index[t]
        schur[i, i] = graph.degrees[t]
    for i, t_i in enumerate(extras):
        for t_j in graph.neighbors(t_i):
            t_j = int(t_j)
            if t_j in index and index[t_j] > i:
                schur[i, index[t_j]] -= 1.0
                schur[index[t_j], i] -= 1.0
    # Subtract, per column t_j, the rooted probabilities of the interior
    # neighbours of t_i: (L_TU F)_{ij} = -sum_{(u, t_i) in E, u in U} F[u, j].
    for t_i in extras:
        i = index[t_i]
        for u in graph.neighbors(t_i):
            u = int(u)
            if u in index or u in grounded:
                continue
            schur[i, :] -= fractions[u]
    return schur


def _robust_inverse(matrix: np.ndarray, ridge: float = 1e-10) -> np.ndarray:
    """Inverse with a tiny ridge fallback for near-singular sampled matrices."""
    matrix = np.asarray(matrix, dtype=np.float64)
    try:
        return np.linalg.inv(matrix)
    except np.linalg.LinAlgError:
        size = matrix.shape[0]
        return np.linalg.inv(matrix + ridge * np.eye(size))
