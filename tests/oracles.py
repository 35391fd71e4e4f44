"""Reference oracles for the forest sampler and the estimator fold.

The library draws every forest with the lockstep cycle-popping sampler
(:func:`repro.sampling.sample_forest_batch_vectorized`) and folds every
batch with :meth:`repro.centrality.estimators.ForestAccumulator.add_batch`.
This module keeps the straightforward implementations those kernels are
checked against:

* :func:`sample_rooted_forest` — Wilson's random-walk sampler (Algorithm 1
  of the paper), one Python-interpreted walk at a time;
* :class:`Forest` — a single rooted forest with per-forest derived data
  (root map, depths, Euler intervals, subtree sums) and a graph validator;
* :func:`scalar_fold` — the per-forest Lemma 3.3 fold into an accumulator's
  running sums;
* :func:`empirical_root_distribution` — sampled rooted-at frequencies, the
  counterpart of the Lemma 4.2 absorption matrix;
* :func:`expected_sampling_cost` — the exact expected Wilson walk length
  (Lemma 3.7).

The chi-square suites and the ``bench_sampling.py``/``bench_pool.py`` speed
gates import them from here (``tests/`` on ``sys.path``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.exceptions import GraphError, InvalidParameterError
from repro.graph.graph import Graph
from repro.sampling.batch import (
    LOCKSTEP_STATE_LIMIT,
    ForestBatch,
    require_rooted_components,
    sample_forest_batch_vectorized,
)
from repro.utils.rng import RandomState, as_rng
from repro.utils.validation import check_group


# ---------------------------------------------------------------------------
# One rooted forest
# ---------------------------------------------------------------------------


@dataclass
class Forest:
    """A spanning forest of a graph rooted at a node set.

    Attributes
    ----------
    parent:
        ``parent[u]`` is the forest parent of ``u`` (``-1`` for roots).
    roots:
        Sorted array of root nodes (the root set ``S`` of the sample).
    """

    parent: np.ndarray
    roots: np.ndarray
    _root_of: Optional[np.ndarray] = field(default=None, repr=False)
    _depth: Optional[np.ndarray] = field(default=None, repr=False)
    _order: Optional[np.ndarray] = field(default=None, repr=False)
    _tin: Optional[np.ndarray] = field(default=None, repr=False)
    _tout: Optional[np.ndarray] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.parent = np.asarray(self.parent, dtype=np.int64)
        self.roots = np.asarray(sorted(int(r) for r in self.roots), dtype=np.int64)
        n = self.parent.size
        if self.roots.size == 0:
            raise GraphError("a rooted forest needs at least one root")
        if self.roots.min() < 0 or self.roots.max() >= n:
            raise GraphError("forest roots outside node range")
        if np.any(self.parent[self.roots] != -1):
            raise GraphError("roots must have parent -1")

    # -------------------------------------------------------------- properties
    @property
    def n(self) -> int:
        """Number of nodes."""
        return int(self.parent.size)

    def is_root(self, node: int) -> bool:
        """Whether ``node`` is a root."""
        return self.parent[node] < 0

    # ------------------------------------------------------------ derived data
    def depths(self) -> np.ndarray:
        """Depth of every node (roots have depth 0)."""
        if self._depth is None:
            self._compute_orders()
        return self._depth

    def root_of(self) -> np.ndarray:
        """``root_of()[u]`` is the root of the tree containing ``u`` (ρ_u)."""
        if self._root_of is None:
            self._compute_orders()
        return self._root_of

    def topological_order(self) -> np.ndarray:
        """Nodes ordered so that every parent precedes its children."""
        if self._order is None:
            self._compute_orders()
        return self._order

    def euler_intervals(self) -> tuple[np.ndarray, np.ndarray]:
        """Euler-tour entry/exit times ``(tin, tout)``.

        ``a`` is an ancestor of ``u`` (or equal) iff
        ``tin[a] <= tin[u] <= tout[a]``.
        """
        if self._tin is None:
            self._compute_euler()
        return self._tin, self._tout

    def is_ancestor(self, ancestor: int, node: int) -> bool:
        """Whether ``ancestor`` lies on the path from ``node`` to its root."""
        tin, tout = self.euler_intervals()
        return bool(tin[ancestor] <= tin[node] <= tout[ancestor])

    def path_to_root(self, node: int) -> List[int]:
        """Nodes on the path from ``node`` (inclusive) to its root (inclusive)."""
        path = [int(node)]
        current = int(node)
        while self.parent[current] >= 0:
            current = int(self.parent[current])
            path.append(current)
        return path

    def tree_sizes(self) -> dict:
        """Mapping root -> number of nodes in its tree (roots included)."""
        counts = np.bincount(self.root_of(), minlength=self.n)
        return {int(r): int(counts[r]) for r in self.roots}

    # ------------------------------------------------------------- aggregation
    def subtree_sums(self, weights: np.ndarray) -> np.ndarray:
        """Sum of ``weights`` over each node's forest subtree.

        Parameters
        ----------
        weights:
            Either a ``(n,)`` vector or a ``(w, n)`` matrix of per-node
            weights (one row per JL direction).

        Returns
        -------
        Array of the same shape whose entry for node ``x`` is
        ``Σ_{v ∈ subtree(x)} weights[..., v]``.  Root nodes include their own
        weight and all their descendants.

        The computation processes depth levels from the deepest up, adding
        each level's accumulated values onto the parents with ``np.add.at``,
        so the Python-level loop is only over the forest height.
        """
        weights = np.asarray(weights, dtype=np.float64)
        single = weights.ndim == 1
        if single:
            weights = weights[None, :]
        if weights.shape[1] != self.n:
            raise GraphError(
                f"weights must have {self.n} columns, got {weights.shape[1]}"
            )
        totals = weights.copy()
        depth = self.depths()
        max_depth = int(depth.max()) if depth.size else 0
        for level in range(max_depth, 0, -1):
            nodes = np.flatnonzero(depth == level)
            if nodes.size == 0:
                continue
            parents = self.parent[nodes]
            np.add.at(totals.T, parents, totals[:, nodes].T)
        return totals[0] if single else totals

    def subtree_sizes(self) -> np.ndarray:
        """Number of nodes in each node's subtree (itself included)."""
        return self.subtree_sums(np.ones(self.n)).astype(np.int64)

    # -------------------------------------------------------------- validation
    def validate_against(self, graph) -> None:
        """Check that the forest is a valid rooted spanning forest of ``graph``.

        * every non-root parent pointer follows a graph edge,
        * there are no cycles (every node reaches a root),
        * every root belongs to the declared root set.
        """
        n = self.n
        if graph.n != n:
            raise GraphError("forest and graph have different node counts")
        root_set = set(int(r) for r in self.roots)
        for u in range(n):
            p = int(self.parent[u])
            if p < 0:
                if u not in root_set:
                    raise GraphError(f"node {u} has no parent but is not a root")
                continue
            if not graph.has_edge(u, p):
                raise GraphError(f"forest edge ({u}, {p}) is not a graph edge")
        # Cycle check: walking up from any node must terminate within n steps.
        for u in range(n):
            current, steps = u, 0
            while self.parent[current] >= 0:
                current = int(self.parent[current])
                steps += 1
                if steps > n:
                    raise GraphError(f"cycle detected while walking up from node {u}")
            if current not in root_set:
                raise GraphError(f"node {u} does not reach a declared root")

    # --------------------------------------------------------------- internals
    def _compute_orders(self) -> None:
        """Depths, roots and a parents-first order via pointer doubling.

        Pointer doubling keeps everything inside NumPy fancy indexing
        (O(n log depth) work), which matters because a fresh forest is
        processed for every Monte Carlo sample.
        """
        n = self.n
        # Self-loop the roots so jumps saturate there.
        pointer = np.where(self.parent < 0, np.arange(n), self.parent)
        distance = (self.parent >= 0).astype(np.int64)
        for _ in range(max(int(np.ceil(np.log2(max(n, 2)))), 1) + 1):
            next_pointer = pointer[pointer]
            if np.array_equal(next_pointer, pointer):
                break
            distance = distance + distance[pointer]
            pointer = next_pointer
        depth = distance
        root_of = pointer
        root_set = set(int(r) for r in self.roots)
        bad = [u for u in np.flatnonzero(self.parent < 0) if int(u) not in root_set]
        if bad:
            raise GraphError(f"node {bad[0]} has no parent but is not a root")
        if not set(int(r) for r in np.unique(root_of)) <= root_set:
            missing = int(np.flatnonzero(~np.isin(root_of, self.roots))[0])
            raise GraphError(f"node {missing} unreachable from any root")
        self._depth = depth
        self._root_of = root_of
        self._order = np.argsort(depth, kind="stable").astype(np.int64)

    def _compute_euler(self) -> None:
        n = self.n
        # Children lists in CSR form from one stable argsort of the parent
        # array: the children of ``p`` are ``by_parent[starts[p]:ends[p]]``
        # (in ascending node order, matching the old list construction).
        by_parent = np.argsort(self.parent, kind="stable").astype(np.int64)
        sorted_parents = self.parent[by_parent]
        nodes = np.arange(n, dtype=np.int64)
        starts = np.searchsorted(sorted_parents, nodes, side="left")
        ends = np.searchsorted(sorted_parents, nodes, side="right")
        tin = np.zeros(n, dtype=np.int64)
        tout = np.zeros(n, dtype=np.int64)
        clock = 0
        for root in self.roots:
            root = int(root)
            tin[root] = clock
            clock += 1
            stack: List[List[int]] = [[root, int(starts[root])]]
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
        self._tin, self._tout = tin, tout


def forests_of(batch: ForestBatch) -> List[Forest]:
    """Every row of ``batch`` as a standalone :class:`Forest`."""
    return [Forest(parent=row.copy(), roots=batch.roots.copy()) for row in batch.parent]


# ---------------------------------------------------------------------------
# Wilson's random-walk sampler
# ---------------------------------------------------------------------------


def sample_rooted_forest(graph: Graph, roots: Sequence[int],
                         seed: RandomState = None,
                         source_order: Sequence[int] | None = None,
                         ) -> Forest:
    """Sample one uniform spanning forest of ``graph`` rooted at ``roots``.

    Wilson's algorithm: starting from each unvisited node, simulate a random
    walk until it hits the growing forest, then erase the loops of the walk
    and attach the resulting path.  The forest distribution is uniform over
    spanning forests rooted at ``S`` and independent of the order in which
    source nodes are processed (Wilson 1996).

    Parameters
    ----------
    graph:
        Connected undirected graph.
    roots:
        Non-empty node set ``S``; every tree of the forest is rooted at one of
        these nodes and every node of ``V \\ S`` appears in exactly one tree.
    seed:
        Seed or generator controlling the random walks.
    source_order:
        Optional order in which source nodes are processed.  The forest
        distribution is invariant to this order (Wilson's theorem); exposing
        it makes the invariance testable.

    Returns
    -------
    :class:`Forest` with parent pointers into the graph.
    """
    roots = check_group(roots, graph.n, allow_empty=False)
    require_rooted_components(graph, roots)
    rng = as_rng(seed)

    n = graph.n
    # Plain Python lists keep the tight random-walk loop free of per-element
    # NumPy scalar overhead.
    indptr, adjacency, degrees = graph.adjacency_lists()
    in_forest = bytearray(n)
    for r in roots:
        in_forest[r] = 1
    parent = [-1] * n

    if source_order is None:
        sources: Sequence[int] = range(n)
    else:
        sources = [int(v) for v in source_order]
        if sorted(set(sources)) != list(range(n)):
            raise InvalidParameterError("source_order must be a permutation of all nodes")

    # Blocked uniform draws amortise the generator call overhead.
    block_size = max(4 * n, 1024)
    randoms = rng.random(block_size).tolist()
    cursor = 0

    for source in sources:
        if in_forest[source]:
            continue
        # Phase 1: random walk until the current forest is hit, recording the
        # most recent successor of every visited node (automatic loop erasure).
        current = source
        while not in_forest[current]:
            degree = degrees[current]
            if cursor >= block_size:
                randoms = rng.random(block_size).tolist()
                cursor = 0
            pick = int(randoms[cursor] * degree)
            cursor += 1
            if pick == degree:  # guard against the measure-zero edge case
                pick = degree - 1
            nxt = adjacency[indptr[current] + pick]
            parent[current] = nxt
            current = nxt
        # Phase 2: freeze the loop-erased path from the source to the forest.
        current = source
        while not in_forest[current]:
            in_forest[current] = 1
            current = parent[current]

    parent_array = np.asarray(parent, dtype=np.int64)
    parent_array[list(roots)] = -1
    return Forest(parent=parent_array, roots=np.asarray(list(roots), dtype=np.int64))


def expected_sampling_cost(graph: Graph, roots: Sequence[int]) -> float:
    """Exact expected number of random-walk steps of Wilson's algorithm.

    Lemma 3.7: the expected number of node visits is bounded by
    ``Tr((I - P_{-S})^{-1})``, the sum over nodes of the expected number of
    visits before absorption.  Computed densely; intended for analysis and for
    validating the efficiency benefit of enlarging the root set (SchurCFCM).
    """
    from repro.linalg.laplacian import grounded_transition_matrix

    submatrix, _ = grounded_transition_matrix(graph, roots)
    dense = submatrix.toarray()
    identity = np.eye(dense.shape[0])
    fundamental = np.linalg.inv(identity - dense)
    return float(np.trace(fundamental))


def empirical_root_distribution(graph: Graph, roots: Sequence[int],
                                samples: int, seed: RandomState = None,
                                method: str = "lockstep") -> np.ndarray:
    """Fraction of samples in which each node is rooted at each root.

    Returns an ``(n, len(roots))`` matrix of empirical probabilities — the
    sampled counterpart of the absorption matrix ``F`` of Lemma 4.2, used by
    tests to check the sampler against the exact linear-algebra values.

    ``method="lockstep"`` (the default) draws the samples with the
    vectorised batch sampler in memory-bounded chunks and accumulates each
    chunk with one ``bincount``; ``method="scalar"`` draws them one at a
    time with :func:`sample_rooted_forest` (one vectorised ``np.add.at`` per
    sample), which is what the lockstep kernel's distributional-equivalence
    tests compare against.
    """
    method = str(method).lower()
    if method not in ("lockstep", "scalar"):
        raise InvalidParameterError(
            f"method must be 'lockstep' or 'scalar', got {method!r}"
        )
    roots_sorted = sorted(int(r) for r in set(roots))
    n = graph.n
    width = len(roots_sorted)
    column = np.full(n, -1, dtype=np.int64)
    column[roots_sorted] = np.arange(width, dtype=np.int64)
    counts = np.zeros((n, width), dtype=np.float64)
    rng = as_rng(seed)
    nodes = np.arange(n)
    if method == "scalar":
        for _ in range(samples):
            forest = sample_rooted_forest(graph, roots_sorted, seed=rng)
            np.add.at(counts, (nodes, column[forest.root_of()]), 1.0)
        return counts / max(samples, 1)

    chunk_size = max(1, LOCKSTEP_STATE_LIMIT // max(n, 1))
    remaining = int(samples)
    cell = nodes * width  # flat (node, column) cell index base
    while remaining > 0:
        take = min(remaining, chunk_size)
        batch = sample_forest_batch_vectorized(graph, roots_sorted, take, seed=rng)
        flat = (cell[None, :] + column[batch.root_of()]).reshape(-1)
        counts += np.bincount(flat, minlength=n * width).reshape(n, width)
        remaining -= take
    return counts / max(samples, 1)


# ---------------------------------------------------------------------------
# Per-forest estimator fold
# ---------------------------------------------------------------------------


def scalar_fold(accumulator, batch: ForestBatch,
                weights: Optional[np.ndarray] = None) -> None:
    """Fold ``batch`` into ``accumulator`` one forest at a time.

    Adds exactly the running sums ``accumulator.add_batch(batch, weights)``
    adds (up to float summation order), through the per-forest
    :func:`fold_forest` instead of the batched ``(B, n)`` kernels.
    """
    if weights is None:
        weights = np.ones(batch.batch_size, dtype=np.float64)
    subtree = (batch.subtree_sums(accumulator.weights)
               if accumulator.weights.shape[0] else None)
    root_of = batch.root_of() if accumulator.tracked_roots else None
    for index in range(batch.batch_size):
        fold_forest(
            accumulator,
            batch.parent[index],
            None if subtree is None else subtree[index],
            None if root_of is None else root_of[index],
            weight=float(weights[index]),
        )


def fold_forest(accumulator, parent: np.ndarray, subtree: Optional[np.ndarray],
                root_of: Optional[np.ndarray], weight: float = 1.0) -> None:
    """Fold one forest, given its precomputed derived arrays.

    ``subtree`` is the ``(w, n)`` forest-subtree sum of the accumulator's
    weights (``None`` when there are no weight rows) and ``root_of`` the
    rooted-at map (``None`` when no roots are tracked); both may be rows of
    the batched kernels' outputs.
    """
    path = accumulator._path
    n = accumulator.graph.n
    bfs_parent = path.parent
    nonroot = path.nonroot
    levels = path.levels()

    alpha = np.zeros(n, dtype=bool)
    beta = np.zeros(n, dtype=bool)
    # alpha_x: the forest parent edge of x coincides with its BFS edge.
    alpha[nonroot] = parent[nonroot] == bfs_parent[nonroot]
    # beta_x: the forest parent edge of x's BFS parent points back at x,
    # i.e. the BFS edge of x is traversed downward by the forest path.
    beta[nonroot] = parent[bfs_parent[nonroot]] == nonroot

    # Projected (weight-vector) estimators: forest-subtree sums of the
    # weights, folded along the BFS tree with per-level prefix sums.
    if subtree is not None:
        contribution = np.zeros_like(subtree)
        contribution[:, nonroot] = (
            subtree[:, nonroot] * alpha[nonroot]
            - subtree[:, bfs_parent[nonroot]] * beta[nonroot]
        )
        projected = np.zeros_like(subtree)
        for level in range(1, len(levels)):
            nodes = levels[level]
            if nodes.size == 0:
                continue
            projected[:, nodes] = projected[:, bfs_parent[nodes]] + contribution[:, nodes]
        accumulator.projected_sum += weight * projected

    # Diagonal estimators.  Rewriting the Lemma 3.3 path sum so that the
    # outer iteration runs over each node's *forest* ancestors gives
    #
    #   c_u = sum_{x in Fanc(u) \ S} ( alpha_x [x in BFSpath(u)]
    #                                  - delta_x [pi_x in BFSpath(u)] )
    #
    # with delta_x = 1 iff bfs_parent(pi_x) = x.  Membership of the fixed
    # BFS path is an Euler-interval test on the path system's intervals.
    tin, tout = path.tin, path.tout
    delta = np.zeros(n, dtype=bool)
    has_parent = parent >= 0
    delta[has_parent] = bfs_parent[parent[has_parent]] == np.flatnonzero(has_parent)
    diag = np.zeros(n)
    cursor = nonroot.copy()
    active = nonroot.copy()
    tin_active = tin[active]
    while active.size:
        x = cursor
        on_path_x = (tin[x] <= tin_active) & (tin_active <= tout[x])
        pi_x = parent[x]
        safe_pi = np.where(pi_x >= 0, pi_x, x)
        on_path_pi = (tin[safe_pi] <= tin_active) & (tin_active <= tout[safe_pi])
        diag[active] += (
            (alpha[x] & on_path_x).astype(np.float64)
            - (delta[x] & on_path_pi & (pi_x >= 0)).astype(np.float64)
        )
        keep = (pi_x >= 0) & ~path.root_mask[safe_pi]
        active = active[keep]
        cursor = pi_x[keep]
        tin_active = tin_active[keep]
    accumulator.diag_sum += weight * diag
    accumulator.diag_sumsq += weight * (diag * diag)

    # Rooted probabilities for the tracked (Schur) roots.
    if root_of is not None:
        for idx, target in enumerate(accumulator.tracked_roots):
            accumulator.root_counts[:, idx] += weight * (root_of == target)

    accumulator.count += weight
