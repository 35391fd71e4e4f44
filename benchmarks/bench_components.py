"""Component benchmarks — the substrate costs behind the headline algorithms.

These micro-benchmarks expose where the time goes:

* single-forest sampling (the library's lockstep sampler with ``count=1``)
  with a single root versus an enlarged root set — the mechanism behind
  SchurCFCM's speed advantage (Lemma 3.7);
* the per-sample estimator processing (subtree sums + BFS prefix sums);
* the Laplacian solver substrate used by the ApproxGreedy baseline;
* exact Schur-complement assembly versus its sampled counterpart;
* the dynamic graph's writer-side costs: one ``snapshot()`` rebuild after a
  mutation and one connectivity-guarded edge deletion.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.centrality.estimators import ForestAccumulator, rademacher_weights
from repro.dynamic import DynamicGraph
from repro.linalg.laplacian import grounded_laplacian
from repro.linalg.schur import grounded_inverse_block
from repro.linalg.solvers import LaplacianSolver, SolverMethod
from repro.linalg.updates import GroundedInverseTracker
from repro.sampling import sample_forest_batch_vectorized


def _draw_one(graph, roots):
    """One forest, drawn the way the library draws a single forest."""
    return sample_forest_batch_vectorized(graph, roots, 1, seed=0)


@pytest.mark.benchmark(group="component-wilson")
class TestWilsonSampling:
    def test_single_root(self, benchmark, sparse_graph):
        hub = int(np.argmax(sparse_graph.degrees))
        benchmark(lambda: _draw_one(sparse_graph, [hub]))

    def test_enlarged_root_set(self, benchmark, sparse_graph):
        hubs = [int(v) for v in np.argsort(-sparse_graph.degrees)[:8]]
        benchmark(lambda: _draw_one(sparse_graph, hubs))

    def test_dense_graph_single_root(self, benchmark, dense_graph):
        hub = int(np.argmax(dense_graph.degrees))
        benchmark(lambda: _draw_one(dense_graph, [hub]))


@pytest.mark.benchmark(group="component-estimator")
class TestEstimatorProcessing:
    def test_accumulate_batch_with_jl_weights(self, benchmark, sparse_graph, rng=None):
        hub = int(np.argmax(sparse_graph.degrees))
        weights = rademacher_weights(32, sparse_graph.n, [hub],
                                     np.random.default_rng(0))

        def run():
            accumulator = ForestAccumulator(sparse_graph, [hub], weights=weights,
                                            seed=1)
            accumulator.add_samples(8)
            return accumulator.diag_estimates()

        benchmark(run)


@pytest.mark.benchmark(group="component-solver")
class TestSolverSubstrate:
    def test_sparse_lu_factor_and_solve(self, benchmark, sparse_graph):
        matrix, _ = grounded_laplacian(sparse_graph, [0])
        rhs = np.ones(matrix.shape[0])

        def run():
            solver = LaplacianSolver(matrix, method=SolverMethod.SPARSE_LU)
            return solver.solve(rhs)

        benchmark(run)

    def test_cg_solve(self, benchmark, sparse_graph):
        matrix, _ = grounded_laplacian(sparse_graph, [0])
        rhs = np.ones(matrix.shape[0])
        solver = LaplacianSolver(matrix, method=SolverMethod.CONJUGATE_GRADIENT,
                                 tol=1e-8)
        benchmark(lambda: solver.solve(rhs))

    def test_dense_inverse_downdate(self, benchmark, sparse_graph):
        tracker = GroundedInverseTracker(sparse_graph, [0])
        candidates = [v for v in range(1, sparse_graph.n)][:5]

        def run():
            local = GroundedInverseTracker(sparse_graph, [0])
            for node in candidates:
                local.add_node(node)
            return local.trace()

        benchmark(run)
        assert tracker.trace() > 0


@pytest.mark.benchmark(group="component-schur")
class TestSchurAssembly:
    def test_exact_block_decomposition(self, benchmark, smallworld_graph):
        hubs = [int(v) for v in np.argsort(-smallworld_graph.degrees)[:6]]
        benchmark(lambda: grounded_inverse_block(smallworld_graph, [hubs[0]], hubs[1:]))


def _absent_pair(graph):
    """First node pair of ``graph`` with no edge between them."""
    hub = int(np.argmax(graph.degrees))
    missing = np.setdiff1d(np.arange(graph.n), graph.neighbors(hub))
    return hub, int(missing[missing != hub][0])


@pytest.mark.benchmark(group="component-graph")
class TestDynamicGraphWriter:
    def test_snapshot_after_one_mutation(self, benchmark, sparse_graph):
        graph = DynamicGraph(sparse_graph)
        u, v = _absent_pair(sparse_graph)

        def toggle():
            if graph.has_edge(u, v):
                graph.remove_edge(u, v)
            else:
                graph.add_edge(u, v)

        snapshot = benchmark.pedantic(graph.snapshot, setup=toggle,
                                      rounds=30, iterations=1)
        assert snapshot.m in (sparse_graph.m, sparse_graph.m + 1)

    def test_guarded_remove_edge(self, benchmark, sparse_graph):
        graph = DynamicGraph(sparse_graph)
        u, v = _absent_pair(sparse_graph)

        def insert():
            graph.add_edge(u, v)

        benchmark.pedantic(graph.remove_edge, args=(u, v), setup=insert,
                           rounds=30, iterations=1)
        assert not graph.has_edge(u, v)
