"""Tests for the lockstep vectorised forest sampler and ForestBatch kernels.

Covers the three contracts the batch sampler must honour, against the
reference oracles in ``tests/oracles.py``:

* **Scalar regression** — the reference random-walk sampler's fixed-seed
  output is locked, so the oracle the other suites lean on cannot drift.
* **Structural equivalence** — every batched derived quantity (``root_of``,
  ``depths``, ``subtree_sums``, ``tree_sizes``) matches the per-forest
  :class:`oracles.Forest` computation exactly, and the accumulator's
  batched fold reproduces the per-forest fold.
* **Distributional equivalence** — a chi-square test checks the lockstep
  sampler's empirical root distribution (including its wide-index path)
  against the exact absorption matrix of Lemma 4.2, at the same thresholds
  the reference sampler is held to.
"""

import numpy as np
import pytest
from scipy import stats as scipy_stats

import repro.sampling.batch as batch_module
from repro.centrality.estimators import ForestAccumulator, PathSystem, rademacher_weights
from repro.exceptions import DisconnectedGraphError, GraphError, InvalidParameterError
from repro.graph import generators
from repro.graph.graph import Graph
from repro.linalg.schur import absorption_probabilities
from repro.obs import tracing
from repro.sampling import ForestBatch, sample_forest_batch_vectorized

from oracles import (
    Forest,
    empirical_root_distribution,
    forests_of,
    sample_rooted_forest,
    scalar_fold,
)

# Fixed-seed output of the reference sampler on karate with roots={0},
# seed=123; this regression pins the oracle stream the suites compare with.
KARATE_SCALAR_PARENT_SEED123 = [
    -1, 19, 3, 1, 0, 16, 4, 3, 33, 33, 4, 0, 0, 3, 33, 32, 6, 0, 32, 0, 33, 0,
    32, 25, 31, 24, 33, 33, 33, 23, 1, 33, 30, 22,
]


class TestScalarRegression:
    def test_fixed_seed_output_locked(self, karate):
        forest = sample_rooted_forest(karate, [0], seed=123)
        assert forest.parent.tolist() == KARATE_SCALAR_PARENT_SEED123

    def test_forest_helpers_match_bruteforce(self, karate):
        forest = sample_rooted_forest(karate, [0, 33], seed=7)
        sizes = forest.tree_sizes()
        root_of = forest.root_of()
        for root in (0, 33):
            assert sizes[root] == int(np.sum(root_of == root))
        tin, tout = forest.euler_intervals()
        for node in range(karate.n):
            path = set(forest.path_to_root(node))
            for candidate in range(karate.n):
                assert forest.is_ancestor(candidate, node) == (candidate in path)


def _force_wide_path(monkeypatch, graph):
    """Make ``graph`` take the oversized-input path of the lockstep kernel.

    One forest per chunk (``n`` exceeds the state limit), int64 indices (the
    int32 bound is below every pair id) and float64 arrow draws (every
    degree exceeds the float32 bound).
    """
    monkeypatch.setattr(batch_module, "LOCKSTEP_STATE_LIMIT", graph.n - 1)
    monkeypatch.setattr(batch_module, "_INT32_INDEX_LIMIT", 0)
    monkeypatch.setattr(batch_module, "_FLOAT32_DEGREE_LIMIT", 0)


class TestLockstepValidity:
    def test_batch_forests_are_valid(self, karate):
        batch = sample_forest_batch_vectorized(karate, [0, 33], 16, seed=0)
        assert batch.batch_size == 16 and batch.n == karate.n
        for forest in forests_of(batch):
            forest.validate_against(karate)
        assert np.all(batch.tree_sizes().sum(axis=1) == karate.n)

    def test_reproducible_and_seed_sensitive(self, karate):
        a = sample_forest_batch_vectorized(karate, [0], 8, seed=42)
        b = sample_forest_batch_vectorized(karate, [0], 8, seed=42)
        c = sample_forest_batch_vectorized(karate, [0], 8, seed=43)
        assert np.array_equal(a.parent, b.parent)
        assert not np.array_equal(a.parent, c.parent)

    def test_samples_within_batch_differ(self, karate):
        batch = sample_forest_batch_vectorized(karate, [0], 8, seed=1)
        assert not all(
            np.array_equal(batch.parent[0], batch.parent[i]) for i in range(1, 8)
        )

    def test_tree_graph_recovered(self):
        tree = generators.random_tree(30, seed=3)
        batch = sample_forest_batch_vectorized(tree, [0], 6, seed=4)
        for b in range(6):
            for node in range(1, 30):
                assert tree.has_edge(node, int(batch.parent[b, node]))

    def test_slow_mixing_graph_still_correct(self):
        ring = generators.watts_strogatz(120, 4, 0.05, seed=9)
        batch = sample_forest_batch_vectorized(ring, [0], 8, seed=2)
        for forest in forests_of(batch):
            forest.validate_against(ring)

    def test_empty_batch(self, karate):
        batch = sample_forest_batch_vectorized(karate, [0], 0, seed=0)
        assert batch.batch_size == 0
        assert batch.parent.shape == (0, karate.n)

    def test_invalid_inputs(self, karate):
        with pytest.raises(InvalidParameterError):
            sample_forest_batch_vectorized(karate, [], 4, seed=0)
        with pytest.raises(InvalidParameterError):
            sample_forest_batch_vectorized(karate, [0], -1, seed=0)

    def test_disconnected_graph_rejected(self):
        graph = Graph(4, [(0, 1), (2, 3)])
        with pytest.raises(DisconnectedGraphError):
            sample_forest_batch_vectorized(graph, [0], 4, seed=0)

    def test_internal_chunking_matches_single_chunk_shape(self, karate, monkeypatch):
        monkeypatch.setattr(batch_module, "LOCKSTEP_STATE_LIMIT", 3 * karate.n)
        batch = sample_forest_batch_vectorized(karate, [0], 10, seed=5)
        assert batch.batch_size == 10
        for forest in forests_of(batch):
            forest.validate_against(karate)

    def test_oversized_graph_draws_one_forest_per_chunk(self, karate, monkeypatch):
        _force_wide_path(monkeypatch, karate)
        tracer = tracing.enable_tracing()
        try:
            batch = sample_forest_batch_vectorized(karate, [0, 33], 3, seed=6)
        finally:
            tracing.disable_tracing()
        [span] = [s for s in tracer.spans() if s["name"] == "sampling.lockstep"]
        assert span["attrs"]["forests"] == 3 and span["attrs"]["chunks"] == 3
        assert batch.batch_size == 3
        for forest in forests_of(batch):
            forest.validate_against(karate)

    def test_index_and_draw_width_switches(self, karate, monkeypatch):
        narrow = sample_forest_batch_vectorized(karate, [0, 33], 4, seed=3).parent
        # int64 indices address the same pairs: same forests, same stream.
        monkeypatch.setattr(batch_module, "_INT32_INDEX_LIMIT", 0)
        wide = sample_forest_batch_vectorized(karate, [0, 33], 4, seed=3).parent
        assert np.array_equal(wide, narrow)
        # float64 draws consume the stream differently.
        monkeypatch.setattr(batch_module, "_FLOAT32_DEGREE_LIMIT", 0)
        wide_draws = sample_forest_batch_vectorized(karate, [0, 33], 4, seed=3).parent
        assert not np.array_equal(wide_draws, narrow)


class TestForestBatchKernels:
    def test_derived_quantities_match_per_forest(self, karate):
        batch = sample_forest_batch_vectorized(karate, [0, 33], 10, seed=3)
        weights = rademacher_weights(4, karate.n, [0, 33],
                                     np.random.default_rng(0))
        root_of = batch.root_of()
        depths = batch.depths()
        sums = batch.subtree_sums(weights)
        ones = batch.subtree_sums(np.ones(karate.n))
        sizes = batch.tree_sizes()
        for i in range(batch.batch_size):
            forest = Forest(parent=batch.parent[i].copy(),
                            roots=batch.roots.copy())
            assert np.array_equal(forest.root_of(), root_of[i])
            assert np.array_equal(forest.depths(), depths[i])
            assert np.allclose(forest.subtree_sums(weights), sums[i])
            assert np.allclose(forest.subtree_sums(np.ones(karate.n)), ones[i])
            expected_sizes = forest.tree_sizes()
            for j, root in enumerate(batch.roots):
                assert int(sizes[i, j]) == expected_sizes[int(root)]

    def test_subtree_sums_rejects_bad_shapes(self, karate):
        batch = sample_forest_batch_vectorized(karate, [0], 2, seed=0)
        with pytest.raises(GraphError):
            batch.subtree_sums(np.ones(karate.n + 1))

    def test_batch_validation_errors(self):
        with pytest.raises(GraphError):
            ForestBatch(parent=np.zeros(4, dtype=np.int64), roots=[0])
        with pytest.raises(GraphError):
            ForestBatch(parent=np.zeros((2, 4), dtype=np.int64), roots=[])
        with pytest.raises(GraphError):
            ForestBatch(parent=np.zeros((2, 4), dtype=np.int64), roots=[9])
        with pytest.raises(GraphError):  # root rows must hold -1
            ForestBatch(parent=np.zeros((2, 4), dtype=np.int64), roots=[0])
        for bad in (4, 9, -2):  # parents outside [-1, n)
            with pytest.raises(GraphError):
                ForestBatch(parent=[[-1, 0, 1, 2], [-1, 0, bad, 2]], roots=[0])

    def test_unreachable_node_detected(self):
        parent = np.array([[-1, 2, 1, 0]])  # 1 <-> 2 is a cycle
        batch = ForestBatch(parent=parent, roots=[0])
        with pytest.raises(GraphError):
            batch.root_of()


class TestAccumulatorBatchFold:
    def test_add_batch_matches_per_forest_fold(self, karate):
        roots = [0, 33]
        weights = rademacher_weights(5, karate.n, roots,
                                     np.random.default_rng(1))
        batch = sample_forest_batch_vectorized(karate, roots, 12, seed=2)

        one_by_one = ForestAccumulator(karate, roots, weights=weights,
                                       tracked_roots=[33], seed=0)
        scalar_fold(one_by_one, batch)
        batched = ForestAccumulator(karate, roots, weights=weights,
                                    tracked_roots=[33], seed=0)
        batched.add_batch(batch)

        assert batched.count == one_by_one.count == 12
        assert np.allclose(batched.projected_sum, one_by_one.projected_sum)
        assert np.allclose(batched.diag_sum, one_by_one.diag_sum)
        assert np.allclose(batched.diag_sumsq, one_by_one.diag_sumsq)
        assert np.allclose(batched.root_counts, one_by_one.root_counts)

    def test_add_batch_validates_roots_and_size(self, karate):
        accumulator = ForestAccumulator(karate, [0], seed=0)
        wrong_roots = sample_forest_batch_vectorized(karate, [0, 33], 2, seed=0)
        with pytest.raises(InvalidParameterError):
            accumulator.add_batch(wrong_roots)
        small = generators.barabasi_albert(10, 2, seed=0)
        wrong_size = sample_forest_batch_vectorized(small, [0], 2, seed=0)
        with pytest.raises(InvalidParameterError):
            accumulator.add_batch(wrong_size)

    def test_add_samples_uses_vectorised_chunks(self, karate):
        # A single sample draws through the lockstep kernel like any batch.
        for count in (17, 1):
            accumulator = ForestAccumulator(karate, [0], seed=0)
            tracer = tracing.enable_tracing()
            try:
                accumulator.add_samples(count)
            finally:
                tracing.disable_tracing()
            drawn = [s["attrs"]["forests"] for s in tracer.spans()
                     if s["name"] == "sampling.lockstep"]
            assert drawn and sum(drawn) == count
            assert accumulator.count == count
            estimates = accumulator.diag_estimates()
            assert np.isfinite(estimates).all() and estimates[0] == 0.0
            if count > 1:  # averaged non-root diagonals are positive
                assert np.all(estimates[1:] > 0.0)


def _exact_full_absorption(graph, grounded, boundary):
    """Exact ``(interior, roots)`` rooted-at probabilities over all roots."""
    roots = sorted(grounded + boundary)
    exact_boundary, interior = absorption_probabilities(graph, grounded, boundary)
    exact = np.zeros((len(interior), len(roots)))
    column = {root: i for i, root in enumerate(roots)}
    for j, t in enumerate(boundary):
        exact[:, column[t]] = exact_boundary[:, j]
    for g in grounded:
        # One grounded root: its column absorbs the remaining mass.
        exact[:, column[g]] = 1.0 - exact_boundary.sum(axis=1)
    return roots, exact, interior


class TestDistributionalEquivalence:
    """Lemma 4.2 chi-square suite: the lockstep sampler (on its default and
    its wide-index path) and the reference sampler draw the same
    distribution."""

    SAMPLES = 2000
    # Per-node multinomial chi-square against the exact absorption row; the
    # 0.9999 quantile keeps the fixed-seed test deterministic yet sharp
    # enough that a biased sampler (e.g. a broken popping schedule) fails.
    QUANTILE = 0.9999

    @pytest.mark.parametrize("method", ["lockstep", "scalar", "wide"])
    def test_root_distribution_chi_square(self, karate, method, monkeypatch):
        if method == "wide":
            _force_wide_path(monkeypatch, karate)
        roots, exact, interior = _exact_full_absorption(karate, [0], [32, 33])
        empirical = empirical_root_distribution(
            karate, roots, self.SAMPLES, seed=11,
            method="scalar" if method == "scalar" else "lockstep",
        )
        observed = empirical[interior] * self.SAMPLES
        expected = exact * self.SAMPLES
        for i in range(len(interior)):
            mask = expected[i] > 1e-9
            chi2 = float(np.sum(
                (observed[i, mask] - expected[i, mask]) ** 2 / expected[i, mask]
            ))
            dof = max(int(mask.sum()) - 1, 1)
            assert chi2 < scipy_stats.chi2.ppf(self.QUANTILE, dof), (
                f"node {interior[i]} ({method}): chi2={chi2:.2f}"
            )

    @pytest.mark.parametrize("method", ["lockstep", "scalar"])
    def test_root_distribution_tolerances_match_scalar_suite(self, karate, method):
        # Same tolerances as the historical scalar-sampler absorption test.
        roots, exact, interior = _exact_full_absorption(karate, [0], [32, 33])
        empirical = empirical_root_distribution(
            karate, roots, 800, seed=7, method=method
        )
        observed = empirical[interior]
        assert np.max(np.abs(observed - exact)) < 0.1
        assert np.mean(np.abs(observed - exact)) < 0.03

    def test_cycle_spanning_trees_uniform(self):
        """On a cycle, each spanning tree (one removed edge) is equally likely."""
        cycle = generators.cycle_graph(5)
        samples = 600
        batch = sample_forest_batch_vectorized(cycle, [0], samples, seed=0)
        counts: dict = {}
        for b in range(samples):
            parent = batch.parent[b]
            missing = tuple(sorted(
                edge for edge in cycle.edges()
                if parent[edge[0]] != edge[1] and parent[edge[1]] != edge[0]
            ))
            counts[missing] = counts.get(missing, 0) + 1
        assert len(counts) == 5
        for value in counts.values():
            assert value > samples / 5 * 0.5

    def test_empirical_distribution_method_validation(self, karate):
        with pytest.raises(InvalidParameterError):
            empirical_root_distribution(karate, [0], 10, seed=0, method="bogus")

    def test_empirical_distribution_rows_sum_to_one(self, karate):
        empirical = empirical_root_distribution(karate, [0, 33], 50, seed=1)
        assert np.allclose(empirical.sum(axis=1), 1.0)


def _draw(method, graph, roots, count, seed):
    """``count`` forests from the reference Wilson loop or the lockstep kernel."""
    if method == "scalar":
        rng = np.random.default_rng(seed)
        return [sample_rooted_forest(graph, roots, seed=rng) for _ in range(count)]
    return forests_of(sample_forest_batch_vectorized(graph, roots, count, seed=seed))


class TestRootedComponentCheck:
    """Connected graphs with Θ(n²) expected walks must never be rejected."""

    @pytest.mark.parametrize("method", ["scalar", "lockstep"])
    def test_long_path_is_sampled(self, method):
        graph = generators.path_graph(1000)
        forests = _draw(method, graph, [0], 2, seed=0)
        assert len(forests) == 2
        for forest in forests:
            forest.validate_against(graph)

    @pytest.mark.parametrize("method", ["scalar", "lockstep"])
    def test_long_ring_is_sampled(self, method):
        graph = generators.cycle_graph(600)
        forests = _draw(method, graph, [0], 2, seed=1)
        for forest in forests:
            forest.validate_against(graph)

    @pytest.mark.parametrize("method", ["scalar", "lockstep"])
    def test_component_without_root_still_raises(self, method):
        graph = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        with pytest.raises(DisconnectedGraphError):
            _draw(method, graph, [0], 2, seed=0)

    def test_path_system_and_accumulator_raise_the_sampler_error(self):
        graph = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        with pytest.raises(DisconnectedGraphError):
            PathSystem.from_graph(graph, [0])
        with pytest.raises(DisconnectedGraphError):
            ForestAccumulator(graph, [0])

    def test_every_component_rooted_is_accepted(self):
        graph = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        batch = sample_forest_batch_vectorized(graph, [0, 5], 4, seed=0)
        assert np.all(batch.root_of()[:, :3] == 0)
        assert np.all(batch.root_of()[:, 3:] == 5)

    def test_component_labelling_is_computed_once_per_graph(self):
        graph = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        labels = graph.component_labels()
        assert labels.tolist() == [0, 0, 0, 1, 1, 1]
        _draw("scalar", graph, [0, 5], 3, seed=0)
        assert graph.component_labels() is labels
