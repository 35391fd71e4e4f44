"""Tests for the reference single-forest structure in ``tests/oracles.py``."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import GraphError

from oracles import Forest


@pytest.fixture
def small_forest():
    """A forest on 7 nodes: tree rooted at 0 (nodes 0-4) and at 5 (nodes 5-6)."""
    #       0            5
    #      / \           |
    #     1   2          6
    #        / \
    #       3   4
    parent = np.array([-1, 0, 0, 2, 2, -1, 5])
    return Forest(parent=parent, roots=np.array([0, 5]))


class TestForestBasics:
    def test_counts_and_roots(self, small_forest):
        assert small_forest.n == 7
        assert small_forest.roots.tolist() == [0, 5]
        assert small_forest.is_root(0)
        assert not small_forest.is_root(3)

    def test_depths(self, small_forest):
        assert small_forest.depths().tolist() == [0, 1, 1, 2, 2, 0, 1]

    def test_root_of(self, small_forest):
        assert small_forest.root_of().tolist() == [0, 0, 0, 0, 0, 5, 5]

    def test_topological_order_parents_first(self, small_forest):
        order = small_forest.topological_order().tolist()
        position = {node: i for i, node in enumerate(order)}
        for node in range(7):
            parent = small_forest.parent[node]
            if parent >= 0:
                assert position[int(parent)] < position[node]

    def test_path_to_root(self, small_forest):
        assert small_forest.path_to_root(3) == [3, 2, 0]
        assert small_forest.path_to_root(5) == [5]

    def test_tree_sizes(self, small_forest):
        assert small_forest.tree_sizes() == {0: 5, 5: 2}

    def test_rejects_missing_root(self):
        with pytest.raises(GraphError):
            Forest(parent=np.array([-1, 0]), roots=np.array([1]))

    def test_rejects_empty_roots(self):
        with pytest.raises(GraphError):
            Forest(parent=np.array([-1, 0]), roots=np.array([], dtype=np.int64))

    def test_rejects_orphan_non_root(self):
        forest = Forest(parent=np.array([-1, -1, 0]), roots=np.array([0]))
        with pytest.raises(GraphError):
            forest.depths()


class TestAncestry:
    def test_euler_intervals_nested(self, small_forest):
        tin, tout = small_forest.euler_intervals()
        for node in range(7):
            parent = small_forest.parent[node]
            if parent >= 0:
                assert tin[parent] < tin[node] <= tout[node] < tout[parent] + 1

    def test_is_ancestor(self, small_forest):
        assert small_forest.is_ancestor(0, 3)
        assert small_forest.is_ancestor(2, 4)
        assert small_forest.is_ancestor(3, 3)
        assert not small_forest.is_ancestor(1, 3)
        assert not small_forest.is_ancestor(5, 3)


class TestSubtreeSums:
    def test_subtree_sizes(self, small_forest):
        assert small_forest.subtree_sizes().tolist() == [5, 1, 3, 1, 1, 2, 1]

    def test_vector_weights(self, small_forest):
        weights = np.arange(7, dtype=float)
        sums = small_forest.subtree_sums(weights)
        # subtree(2) = {2, 3, 4} -> 2 + 3 + 4 = 9
        assert sums[2] == pytest.approx(9.0)
        assert sums[0] == pytest.approx(0 + 1 + 2 + 3 + 4)
        assert sums[6] == pytest.approx(6.0)

    def test_matrix_weights(self, small_forest):
        weights = np.stack([np.ones(7), np.arange(7, dtype=float)])
        sums = small_forest.subtree_sums(weights)
        assert sums.shape == (2, 7)
        assert sums[0].tolist() == small_forest.subtree_sizes().tolist()

    def test_wrong_length_rejected(self, small_forest):
        with pytest.raises(GraphError):
            small_forest.subtree_sums(np.ones(5))

    def test_brute_force_equivalence(self):
        rng = np.random.default_rng(5)
        parent = np.array([-1, 0, 1, 1, 0, 4, 4, 2, -1, 8])
        forest = Forest(parent=parent, roots=np.array([0, 8]))
        weights = rng.normal(size=10)
        sums = forest.subtree_sums(weights)
        tin, tout = forest.euler_intervals()
        for node in range(10):
            members = [v for v in range(10) if tin[node] <= tin[v] <= tout[node]]
            assert sums[node] == pytest.approx(weights[members].sum())


class TestValidation:
    def test_validate_against_graph(self, karate):
        # Build a BFS tree by hand via the traversal module.
        from repro.graph.traversal import bfs_tree

        tree = bfs_tree(karate, [0])
        forest = Forest(parent=tree.parent.copy(), roots=np.array([0]))
        forest.validate_against(karate)

    def test_validate_rejects_non_edge(self, path4):
        forest = Forest(parent=np.array([-1, 0, 0, 2]), roots=np.array([0]))
        with pytest.raises(GraphError):
            forest.validate_against(path4)

    def test_validate_rejects_wrong_size(self, path4):
        forest = Forest(parent=np.array([-1, 0]), roots=np.array([0]))
        with pytest.raises(GraphError):
            forest.validate_against(path4)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=60), st.integers(min_value=0, max_value=500))
def test_random_parent_forest_invariants(n, seed):
    """Random valid parent arrays always yield consistent depths/roots/orders."""
    rng = np.random.default_rng(seed)
    # Create a forest by attaching each node to a random earlier node or making
    # it a root — guarantees acyclicity by construction.
    parent = np.full(n, -1, dtype=np.int64)
    roots = [0]
    for node in range(1, n):
        if rng.random() < 0.2:
            roots.append(node)
        else:
            parent[node] = int(rng.integers(0, node))
    forest = Forest(parent=parent, roots=np.array(sorted(roots)))
    depth = forest.depths()
    root_of = forest.root_of()
    assert np.all(depth >= 0)
    assert set(np.unique(root_of)) <= set(roots)
    assert forest.subtree_sizes().sum() >= n  # every node counted at least once
    sizes = forest.tree_sizes()
    assert sum(sizes.values()) == n
