"""Tests for the core :class:`repro.Graph` data structure."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import GraphError, InvalidNodeError
from repro.graph.graph import Graph, degree_sequence
from repro.graph import datasets, generators
from repro.graph.builders import to_networkx


class TestConstruction:
    def test_basic_counts(self):
        graph = Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert graph.n == 4
        assert graph.m == 3
        assert len(graph) == 4

    def test_aliases(self):
        graph = Graph(3, [(0, 1)])
        assert graph.number_of_nodes == 3
        assert graph.number_of_edges == 1

    def test_isolated_nodes_allowed(self):
        graph = Graph(5, [(0, 1)])
        assert graph.degree(4) == 0

    def test_empty_edge_list(self):
        graph = Graph(3, [])
        assert graph.m == 0
        assert list(graph.edges()) == []

    def test_rejects_zero_nodes(self):
        with pytest.raises(GraphError):
            Graph(0, [])

    def test_rejects_self_loop(self):
        with pytest.raises(GraphError):
            Graph(3, [(1, 1)])

    def test_rejects_parallel_edges(self):
        with pytest.raises(GraphError):
            Graph(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range_endpoint(self):
        with pytest.raises(GraphError):
            Graph(3, [(0, 3)])

    def test_rejects_negative_endpoint(self):
        with pytest.raises(GraphError):
            Graph(3, [(-1, 2)])

    def test_rejects_malformed_edges(self):
        with pytest.raises(GraphError):
            Graph(3, [(0, 1, 2)])

    def test_edge_orientation_normalised(self):
        graph = Graph(3, [(2, 0), (2, 1)])
        assert list(graph.edges()) == [(0, 2), (1, 2)]


class TestAccessors:
    def test_degrees(self):
        graph = Graph(4, [(0, 1), (0, 2), (0, 3)])
        assert graph.degree(0) == 3
        assert graph.degree(1) == 1
        assert graph.degrees.tolist() == [3, 1, 1, 1]

    def test_neighbors_sorted_content(self):
        graph = Graph(4, [(0, 3), (0, 1), (0, 2)])
        assert sorted(graph.neighbors(0).tolist()) == [1, 2, 3]
        assert graph.neighbors(2).tolist() == [0]

    def test_has_edge(self):
        graph = Graph(4, [(0, 1), (2, 3)])
        assert graph.has_edge(0, 1)
        assert graph.has_edge(1, 0)
        assert not graph.has_edge(0, 2)
        assert not graph.has_edge(1, 1)

    def test_invalid_node_raises(self):
        graph = Graph(3, [(0, 1)])
        with pytest.raises(InvalidNodeError):
            graph.degree(3)
        with pytest.raises(InvalidNodeError):
            graph.neighbors(-1)

    def test_nodes_array(self):
        graph = Graph(3, [(0, 1)])
        assert graph.nodes().tolist() == [0, 1, 2]

    def test_edge_array_shape(self):
        graph = Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert graph.edge_array().shape == (3, 2)

    def test_max_degree(self, star6):
        assert star6.max_degree() == 5

    def test_max_degree_excluding_hub(self, star6):
        assert star6.max_degree(excluded=[0]) == 0

    def test_max_degree_excluding_leaf(self, star6):
        assert star6.max_degree(excluded=[1]) == 4

    def test_adjacency_lists_cached(self):
        graph = Graph(3, [(0, 1), (1, 2)])
        first = graph.adjacency_lists()
        second = graph.adjacency_lists()
        assert first[0] is second[0]
        assert first[1] == graph.adjacency.tolist()


def _generated_graphs():
    """One small instance of every generator and bundled dataset."""
    return {
        "path": generators.path_graph(9),
        "cycle": generators.cycle_graph(10),
        "complete": generators.complete_graph(6),
        "star": generators.star_graph(7),
        "grid": generators.grid_graph(4, 5),
        "binary_tree": generators.binary_tree(4),
        "lollipop": generators.lollipop_graph(5, 4),
        "barbell": generators.barbell_graph(4, 3),
        "erdos_renyi": generators.erdos_renyi(40, 0.15, seed=1),
        "barabasi_albert": generators.barabasi_albert(60, 3, seed=2),
        "watts_strogatz": generators.watts_strogatz(40, 4, 0.2, seed=3),
        "powerlaw_cluster": generators.powerlaw_cluster(50, 2, 0.3, seed=4),
        "random_regular": generators.random_regular(30, 3, seed=5),
        "planted_partition": generators.planted_partition(40, 4, 0.5, 0.05, seed=6),
        "random_tree": generators.random_tree(35, seed=7),
        "random_geometric": generators.random_geometric(50, 0.3, seed=8),
        "karate": datasets.karate(),
    }


class TestCSRLayout:
    """The CSR slice of every node lists its neighbours in ascending order.

    The lockstep forest sampler picks a neighbour by its position in that
    slice, so this order is what keeps seeded forests reproducible.
    """

    @pytest.mark.parametrize("name", sorted(_generated_graphs()))
    def test_slices_match_sorted_networkx_neighbours(self, name):
        graph = _generated_graphs()[name]
        nx_graph = to_networkx(graph)
        for u in range(graph.n):
            row = graph.adjacency[graph.indptr[u]:graph.indptr[u + 1]]
            assert row.tolist() == sorted(nx_graph[u])
        assert graph.degrees.tolist() == [nx_graph.degree(u) for u in range(graph.n)]
        assert graph.indptr[0] == 0 and graph.indptr[-1] == 2 * graph.m
        for array in (graph.indptr, graph.adjacency, graph.degrees):
            assert array.dtype == np.int64

    def test_array_input_matches_tuple_input(self, karate):
        from_array = Graph(karate.n, karate.edge_array()[::-1, ::-1].copy())
        assert from_array == karate
        for name in ("indptr", "adjacency", "degrees"):
            assert np.array_equal(getattr(from_array, name), getattr(karate, name))


class TestMatrices:
    def test_adjacency_matrix_symmetric(self, karate):
        adjacency = karate.adjacency_matrix().toarray()
        assert np.allclose(adjacency, adjacency.T)
        assert adjacency.sum() == 2 * karate.m

    def test_degree_matrix_diagonal(self, karate):
        degree = karate.degree_matrix().toarray()
        assert np.allclose(np.diag(degree), karate.degrees)
        assert np.allclose(degree - np.diag(np.diag(degree)), 0.0)


class TestSubgraph:
    def test_induced_subgraph(self):
        graph = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        sub, mapping = graph.subgraph([0, 1, 2])
        assert sub.n == 3
        assert sub.m == 2
        assert mapping.tolist() == [0, 1, 2]

    def test_subgraph_relabels(self):
        graph = Graph(5, [(2, 3), (3, 4)])
        sub, mapping = graph.subgraph([2, 3, 4])
        assert sub.n == 3
        assert sorted(sub.edges()) == [(0, 1), (1, 2)]
        assert mapping.tolist() == [2, 3, 4]

    def test_subgraph_invalid_node(self):
        graph = Graph(3, [(0, 1)])
        with pytest.raises(InvalidNodeError):
            graph.subgraph([0, 5])


class TestEquality:
    def test_equal_graphs(self):
        a = Graph(3, [(0, 1), (1, 2)])
        b = Graph(3, [(1, 2), (0, 1)])
        assert a == b
        assert hash(a) == hash(b)

    def test_unequal_graphs(self):
        a = Graph(3, [(0, 1)])
        b = Graph(3, [(0, 2)])
        assert a != b

    def test_not_equal_to_other_types(self):
        assert Graph(2, [(0, 1)]) != "graph"


class TestDegreeSequence:
    def test_degree_sequence_sorted(self, star6):
        assert degree_sequence(star6) == [5, 1, 1, 1, 1, 1]


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=25), st.integers(min_value=0, max_value=200))
def test_handshake_lemma(n, seed):
    """Sum of degrees equals twice the edge count for arbitrary random graphs."""
    rng = np.random.default_rng(seed)
    edges = set()
    for _ in range(rng.integers(0, 3 * n)):
        u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
        if u != v:
            edges.add((min(u, v), max(u, v)))
    graph = Graph(n, sorted(edges))
    assert int(graph.degrees.sum()) == 2 * graph.m


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=40))
def test_complete_graph_degrees(n):
    graph = generators.complete_graph(n)
    assert graph.m == n * (n - 1) // 2
    assert all(graph.degree(v) == n - 1 for v in range(n))
