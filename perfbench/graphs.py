"""Input graphs of the benchmark workloads, built from the workload seed."""

from __future__ import annotations

import numpy as np

from repro.graph import generators
from repro.graph.builders import from_edge_list

POWERLAW_NODES = 2000
POWERLAW_ATTACH = 3

MESH_SIDE = 12
MESH_CHAIN = 5  # edges per subdivided grid edge
MESH_LEAVES = 700


def powerlaw_graph(seed: int, scale: float = 1.0):
    """Barabási–Albert graph, n=2000, m=3 (no degree-1 or degree-2 nodes)."""
    n = max(20, int(POWERLAW_NODES * scale))
    return generators.barabasi_albert(n, POWERLAW_ATTACH, seed=seed)


def roadmesh_graph(seed: int, scale: float = 1.0):
    """A road-like graph: a grid whose edges are long chains, plus pendant trees.

    A ``12x12`` grid has every edge subdivided into a ``5``-edge chain, then
    ``700`` leaves attach one by one to a uniformly drawn existing node (so
    some leaves grow into short pendant paths).  At full scale n = 1900,
    with ~42% degree-2 and ~30% degree-1 nodes.
    """
    side = max(3, int(round(MESH_SIDE * np.sqrt(scale))))
    leaves = int(MESH_LEAVES * scale)
    rng = np.random.default_rng(seed)
    grid = generators.grid_graph(side, side)
    edges = []
    next_id = grid.n
    for u, v in zip(grid.edge_u.tolist(), grid.edge_v.tolist()):
        chain = [u] + list(range(next_id, next_id + MESH_CHAIN - 1)) + [v]
        next_id += MESH_CHAIN - 1
        edges.extend(zip(chain[:-1], chain[1:]))
    for leaf in range(next_id, next_id + leaves):
        edges.append((int(rng.integers(0, leaf)), leaf))
    return from_edge_list(edges, n=next_id + leaves)


BUILDERS = {"powerlaw": powerlaw_graph, "roadmesh": roadmesh_graph}


def degree_shares(graph) -> dict:
    """Share of degree-1 and degree-2 nodes (what chain/pendant work relies on)."""
    degrees = np.asarray(graph.degrees)
    return {
        "n": int(graph.n),
        "m": int(graph.m),
        "deg1_share": round(float(np.mean(degrees == 1)), 4),
        "deg2_share": round(float(np.mean(degrees == 2)), 4),
    }


def monitored_group(graph, size: int = 4) -> list:
    """The ``size`` highest-degree nodes (ties broken by id)."""
    degrees = np.asarray(graph.degrees)
    order = np.lexsort((np.arange(graph.n), -degrees))
    return sorted(int(v) for v in order[:size])
