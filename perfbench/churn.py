"""Benchmark-owned churn: deletions are drawn from edges that exist.

The library's random-update helpers draw "deletions" as random node pairs,
which are rarely edges of a sparse graph, so they fall back to insertions.
This generator keeps its own mirror of the live edge and node sets, so every
deletion targets a real edge and every node leave a real node.  Deletions and
leaves never touch the protected (monitored) group.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

# Events per block of 32 (~40% insert, 40% delete, 10% join, 10% leave).
# The order of kinds is one fixed shuffle of the block, repeated, so every run
# has the same kind sequence; the seed picks the edges and nodes.  Node leaves
# flush the forest pools, so their spacing sets how much pool work a run does.
MIX = (("insert", 13), ("delete", 13), ("join", 3), ("leave", 3))
PATTERN_SEED = 0
JOIN_DEGREE = 3


class IndexedSet:
    """A set with O(1) add, discard and uniform sampling."""

    def __init__(self, items: Iterable = ()):
        self.items: list = []
        self.index: dict = {}
        for item in items:
            self.add(item)

    def __len__(self) -> int:
        return len(self.items)

    def __contains__(self, item) -> bool:
        return item in self.index

    def add(self, item) -> None:
        if item not in self.index:
            self.index[item] = len(self.items)
            self.items.append(item)

    def discard(self, item) -> None:
        slot = self.index.pop(item, None)
        if slot is None:
            return
        last = self.items.pop()
        if slot < len(self.items):
            self.items[slot] = last
            self.index[last] = slot

    def sample(self, rng: np.random.Generator):
        return self.items[int(rng.integers(len(self.items)))]


def _key(u: int, v: int) -> Tuple[int, int]:
    return (u, v) if u < v else (v, u)


class ChurnGenerator:
    """Draws unit-weight churn events against a mirror of the live graph."""

    def __init__(self, edges: Iterable[Tuple[int, int]], nodes: Iterable[int],
                 protected: Sequence[int], rng: np.random.Generator):
        self.edges = IndexedSet(_key(int(u), int(v)) for u, v in edges)
        self.nodes = IndexedSet(int(v) for v in nodes)
        self.adjacency: dict = {v: set() for v in self.nodes.items}
        for u, v in self.edges.items:
            self.adjacency[u].add(v)
            self.adjacency[v].add(u)
        self.protected = set(int(v) for v in protected)
        self.rng = rng
        block = [kind for kind, count in MIX for _ in range(count)]
        order = np.random.default_rng(PATTERN_SEED).permutation(len(block))
        self.pattern = [block[i] for i in order]
        self.drawn = 0

    # ------------------------------------------------------------- drawing
    def draw(self) -> Tuple[str, tuple]:
        kind = self.pattern[self.drawn % len(self.pattern)]
        self.drawn += 1
        return kind, getattr(self, "_draw_" + kind)()

    def _draw_insert(self) -> tuple:
        while True:
            u, v = self.nodes.sample(self.rng), self.nodes.sample(self.rng)
            if u != v and _key(u, v) not in self.edges:
                return _key(u, v)

    def _draw_delete(self) -> tuple:
        while True:
            u, v = self.edges.sample(self.rng)
            if u not in self.protected and v not in self.protected:
                return (u, v)

    def _draw_join(self) -> tuple:
        picks = set()
        while len(picks) < JOIN_DEGREE:
            picks.add(self.nodes.sample(self.rng))
        return (tuple(sorted(picks)),)

    def _draw_leave(self) -> tuple:
        while True:
            node = self.nodes.sample(self.rng)
            if node not in self.protected:
                return (node,)

    # ------------------------------------------------------------ mirroring
    def applied(self, kind: str, args: tuple, new_node: Optional[int] = None) -> None:
        """Mirror an accepted event (``new_node`` is the id a join minted)."""
        if kind == "insert":
            self._link(*args)
        elif kind == "delete":
            self._unlink(*args)
        elif kind == "join":
            self.nodes.add(new_node)
            self.adjacency[new_node] = set()
            for neighbour in args[0]:
                self._link(new_node, neighbour)
        else:
            (node,) = args
            for neighbour in list(self.adjacency[node]):
                self._unlink(node, neighbour)
            del self.adjacency[node]
            self.nodes.discard(node)

    def _link(self, u: int, v: int) -> None:
        self.edges.add(_key(u, v))
        self.adjacency[u].add(v)
        self.adjacency[v].add(u)

    def _unlink(self, u: int, v: int) -> None:
        self.edges.discard(_key(u, v))
        self.adjacency[u].discard(v)
        self.adjacency[v].discard(u)

    # --------------------------------------------------------------- checks
    def disconnects(self, kind: str, args: tuple) -> bool:
        """Whether ``kind`` would disconnect the mirror (SciPy components)."""
        if kind == "delete":
            skip_edge, skip_node = _key(*args), None
        else:
            skip_edge, skip_node = None, args[0]
        nodes = [v for v in self.nodes.items if v != skip_node]
        position = {v: i for i, v in enumerate(nodes)}
        pairs = [(position[u], position[v]) for u, v in self.edges.items
                 if (u, v) != skip_edge and skip_node not in (u, v)]
        rows = np.array([p[0] for p in pairs], dtype=np.int64)
        cols = np.array([p[1] for p in pairs], dtype=np.int64)
        matrix = sp.coo_matrix((np.ones(len(pairs)), (rows, cols)),
                               shape=(len(nodes), len(nodes)))
        count, _ = connected_components(matrix, directed=False)
        return count > 1


def service_writes(edges: Iterable[Tuple[int, int]], nodes: List[int],
                   count: int, rng: np.random.Generator) -> List[Tuple[str, tuple]]:
    """``count`` edge writes that can never be refused.

    Writes alternate between inserting a new edge and deleting an edge this
    list inserted earlier.  The base graph's edges are never deleted, so no
    write can disconnect the graph.
    """
    present = set(_key(int(u), int(v)) for u, v in edges)
    inserted = IndexedSet()
    writes = []
    for index in range(count):
        if index % 2:
            edge = inserted.sample(rng)
            inserted.discard(edge)
            present.discard(edge)
            writes.append(("delete", edge))
            continue
        while True:
            u, v = (int(nodes[i]) for i in rng.integers(0, len(nodes), 2))
            if u != v and _key(u, v) not in present:
                break
        edge = _key(u, v)
        present.add(edge)
        inserted.add(edge)
        writes.append(("insert", edge))
    return writes


def apply_event(graph, kind: str, args: tuple):
    """Apply one event to a :class:`repro.dynamic.DynamicGraph`."""
    if kind == "insert":
        return graph.add_edge(*args)
    if kind == "delete":
        return graph.remove_edge(*args)
    if kind == "join":
        return graph.add_node(list(args[0]))
    return graph.remove_node(args[0])
