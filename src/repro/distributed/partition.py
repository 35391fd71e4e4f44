"""Row partitioner of the sharded backend: balanced parts plus a vertex separator.

The sharded backend needs the rows of a grounded Laplacian ``L_{-S}`` split so
that its interior block is *block diagonal* by shard.  Rows ``r`` and ``c``
are adjacent when ``L_{-S}[r, c] != 0`` for ``r != c``; block diagonality
holds exactly when no such pair joins the interiors of two different parts,
so the partition is built in two deterministic stages:

1. **Homes** — balanced multi-source BFS over the sparsity pattern: ``p``
   seed rows, one at the centre of each of ``p`` equal row-index ranges,
   grow their parts one row per round, the currently smallest part
   claiming first, so parts come out within one row of each other in size.
   On row orders with locality (lattices, BFS-ordered inputs) each part
   grows around its own range, which keeps the separator thin.
2. **Separator** — every *cut* pair (endpoints homed to different parts)
   must lose at least one endpoint to the separator ``T``; a greedy vertex
   cover promotes the row covering the most still-uncovered cut pairs (ties
   by row index).  Promoted rows belong to no part.  On mesh-like
   topologies this yields roughly half the rows an edge-cut boundary would
   replicate, and the separator is what the dense Schur complement is sized
   by.

After promotion the defining invariant of the sharded algebra holds:

    every neighbour of an interior row is in the same part or in ``T``.

The grounded group ``S`` is already gone from the matrix, so group members
never need special handling here.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np
import scipy.sparse as sp

from repro.exceptions import InvalidParameterError
from repro.utils.validation import check_integer


@dataclass(frozen=True)
class Partition:
    """A home assignment plus the promoted vertex separator.

    Attributes
    ----------
    home:
        ``(n,)`` part index of **every** row, separator rows included (their
        home records the part they were grown into before promotion).
    parts:
        Per part, the sorted interior row indices (home in that part and not
        promoted).
    separator:
        Sorted separator row indices ``T``.
    """

    home: np.ndarray
    parts: Tuple[np.ndarray, ...]
    separator: np.ndarray

    @property
    def shards(self) -> int:
        return len(self.parts)

    def describe(self) -> Dict[str, object]:
        """Summary dict for logs and bench artifacts."""
        return {
            "shards": self.shards,
            "interior_sizes": [int(part.size) for part in self.parts],
            "separator_nodes": int(self.separator.size),
        }


def partition_rows(matrix, shards: int) -> Partition:
    """Partition the rows of a square sparse ``matrix`` into ``shards`` parts.

    Deterministic for a fixed sparsity pattern: the BFS seeds sit at the
    centres of ``shards`` equal row-index ranges.
    """
    shards = check_integer("shards", shards, minimum=1)
    pattern = sp.csr_matrix(matrix)
    n = pattern.shape[0]
    if shards > n:
        raise InvalidParameterError(f"cannot split {n} rows into {shards} shards")
    indptr = pattern.indptr.tolist()
    indices = pattern.indices.tolist()
    home = assign_homes(indptr, indices, n, shards)
    return promote_separator(indptr, indices, home, shards)


def assign_homes(indptr: List[int], indices: List[int], n: int, shards: int) -> np.ndarray:
    """Balanced multi-source BFS home assignment over the rows."""
    home = [-1] * n
    frontiers: List[deque] = []
    for part in range(shards):
        seed = (2 * part + 1) * n // (2 * shards)
        home[seed] = part
        frontiers.append(deque([seed]))
    sizes = [1] * shards
    assigned = shards
    while assigned < n:
        # The currently smallest part (ties by index) claims exactly one
        # unassigned row off its BFS frontier, so parts stay within one row
        # of each other no matter how badly the seeds are spread.
        claimed = None
        for part in sorted(range(shards), key=lambda p: (sizes[p], p)):
            frontier = frontiers[part]
            while frontier and claimed is None:
                row = frontier[0]
                claimed = next(
                    (c for c in indices[indptr[row] : indptr[row + 1]] if home[c] < 0), None
                )
                if claimed is None:
                    frontier.popleft()  # exhausted; head rotates out
            if claimed is not None:
                home[claimed] = part
                frontier.append(claimed)
                sizes[part] += 1
                assigned += 1
                break
        if claimed is None:
            # Every frontier is exhausted but rows remain: the pattern is
            # disconnected (grounding can split a graph).  Seed the next
            # unclaimed row into the smallest part and keep growing.
            part = min(range(shards), key=lambda p: (sizes[p], p))
            row = home.index(-1)
            home[row] = part
            frontiers[part].append(row)
            sizes[part] += 1
            assigned += 1
    return np.asarray(home, dtype=np.int64)


def promote_separator(
    indptr: List[int], indices: List[int], home: np.ndarray, shards: int
) -> Partition:
    """Promote a greedy vertex cover of the cut pairs into the separator."""
    homes = home.tolist()
    cut: Dict[int, List[int]] = {}
    for row in range(len(homes)):
        for col in indices[indptr[row] : indptr[row + 1]]:
            if homes[col] != homes[row]:
                cut.setdefault(row, []).append(col)
    # Greedy cover: repeatedly promote the row covering the most
    # still-uncovered cut pairs (ties by index), via a lazy max-heap.
    count = {row: len(cols) for row, cols in cut.items()}
    heap = [(-c, row) for row, c in count.items()]
    heapq.heapify(heap)
    promoted = set()
    while heap:
        negative, row = heapq.heappop(heap)
        if row in promoted or -negative != count[row]:
            continue  # stale entry
        if count[row] == 0:
            break
        promoted.add(row)
        for col in cut[row]:
            if col not in promoted:
                count[col] -= 1
                heapq.heappush(heap, (-count[col], col))
    separator = np.asarray(sorted(promoted), dtype=np.int64)
    interior = np.ones(len(homes), dtype=bool)
    interior[separator] = False
    parts = tuple(np.flatnonzero(interior & (home == part)) for part in range(shards))
    return Partition(home=home, parts=parts, separator=separator)
