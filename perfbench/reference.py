"""Correctness references, computed outside every timed region.

The reference group CFCC is ``n / Tr(inv(L_{-S}))`` from a Cholesky
factorisation of the grounded Laplacian, built here from a plain edge list,
so it shares no code with the engine's trackers or backends.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

import numpy as np
import scipy.linalg as la


def group_cfcc(nodes: Sequence[int], edges: Iterable[Tuple[int, int]],
               group: Sequence[int]) -> float:
    """Exact group CFCC of ``group`` on the unit-weight graph ``(nodes, edges)``."""
    grounded = set(int(v) for v in group)
    kept = [int(v) for v in nodes if int(v) not in grounded]
    position = {v: i for i, v in enumerate(kept)}
    size = len(kept)
    matrix = np.zeros((size, size))
    for u, v in edges:
        pu, pv = position.get(int(u)), position.get(int(v))
        if pu is not None:
            matrix[pu, pu] += 1.0
        if pv is not None:
            matrix[pv, pv] += 1.0
        if pu is not None and pv is not None:
            matrix[pu, pv] -= 1.0
            matrix[pv, pu] -= 1.0
    factor = la.cholesky(matrix, lower=True, overwrite_a=True, check_finite=False)
    inverse_factor = la.solve_triangular(factor, np.eye(size), lower=True,
                                         overwrite_b=True, check_finite=False)
    trace = float(np.einsum("ij,ij->", inverse_factor, inverse_factor))
    return (size + len(grounded)) / trace


def graph_edges(graph) -> list:
    """Edge list of a static :class:`repro.Graph`."""
    return list(zip(graph.edge_u.tolist(), graph.edge_v.tolist()))


def relative_error(value: float, reference: float) -> float:
    return abs(value / reference - 1.0)
