"""Rooted spanning-forest sampling and importance-weighted forest pools."""

from repro.sampling.batch import (
    ForestBatch,
    LOCKSTEP_STATE_LIMIT,
    sample_forest_batch_vectorized,
)
from repro.sampling.pool import (
    WeightedForestPool,
    edge_inclusion_prior,
    node_internal_prior,
)

__all__ = [
    "WeightedForestPool",
    "edge_inclusion_prior",
    "node_internal_prior",
    "ForestBatch",
    "LOCKSTEP_STATE_LIMIT",
    "sample_forest_batch_vectorized",
]
