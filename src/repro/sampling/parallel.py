"""Batch forest sampling: lockstep vectorised kernel with a scalar fallback.

The paper stresses that both algorithms are "pleasingly parallelizable":
every sampled forest is independent, so batches can be drawn together.  This
module provides the batching front end:

* :func:`batched_seeds` — derive independent child seeds from one master seed
  so scalar-path results are reproducible;
* :func:`sample_forest_batch` — draw a batch, dispatching to the lockstep
  vectorised kernel of :mod:`repro.sampling.batch` by default.  The scalar
  per-forest path remains as the fallback for batches whose lockstep state
  would not fit comfortably in memory, and as the chi-square reference the
  lockstep kernel is tested against.

The estimator accumulators consume forests one at a time (or a
:class:`~repro.sampling.batch.ForestBatch` at once), so the batching layer is
deliberately independent of them: callers draw a batch and fold it in,
keeping the statistical code single-threaded and simple.
"""


from __future__ import annotations

from typing import List, Sequence

from repro.exceptions import InvalidParameterError
from repro.graph.graph import Graph
from repro.sampling.batch import (
    LOCKSTEP_STATE_LIMIT,
    sample_forest_batch_vectorized,
)
from repro.sampling.forest import Forest
from repro.sampling.wilson import sample_rooted_forest
from repro.utils.rng import RandomState, as_rng


def batched_seeds(seed: RandomState, count: int) -> List[int]:
    """Derive ``count`` independent integer seeds from a master seed."""
    if count < 0:
        raise InvalidParameterError("count must be non-negative")
    rng = as_rng(seed)
    return [int(value) for value in rng.integers(0, 2**62, size=count)]


def sample_forest_batch(graph: Graph, roots: Sequence[int], count: int,
                        seed: RandomState = None,
                        method: str = "auto") -> List[Forest]:
    """Sample ``count`` independent rooted forests as one batch.

    Parameters
    ----------
    graph, roots:
        Sampling target, as in :func:`repro.sampling.sample_rooted_forest`.
    count:
        Number of forests.
    seed:
        Master seed.  The lockstep path consumes one stream for the whole
        batch; the scalar path derives per-forest seeds with
        :func:`batched_seeds`.  (The two paths draw different — equally
        distributed — batches for the same seed.)
    method:
        ``"lockstep"`` forces the vectorised kernel, ``"scalar"`` the
        per-forest loop; the default ``"auto"`` picks lockstep unless the
        batch state ``count * n`` exceeds
        :data:`repro.sampling.batch.LOCKSTEP_STATE_LIMIT` entries, in which
        case the scalar path takes over.
    """
    if count < 0:
        raise InvalidParameterError(f"count must be non-negative, got {count}")
    method = str(method).lower()
    if method not in ("auto", "lockstep", "scalar"):
        raise InvalidParameterError(
            f"method must be 'auto', 'lockstep' or 'scalar', got {method!r}"
        )
    if method == "auto":
        method = "lockstep" if count * graph.n <= LOCKSTEP_STATE_LIMIT else "scalar"
    if method == "lockstep":
        return sample_forest_batch_vectorized(graph, roots, count, seed=seed).forests()

    return [sample_rooted_forest(graph, roots, seed=s)
            for s in batched_seeds(seed, count)]
