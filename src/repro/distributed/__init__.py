"""Sharded resistance backend: per-shard inverses stitched by a Schur complement.

:class:`ShardedResistanceBackend` is one more
:class:`repro.linalg.ResistanceBackend`: :func:`partition_rows` splits the
rows of the grounded Laplacian into shard interiors plus a small vertex
separator ``T``, every interior block gets its own inner backend, and global
solves, columns, diagonals and traces are stitched through a dense
``|T| x |T|`` Schur complement — see :mod:`repro.distributed.backend` for the
algebra.  Select it through the engine like any other backend::

    DynamicCFCM(graph, backend="sharded", backend_options={"shards": 4})
"""

from repro.distributed.partition import Partition, partition_rows
from repro.distributed.backend import ShardedResistanceBackend

__all__ = [
    "Partition",
    "partition_rows",
    "ShardedResistanceBackend",
]
