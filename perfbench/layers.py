"""Per-layer instrumentation of the traced run.

``instrument()`` wraps the public calls into each layer in spans of the
program's own tracer (``repro.obs.tracing``), so benchmark spans and the
spans the program already emits (``sampling.lockstep``, ``estimator.fold``,
``pool.topup``, ``service.evaluate``, ...) land in one buffer with correct
parent links.  ``Spans`` then folds that buffer into per-layer numbers for a
time window.  Nothing here runs in an untraced run.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, List, Optional

from repro.centrality import estimators
from repro.dynamic import engine as engine_module
from repro.dynamic.engine import DynamicCFCM
from repro.dynamic.graph import DynamicGraph
from repro.dynamic.resistance import IncrementalResistance
from repro.obs import tracing
from repro.utils.timer import clock

SPAN_CAPACITY = 1 << 20

# (owner, attribute, span name): the public calls timed from here.
WRAPPED = (
    (DynamicGraph, "add_edge", "bench.graph.add_edge"),
    (DynamicGraph, "remove_edge", "bench.graph.remove_edge"),
    (DynamicGraph, "add_node", "bench.graph.add_node"),
    (DynamicGraph, "remove_node", "bench.graph.remove_node"),
    (IncrementalResistance, "sync", "bench.linalg.sync"),
    (IncrementalResistance, "group_cfcc", "bench.linalg.group_cfcc"),
    (estimators.ForestAccumulator, "add_batch", "bench.estimator.add_batch"),
    (estimators, "sample_forest_batch_vectorized", "bench.sampling.draw"),
    (engine_module, "sample_forest_batch_vectorized", "bench.sampling.draw"),
)


def _spanned(function: Callable, name: str) -> Callable:
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        with tracing.trace(name):
            return function(*args, **kwargs)
    return wrapper


class Instrumentation:
    """Installs the wrappers and the tracer; ``close()`` restores both."""

    def __init__(self):
        self.trackers: List[tuple] = []  # (creation time, tracker)
        self.read_starts: Dict[int, float] = {}
        self._saved = []
        for owner, attribute, name in WRAPPED:
            original = getattr(owner, attribute)
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, _spanned(original, name))
        # Every tracker a run builds, so refresh counts survive evictions.
        original_init = IncrementalResistance.__init__
        trackers = self.trackers

        def init(tracker, *args, **kwargs):
            original_init(tracker, *args, **kwargs)
            trackers.append((clock(), tracker))
        self._saved.append((IncrementalResistance, "__init__", original_init))
        IncrementalResistance.__init__ = init
        # Service reads carry a request id on their group; the engine call
        # marks when a worker actually started on the request.
        original_evaluate = DynamicCFCM.evaluate
        starts = self.read_starts

        def evaluate(engine, group, mode="exact"):
            rid = getattr(group, "rid", None)
            if rid is not None:
                starts[rid] = clock()
            return original_evaluate(engine, group, mode)
        self._saved.append((DynamicCFCM, "evaluate", original_evaluate))
        DynamicCFCM.evaluate = evaluate
        self.tracer = tracing.enable_tracing(capacity=SPAN_CAPACITY)

    def close(self) -> None:
        tracing.disable_tracing()
        for owner, attribute, original in reversed(self._saved):
            setattr(owner, attribute, original)
        self._saved = []

    def trackers_between(self, start: float, end: float) -> List[IncrementalResistance]:
        return [tracker for created, tracker in self.trackers if start <= created < end]

    def spans(self, start: float, end: float) -> "Spans":
        return Spans([s for s in self.tracer.spans() if start <= s["start"] < end])


class Spans:
    """Spans of one time window, with self time from parent links."""

    def __init__(self, records: List[dict]):
        self.records = records
        children: Dict[int, float] = {}
        for record in records:
            parent = record["parent_id"]
            if parent is not None:
                children[parent] = children.get(parent, 0.0) + record["elapsed"]
        self._child_time = children

    def named(self, name: str, top_only: bool = False) -> List[dict]:
        """Spans called ``name``; ``top_only`` drops ones nested in another."""
        records = [r for r in self.records if r["name"] == name]
        if top_only:
            ids = {r["span_id"] for r in records}
            records = [r for r in records if r["parent_id"] not in ids]
        return records

    def total(self, name: str, top_only: bool = True) -> float:
        return float(sum(r["elapsed"] for r in self.named(name, top_only)))

    def times_ms(self, name: str, self_time: bool = False) -> List[float]:
        values = []
        for record in self.named(name):
            elapsed = record["elapsed"]
            if self_time:
                elapsed -= self._child_time.get(record["span_id"], 0.0)
            values.append(1000.0 * elapsed)
        return values

    def count(self, name: str, error: Optional[str] = None) -> int:
        return sum(1 for r in self.named(name)
                   if error is None or r.get("attrs", {}).get("error") == error)

    def attr_sum(self, name: str, attribute: str) -> int:
        return int(sum(r.get("attrs", {}).get(attribute, 0) for r in self.named(name)))

