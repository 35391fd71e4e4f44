#!/usr/bin/env python
"""Lint: docs/observability.md must document every registered metric.

The metric reference in ``docs/observability.md`` claims to be complete;
this check keeps that claim honest.  It imports every instrumented module
(registering the module-level ``repro_*`` histograms/counters/gauges on the
default registry), binds engine and service health collectors on tiny real
instances (registering the health gauge families, whose names are built
with f-strings and therefore invisible to a literal grep), and then fails
if any registered metric name is missing from the docs page.

Documented-but-unregistered names are reported as warnings only: the docs
may legitimately mention metric names in prose before code lands, but a
*registered* metric without documentation is a broken contract.

Exit status is non-zero on missing documentation (CI gates on it)::

    PYTHONPATH=src python scripts/check_docs_metrics.py
"""

from __future__ import annotations

import re
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DOCS = REPO / "docs" / "observability.md"
NAME = re.compile(r"\brepro_[a-z0-9_]+\b")


def registered_metric_names() -> set:
    """Every metric name the registry can expose, by actually registering it."""
    # Module-level metrics register at import time.
    import repro.distributed.backend  # noqa: F401
    import repro.dynamic.engine      # noqa: F401
    import repro.dynamic.resistance  # noqa: F401
    import repro.linalg.backends     # noqa: F401
    import repro.sampling.batch      # noqa: F401
    import repro.service.service     # noqa: F401

    from repro import obs
    from repro.dynamic import DynamicCFCM, DynamicGraph
    from repro.graph import generators
    from repro.service import AsyncCFCMService

    # Health gauges register at bind time; bind tiny real components so the
    # dynamically-built gauge names (f-strings in repro.obs.health) exist.
    graph = DynamicGraph(generators.cycle_graph(8))
    engine = DynamicCFCM(graph, seed=0)
    service = AsyncCFCMService(generators.cycle_graph(8), seed=0)
    unbinders = [obs.bind_engine_health(engine),
                 obs.bind_service_health(service)]
    try:
        names = {metric.name for metric in obs.REGISTRY.metrics()
                 if metric.name.startswith("repro_")}
    finally:
        for unbind in unbinders:
            unbind()
    return names


def documented_metric_names() -> set:
    if not DOCS.exists():
        return set()
    return set(NAME.findall(DOCS.read_text(encoding="utf-8")))


def main() -> int:
    if not DOCS.exists():
        print(f"[check_docs_metrics] missing {DOCS.relative_to(REPO)}")
        return 1
    registered = registered_metric_names()
    documented = documented_metric_names()
    missing = sorted(registered - documented)
    stale = sorted(documented - registered)
    if stale:
        print("[check_docs_metrics] warning: documented but not registered "
              "(prose-only or future names):")
        for name in stale:
            print(f"  {name}")
    if missing:
        print("[check_docs_metrics] registered metrics missing from "
              "docs/observability.md:")
        for name in missing:
            print(f"  {name}")
        return 1
    print(f"[check_docs_metrics] OK: all {len(registered)} registered "
          "repro_* metrics are documented")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
