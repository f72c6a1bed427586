"""The online query-serving layer (DESIGN: service subsystem).

The algorithm layer answers *one* query optimally; this package makes
*many* queries against long-lived graphs cheap:

* :mod:`~repro.service.registry` — named, versioned, thread-safe graph
  handles; construction is paid once per graph, not per query;
* :mod:`~repro.service.engine` — planner + dispatcher normalising every
  algorithm's output into serializable results;
* :mod:`~repro.service.cache` — LRU result reuse exploiting the
  progressive order (``k' <= k`` is a slice, ``k' > k`` *resumes*);
* :mod:`~repro.service.sessions` — progressive streaming sessions with
  TTL eviction (the paper's "no k needed" workflow, served);
* :mod:`~repro.service.metrics` — hit rates, latency percentiles,
  lifecycle counters;
* :mod:`~repro.service.shell` — the ``repro serve`` line protocol.

Queries arrive as :class:`repro.api.QuerySpec` objects; most callers
should prefer the public facade — ``repro.open()`` — over wiring these pieces by hand.

Quickstart::

    from repro.api import QuerySpec
    from repro.service import GraphRegistry, QueryEngine, ResultCache

    registry = GraphRegistry()           # stand-in datasets pre-registered
    engine = QueryEngine(registry, cache=ResultCache())
    result = engine.execute(QuerySpec(graph="email", gamma=5, k=10))
    result.to_json()
"""

from .cache import CacheKey, CacheStats, ResultCache
from .engine import QueryEngine, QueryPlan
from .metrics import ServiceMetrics, percentile
from .model import ALGORITHMS, AUTO, CommunityView, QueryResult
from .registry import GraphHandle, GraphRegistry
from .sessions import Session, SessionManager
from .shell import ServiceShell

__all__ = [
    "ALGORITHMS",
    "AUTO",
    "CacheKey",
    "CacheStats",
    "CommunityView",
    "GraphHandle",
    "GraphRegistry",
    "QueryEngine",
    "QueryPlan",
    "QueryResult",
    "ResultCache",
    "ServiceMetrics",
    "ServiceShell",
    "Session",
    "SessionManager",
    "percentile",
]
