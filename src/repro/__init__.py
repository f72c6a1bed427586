"""repro — optimal and progressive online search of top-k influential communities.

A faithful, from-scratch Python reproduction of

    Fei Bi, Lijun Chang, Xuemin Lin, Wenjie Zhang.
    "An Optimal and Progressive Approach to Online Search of Top-K
    Influential Communities." PVLDB 11(9), 2018 (arXiv:1711.05857).

Quickstart
----------
>>> from repro import WeightedGraph, top_k_influential_communities
>>> g = WeightedGraph.from_edges(
...     [("a", "b"), ("a", "c"), ("b", "c"), ("b", "d"), ("c", "d")],
...     weights={"a": 4.0, "b": 3.0, "c": 2.0, "d": 1.0},
... )
>>> result = top_k_influential_communities(g, k=1, gamma=2)
>>> sorted(result.communities[0].vertices)
['a', 'b', 'c', 'd']

Progressive search (no ``k`` needed)::

    from repro import LocalSearchP
    for community in LocalSearchP(graph, gamma=10).stream():
        ...  # communities arrive in decreasing influence order

The serving API — one typed :class:`QuerySpec`, one lazy
:class:`ResultSet`, the same surface in-process and over the wire::

    import repro

    with repro.open() as rp:                     # or repro.connect(port=...)
        rs = rp.graph("email").topk(k=10, gamma=5)
        top3 = rs[:3]                            # cache slice
        rs.extend_to(20)                         # cursor resume, no rework

See ``DESIGN.md`` for the full system inventory and ``EXPERIMENTS.md`` for
the paper-versus-measured record of every table and figure.
"""

from .core import (
    Community,
    LocalSearch,
    LocalSearchP,
    LocalSearchTruss,
    SearchStats,
    TopKResult,
    TrussCommunity,
    TrussResult,
    global_search_truss,
    progressive_influential_communities,
    top_k_influential_communities,
    top_k_noncontainment_communities,
    top_k_truss_communities,
)
from .errors import (
    DatasetError,
    DuplicateWeightError,
    GraphConstructionError,
    QueryParameterError,
    ReproError,
    SelfLoopError,
    StorageError,
    UnknownVertexError,
)
from .graph import GraphBuilder, PrefixView, WeightedGraph, graph_from_arrays
from .service import (
    CommunityView,
    GraphRegistry,
    QueryEngine,
    QueryResult,
    ResultCache,
    ServiceMetrics,
    SessionManager,
)
from .core.count import construct_cvs
from .api import QuerySpec, ResultSet
from .api.facade import Graph, Repro, connect
from .api.facade import open  # noqa: A004 — the facade entry point deliberately mirrors the builtin's name

__version__ = "1.2.0"

__all__ = [
    "__version__",
    # graph substrate
    "WeightedGraph",
    "GraphBuilder",
    "graph_from_arrays",
    "PrefixView",
    # core search API
    "top_k_influential_communities",
    "progressive_influential_communities",
    "top_k_noncontainment_communities",
    "top_k_truss_communities",
    "global_search_truss",
    "construct_cvs",
    "LocalSearch",
    "LocalSearchP",
    "LocalSearchTruss",
    "Community",
    "TrussCommunity",
    "TopKResult",
    "TrussResult",
    "SearchStats",
    # public query API (repro.api)
    "QuerySpec",
    "ResultSet",
    "Repro",
    "Graph",
    "open",
    "connect",
    # service layer
    "GraphRegistry",
    "QueryEngine",
    "ResultCache",
    "SessionManager",
    "ServiceMetrics",
    "QueryResult",
    "CommunityView",
    # errors
    "ReproError",
    "GraphConstructionError",
    "DuplicateWeightError",
    "SelfLoopError",
    "UnknownVertexError",
    "QueryParameterError",
    "StorageError",
    "DatasetError",
]
