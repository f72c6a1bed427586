"""Forward — the state-of-the-art global online-search baseline [8].

Chen et al.'s Forward improves OnlineAll by skipping the per-iteration
connected-component computation: it performs the full minimum-weight peel
once (recording the removal order — effectively CountIC's ``keys``/``cvs``
over the *whole* graph) and materialises components only for the last
``k`` iterations, whose communities are the answer.

In this code base that is precisely "run the keynode peel globally, then
EnumIC on the last k keynodes" — Forward is LocalSearch without locality.
It remains a global algorithm: its cost is Θ(size(G)) regardless of ``k``
and γ, which is the flat line of Figures 8 and 9.

The module also provides the non-containment variant used in Eval-VII.
"""

from __future__ import annotations

import time
from typing import Optional

from ..errors import QueryParameterError
from ..graph.subgraph import PrefixView
from ..graph.weighted_graph import WeightedGraph
from ..core.count import construct_cvs
from ..core.enumerate import enumerate_top_k
from ..core.local_search import SearchStats, TopKResult
from ..core.noncontainment import noncontainment_communities_from_record

__all__ = ["forward", "forward_noncontainment"]


def forward(
    graph: WeightedGraph, k: int, gamma: int, kernel: Optional[str] = None
) -> TopKResult:
    """Run Forward: one global peel, then communities of the last ``k``.

    ``kernel`` selects the peel kernel (``None`` defers to
    ``$REPRO_KERNEL``), as for :func:`~repro.core.count.construct_cvs`.
    """
    if k < 1:
        raise QueryParameterError("k must be at least 1")
    if gamma < 1:
        raise QueryParameterError("gamma must be at least 1")
    started = time.perf_counter()
    view = PrefixView.whole(graph)
    stats = SearchStats(gamma=gamma, k=k, graph_size=graph.size)
    stats.prefixes.append(view.p)
    stats.prefix_sizes.append(view.size)
    record = construct_cvs(view, gamma, kernel=kernel)
    stats.counts.append(record.num_communities)
    communities = enumerate_top_k(graph, record, k)
    stats.elapsed_seconds = time.perf_counter() - started
    return TopKResult(communities=communities, stats=stats, record=record)


def forward_noncontainment(
    graph: WeightedGraph, k: int, gamma: int
) -> TopKResult:
    """Forward's non-containment variant [8] (baseline of Eval-VII)."""
    if k < 1:
        raise QueryParameterError("k must be at least 1")
    started = time.perf_counter()
    view = PrefixView.whole(graph)
    stats = SearchStats(gamma=gamma, k=k, graph_size=graph.size)
    stats.prefixes.append(view.p)
    stats.prefix_sizes.append(view.size)
    record = construct_cvs(view, gamma, track_noncontainment=True)
    stats.counts.append(record.num_noncontainment)
    communities = noncontainment_communities_from_record(graph, record, k)
    stats.elapsed_seconds = time.perf_counter() - started
    return TopKResult(communities=communities, stats=stats, record=record)
