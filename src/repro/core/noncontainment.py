"""Non-containment influential community search (Section 5.1).

An influential γ-community is *non-containment* (Definition 5.1) when none
of its subgraphs is itself an influential γ-community.  The set of all
non-containment communities is pairwise disjoint.

The paper's adaptation of the framework: a keynode ``u`` is a
**non-containment keynode** iff every vertex removed by ``Remove(u)``
(Algorithm 2) ends the procedure with no surviving neighbour; the
corresponding community is then exactly the group ``gp(u)`` — no child
links.  The peel (:func:`repro.core.count.peel_cvs`) computes these flags
when ``track_noncontainment`` is set; this module wraps the LocalSearch
doubling loop around the NC count.

The subgraph ``G>=tau*`` needed for ``k`` NC communities is never smaller
than the one for ``k`` ordinary communities (NC keynodes are a subset of
keynodes), so NC queries are expected to be somewhat slower — Eval-VII.
"""

from __future__ import annotations

import math
import time
from typing import List, Optional

from ..errors import QueryParameterError, check_delta
from ..graph.subgraph import PrefixView
from ..graph.weighted_graph import WeightedGraph
from .community import Community
from .count import CVSRecord, construct_cvs
from .fastpeel import PeelScratch, resolve_kernel
from .local_search import SearchStats, TopKResult

__all__ = [
    "noncontainment_communities_from_record",
    "top_k_noncontainment_communities",
]


def noncontainment_communities_from_record(
    graph: WeightedGraph, record: CVSRecord, k: Optional[int] = None
) -> List[Community]:
    """Extract the top-``k`` NC communities from a tracked peel record.

    Communities are returned in decreasing influence order; each is its
    keynode's group with no children.
    """
    if record.noncontainment is None:
        raise QueryParameterError(
            "record was peeled without track_noncontainment=True"
        )
    out: List[Community] = []
    flags = record.noncontainment
    for i in range(len(record.keys) - 1, -1, -1):
        if not flags[i]:
            continue
        out.append(
            Community(
                graph,
                keynode=record.keys[i],
                gamma=record.gamma,
                own_vertices=record.group(i),
                children=[],
            )
        )
        if k is not None and len(out) >= k:
            break
    return out


def top_k_noncontainment_communities(
    graph: WeightedGraph,
    k: int,
    gamma: int,
    delta: float = 2.0,
    kernel: Optional[str] = None,
) -> TopKResult:
    """Top-``k`` non-containment influential γ-communities (LocalSearch loop).

    Same doubling framework as Algorithm 1, with CountIC replaced by the
    NC-keynode count; time complexity ``O(size(G>=tau*_NC))`` where
    ``tau*_NC`` is the largest threshold whose subgraph holds ``k`` NC
    communities (Section 5.1).
    """
    if k < 1:
        raise QueryParameterError("k must be at least 1")
    if gamma < 1:
        raise QueryParameterError("gamma must be at least 1")
    check_delta(delta)

    started = time.perf_counter()
    resolved = resolve_kernel(kernel)
    stats = SearchStats(
        gamma=gamma, k=k, delta=delta, graph_size=graph.size, kernel=resolved
    )
    # The round whose prefix reaches ``stop`` holds every community
    # (see LocalSearchP.stream); an empty γ-core needs no round.
    stop = graph.core_stop(gamma)
    if stop == 0:
        stats.elapsed_seconds = time.perf_counter() - started
        return TopKResult(communities=[], stats=stats)
    n = graph.num_vertices
    p = min(n, k + gamma)
    scratch = PeelScratch() if resolved != "python" else None
    view: Optional[PrefixView] = None
    while True:
        view = PrefixView(graph, p) if view is None else view.extend(p)
        record = construct_cvs(
            view,
            gamma,
            track_noncontainment=True,
            kernel=resolved,
            scratch=scratch,
        )
        count = record.num_noncontainment
        stats.prefixes.append(p)
        stats.prefix_sizes.append(view.size)
        stats.counts.append(count)
        if count >= k or p >= stop:
            break
        target = int(math.ceil(delta * view.size))
        p = max(graph.grow_prefix(p, target), min(p + 1, n))

    communities = noncontainment_communities_from_record(graph, record, k)
    stats.elapsed_seconds = time.perf_counter() - started
    return TopKResult(communities=communities, stats=stats, record=record)
