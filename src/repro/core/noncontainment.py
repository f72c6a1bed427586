"""Non-containment influential community search (Section 5.1).

An influential γ-community is *non-containment* (Definition 5.1) when none
of its subgraphs is itself an influential γ-community.  The set of all
non-containment communities is pairwise disjoint.

The paper's adaptation of the framework: a keynode ``u`` is a
**non-containment keynode** iff every vertex removed by ``Remove(u)``
(Algorithm 2) ends the procedure with no surviving neighbour; the
corresponding community is then exactly the group ``gp(u)`` — no child
links.  The peel (:func:`repro.core.count.peel_cvs`) computes these flags
when ``track_noncontainment`` is set.  The search runs on the shared
prefix-round loop (:class:`~repro.core.rounds.PrefixRounds`) with the
NC count as its count step, so it ends, like LocalSearch, at the first
round whose prefix holds the γ-core, and reports the same kernel phases.

The subgraph ``G>=tau*`` needed for ``k`` NC communities is never smaller
than the one for ``k`` ordinary communities (NC keynodes are a subset of
keynodes), so NC queries are expected to be somewhat slower — Eval-VII.
"""

from __future__ import annotations

import time
from itertools import islice
from typing import Iterator, List, Optional

from ..errors import QueryParameterError, check_delta
from ..graph.subgraph import PrefixView
from ..graph.weighted_graph import WeightedGraph
from ..obs.trace import record_phase
from .community import Community
from .count import CVSRecord
from .local_search import TopKResult
from .rounds import PrefixRounds

__all__ = [
    "iter_noncontainment_communities",
    "noncontainment_communities_from_record",
    "top_k_noncontainment_communities",
]


def iter_noncontainment_communities(
    graph: WeightedGraph, record: CVSRecord
) -> Iterator[Community]:
    """The NC communities of a tracked peel record, lazily.

    Communities come in decreasing influence order; each is its
    keynode's group with no children.
    """
    if record.noncontainment is None:
        raise QueryParameterError(
            "record was peeled without track_noncontainment=True"
        )
    flags = record.noncontainment
    for i in range(len(record.keys) - 1, -1, -1):
        if flags[i]:
            yield Community(
                graph,
                keynode=record.keys[i],
                gamma=record.gamma,
                own_vertices=record.group(i),
                children=[],
            )


def noncontainment_communities_from_record(
    graph: WeightedGraph, record: CVSRecord, k: Optional[int] = None
) -> List[Community]:
    """The top-``k`` NC communities of a tracked peel record (all of
    them if ``k`` is ``None``), in decreasing influence order."""
    return list(islice(iter_noncontainment_communities(graph, record), k))


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
    rounds = PrefixRounds(graph, gamma, delta, kernel, k=k)

    def count(view: PrefixView, _p_prev: int):
        record = rounds.peel(view, gamma, track_noncontainment=True)
        return record.num_noncontainment, record

    record = rounds.last(k + gamma, count)
    communities: List[Community] = []
    if record is not None:
        started = time.perf_counter()
        communities = noncontainment_communities_from_record(graph, record, k)
        record_phase(
            "enumerate", time.perf_counter() - started, rounds.stats.phases
        )
    return TopKResult(communities, rounds.finish(), record)
