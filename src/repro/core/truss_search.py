"""Influential γ-truss community search (Section 5.2, Algorithms 6 and 7).

The general framework (Algorithm 6) applies to any cohesiveness measure
with the two monotonicity properties of Section 5.2; this module
instantiates it for the **γ-truss** measure: a subgraph has cohesiveness γ
when every edge participates in at least γ − 2 triangles.

* :func:`construct_cvs_truss` — CountICC (Algorithm 7): peel the
  minimum-weight vertex and cascade *edge* removals via triangle-support
  maintenance; ``cvs`` is an edge sequence.
* :func:`enumerate_truss_top_k` — EnumICC: rebuild communities from the
  edge groups, linking a group to already-built communities through shared
  vertices with the same keyed union-find as EnumIC.
* :class:`LocalSearchTruss` — Algorithm 6's doubling loop, run on the
  shared prefix-round loop (:class:`~repro.core.rounds.PrefixRounds`).
  A γ-truss lies in the (γ−1)-core, so the search ends at the first
  round whose prefix holds that core.
* :func:`global_search_truss` — the GlobalSearch-Truss baseline of
  Eval-VIII (CountICC + EnumICC on the entire graph).
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..errors import QueryParameterError, check_delta
from ..graph.disjoint_set import KeyedDisjointSet
from ..graph.subgraph import PrefixView
from ..graph.truss_decomposition import edge_key, edge_supports
from ..graph.weighted_graph import WeightedGraph
from .community import TrussCommunity
from .fastenum import EnumScratch
from .fastpeel import resolve_kernel
from .local_search import TopKResult
from .rounds import PrefixRounds, SearchStats

__all__ = [
    "TrussCVSRecord",
    "construct_cvs_truss",
    "enumerate_truss_top_k",
    "LocalSearchTruss",
    "top_k_truss_communities",
    "global_search_truss",
    "TrussResult",
]

Edge = Tuple[int, int]


@dataclass
class TrussCVSRecord:
    """Output of the truss keynode peel (edge-sequence ``cvs``)."""

    keys: List[int]
    cvs: List[Edge]
    starts: List[int]
    p: int
    gamma: int
    stop_rank: int = 0

    @property
    def num_communities(self) -> int:
        """Number of influential γ-truss communities in the peeled graph."""
        return len(self.keys)

    def group(self, i: int) -> List[Edge]:
        """Edge group of keynode ``keys[i]``."""
        start = self.starts[i]
        stop = self.starts[i + 1] if i + 1 < len(self.starts) else len(self.cvs)
        return self.cvs[start:stop]


def construct_cvs_truss(
    view: PrefixView, gamma: int, stop_rank: int = 0
) -> TrussCVSRecord:
    """CountICC (Algorithm 7): keynodes + edge ``cvs`` of the view.

    1. Reduce the view to its γ-truss (initial removals recorded nowhere).
    2. Repeatedly take the minimum-weight vertex ``u`` (max alive rank),
       append it to ``keys`` and remove all its edges; each removal
       cascades through triangle-support maintenance (``RemoveEdge``),
       appending removed edges to ``cvs``.

    Complexity matches γ-truss computation: O(m · α) triangle work
    (Section 5.2), dominated by the initial support computation.
    """
    if gamma < 2:
        raise QueryParameterError("truss gamma must be at least 2")
    p = view.p
    threshold = gamma - 2

    # --- Line 1: gamma-truss of the view (no recording) -------------------
    adj: List[Set[int]] = [set() for _ in range(p)]
    for u, v in view.iter_edges():
        adj[u].add(v)
        adj[v].add(u)
    support = edge_supports(view, adj)

    removal: deque = deque(e for e, s in support.items() if s < threshold)
    pending: Set[Edge] = set(removal)

    def remove_edges(record_to: Optional[List[Edge]]) -> None:
        """Drain the removal queue, cascading support updates."""
        while removal:
            e = removal.popleft()
            pending.discard(e)
            x, y = e
            if y not in adj[x]:
                continue  # already gone via another cascade
            adj[x].discard(y)
            adj[y].discard(x)
            del support[e]
            if record_to is not None:
                record_to.append(e)
            small, large = (
                (adj[x], adj[y]) if len(adj[x]) <= len(adj[y]) else (adj[y], adj[x])
            )
            for z in small:
                if z in large:
                    for other in (edge_key(x, z), edge_key(y, z)):
                        s = support.get(other)
                        if s is None:
                            continue
                        support[other] = s - 1
                        if s - 1 < threshold and other not in pending:
                            pending.add(other)
                            removal.append(other)

    remove_edges(None)

    # --- main peel ---------------------------------------------------------
    keys: List[int] = []
    cvs: List[Edge] = []
    starts: List[int] = []
    ptr = p - 1
    while True:
        while ptr >= stop_rank and not adj[ptr]:
            ptr -= 1
        if ptr < stop_rank:
            break
        u = ptr
        keys.append(u)
        starts.append(len(cvs))
        # Remove every adjacent edge of u (Lines 7-8 of Algorithm 7).
        for w in list(adj[u]):
            e = edge_key(u, w)
            if e not in pending:
                pending.add(e)
                removal.append(e)
        remove_edges(cvs)

    return TrussCVSRecord(
        keys=keys, cvs=cvs, starts=starts, p=p, gamma=gamma, stop_rank=stop_rank
    )


def enumerate_truss_top_k(
    graph: WeightedGraph,
    record: TrussCVSRecord,
    k: Optional[int] = None,
    state: Optional[KeyedDisjointSet] = None,
    built: Optional[Dict[int, TrussCommunity]] = None,
    kernel: Optional[str] = None,
    scratch: Optional[EnumScratch] = None,
) -> List[TrussCommunity]:
    """EnumICC: top-``k`` truss communities from the edge ``cvs``.

    Processing keynodes in decreasing weight order, the community of ``u``
    is its edge group plus every already-built community sharing a vertex
    with the group — decided by the same keyed union-find as EnumIC, with
    edge endpoints taking the role of group members.  O(size) time.

    ``kernel`` selects the union-find implementation: the flat
    :class:`~repro.core.fastenum.EnumScratch` for ``array`` (the win
    over the dict oracle is the flat stores and inline path-halving),
    the dict-based oracle for ``python`` or whenever an explicit
    ``state``/``built`` is passed.  Unlike vertex groups, an edge
    group's endpoints may already be tracked under a foreign key before
    any assignment under ``u`` happens, so this path exercises the
    union-find's dangling-anchor takeover branch.
    """
    keys = record.keys
    count = len(keys) if k is None else min(k, len(keys))
    out: List[TrussCommunity] = []
    if state is None and built is None and resolve_kernel(kernel) != "python":
        sc = scratch if scratch is not None else EnumScratch()
        sc.begin(graph, record.p, fresh=True)
        communities = sc.communities
        for index in range(len(keys) - 1, len(keys) - 1 - count, -1):
            u = keys[index]
            group = record.group(index)
            children: List[TrussCommunity] = []
            for a, b in group:
                for w in (a, b):
                    key = sc.key_of(w)
                    if key == -1:
                        sc.assign(w, u)
                    elif key != u:
                        children.append(communities[key])
                        sc.union_into(w, u)
            community = TrussCommunity(
                graph, keynode=u, gamma=record.gamma, own_edges=group,
                children=children,
            )
            communities[u] = community
            out.append(community)
        return out
    v2key = state if state is not None else KeyedDisjointSet()
    communities: Dict[int, TrussCommunity] = built if built is not None else {}
    for index in range(len(keys) - 1, len(keys) - 1 - count, -1):
        u = keys[index]
        group = record.group(index)
        children: List[TrussCommunity] = []
        for a, b in group:
            for w in (a, b):
                key = v2key.key_of(w)
                if key is None:
                    v2key.assign(w, u)
                elif key != u:
                    children.append(communities[key])
                    v2key.union_into(w, u)
        community = TrussCommunity(
            graph, keynode=u, gamma=record.gamma, own_edges=group,
            children=children,
        )
        communities[u] = community
        out.append(community)
    return out


#: One result type for every local search: communities plus stats.
TrussResult = TopKResult


class LocalSearchTruss:
    """Algorithm 6 instantiated for the γ-truss measure.

    The truss peel has no flat-kernel variant (its cascade is
    triangle-support maintenance over sets), but the enumeration does:
    ``kernel`` picks the union-find implementation of EnumICC, resolved
    through the same ``REPRO_KERNEL`` chain as the vertex kernels.
    """

    def __init__(
        self,
        graph: WeightedGraph,
        gamma: int,
        delta: float = 2.0,
        kernel: Optional[str] = None,
    ) -> None:
        if gamma < 2:
            raise QueryParameterError("truss gamma must be at least 2")
        check_delta(delta)
        self.graph = graph
        self.gamma = gamma
        self.delta = delta
        self.kernel = kernel

    def search(self, k: int) -> TrussResult:
        """Top-``k`` influential γ-truss communities via the doubling loop."""
        if k < 1:
            raise QueryParameterError("k must be at least 1")
        graph, gamma = self.graph, self.gamma
        # A γ-truss lies in the (γ−1)-core: each truss edge closes γ − 2
        # triangles, so each truss vertex has at least γ − 1 neighbours.
        rounds = PrefixRounds(
            graph, gamma, self.delta, self.kernel, k=k, core=gamma - 1
        )

        def count(view: PrefixView, _p_prev: int):
            record = construct_cvs_truss(view, gamma)
            return record.num_communities, record

        record = rounds.last(k + gamma, count)
        communities: List[TrussCommunity] = []
        if record is not None:
            communities = enumerate_truss_top_k(
                graph, record, k, kernel=rounds.kernel
            )
        return TrussResult(communities, rounds.finish())


def top_k_truss_communities(
    graph: WeightedGraph,
    k: int,
    gamma: int,
    delta: float = 2.0,
    kernel: Optional[str] = None,
) -> TrussResult:
    """Top-``k`` influential γ-truss communities (LocalSearch-Truss)."""
    return LocalSearchTruss(
        graph, gamma=gamma, delta=delta, kernel=kernel
    ).search(k)


def global_search_truss(
    graph: WeightedGraph, k: int, gamma: int, kernel: Optional[str] = None
) -> TrussResult:
    """GlobalSearch-Truss (Eval-VIII): CountICC on the whole graph + EnumICC."""
    started = time.perf_counter()
    kernel = resolve_kernel(kernel)
    stats = SearchStats(gamma=gamma, k=k, graph_size=graph.size, kernel=kernel)
    view = PrefixView.whole(graph)
    record = construct_cvs_truss(view, gamma)
    stats.prefixes.append(view.p)
    stats.prefix_sizes.append(view.size)
    stats.counts.append(record.num_communities)
    communities = enumerate_truss_top_k(graph, record, k, kernel=kernel)
    stats.elapsed_seconds = time.perf_counter() - started
    return TrussResult(communities=communities, stats=stats)
