"""EnumIC — influential γ-community enumeration (Algorithm 3).

Given the ``keys``/``cvs`` produced by the peel (:mod:`repro.core.count`),
EnumIC reconstructs the communities of the (up to) ``k`` highest-weight
keynodes in time **linear in the subgraph size** — independent of the total
(materialised) output size, because communities are returned as a linked
forest (:class:`~repro.core.community.Community`).

The reconstruction follows Lemma 3.6: processing keynodes in decreasing
weight order, the community of ``u`` is its ``cvs`` group ``gp(u)`` plus
every already-built community adjacent to the group.  "Already built and
adjacent" is decided by the ``v2key`` union-find
(:class:`~repro.graph.disjoint_set.KeyedDisjointSet`): the key of a
neighbour's set is the smallest-weight keynode whose community currently
contains it; after linking, the child's set is merged into ``u``'s
(Lines 11–13), which also deduplicates children for free.

:class:`EnumerationState` carries the union-find and the built communities
across calls — EnumIC-P (Section 4) shares one state over all progressive
rounds, so the incremental enumeration is exactly the non-progressive one
split into instalments.

This module is also the enumeration **kernel dispatcher**, mirroring
:func:`repro.core.count.construct_cvs`: ``kernel`` selects the
implementation (any name in :data:`~repro.core.fastpeel.KERNELS`;
``None`` defers to ``REPRO_KERNEL``, then ``auto``), and ``scratch``
optionally carries an :class:`~repro.core.fastenum.EnumScratch` across
calls.  The dict-based path below is the differential-testing oracle;
passing an explicit ``state`` always selects it (shared
:class:`~repro.graph.disjoint_set.KeyedDisjointSet` objects cannot feed
the flat kernels, and callers holding one are oracle callers).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from ..graph.disjoint_set import KeyedDisjointSet
from ..graph.weighted_graph import WeightedGraph
from .community import Community, GroupView
from .count import CVSRecord
from .fastenum import EnumScratch, fast_build_community
from .fastpeel import resolve_kernel

__all__ = [
    "EnumerationState",
    "enumerate_top_k",
    "enumerate_progressive",
]


@dataclass
class EnumerationState:
    """Shared state of EnumIC-P: the global ``v2key`` and built communities.

    ``v2key`` is lazily initialised (vertices are touched only when their
    group is processed), exactly as Section 4 prescribes.
    """

    v2key: KeyedDisjointSet = field(default_factory=KeyedDisjointSet)
    communities: Dict[int, Community] = field(default_factory=dict)


def _build_community(
    graph: WeightedGraph,
    record: CVSRecord,
    index: int,
    state: EnumerationState,
) -> Community:
    """Process keynode ``record.keys[index]`` (Lines 4–14 of Algorithm 3)."""
    u = record.keys[index]
    start, stop = record.group_bounds(index)
    cvs = record.cvs
    v2key = state.v2key
    nbrs = record.nbrs

    # Lines 5-8: collect gp(u), set v2key(v) <- u for its vertices.
    for i in range(start, stop):
        v2key.assign(cvs[i], u)

    # Lines 9-13: scan neighbours of the group inside the peeled subgraph;
    # every foreign key encountered is a child community, then its set is
    # merged into u's so later lookups return u (deduplication for free).
    children: List[Community] = []
    communities = state.communities
    for i in range(start, stop):
        v = cvs[i]
        for w in nbrs[v]:
            key = v2key.key_of(w)
            if key is not None and key != u:
                children.append(communities[key])
                v2key.union_into(w, u)

    community = Community(
        graph,
        keynode=u,
        gamma=record.gamma,
        own_vertices=GroupView(cvs, start, stop),
        children=children,
    )
    communities[u] = community
    return community


def enumerate_top_k(
    graph: WeightedGraph,
    record: CVSRecord,
    k: Optional[int] = None,
    state: Optional[EnumerationState] = None,
    kernel: Optional[str] = None,
    scratch: Optional[EnumScratch] = None,
) -> List[Community]:
    """EnumIC: the top-``k`` communities of the peeled subgraph.

    Returns communities in **decreasing influence order** (top-1 first).
    With ``k=None`` every community of the subgraph is returned.  Runs in
    O(size of the peeled subgraph) regardless of output size.

    ``kernel`` selects the enumeration implementation (see the module
    docstring); an explicit ``state`` forces the oracle path.  A cold
    EnumIC starts from empty state, so a reused ``scratch`` is reset
    here (O(touched of its previous use)).
    """
    if record.nbrs is None:
        raise ValueError("record must carry its peel adjacency (nbrs)")
    keys = record.keys
    count = len(keys) if k is None else min(k, len(keys))
    out: List[Community] = []
    if state is None:
        if resolve_kernel(kernel) != "python":
            sc = scratch if scratch is not None else EnumScratch()
            sc.begin(graph, record.p, fresh=True)
            for index in range(len(keys) - 1, len(keys) - 1 - count, -1):
                out.append(fast_build_community(graph, record, index, sc))
            return out
        state = EnumerationState()
    # keys is in increasing weight order; the last `count` are the top-k,
    # processed in decreasing weight order (Line 3 of Algorithm 3).
    for index in range(len(keys) - 1, len(keys) - 1 - count, -1):
        out.append(_build_community(graph, record, index, state))
    return out


def enumerate_progressive(
    graph: WeightedGraph,
    record: CVSRecord,
    state: Optional[EnumerationState] = None,
    kernel: Optional[str] = None,
    scratch: Optional[EnumScratch] = None,
) -> Iterator[Community]:
    """EnumIC-P: yield this round's communities, highest influence first.

    ``record`` is the output of the round's ConstructCVS (with its
    ``stop_rank`` set).  The cross-round state — ``state`` for the
    oracle kernel, ``scratch`` for the flat ones — must be shared across
    all rounds of one progressive query; the scratch is deliberately
    *not* reset here, which is exactly what makes EnumIC-P the
    non-progressive enumeration split into instalments.  Communities of
    earlier rounds appear as children of this round's communities when
    nested.
    """
    if record.nbrs is None:
        raise ValueError("record must carry its peel adjacency (nbrs)")
    if state is None:
        if resolve_kernel(kernel) != "python":
            sc = scratch if scratch is not None else EnumScratch()
            sc.begin(graph, record.p, fresh=False)
            for index in range(len(record.keys) - 1, -1, -1):
                yield fast_build_community(graph, record, index, sc)
            return
        state = EnumerationState()
    for index in range(len(record.keys) - 1, -1, -1):
        yield _build_community(graph, record, index, state)
