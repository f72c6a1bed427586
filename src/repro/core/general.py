"""The general local-search framework (Section 5.2, Algorithm 6).

Definition 5.2 parameterises influential communities by an arbitrary
cohesiveness measure; Algorithm 6 keeps the doubling loop and swaps in a
measure-specific ``CountICC``/``EnumICC``.  Any measure satisfying the two
monotonicity properties of Section 5.2 qualifies:

* **Property I** — every influential γ-cohesive community of ``G>=tau2``
  is one of ``G>=tau1`` for ``tau1 <= tau2``;
* **Property II** — a community of ``G>=tau1`` with influence ≥ ``tau2``
  is a community of ``G>=tau2``.

Both hold whenever the measure admits a unique **maximal γ-cohesive
subgraph** that is monotone under subgraphs — true for minimum degree
(γ-core), triangle support (γ-truss) and edge connectivity, the three
measures the paper names.

This module provides:

* :class:`CohesivenessMeasure` — the interface: compute the maximal
  γ-cohesive subgraph of a vertex subset;
* :class:`MinDegreeMeasure`, :class:`TrussMeasure`,
  :class:`EdgeConnectivityMeasure` — the paper's three instantiations
  (edge connectivity via recursive global-min-cut splitting — correct and
  simple, usable at small scale);
* :func:`count_cohesive_communities` — the paper's *naive* CountICC
  ("iteratively (1) computing the maximal γ-cohesive subgraph ... and
  (2) removing the minimum-weight vertex"), generic over any measure;
* :class:`GeneralLocalSearch` — Algorithm 6.

The optimised, measure-specific implementations live in
:mod:`repro.core.count` (min degree) and :mod:`repro.core.truss_search`
(truss); the test suite cross-validates them against this generic path.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Dict, FrozenSet, List, Set, Tuple

from ..errors import QueryParameterError, check_delta
from ..graph.subgraph import PrefixView
from ..graph.weighted_graph import WeightedGraph
from .local_search import TopKResult
from .rounds import PrefixRounds

__all__ = [
    "CohesivenessMeasure",
    "MinDegreeMeasure",
    "TrussMeasure",
    "EdgeConnectivityMeasure",
    "GeneralCommunity",
    "count_cohesive_communities",
    "all_cohesive_communities",
    "GeneralLocalSearch",
    "GeneralResult",
]


class CohesivenessMeasure:
    """Interface: the maximal γ-cohesive subgraph of a vertex subset.

    Implementations return the **adjacency structure** of the maximal
    subgraph (within the induced subgraph on ``members``) whose
    cohesiveness value is at least γ — an adjacency is required rather
    than a vertex set because for non-hereditary measures (truss, edge
    connectivity) the maximal cohesive subgraph is *not* vertex-induced:
    an edge may connect two surviving vertices yet belong to no cohesive
    subgraph, and connectivity must not travel across it.  An empty dict
    means no γ-cohesive subgraph exists.
    """

    name = "abstract"

    def maximal_cohesive(
        self, graph: WeightedGraph, members: Set[int], gamma: int
    ) -> Dict[int, Set[int]]:
        """Adjacency of the maximal γ-cohesive subgraph of ``members``.

        Every key is a member vertex with at least one cohesive edge;
        values are its cohesive-subgraph neighbours.
        """
        raise NotImplementedError

    def cohesive_vertices(
        self, graph: WeightedGraph, members: Set[int], gamma: int
    ) -> Set[int]:
        """Convenience: just the vertex set of :meth:`maximal_cohesive`."""
        adj = self.maximal_cohesive(graph, members, gamma)
        return {u for u, nbrs in adj.items() if nbrs}

    def holding_core(self, gamma: int) -> int:
        """A ``c`` whose ``c``-core of ``G`` holds every γ-community: 1
        by default, as every member keeps a cohesive neighbour."""
        return 1

    def validate_gamma(self, gamma: int) -> None:
        """Raise :class:`QueryParameterError` on an invalid γ."""
        if gamma < 1:
            raise QueryParameterError(
                f"{self.name}: gamma must be at least 1"
            )


def _induced_adjacency(
    graph: WeightedGraph, members: Set[int]
) -> Dict[int, Set[int]]:
    adj: Dict[int, Set[int]] = {u: set() for u in members}
    for u in members:
        for w in graph.iter_neighbors(u):
            if w in members:
                adj[u].add(w)
    return adj


class MinDegreeMeasure(CohesivenessMeasure):
    """k-core cohesiveness: minimum degree ≥ γ (the paper's default).

    The γ-core is vertex-induced, so the returned adjacency is simply the
    induced adjacency of the surviving vertices.
    """

    name = "min-degree"

    def holding_core(self, gamma: int) -> int:
        return gamma

    def maximal_cohesive(
        self, graph: WeightedGraph, members: Set[int], gamma: int
    ) -> Dict[int, Set[int]]:
        adj = _induced_adjacency(graph, members)
        alive = set(members)
        queue = deque(u for u in alive if len(adj[u]) < gamma)
        removed = set(queue)
        while queue:
            u = queue.popleft()
            alive.discard(u)
            for w in adj[u]:
                if w in alive and w not in removed:
                    adj[w].discard(u)
                    if len(adj[w]) < gamma:
                        removed.add(w)
                        queue.append(w)
        return {u: adj[u] & alive for u in alive}


class TrussMeasure(CohesivenessMeasure):
    """k-truss cohesiveness: every edge in ≥ γ − 2 triangles (§5.2)."""

    name = "truss"

    def holding_core(self, gamma: int) -> int:
        # A truss edge's end has its other end and gamma - 2 apexes.
        return gamma - 1

    def validate_gamma(self, gamma: int) -> None:
        if gamma < 2:
            raise QueryParameterError("truss: gamma must be at least 2")

    def maximal_cohesive(
        self, graph: WeightedGraph, members: Set[int], gamma: int
    ) -> Dict[int, Set[int]]:
        adj = _induced_adjacency(graph, members)
        threshold = gamma - 2
        changed = True
        while changed:
            changed = False
            for u in list(adj):
                for v in list(adj.get(u, ())):
                    if v < u:
                        continue
                    common = len(adj[u] & adj[v])
                    if common < threshold:
                        adj[u].discard(v)
                        adj[v].discard(u)
                        changed = True
        return {u: nbrs for u, nbrs in adj.items() if nbrs}


class EdgeConnectivityMeasure(CohesivenessMeasure):
    """Edge-connectivity cohesiveness: the subgraph is γ-edge-connected.

    The maximal γ-edge-connected subgraphs are found by recursive
    splitting: compute a global minimum cut of each connected component
    (Stoer–Wagner); if its value is ≥ γ the component qualifies, else
    split along the cut and recurse [6, 40].  O(n³)-ish per component —
    strictly a small-graph instantiation, which is all the generic
    framework needs for cross-validation.
    """

    name = "edge-connectivity"

    def holding_core(self, gamma: int) -> int:
        # A gamma-edge-connected subgraph has minimum degree >= gamma.
        return gamma

    def maximal_cohesive(
        self, graph: WeightedGraph, members: Set[int], gamma: int
    ) -> Dict[int, Set[int]]:
        adj = _induced_adjacency(graph, members)
        result: Set[int] = set()
        pieces: List[Set[int]] = []
        for component in _components(adj):
            for piece in self._qualify_pieces(adj, component, gamma):
                pieces.append(piece)
                result |= piece
        # Each maximal gamma-edge-connected subgraph keeps only its own
        # internal edges; cross edges between two pieces belong to neither.
        out: Dict[int, Set[int]] = {}
        for piece in pieces:
            for u in piece:
                out[u] = adj[u] & piece
        return out

    def _qualify_pieces(
        self, adj: Dict[int, Set[int]], component: Set[int], gamma: int
    ) -> List[Set[int]]:
        """Maximal γ-edge-connected vertex sets within ``component``."""
        if len(component) < 2:
            return []
        # Vertices with induced degree < gamma can never be in a
        # gamma-edge-connected subgraph: peel first (cheap pre-filter).
        core = set(component)
        queue = deque(
            u for u in core if len(adj[u] & core) < gamma
        )
        while queue:
            u = queue.popleft()
            if u not in core:
                continue
            core.discard(u)
            for w in adj[u] & core:
                if len(adj[w] & core) < gamma:
                    queue.append(w)
        if len(core) < 2:
            return []
        out: List[Set[int]] = []
        for sub in _components({u: adj[u] & core for u in core}):
            if len(sub) < 2:
                continue
            cut_value, side = _stoer_wagner(adj, sub)
            if cut_value >= gamma:
                out.append(sub)
            else:
                out.extend(self._qualify_pieces(adj, side, gamma))
                out.extend(self._qualify_pieces(adj, sub - side, gamma))
        return out


def _components(adj: Dict[int, Set[int]]) -> List[Set[int]]:
    seen: Set[int] = set()
    out: List[Set[int]] = []
    for start in adj:
        if start in seen:
            continue
        comp = {start}
        seen.add(start)
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if w in adj and w not in seen:
                    seen.add(w)
                    comp.add(w)
                    queue.append(w)
        out.append(comp)
    return out


def _stoer_wagner(
    adj: Dict[int, Set[int]], members: Set[int]
) -> Tuple[int, Set[int]]:
    """Global minimum cut of the induced subgraph (unit edge weights).

    Returns ``(cut_value, one_side)``.  Classic Stoer–Wagner with vertex
    merging; O(n³) on the component size.
    """
    nodes = sorted(members)
    weights: Dict[Tuple[int, int], int] = {}
    for u in nodes:
        for v in adj[u]:
            if v in members and u < v:
                weights[(u, v)] = 1

    def w(a: int, b: int) -> int:
        return weights.get((a, b) if a < b else (b, a), 0)

    groups: Dict[int, Set[int]] = {u: {u} for u in nodes}
    best_value = math.inf
    best_side: Set[int] = set()
    active = list(nodes)
    while len(active) > 1:
        # Maximum-adjacency ordering.
        order = [active[0]]
        candidates = set(active[1:])
        attach = {u: w(u, active[0]) for u in candidates}
        while candidates:
            nxt = max(candidates, key=lambda u: (attach[u], -u))
            order.append(nxt)
            candidates.discard(nxt)
            for u in candidates:
                attach[u] += w(u, nxt)
        s, t = order[-2], order[-1]
        cut_of_phase = attach.get(t, 0) if len(order) > 1 else 0
        if cut_of_phase < best_value:
            best_value = cut_of_phase
            best_side = set(groups[t])
        # Merge t into s.
        groups[s] |= groups[t]
        for u in active:
            if u in (s, t):
                continue
            merged = w(u, s) + w(u, t)
            key = (u, s) if u < s else (s, u)
            if merged:
                weights[key] = merged
            else:
                weights.pop(key, None)
            weights.pop((u, t) if u < t else (t, u), None)
        weights.pop((s, t) if s < t else (t, s), None)
        active.remove(t)
        del groups[t]
    value = 0 if math.isinf(best_value) else int(best_value)
    return value, best_side


class GeneralCommunity:
    """One influential γ-cohesive community under an arbitrary measure."""

    __slots__ = ("graph", "keynode", "influence", "gamma", "members",
                 "measure")

    def __init__(
        self,
        graph: WeightedGraph,
        keynode: int,
        gamma: int,
        members: FrozenSet[int],
        measure: str,
    ) -> None:
        self.graph = graph
        self.keynode = keynode
        self.influence = graph.weight(keynode)
        self.gamma = gamma
        self.members = members
        self.measure = measure

    @property
    def vertices(self) -> List:
        """Member labels."""
        return [self.graph.label(r) for r in sorted(self.members)]

    @property
    def num_vertices(self) -> int:
        """Number of members."""
        return len(self.members)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"GeneralCommunity(measure={self.measure}, "
            f"influence={self.influence:.6g}, n={self.num_vertices})"
        )


def all_cohesive_communities(
    graph: WeightedGraph,
    view_p: int,
    gamma: int,
    measure: CohesivenessMeasure,
) -> List[GeneralCommunity]:
    """The naive CountICC/EnumICC of Section 5.2 over a rank prefix.

    Iteratively (1) reduce to the maximal γ-cohesive subgraph, (2) record
    the component of the minimum-weight vertex as the next community and
    remove that vertex.  Returns communities in decreasing influence
    order.  Intended for validation and small graphs: the optimised
    per-measure algorithms in :mod:`repro.core` replace it at scale.
    """
    measure.validate_gamma(gamma)
    members: Set[int] = set(range(view_p))
    communities: List[GeneralCommunity] = []
    while True:
        adj = measure.maximal_cohesive(graph, members, gamma)
        members = {u for u, nbrs in adj.items() if nbrs}
        if not members:
            break
        u = max(members)  # minimum weight = maximum rank
        # Walk the *cohesive subgraph's* edges only: for non-hereditary
        # measures an induced edge may connect two separate cohesive
        # pieces without belonging to either (see CohesivenessMeasure).
        component: Set[int] = {u}
        queue = deque([u])
        while queue:
            x = queue.popleft()
            for y in adj[x]:
                if y not in component:
                    component.add(y)
                    queue.append(y)
        communities.append(
            GeneralCommunity(
                graph, u, gamma, frozenset(component), measure.name
            )
        )
        members.discard(u)
    communities.reverse()
    return communities


def count_cohesive_communities(
    graph: WeightedGraph,
    view_p: int,
    gamma: int,
    measure: CohesivenessMeasure,
) -> int:
    """Naive CountICC: the number of influential γ-cohesive communities."""
    return len(all_cohesive_communities(graph, view_p, gamma, measure))


#: One result type for every local search: communities plus stats.
GeneralResult = TopKResult


class GeneralLocalSearch:
    """Algorithm 6: the doubling local search over any measure.

    >>> from repro.graph.builder import graph_from_arrays
    >>> g = graph_from_arrays(
    ...     4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    ... )
    >>> search = GeneralLocalSearch(g, gamma=3, measure=MinDegreeMeasure())
    >>> search.search(1).communities[0].num_vertices
    4
    """

    def __init__(
        self,
        graph: WeightedGraph,
        gamma: int,
        measure: CohesivenessMeasure,
        delta: float = 2.0,
    ) -> None:
        measure.validate_gamma(gamma)
        check_delta(delta)
        self.graph = graph
        self.gamma = gamma
        self.measure = measure
        self.delta = delta

    def search(self, k: int) -> GeneralResult:
        """Top-``k`` influential γ-cohesive communities."""
        if k < 1:
            raise QueryParameterError("k must be at least 1")
        graph, gamma, measure = self.graph, self.gamma, self.measure
        rounds = PrefixRounds(
            graph, gamma, self.delta, k=k, core=measure.holding_core(gamma)
        )

        def count(view: PrefixView, _p_prev: int):
            found = all_cohesive_communities(graph, view.p, gamma, measure)
            return len(found), found

        communities = rounds.last(k + gamma, count) or []
        return GeneralResult(communities[:k], rounds.finish())
