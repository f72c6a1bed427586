"""Prefix-induced subgraph views (``G>=tau`` of the paper).

Because :class:`~repro.graph.weighted_graph.WeightedGraph` ranks vertices in
decreasing weight order, every threshold-induced subgraph ``G>=tau`` is the
subgraph induced by a rank *prefix* ``[0, p)``.  :class:`PrefixView` is a
lightweight, read-only window over the parent graph restricted to such a
prefix — it owns no adjacency copies, so creating one is O(1) and iterating
its edges is linear in its own size (the locality property the
instance-optimality proof needs).

The peeling algorithms (CountIC, γ-core, γ-truss) take a ``PrefixView`` and
build their own mutable scratch state (degree arrays, alive flags) in
O(size(view)).  :class:`PrefixAdjacency` is the array kernel's record of
the same prefix: the graph's own rows plus one down-cut per vertex.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterator, List, Sequence, Tuple

from .weighted_graph import WeightedGraph

__all__ = ["PrefixAdjacency", "PrefixView"]


class PrefixView:
    """A read-only view of the subgraph induced by ranks ``[0, p)``.

    >>> from repro.graph.builder import graph_from_arrays
    >>> g = graph_from_arrays(4, [(0, 1), (1, 2), (2, 3)])
    >>> view = PrefixView(g, 2)
    >>> view.num_vertices, view.num_edges
    (2, 1)
    """

    __slots__ = ("graph", "p", "_down_cuts", "_seed_cuts", "_seed_len")

    def __init__(self, graph: WeightedGraph, p: int) -> None:
        if p < 0 or p > graph.num_vertices:
            raise ValueError(
                f"prefix length {p} out of range [0, {graph.num_vertices}]"
            )
        self.graph = graph
        self.p = p
        # Cache of bisect cuts into adj_down, computed lazily per vertex:
        # index of the first down-neighbour outside the prefix.
        self._down_cuts: List[int] = []
        # Cuts inherited from a smaller view of the same graph (see
        # extend()): each is a lower bound for this view's bisect.
        self._seed_cuts: List[int] = []
        self._seed_len = 0

    # ------------------------------------------------------------------
    @classmethod
    def for_threshold(cls, graph: WeightedGraph, tau: float) -> "PrefixView":
        """The view of ``G>=tau``."""
        return cls(graph, graph.prefix_for_threshold(tau))

    @classmethod
    def whole(cls, graph: WeightedGraph) -> "PrefixView":
        """The view covering the entire graph."""
        return cls(graph, graph.num_vertices)

    def extend(self, p: int) -> "PrefixView":
        """A larger view of the same graph, inheriting this view's cuts.

        Progressive rounds grow the prefix monotonically; because the
        down-rows are sorted, a smaller prefix's cut is a *lower bound*
        for the larger prefix's, so the new view's bisects start from
        the inherited cuts instead of the row heads.  This is how
        :class:`~repro.core.progressive.LocalSearchP` chains its rounds
        so no bisect ground is ever re-covered.
        """
        if p < self.p:
            raise ValueError(
                f"extend() must not shrink the prefix ({p} < {self.p})"
            )
        view = PrefixView(self.graph, p)
        # Prefer our computed cuts; fall back to the seeds we inherited
        # (both are valid lower bounds for the larger prefix).
        if len(self._down_cuts) >= self._seed_len:
            view._seed_cuts = self._down_cuts
            view._seed_len = len(self._down_cuts)
        else:
            view._seed_cuts = self._seed_cuts
            view._seed_len = self._seed_len
        return view

    @property
    def is_whole_graph(self) -> bool:
        """Whether this view covers all of ``G`` (Line 3 of Algorithm 1)."""
        return self.p == self.graph.num_vertices

    @property
    def num_vertices(self) -> int:
        """Number of vertices in the view."""
        return self.p

    @property
    def num_edges(self) -> int:
        """Number of edges with both endpoints in the view."""
        return self.size - self.p

    @property
    def size(self) -> int:
        """``size(G>=tau) = |V| + |E|`` of the view."""
        return self.graph.prefix_size(self.p)

    @property
    def threshold(self) -> float:
        """The weight threshold this prefix realises (weight of rank p-1)."""
        return self.graph.threshold_for_prefix(self.p)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"PrefixView(p={self.p}, size={self.size})"

    # ------------------------------------------------------------------
    def down_cut(self, u: int) -> int:
        """Number of down-neighbours of ``u`` inside the prefix (cached).

        When the view was created through :meth:`extend`, each bisect
        starts from the smaller view's cut for that vertex.
        """
        cuts = self._down_cuts
        if len(cuts) <= u:
            graph, p = self.graph, self.p
            seeds, seed_len = self._seed_cuts, self._seed_len
            adj_down = graph.neighbors_down
            for v in range(len(cuts), u + 1):
                row = adj_down(v)
                lo = seeds[v] if v < seed_len else 0
                cuts.append(bisect_left(row, p, lo))
        return cuts[u]

    def degree(self, u: int) -> int:
        """Degree of ``u`` within the view."""
        return len(self.graph.neighbors_up(u)) + self.down_cut(u)

    def degrees(self) -> List[int]:
        """Degrees of all view vertices, computed in O(p + m_p).

        Avoids per-vertex bisects by counting each up-edge at both
        endpoints (every up-edge of a prefix vertex stays in the prefix).
        """
        p = self.p
        deg = [0] * p
        adj_up = self.graph.neighbors_up
        for u in range(p):
            up = adj_up(u)
            deg[u] += len(up)
            for v in up:
                deg[v] += 1
        return deg

    def neighbors(self, u: int) -> Iterator[int]:
        """Neighbours of ``u`` inside the view."""
        yield from self.graph.neighbors_up(u)
        down = self.graph.neighbors_down(u)
        for i in range(self.down_cut(u)):
            yield down[i]

    def neighbor_lists(self) -> List[List[int]]:
        """Materialised adjacency restricted to the view, O(size).

        Used by algorithms that need random-access adjacency (e.g. the
        truss peel's set-based triangle lookups).
        """
        p = self.p
        lists: List[List[int]] = [[] for _ in range(p)]
        adj_up = self.graph.neighbors_up
        for u in range(p):
            for v in adj_up(u):
                lists[u].append(v)
                lists[v].append(u)
        return lists

    def iter_edges(self) -> Iterator[Tuple[int, int]]:
        """Edges of the view as rank pairs ``(u, v)`` with ``u > v``."""
        adj_up = self.graph.neighbors_up
        for u in range(self.p):
            for v in adj_up(u):
                yield (u, v)


class PrefixAdjacency(Sequence):
    """Read-only neighbour rows of a rank prefix, over the graph's rows.

    ``rows[v]`` is ``up[v] + down[v][:cuts[v]]``: ``v``'s up-row and
    the in-prefix part of its down-row, where ``cuts[v]`` counts the
    down-neighbours inside the prefix.  That is the order
    :meth:`PrefixView.neighbor_lists` produces (up-neighbours ascending,
    then in-prefix down-neighbours ascending), so
    :mod:`repro.core.enumerate` consumes either representation.  Rows
    are assembled on access; nothing is copied up front.
    """

    __slots__ = ("p", "_up", "_down", "_cuts")

    def __init__(self, graph: WeightedGraph, p: int, cuts: List[int]) -> None:
        self.p = p
        self._up = graph._adj_up
        self._down = graph._adj_down
        self._cuts = cuts

    def __len__(self) -> int:
        return self.p

    def __getitem__(self, v: int) -> List[int]:
        if isinstance(v, slice):  # pragma: no cover - sequence protocol
            return [self[i] for i in range(*v.indices(self.p))]
        if v < 0:
            v += self.p
        if not 0 <= v < self.p:
            raise IndexError(f"vertex {v} outside prefix [0, {self.p})")
        return self._up[v] + self._down[v][:self._cuts[v]]

    def flat(self) -> Tuple[List[List[int]], List[List[int]], List[int]]:
        """The rows and cuts ``(up, down, cuts)`` behind :meth:`__getitem__`.

        Kernel loops (:mod:`repro.core.fastenum`) iterate the two row
        parts directly, skipping the per-row concatenation.
        """
        return self._up, self._down, self._cuts

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"PrefixAdjacency(p={self.p})"
