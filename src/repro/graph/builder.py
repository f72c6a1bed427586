"""Incremental, validating construction of :class:`WeightedGraph`.

The paper assumes every vertex has a distinct weight (Section 2) and works
on simple undirected graphs.  Real inputs rarely satisfy this, so the
builder exposes explicit policies:

* ``ties`` — what to do with equal weights:

  - ``"error"``: raise :class:`~repro.errors.DuplicateWeightError`;
  - ``"rank"`` (default): break ties deterministically by label order; the
    stored weights are untouched but the *rank order* (which is what every
    algorithm consumes) becomes a strict total order.  Lemma 3.9 of the
    paper notes instance-optimality survives a bounded number of
    duplicates;
  - ``"jitter"``: replace weights by their (dense) rank position so all
    stored weights are distinct floats.

* ``drop_self_loops`` — silently drop self-loops instead of raising.
* parallel edges are always merged (the graph is simple).

Example
-------
>>> b = GraphBuilder()
>>> b.add_vertex("a", 3.0)
>>> b.add_vertex("b", 1.0)
>>> b.add_edge("a", "b")
>>> g = b.build()
>>> g.num_edges
1
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Set, Tuple

from ..errors import (
    DuplicateWeightError,
    GraphConstructionError,
    SelfLoopError,
)
from .weighted_graph import WeightedGraph

__all__ = ["GraphBuilder", "graph_from_arrays"]


class GraphBuilder:
    """Accumulates vertices and edges, then builds a :class:`WeightedGraph`.

    Vertices mentioned only in edges receive an automatic weight of
    ``None`` and are placed, in insertion order, *below* every vertex with
    an explicit weight (they are the least influential).  This mirrors how
    one would load an edge file without a weight file.
    """

    def __init__(
        self,
        ties: str = "rank",
        drop_self_loops: bool = False,
    ) -> None:
        if ties not in ("error", "rank", "jitter"):
            raise ValueError(f"unknown tie policy {ties!r}")
        self._ties = ties
        self._drop_self_loops = drop_self_loops
        self._weights: Dict[Hashable, Optional[float]] = {}
        self._insertion: Dict[Hashable, int] = {}
        self._edges: Set[Tuple[Hashable, Hashable]] = set()
        self._dropped_loops = 0
        self._merged_parallel = 0

    # ------------------------------------------------------------------
    @property
    def dropped_self_loops(self) -> int:
        """How many self-loops were dropped so far."""
        return self._dropped_loops

    @property
    def merged_parallel_edges(self) -> int:
        """How many duplicate edge insertions were merged so far."""
        return self._merged_parallel

    def add_vertex(
        self, label: Hashable, weight: Optional[float] = None
    ) -> None:
        """Register a vertex, optionally (re-)setting its weight.

        Raises :class:`GraphConstructionError` for a NaN or infinite
        weight: influence values must be finite.
        """
        if weight is not None and not math.isfinite(weight):
            raise GraphConstructionError(
                f"vertex {label!r} has a non-finite weight {weight!r}"
            )
        if label not in self._insertion:
            self._insertion[label] = len(self._insertion)
        if weight is not None or label not in self._weights:
            self._weights[label] = weight

    def add_edge(self, u: Hashable, v: Hashable) -> None:
        """Register an undirected edge, creating endpoints as needed."""
        if u == v:
            if self._drop_self_loops:
                self._dropped_loops += 1
                return
            raise SelfLoopError(u)
        self.add_vertex(u)
        self.add_vertex(v)
        key = self._edge_key(u, v)
        if key in self._edges:
            self._merged_parallel += 1
        else:
            self._edges.add(key)

    def add_edges(self, edges: Iterable[Tuple[Hashable, Hashable]]) -> None:
        """Register many edges."""
        for u, v in edges:
            self.add_edge(u, v)

    def set_weights(self, weights: Mapping[Hashable, float]) -> None:
        """Assign weights in bulk (overrides earlier values)."""
        for label, weight in weights.items():
            self.add_vertex(label, weight)

    def _edge_key(
        self, u: Hashable, v: Hashable
    ) -> Tuple[Hashable, Hashable]:
        # A canonical, hash-stable key for an undirected edge between
        # arbitrary hashable labels: order by insertion index.
        return (
            (u, v)
            if self._insertion[u] < self._insertion[v]
            else (v, u)
        )

    # ------------------------------------------------------------------
    def build(self) -> WeightedGraph:
        """Finalise and return the immutable :class:`WeightedGraph`."""
        if not self._insertion:
            raise GraphConstructionError("cannot build an empty graph")
        labels = list(self._insertion)

        explicit = [lab for lab in labels if self._weights.get(lab) is not None]
        implicit = [lab for lab in labels if self._weights.get(lab) is None]

        if self._ties == "error":
            seen: Dict[float, Hashable] = {}
            for lab in explicit:
                w = self._weights[lab]
                if w in seen:
                    raise DuplicateWeightError(w, seen[w], lab)
                seen[w] = lab

        # Sort keys: decreasing weight; ties broken by insertion order
        # (deterministic).  Implicit-weight vertices go last, in insertion
        # order, below every explicit weight.
        explicit.sort(key=lambda lab: (-self._weights[lab], self._insertion[lab]))
        ordered = explicit + implicit

        n = len(ordered)
        if self._ties == "jitter" or implicit:
            # Re-derive strictly-decreasing synthetic weights from ranks.
            # Highest rank gets weight n, lowest gets 1.
            final_weights = [float(n - i) for i in range(n)]
        else:
            final_weights = [float(self._weights[lab]) for lab in ordered]
            # Under the "rank" policy equal weights are allowed in input but
            # the stored sequence must still be strictly decreasing; nudge
            # duplicates down by the smallest representable step.
            for i in range(1, n):
                if final_weights[i] >= final_weights[i - 1]:
                    # Tie (or tiny float collision): replace the entire
                    # weight vector by rank-derived weights to stay exact.
                    final_weights = [float(n - j) for j in range(n)]
                    break

        rank_of = {lab: i for i, lab in enumerate(ordered)}
        adj_up: List[List[int]] = [[] for _ in range(n)]
        adj_down: List[List[int]] = [[] for _ in range(n)]
        for a, b in self._edges:
            ra, rb = rank_of[a], rank_of[b]
            if ra > rb:
                ra, rb = rb, ra
            # rb is the lower-weight endpoint: the edge sits in its up-list.
            adj_up[rb].append(ra)
            adj_down[ra].append(rb)
        for row in adj_up:
            row.sort()
        for row in adj_down:
            row.sort()

        return WeightedGraph(
            final_weights, adj_up, adj_down, labels=ordered, validate=False
        )


def graph_from_arrays(
    num_vertices: int,
    edges: Iterable[Tuple[int, int]],
    weights: Optional[Iterable[float]] = None,
    ties: str = "rank",
) -> WeightedGraph:
    """Convenience: build from integer vertices ``0..num_vertices-1``.

    ``weights`` defaults to ``num_vertices - i`` for vertex ``i`` (vertex 0
    is the most influential).  Handy for tests and generators.
    """
    builder = GraphBuilder(ties=ties)
    if weights is None:
        weight_list = [float(num_vertices - i) for i in range(num_vertices)]
    else:
        weight_list = [float(w) for w in weights]
        if len(weight_list) != num_vertices:
            raise GraphConstructionError(
                "weights length must equal num_vertices"
            )
    for v in range(num_vertices):
        builder.add_vertex(v, weight_list[v])
    builder.add_edges(edges)
    return builder.build()
