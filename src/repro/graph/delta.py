"""Streaming edge mutations over the immutable graph substrate.

:class:`~repro.graph.weighted_graph.WeightedGraph` is immutable by
design — every serving tier (peel kernels, shared-memory segments,
result caches) keys off that promise.  ``repro.live`` therefore models
a mutation not as an in-place edit but as a **new graph generation**
derived from the old one:

* :class:`EdgeBatch` — a validated, picklable list of operations
  (``insert``/``delete`` an edge between existing vertices,
  ``reweight`` a vertex) expressed in user-facing labels, so the same
  batch replays identically in the parent process and inside cluster
  workers (rank spaces may differ after a re-rank; label spaces never
  do).
* :func:`apply_batch` — produce the next generation.  On the common
  path (no reweight changes the rank order) the new graph **shares
  every untouched adjacency row by reference** with its parent and
  holds fresh sorted copies of the touched rows only, so building it
  costs one O(n) list of row references plus O(touched rows), and
  kernels, which read the rows, stay byte-identical to a full
  rebuild.  When a reweight reorders ranks the generation is
  rebuilt through :class:`~repro.graph.builder.GraphBuilder` (weights
  are strictly distinct, so the rebuild is deterministic and equal to
  building from scratch).

Every application also reports a **barrier weight**: the largest
vertex weight whose threshold subgraph could have changed.  For any
``tau > barrier`` the prefix ``G>=tau`` is identical before and after
the batch — an edge only exists in ``G>=tau`` when *both* endpoints
weigh at least ``tau``, and a reweighted vertex only enters or leaves
``G>=tau`` when ``max(old, new) >= tau``.  Communities are determined
by their threshold subgraph, so every community with influence above
the barrier survives verbatim.  That is the soundness argument behind
the scoped cache invalidation in
:meth:`repro.service.cache.ResultCache.migrate_graph`.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Set, Tuple

from ..errors import GraphConstructionError, QueryParameterError, SelfLoopError
from .weighted_graph import WeightedGraph

__all__ = [
    "EdgeBatch",
    "MutationStats",
    "apply_batch",
    "apply_ops_to_model",
]

#: Operation kinds accepted by :class:`EdgeBatch`.
_KINDS = ("insert", "delete", "reweight")


@dataclass(frozen=True)
class EdgeBatch:
    """An ordered list of mutations, expressed in vertex labels.

    Each op is a 3-tuple: ``("insert", u, v)`` / ``("delete", u, v)``
    add or remove the undirected edge between existing vertices ``u``
    and ``v``; ``("reweight", v, w)`` sets vertex ``v``'s weight to
    ``w``.  Vertex additions/removals are out of scope — they go
    through a full re-register.  Batches are plain data (picklable),
    so the cluster tier ships them over the existing tagged-tuple pipe
    protocol.
    """

    ops: Tuple[Tuple, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "ops", tuple(tuple(op) for op in self.ops))
        for op in self.ops:
            if len(op) != 3 or op[0] not in _KINDS:
                raise ValueError(f"malformed mutation op {op!r}")
            if op[0] == "reweight":
                # A real number (float() raises otherwise), and finite:
                # a nan weight breaks the distinct-weight order.
                if not math.isfinite(float(op[2])):
                    raise QueryParameterError(
                        f"reweight value must be finite in {op!r}"
                    )
            elif op[1] == op[2]:
                raise SelfLoopError(op[1])

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self):
        return iter(self.ops)

    def describe(self) -> str:
        """Compact human-readable form (shell/demo output)."""
        counts: Dict[str, int] = {}
        for op in self.ops:
            counts[op[0]] = counts.get(op[0], 0) + 1
        return (
            ", ".join(f"{counts[k]} {k}" for k in _KINDS if k in counts)
            or "empty"
        )


@dataclass
class MutationStats:
    """What one :func:`apply_batch` actually changed."""

    inserted: int = 0
    deleted: int = 0
    reweighted: int = 0
    #: Ops that were already satisfied (inserting a present edge,
    #: deleting an absent one, reweighting to the current weight).
    noops: int = 0
    #: Whether a reweight reordered ranks (forcing a full re-rank
    #: rebuild instead of the shared-row overlay).
    rank_shuffle: bool = False


def _resolve(graph: WeightedGraph, batch: EdgeBatch):
    """Normalise a batch against ``graph``: final edge flips + reweights.

    Later ops win (insert then delete = delete; the last reweight of a
    vertex sticks), matching replay semantics: applying the batch op by
    op ends in the same state.
    """
    edge_state: Dict[Tuple[int, int], bool] = {}
    new_weight: Dict[int, float] = {}
    for op in batch.ops:
        kind = op[0]
        if kind == "reweight":
            new_weight[graph.rank_of(op[1])] = float(op[2])
        else:
            u, v = graph.rank_of(op[1]), graph.rank_of(op[2])
            if u > v:
                u, v = v, u
            edge_state[(u, v)] = kind == "insert"
    return edge_state, new_weight


def apply_batch(
    graph: WeightedGraph, batch: EdgeBatch
) -> Tuple[WeightedGraph, float, MutationStats]:
    """Produce the next graph generation; ``graph`` is left untouched.

    Returns ``(new_graph, barrier, stats)``.  ``barrier`` is the
    largest weight whose threshold subgraph may differ between the two
    generations (``-inf`` when the batch was a pure no-op): every
    community with influence strictly above it is unchanged.
    """
    stats = MutationStats()
    edge_state, reweights = _resolve(graph, batch)

    old_w = graph._weights
    barrier = float("-inf")
    effective_edges: List[Tuple[int, int, bool]] = []
    for (u, v), want in edge_state.items():
        if graph.has_edge_ranks(u, v) == want:
            stats.noops += 1
            continue
        effective_edges.append((u, v, want))
        # The endpoint may also be reweighted in this batch; cover both
        # the old and new membership threshold of each endpoint.
        wu = max(old_w[u], reweights.get(u, old_w[u]))
        wv = max(old_w[v], reweights.get(v, old_w[v]))
        barrier = max(barrier, min(wu, wv))

    effective_rw: Dict[int, float] = {}
    for rank, w in reweights.items():
        if w == old_w[rank]:
            stats.noops += 1
            continue
        effective_rw[rank] = w
        barrier = max(barrier, old_w[rank], w)

    if not effective_edges and not effective_rw:
        return graph, barrier, stats

    stats.inserted = sum(1 for _, _, want in effective_edges if want)
    stats.deleted = len(effective_edges) - stats.inserted
    stats.reweighted = len(effective_rw)

    if effective_rw:
        new_weights = list(old_w)
        for rank, w in effective_rw.items():
            new_weights[rank] = w
        seen = set(new_weights)
        if len(seen) != len(new_weights):
            raise GraphConstructionError(
                "reweight would collide with an existing vertex weight; "
                "weights must stay strictly distinct"
            )
        ordered = all(
            new_weights[i - 1] > new_weights[i]
            for i in range(1, len(new_weights))
        )
        if not ordered:
            stats.rank_shuffle = True
            return (
                _rerank_rebuild(graph, effective_edges, new_weights),
                barrier,
                stats,
            )
    else:
        new_weights = old_w  # shared: nothing changed

    return (
        _overlay_graph(graph, effective_edges, new_weights),
        barrier,
        stats,
    )


def _overlay_graph(
    graph: WeightedGraph,
    effective_edges: List[Tuple[int, int, bool]],
    new_weights: List[float],
) -> WeightedGraph:
    """Rank-preserving path: share untouched rows, copy touched ones."""
    up_rows: Dict[int, List[int]] = {}
    down_rows: Dict[int, List[int]] = {}
    delta_m = 0
    for u, v, want in effective_edges:  # u < v: up-row of v, down-row of u
        up = up_rows.get(v)
        if up is None:
            up = up_rows[v] = list(graph._adj_up[v])
        down = down_rows.get(u)
        if down is None:
            down = down_rows[u] = list(graph._adj_down[u])
        if want:
            insort(up, u)
            insort(down, v)
            delta_m += 1
        else:
            up.pop(bisect_left(up, u))
            down.pop(bisect_left(down, v))
            delta_m -= 1

    new = WeightedGraph.__new__(WeightedGraph)
    new._weights = new_weights
    new._adj_up = list(graph._adj_up)
    for v, row in up_rows.items():
        new._adj_up[v] = row
    new._adj_down = list(graph._adj_down)
    for u, row in down_rows.items():
        new._adj_down[u] = row
    new._labels = graph._labels
    new._label_order = graph._label_order
    new._rank_of = graph._rank_of
    new._num_edges = graph._num_edges + delta_m
    new._prefix_sizes = [0]
    # Same rank space, so the parent's core stop table still bounds this
    # generation once each insert is counted as slack (see core_stop).
    # A parent without one (a from_csr copy, a re-rank rebuild) builds
    # it here, so the chain pays one decomposition, not one per overlay.
    stops, slack = graph.core_table()
    inserted = sum(1 for _, _, want in effective_edges if want)
    new._core_stops = (stops, slack + inserted)
    return new


def _rerank_rebuild(
    graph: WeightedGraph,
    effective_edges: List[Tuple[int, int, bool]],
    new_weights: List[float],
) -> WeightedGraph:
    """Reweight reordered ranks: rebuild deterministically from scratch.

    Weights are strictly distinct, so the builder's rank assignment
    depends only on the weight values — the result is byte-identical
    to building the mutated edge/weight model from nothing (the
    differential-test oracle).
    """
    from .builder import GraphBuilder

    flips = {(u, v): want for u, v, want in effective_edges}
    builder = GraphBuilder()
    for rank in range(graph.num_vertices):
        builder.add_vertex(graph.label(rank), new_weights[rank])
    for u, v in graph.iter_edges():  # (u, v) with u > v
        if flips.pop((v, u), True):
            builder.add_edge(graph.label(u), graph.label(v))
    for (u, v), want in flips.items():
        if want:
            builder.add_edge(graph.label(u), graph.label(v))
    return builder.build()


def apply_ops_to_model(
    edges: Set[Tuple[int, int]],
    weights: Dict[Hashable, float],
    ops: Iterable[Tuple],
) -> None:
    """Replay a batch onto a plain (edge-set, weights-dict) model.

    The oracle side of the differential tests and the mixed
    read/write bench: the model is rebuilt from scratch with
    :func:`~repro.graph.builder.graph_from_arrays` and compared
    against the overlay path.  Edges are canonicalised ``(min, max)``
    label pairs.
    """
    for op in ops:
        kind = op[0]
        if kind == "reweight":
            weights[op[1]] = float(op[2])
            continue
        u, v = op[1], op[2]
        if u > v:
            u, v = v, u
        if kind == "insert":
            edges.add((u, v))
        else:
            edges.discard((u, v))
