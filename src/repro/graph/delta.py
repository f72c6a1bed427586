"""Streaming edge mutations over the immutable graph substrate.

:class:`~repro.graph.weighted_graph.WeightedGraph` is immutable by
design — every serving tier (peel kernels, result caches) keys off
that promise.  ``repro.live`` therefore models
a mutation not as an in-place edit but as a **new graph generation**
derived from the old one:

* :class:`EdgeBatch` — a validated list of operations
  (``insert``/``delete`` an edge between existing vertices,
  ``reweight`` a vertex) expressed in user-facing labels, so the same
  batch applies to any generation of the graph (rank spaces may
  differ after a re-rank; label spaces never do).
* :func:`apply_batch` — produce the next generation.  The new graph
  **shares every untouched adjacency row by reference** with its
  parent and holds fresh sorted rows only where the batch changed
  them, so kernels, which read the rows, stay byte-identical to a
  build from scratch of the mutated model.  A batch's reweights move
  ranks only inside one window, between each moved vertex's old and
  new rank, and the permutation is monotone on the vertices that did
  not move; so they apply as a **relabel** (:func:`_relabel`): a row
  with no entry in the window is shared, any other row is mapped
  through the permutation at C level, and only the rows of the moved
  vertices and of their neighbours are re-sorted and split at the new
  rank.  Weights, labels, ranks, the label order and the per-rank core
  numbers change only inside the window.  The batch's edge flips then
  apply as an overlay in the new rank space (:func:`_overlay_graph`):
  O(n) row references plus the touched rows.

Every generation's core numbers are exact.  The flips run one at a
time through a :class:`~repro.graph.core_decomposition.KOrder`, the
order-based core maintenance of Zhang, Yu, Zhang & Qin (ICDE 2017),
each seen against the rows that hold exactly the flips before it; the
new generation keeps the numbers (its parent's, when no flip changed
one).  The order lives on the generation it describes, the **tip**:
the next batch applied to the tip takes it over (:func:`_take_order`)
and a re-rank moves it with the ranks.  A batch applied to any other
generation — a second batch on one parent, an unpickled copy —
builds a fresh order from one decomposition, so branches stay exact
and graphs that are never mutated never build one.

Every application also reports a **barrier weight**: the largest
vertex weight whose threshold subgraph could have changed.  For any
``tau > barrier`` the prefix ``G>=tau`` is identical before and after
the batch — an edge only exists in ``G>=tau`` when *both* endpoints
weigh at least ``tau``, and a reweighted vertex only enters or leaves
``G>=tau`` when ``max(old, new) >= tau``.  Communities are determined
by their threshold subgraph, so every community with influence above
the barrier survives verbatim.

The barrier ignores γ; each effective op's **core level** scopes it.
Every γ-community lies in the γ-core C of G (the γ-core is monotone
under subgraphs), so a γ-answer depends only on G[C] and the weights
on C.  :attr:`MutationStats.levels` holds one ``(level, weight)`` pair
per effective op, ``weight`` being the op's share of the barrier:

* an edge flip's level is ``min(core(u), core(v))`` on the rows that
  hold the edge — after an insert, before a delete.  An insert raises
  core numbers only from K = the smaller endpoint core to K + 1, and
  then both endpoints rise; a delete lowers them only from K to K - 1.
  So a flip whose level is below γ leaves C and G[C] alone;
* a reweight's level is the parent's ``core(v)`` (core numbers do not
  depend on weights), or ``inf`` — every γ — when the parent has no
  core table.  A vertex with core below γ is not in C.

The ops apply one after another (reweights, then each flip against the
graph that holds the flips before it), and each step either leaves
every γ-answer alone (level below γ) or every community with influence
above its weight.  So the **γ barrier** — the largest weight among the
ops whose level is at least γ, ``-inf`` when there is none — bounds
the γ-answers exactly as the batch barrier bounds all of them.  A truss
family uses γ - 1: a γ-truss lies in the (γ-1)-core.  That is the
soundness argument behind the scoped cache invalidation in
:meth:`repro.service.cache.ResultCache.migrate_graph`.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Optional, Set, Tuple

from ..errors import GraphConstructionError, QueryParameterError, SelfLoopError
from .core_decomposition import KOrder, refold_core_stops
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
    through a full re-register.
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
    #: Whether a reweight reordered ranks (applied as a relabel of the
    #: rows inside the moved window).
    rank_shuffle: bool = False
    #: Vertices the core maintenance visited over the batch's flips
    #: (:meth:`KOrder.insert` / :meth:`KOrder.remove`).
    core_visited: int = 0
    #: One ``(core level, barrier weight)`` pair per effective op: a
    #: flip's smaller endpoint core on the rows that hold the edge, a
    #: reweight's parent core (``inf`` without a core table), and the
    #: weight the op adds to the barrier.  An op reaches the γ-answers
    #: iff its level is at least γ (see the module docstring).
    levels: List[Tuple[float, float]] = field(default_factory=list)


#: Guards the hand-over of a generation's KOrder to its child.
_ORDER_LOCK = threading.Lock()


def _take_order(graph: WeightedGraph) -> Optional[KOrder]:
    """Detach ``graph``'s KOrder for its child (``None`` when ``graph``
    is not the tip of one); at most one child gets it."""
    with _ORDER_LOCK:
        order, graph._core_order = graph._core_order, None
    return order


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
    ``stats.levels`` scopes it per γ.
    """
    stats = MutationStats()
    edge_state, reweights = _resolve(graph, batch)

    old_w = graph._weights
    barrier = float("-inf")
    effective_edges: List[Tuple[int, int, bool, float]] = []
    for (u, v), want in edge_state.items():
        if graph.has_edge_ranks(u, v) == want:
            stats.noops += 1
            continue
        # The endpoint may also be reweighted in this batch; cover both
        # the old and new membership threshold of each endpoint.
        wu = max(old_w[u], reweights.get(u, old_w[u]))
        wv = max(old_w[v], reweights.get(v, old_w[v]))
        effective_edges.append((u, v, want, min(wu, wv)))
        barrier = max(barrier, min(wu, wv))

    cores = graph._core_numbers
    effective_rw: Dict[int, float] = {}
    for rank, w in reweights.items():
        if w == old_w[rank]:
            stats.noops += 1
            continue
        effective_rw[rank] = w
        weight = max(old_w[rank], w)
        barrier = max(barrier, weight)
        stats.levels.append(
            (cores[rank] if cores is not None else math.inf, weight)
        )

    if not effective_edges and not effective_rw:
        return graph, barrier, stats

    stats.inserted = sum(1 for _, _, want, _ in effective_edges if want)
    stats.deleted = len(effective_edges) - stats.inserted
    stats.reweighted = len(effective_rw)

    # A weight collision raises here, before the order is taken.
    window = _rerank(graph, effective_rw) if effective_rw else None
    order = _take_order(graph)
    if window is not None:
        new = _relabel(graph, effective_rw, window, order)
        # Only a relabel that keeps every rank's vertex keeps the labels.
        stats.rank_shuffle = new._labels is not graph._labels
        # Same label, new rank: the flips move into the new rank space.
        rank_of, labels = new._rank_of, graph._labels
        effective_edges = [
            (*sorted((rank_of[labels[u]], rank_of[labels[v]])), want, weight)
            for u, v, want, weight in effective_edges
        ]
        graph = new
    if effective_edges:
        if order is None:
            order = KOrder.of(graph)
        graph = _overlay_graph(graph, effective_edges, order, stats)
    graph._core_order = order
    return graph, barrier, stats


def _rerank(
    graph: WeightedGraph, reweights: Dict[int, float]
) -> Tuple[int, List[int], List[float]]:
    """The window of ranks that ``reweights`` reorder, and its new order.

    Returns ``(lo, order, window_weights)``: new rank ``lo + i`` holds
    old rank ``lo + order[i]``, with weight ``window_weights[i]``, and
    every rank outside the window keeps its vertex.  A vertex moved to
    weight ``w`` lands just below the ``at`` vertices heavier than
    ``w``, so the window spans its old rank and ``at`` (moving up) or
    ``at - 1`` (moving down).  One bisect per reweight and one sort of
    the window; raises :class:`GraphConstructionError` when a new
    weight equals another vertex's final weight.
    """
    weights = graph._weights
    lo, hi = len(weights), 0
    for rank, w in reweights.items():
        at = graph.prefix_for_threshold(w)  # ranks at least as heavy
        if at and weights[at - 1] == w:
            if at - 1 not in reweights:  # that vertex keeps weight w
                _collision()
            at -= 1
        lo = min(lo, rank, at)
        hi = max(hi, rank + 1, at)
    if len(set(reweights.values())) != len(reweights):
        _collision()
    window = weights[lo:hi]
    for rank, w in reweights.items():
        window[rank - lo] = w
    order = sorted(range(len(window)), key=window.__getitem__, reverse=True)
    return lo, order, [window[i] for i in order]


def _collision() -> None:
    raise GraphConstructionError(
        "reweight would collide with an existing vertex weight; "
        "weights must stay strictly distinct"
    )


def _relabel(
    graph: WeightedGraph,
    reweights: Dict[int, float],
    window: Tuple[int, List[int], List[float]],
    korder: Optional[KOrder],
) -> WeightedGraph:
    """Reweight ``graph`` by moving ``window``, :func:`_rerank`'s
    window for ``reweights``.

    The permutation ``pi`` is monotone on the vertices ``reweights``
    leaves alone, so the row of such a vertex with no reweighted
    neighbour stays sorted and split at the same place under ``pi``:
    shared when it holds no window rank, mapped otherwise.  The rows of
    the reweighted vertices and of their neighbours in the window are
    re-sorted and split at the new rank; a neighbour outside the window
    only re-sorts its mapped row.  The parent's core numbers, when it
    has them, and ``korder``, the parent's KOrder if it was the tip,
    move with the ranks (core numbers do not depend on weights); the
    prefix-size memo is kept below the window.
    """
    lo, order, window_weights = window
    hi = lo + len(order)
    new = WeightedGraph.__new__(WeightedGraph)
    new._weights = list(graph._weights)
    new._weights[lo:hi] = window_weights
    new._num_edges = graph._num_edges
    new._core_order = None
    cores = graph._core_numbers
    if order == list(range(len(order))):  # every rank keeps its vertex
        new._adj_up, new._adj_down = graph._adj_up, graph._adj_down
        new._labels = graph._labels
        new._label_order = graph._label_order
        new._rank_of = graph._rank_of
        new._prefix_sizes = list(graph._prefix_sizes)
        new._core_numbers, new._core_stops = cores, graph._core_stops
        return new

    old_ranks = [lo + old for old in order]  # by new rank
    pi = list(range(len(new._weights)))
    for i, old in enumerate(old_ranks, lo):
        pi[old] = i
    remap = pi.__getitem__
    up, down = graph._adj_up, graph._adj_down
    new_up, new_down = list(up), list(down)
    # A row that holds a reweighted vertex is out of order under pi.
    resort = set(reweights)
    for rank in reweights:
        resort.update(up[rank])
        resort.update(down[rank])
    neighbours = set()
    for u in range(lo, hi):
        nu = pi[u]
        row, other = up[u], down[u]
        neighbours.update(row)
        neighbours.update(other)
        if u in resort:
            row = sorted(map(remap, row + other))
            cut = bisect_left(row, nu)
            new_up[nu], new_down[nu] = row[:cut], row[cut:]
            continue
        # Ranks below u in the up-row, above it in the down-row: each
        # holds a window rank when its end nearest u does.
        new_up[nu] = list(map(remap, row)) if row and row[-1] >= lo else row
        new_down[nu] = (
            list(map(remap, other)) if other and other[0] < hi else other
        )
    # A neighbour outside the window keeps its rank and its split (the
    # whole window lies on one side of it); the row facing the window
    # is mapped.
    for u in neighbours:
        if u < lo:
            rows, new_rows = down, new_down
        elif u >= hi:
            rows, new_rows = up, new_up
        else:
            continue
        row = list(map(remap, rows[u]))
        if u in resort:
            row.sort()
        new_rows[u] = row
    new._adj_up, new._adj_down = new_up, new_down

    labels = graph._labels
    new._labels = list(labels)
    new._labels[lo:hi] = map(labels.__getitem__, old_ranks)
    new._rank_of = dict(graph._rank_of)
    new._rank_of.update(zip(new._labels[lo:hi], range(lo, hi)))
    new._label_order = graph._label_order.relabelled(new._labels, lo, order)
    new._prefix_sizes = graph._prefix_sizes[:lo + 1]
    if korder is not None:
        korder.relabel(lo, old_ranks, pi)
    if cores is None:
        new._core_numbers = new._core_stops = None
    else:
        cores = list(cores)
        cores[lo:hi] = [cores[old] for old in old_ranks]
        new.set_core_numbers(cores)
    return new


def _overlay_graph(
    graph: WeightedGraph,
    effective_edges: List[Tuple[int, int, bool, float]],
    order: KOrder,
    stats: MutationStats,
) -> WeightedGraph:
    """Flip edges in ``graph``'s rank space: share untouched rows, copy
    touched ones, and run each flip through ``order`` (``graph``'s
    KOrder) against the rows as they stand after it, recording the
    flip's core level on ``stats.levels``."""
    up = list(graph._adj_up)
    down = list(graph._adj_down)
    order.moved = {}
    core = order.core
    delta_m = 0
    # u < v: up-row of v, down-row of u
    for u, v, want, weight in effective_edges:
        if up[v] is graph._adj_up[v]:  # copy a row on its first flip
            up[v] = list(up[v])
        if down[u] is graph._adj_down[u]:
            down[u] = list(down[u])
        if want:
            insort(up[v], u)
            insort(down[u], v)
            delta_m += 1
            stats.core_visited += order.insert(u, v, up, down)
            level = min(core[u], core[v])
        else:
            level = min(core[u], core[v])
            up[v].pop(bisect_left(up[v], u))
            down[u].pop(bisect_left(down[u], v))
            delta_m -= 1
            stats.core_visited += order.remove(u, v, up, down)
        stats.levels.append((level, weight))

    new = WeightedGraph.__new__(WeightedGraph)
    new._weights = graph._weights
    new._adj_up = up
    new._adj_down = down
    new._labels = graph._labels
    new._label_order = graph._label_order
    new._rank_of = graph._rank_of
    new._num_edges = graph._num_edges + delta_m
    # A flip (u, v) with u < v changes size(G_p) only for p > v.
    new._prefix_sizes = graph._prefix_sizes[
        :min(v for _, v, _, _ in effective_edges) + 1
    ]
    new._core_order = None
    cores, moved = graph._core_numbers, order.moved
    if cores is None:
        new.set_core_numbers(order.core.tolist())
    elif not moved:
        new._core_numbers, new._core_stops = cores, graph._core_stops
    else:
        cores = list(cores)
        for rank in moved:
            cores[rank] = order.core[rank]
        new._core_numbers = cores
        new._core_stops = refold_core_stops(graph._core_stops, cores, moved)
    return new


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
