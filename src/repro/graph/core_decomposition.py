"""k-core machinery: γ-core reduction and full core decomposition.

The γ-core of a graph is its maximal subgraph with minimum degree at least
γ (Seidman [34]).  Influential γ-communities live inside γ-cores, and
CountIC's first step (Line 1 of Algorithm 2) is a γ-core reduction.

This module provides:

* :func:`gamma_core` — alive-flags of the γ-core of a :class:`PrefixView`,
  by the standard linear-time cascade peel;
* :func:`core_decomposition` — core numbers of every vertex via
  bucket-based peeling (O(n + m), Batagelj–Zaveršnik);
* :func:`degeneracy` — the maximum core number; this is the ``γmax``
  statistic of Table 1 in the paper (largest γ with a non-empty γ-core);
* :func:`core_stops` — the same decomposition folded into one stop rank
  per γ (:func:`fold_core_stops`), the bound that ends a search once
  its prefix holds the γ-core.

Core numbers do not depend on vertex weights, so one decomposition
serves every γ and every reweight.
:meth:`~repro.graph.weighted_graph.WeightedGraph.core_table` keeps the
per-rank core numbers with the folded stops and carries both across
generations.  A reweight that reorders ranks permutes the numbers
inside the moved window and refolds the stops (:func:`fold_core_stops`,
O(n)); an edge insertion raises any core number by at most 1 (Li, Yu &
Mao, TKDE 2014; Sariyüce et al., VLDB 2013) and a deletion raises none.
The inserts add up to a slack that loosens the bound, so each
compaction (:meth:`~repro.service.registry.GraphRegistry.compact`)
runs one fresh decomposition and publishes an exact table.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .subgraph import PrefixView
from .weighted_graph import WeightedGraph

__all__ = [
    "gamma_core",
    "gamma_core_members",
    "core_decomposition",
    "degeneracy",
    "core_stops",
    "fold_core_stops",
]


def gamma_core(
    view: PrefixView, gamma: int
) -> Tuple[List[bool], List[int]]:
    """Compute the γ-core of a prefix view.

    Returns ``(alive, degree)`` where ``alive[u]`` says whether rank ``u``
    survives in the γ-core and ``degree[u]`` is its degree among surviving
    vertices (meaningless for dead vertices).  Runs in O(size(view)).

    A vertex with degree < γ is removed; removals cascade until the
    remaining subgraph has minimum degree >= γ (possibly empty).
    """
    if gamma < 0:
        raise ValueError("gamma must be non-negative")
    p = view.p
    deg = view.degrees()
    alive = [True] * p
    graph = view.graph

    stack = [u for u in range(p) if deg[u] < gamma]
    for u in stack:
        alive[u] = False
    while stack:
        u = stack.pop()
        for w in graph.neighbors_in_prefix(u, p):
            if alive[w]:
                deg[w] -= 1
                if deg[w] == gamma - 1:
                    alive[w] = False
                    stack.append(w)
    return alive, deg


def gamma_core_members(view: PrefixView, gamma: int) -> List[int]:
    """Ranks of the vertices in the γ-core of the view (ascending)."""
    alive, _ = gamma_core(view, gamma)
    return [u for u in range(view.p) if alive[u]]


def core_decomposition(graph: WeightedGraph) -> List[int]:
    """Core number of every vertex, by bucket peeling in O(n + m).

    ``core[u]`` is the largest γ such that ``u`` belongs to the γ-core of
    ``graph``.
    """
    n = graph.num_vertices
    if n == 0:
        return []
    up = [graph.neighbors_up(u) for u in range(n)]
    down = [graph.neighbors_down(u) for u in range(n)]
    deg = [len(a) + len(b) for a, b in zip(up, down)]
    max_deg = max(deg)

    # Bucket sort vertices by degree.
    bins = [0] * (max_deg + 2)
    for d in deg:
        bins[d] += 1
    start = 0
    for d in range(max_deg + 1):
        count = bins[d]
        bins[d] = start
        start += count
    pos = [0] * n
    order = [0] * n
    for u in range(n):
        pos[u] = bins[deg[u]]
        order[pos[u]] = u
        bins[deg[u]] += 1
    # Rewind bin starts.
    for d in range(max_deg, 0, -1):
        bins[d] = bins[d - 1]
    bins[0] = 0

    core = deg  # lowered in place
    # Swaps only touch positions after the current one, so iterating
    # ``order`` while it changes visits vertices in peel order.
    for u in order:
        cu = core[u]
        for row in (up[u], down[u]):
            for w in row:
                dw = core[w]
                if dw > cu:
                    # Move w to the front of its bucket, then shrink it.
                    pw = pos[w]
                    ps = bins[dw]
                    if ps != pw:
                        s = order[ps]
                        order[ps], order[pw] = w, s
                        pos[w], pos[s] = ps, pw
                    bins[dw] = ps + 1
                    core[w] = dw - 1
    return core


def degeneracy(graph: WeightedGraph) -> int:
    """The degeneracy of the graph — ``γmax`` of Table 1.

    The largest γ for which the γ-core is non-empty.
    """
    cores = core_decomposition(graph)
    return max(cores) if cores else 0


def core_stops(graph: WeightedGraph) -> List[int]:
    """``stops[γ]`` = 1 + the highest rank whose core number is >= γ.

    One entry per γ in ``0..degeneracy``; for a larger γ the γ-core is
    empty.  The γ-core of ``graph`` lies inside the rank prefix
    ``[0, stops[γ])``, and so does the γ-core of every prefix
    ``G_p`` (a subgraph of ``graph``): once a search's prefix reaches
    ``stops[γ]`` it holds the whole γ-core and with it every
    influential γ-community.  O(n + m), one :func:`core_decomposition`.
    """
    return fold_core_stops(core_decomposition(graph))


def fold_core_stops(cores: List[int]) -> List[int]:
    """The :func:`core_stops` table of per-rank core numbers ``cores``.

    >>> fold_core_stops([3, 3, 3, 3, 1, 1, 1])
    [7, 7, 4, 4]
    """
    # A dict keeps the last write per key: core -> 1 + its highest rank.
    last = dict(zip(cores, range(1, len(cores) + 1)))
    stops = [0] * (max(last, default=-1) + 1)
    for core, stop in last.items():
        stops[core] = stop
    for gamma in range(len(stops) - 2, -1, -1):
        stops[gamma] = max(stops[gamma], stops[gamma + 1])
    return stops
