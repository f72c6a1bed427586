"""The flat-array peel kernel — allocation-free ConstructCVS / CountIC.

:func:`repro.core.count.peel_cvs` (the *python* kernel) is the readable,
line-by-line transcription of Algorithms 2/5 and stays the differential-
testing oracle.  This module is the ``array`` kernel, a pure-stdlib
drop-in replacement that produces **identical**
:class:`~repro.core.count.CVSRecord` outputs while cutting the constant
factor.  It peels directly over the graph's own sorted ``N>=`` / ``N<``
rows (``graph._adj_up`` / ``graph._adj_down``, Section 3.1) instead of
materialising a per-call list-of-lists adjacency: a prefix ``G_p`` is
those rows plus one *cut* per vertex, the number of its down-neighbours
inside the prefix.  It folds the alive flag into the degree array:
removed vertices are parked at a large negative sentinel, so liveness
is one sign test on the value already in hand and dead neighbours cost
a single comparison.  Its working state lives in a reusable
:class:`PeelScratch`, so the steady state of a progressive query
allocates nothing proportional to the prefix beyond its outputs.

Across the rounds of a progressive query the scratch also carries the
previous round's cuts forward.  The prefix grows monotonically, so the
next round's cuts are last round's plus one bump per edge into the new
rank region (enumerated from the new vertices' up-rows — the mirror
direction), plus fresh cuts for the new ranks themselves: cut
maintenance in time linear to the *growth*, the analogue of the paper's
"extract G>=tau incrementally" arrangement (Section 3.1) and of
:meth:`~repro.graph.subgraph.PrefixView.extend`.

Kernel selection (:func:`resolve_kernel`): an explicit argument wins,
then the ``REPRO_KERNEL`` environment variable, then ``auto``, which is
the ``array`` kernel.  :data:`KERNELS` is the one table of accepted
names; ``numpy`` (a retired vectorised kernel) stays a legal name for
``array`` so pinned deployments and older clients keep working.

Equivalence argument (tested exhaustively in ``tests/test_fastpeel.py``):
the initial γ-core reduction is recorded nowhere and its fixpoint (the
γ-core, with each survivor's degree restricted to survivors) is unique,
so any strategy that reaches the fixpoint yields the same state; the
main peel then uses the python kernel's exact queue discipline (FIFO per
``Remove``, rows iterated up-part-then-down-part ascending), so ``keys``
/ ``cvs`` / ``starts`` / non-containment flags match element for
element.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from time import perf_counter
from typing import List, Optional, Tuple

from ..graph.subgraph import PrefixAdjacency, PrefixView
from ..graph.weighted_graph import WeightedGraph
from ..obs.trace import record_phase
from .count import CVSRecord

__all__ = [
    "KERNELS",
    "PeelScratch",
    "resolve_kernel",
    "fast_construct_cvs",
]

#: Every accepted kernel name and the kernel it runs: ``python`` is the
#: oracle, ``array`` the fast path and ``auto`` the default.  ``numpy``
#: named a retired vectorised kernel; pinned deployments and older wire
#: clients still send it, so it stays legal and runs (and reports)
#: ``array``.
KERNELS = {
    "auto": "array",
    "python": "python",
    "array": "array",
    "numpy": "array",
}

#: Environment variable consulted when no explicit kernel is passed.
KERNEL_ENV_VAR = "REPRO_KERNEL"

#: Dead-vertex degree sentinel.  Decrements only ever push it further
#: below zero (at most m < 2**30 times), so a parked vertex can never
#: re-trigger a removal test, and liveness is simply ``deg >= 0``.
_LOW = -(1 << 30)


def resolve_kernel(kernel: Optional[str] = None) -> str:
    """Resolve an explicit kernel name / env var / ``auto`` to a kernel."""
    name = kernel if kernel is not None else os.environ.get(
        KERNEL_ENV_VAR, "auto"
    )
    name = name.strip().lower() or "auto"
    try:
        return KERNELS[name]
    except KeyError:
        raise ValueError(
            f"unknown peel kernel {name!r}; choose from {', '.join(KERNELS)}"
        ) from None


class PeelScratch:
    """Reusable working state of the fast peel, carried across rounds.

    A progressive query peels a monotonically growing prefix once per
    round.  The scratch keeps the flat degree buffer and the traversal
    stack alive between rounds (they only grow, by C-level ``extend``),
    and remembers the previous round's down-cuts so the next round
    advances them incrementally instead of re-searching every row.

    One scratch belongs to one graph at a time; the carried cuts are
    keyed on the graph object identity, so accidentally reusing a
    scratch across graphs degrades to a cold round instead of
    corrupting state.
    """

    __slots__ = ("deg", "stack", "seed_cuts", "seed_p", "graph")

    def __init__(self) -> None:
        self.deg: List[int] = []
        self.stack: List[int] = []
        self.seed_cuts: Optional[List[int]] = None
        self.seed_p = 0
        self.graph: Optional[WeightedGraph] = None

    def ensure_degree(self, p: int) -> List[int]:
        """The degree buffer, grown (never shrunk) to at least ``p``."""
        deg = self.deg
        if len(deg) < p:
            deg.extend([0] * (p - len(deg)))
        return deg

    def remember(self, graph: WeightedGraph, p: int, cuts: List[int]) -> None:
        """Record this round's cuts as the seed for the next round."""
        self.graph = graph
        self.seed_cuts = cuts
        self.seed_p = p

    def invalidate(self) -> None:
        """Drop the warm cut state (buffers are kept)."""
        self.seed_cuts = None
        self.seed_p = 0
        self.graph = None


# ----------------------------------------------------------------------
# down-cut maintenance
# ----------------------------------------------------------------------
def _advance_cuts(
    graph: WeightedGraph, p: int, scratch: PeelScratch
) -> List[int]:
    """Number of in-prefix down-neighbours of each vertex of ``G_p``.

    Three regimes, cheapest first:

    * whole graph — every row is fully inside the prefix: the cuts are
      the row lengths;
    * warm (the scratch carries cuts for a smaller prefix of the same
      graph) — copy and advance: an old row's cut moves only when the
      row gained in-prefix targets, i.e. once per edge ``(v, x)`` with
      ``x`` in the new region, enumerated from ``x``'s up-row (the
      mirror direction), so the work is linear in the growth;
    * cold — one C bisect per vertex.
    """
    down = graph._adj_down
    if p == graph.num_vertices:
        return list(map(len, down))
    if (
        scratch.graph is graph
        and scratch.seed_cuts is not None
        and scratch.seed_p <= p
    ):
        seed_p = scratch.seed_p
        if seed_p == p:
            return scratch.seed_cuts  # identical prefix: reuse as-is
        cuts = scratch.seed_cuts[:seed_p]
        cuts.extend([bisect_left(row, p) for row in down[seed_p:p]])
        for row in graph._adj_up[seed_p:p]:
            for v in row:
                if v >= seed_p:
                    break  # rows are sorted: the rest are new ranks
                cuts[v] += 1
        return cuts
    return [bisect_left(row, p) for row in down[:p]]


# ----------------------------------------------------------------------
# initial gamma-core reduction
# ----------------------------------------------------------------------
def _reduce_array(
    graph: WeightedGraph,
    p: int,
    gamma: int,
    cuts: List[int],
    deg: List[int],
    stack: List[int],
) -> None:
    """Degrees + γ-core reduction, stdlib (Line 1 of Algorithm 2).

    Fills ``deg[:p]`` with the post-reduction state: survivor degrees
    restricted to survivors, removed vertices parked at the sentinel.
    """
    up, down = graph._adj_up, graph._adj_down
    del stack[:]
    push = stack.append
    for v in range(p):
        d = len(up[v]) + cuts[v]
        if d < gamma:
            deg[v] = _LOW
            push(v)
        else:
            deg[v] = d
    while stack:
        v = stack.pop()
        for w in up[v]:
            d = deg[w]
            if d >= 0:  # dead vertices are parked at _LOW
                if d == gamma:
                    deg[w] = _LOW
                    push(w)
                else:
                    deg[w] = d - 1
        c = cuts[v]
        if c:
            for w in down[v][:c]:
                d = deg[w]
                if d >= 0:
                    if d == gamma:
                        deg[w] = _LOW
                        push(w)
                    else:
                        deg[w] = d - 1


# ----------------------------------------------------------------------
# the main keynode peel
# ----------------------------------------------------------------------
def _peel_groups(
    up: List[List[int]],
    down: List[List[int]],
    cuts: List[int],
    deg: List[int],
    p: int,
    gamma: int,
    stop_rank: int,
    track_noncontainment: bool,
) -> Tuple[List[int], List[int], List[int], Optional[List[bool]]]:
    """The main keynode peel (Lines 2-8 of Algorithm 2 / Algorithm 5).

    Identical discipline to :func:`repro.core.count.peel_cvs`: the
    minimum-weight alive vertex is the maximum alive rank (descending
    scan pointer); ``Remove`` is a FIFO cascade whose pop order *is* the
    ``cvs`` order, so ``cvs`` itself serves as the queue; rows are
    visited up-part then in-prefix down-part.
    """
    keys: List[int] = []
    cvs: List[int] = []
    starts: List[int] = []
    nc_flags: Optional[List[bool]] = [] if track_noncontainment else None
    cvs_append = cvs.append
    ptr = p - 1
    while True:
        while ptr >= stop_rank and deg[ptr] < 0:
            ptr -= 1
        if ptr < stop_rank:
            break
        u = ptr
        keys.append(u)
        group_start = len(cvs)
        starts.append(group_start)

        deg[u] = _LOW
        cvs_append(u)
        head = group_start
        while head < len(cvs):
            v = cvs[head]
            head += 1
            for w in up[v]:
                d = deg[w]
                if d >= 0:  # dead neighbours are parked at _LOW
                    if d == gamma:
                        deg[w] = _LOW
                        cvs_append(w)
                    else:
                        deg[w] = d - 1
            c = cuts[v]
            if c:
                for w in down[v][:c]:
                    d = deg[w]
                    if d >= 0:
                        if d == gamma:
                            deg[w] = _LOW
                            cvs_append(w)
                        else:
                            deg[w] = d - 1

        if nc_flags is not None:
            # Non-containment iff no vertex of this batch still touches
            # a survivor (alive <=> deg >= 0 under the sentinel scheme).
            is_nc = True
            for v in cvs[group_start:]:
                for w in up[v]:
                    if deg[w] >= 0:
                        is_nc = False
                        break
                if is_nc:
                    for w in down[v][:cuts[v]]:
                        if deg[w] >= 0:
                            is_nc = False
                            break
                if not is_nc:
                    break
            nc_flags.append(is_nc)

    return keys, cvs, starts, nc_flags


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def fast_construct_cvs(
    view: PrefixView,
    gamma: int,
    stop_rank: int = 0,
    track_noncontainment: bool = False,
    scratch: Optional[PeelScratch] = None,
    phases=None,
) -> CVSRecord:
    """ConstructCVS over a prefix view via the flat-array kernel.

    Output-equivalent to the python kernel of
    :func:`repro.core.count.construct_cvs`; ``scratch`` (optional)
    carries buffers and down-cut seeds across the rounds of one
    progressive query.  ``phases`` optionally accumulates per-phase
    wall time in ms (``gamma_core`` = cut maintenance + the γ-core
    reduction; ``peel`` = the ordered group peel) via
    :func:`repro.obs.trace.record_phase`.
    """
    if gamma < 1:
        raise ValueError("gamma must be at least 1")
    t0 = perf_counter()
    graph = view.graph
    p = view.p
    sc = scratch if scratch is not None else PeelScratch()
    if sc.graph is not graph:
        sc.invalidate()
    deg = sc.ensure_degree(p)
    cuts = _advance_cuts(graph, p, sc)
    _reduce_array(graph, p, gamma, cuts, deg, sc.stack)
    sc.remember(graph, p, cuts)
    t1 = perf_counter()

    keys, cvs, starts, nc_flags = _peel_groups(
        graph._adj_up, graph._adj_down,
        cuts, deg, p, gamma, stop_rank, track_noncontainment,
    )
    t2 = perf_counter()
    record_phase("gamma_core", t1 - t0, phases)
    record_phase("peel", t2 - t1, phases)
    return CVSRecord(
        keys=keys,
        cvs=cvs,
        starts=starts,
        p=p,
        gamma=gamma,
        stop_rank=stop_rank,
        nbrs=PrefixAdjacency(graph, p, cuts),
        noncontainment=nc_flags,
    )
