"""The flat-array peel kernel — allocation-free ConstructCVS / CountIC.

:func:`repro.core.count.peel_cvs` (the *python* kernel) is the readable,
line-by-line transcription of Algorithms 2/5 and stays the differential-
testing oracle.  This module is the ``array`` kernel, a pure-stdlib
drop-in replacement that produces **identical**
:class:`~repro.core.count.CVSRecord` outputs while cutting the constant
factor.  It peels directly over the graph's shared
:class:`~repro.graph.csr.CSRAdjacency` buffers instead of materialising
a per-call list-of-lists adjacency, and folds the alive flag into the
degree array: removed vertices are parked at a large negative sentinel,
so liveness is one sign test on the value already in hand and dead
neighbours cost a single comparison.  Its working state lives in a
reusable :class:`PeelScratch`, so the steady state of a progressive
query allocates nothing proportional to the prefix beyond its outputs.

Across the rounds of a progressive query the scratch also carries the
previous round's **down-cuts** forward.  The prefix grows monotonically,
so the next round's cuts are last round's plus one bump per edge into
the new rank region (enumerated from the new vertices' up-rows — the
mirror direction), plus fresh cuts for the new ranks themselves: cut
maintenance in time linear to the *growth*, the flat-array analogue of
the paper's "extract G>=tau incrementally" arrangement (Section 3.1)
and of :meth:`~repro.graph.subgraph.PrefixView.extend`.

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

from ..graph.csr import CSRAdjacency, PrefixAdjacency
from ..graph.subgraph import PrefixView
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
    keyed on the CSR object identity, so accidentally reusing a scratch
    across graphs degrades to a cold round instead of corrupting state.
    """

    __slots__ = ("deg", "stack", "seed_cuts", "seed_p", "csr")

    def __init__(self) -> None:
        self.deg: List[int] = []
        self.stack: List[int] = []
        self.seed_cuts: Optional[List[int]] = None
        self.seed_p = 0
        self.csr: Optional[CSRAdjacency] = None

    def ensure_degree(self, p: int) -> List[int]:
        """The degree buffer, grown (never shrunk) to at least ``p``."""
        deg = self.deg
        if len(deg) < p:
            deg.extend([0] * (p - len(deg)))
        return deg

    def remember(self, csr: CSRAdjacency, p: int, cuts: List[int]) -> None:
        """Record this round's cuts as the seed for the next round."""
        self.csr = csr
        self.seed_cuts = cuts
        self.seed_p = p

    def invalidate(self) -> None:
        """Drop the warm cut state (buffers are kept)."""
        self.seed_cuts = None
        self.seed_p = 0
        self.csr = None


# ----------------------------------------------------------------------
# down-cut maintenance
# ----------------------------------------------------------------------
def _advance_cuts(
    csr: CSRAdjacency, p: int, scratch: PeelScratch
) -> List[int]:
    """Absolute end index of each vertex's in-prefix down-row part.

    Three regimes, cheapest first:

    * whole graph — every row is fully inside the prefix: the cuts are
      the row ends, one C-level slice of the offsets;
    * warm (the scratch carries cuts for a smaller prefix of the same
      graph) — copy and advance: an old row's cut moves only when the
      row gained in-prefix targets, i.e. once per edge ``(v, x)`` with
      ``x`` in the new region, enumerated from ``x``'s up-row (the
      mirror direction), so the work is linear in the growth;
    * cold — one guarded C bisect per vertex (rows entirely inside or
      outside the prefix — the vast majority — settle in two
      comparisons).
    """
    up_off, up_tgt, down_off, down_tgt = csr.lists()
    if p == csr.num_vertices:
        return down_off[1:p + 1]
    if (
        scratch.csr is csr
        and scratch.seed_cuts is not None
        and scratch.seed_p <= p
    ):
        seed_p = scratch.seed_p
        if seed_p == p:
            return scratch.seed_cuts  # identical prefix: reuse as-is
        cuts = scratch.seed_cuts[:seed_p]
        append_cut = cuts.append
        for x in range(seed_p, p):
            lo, hi = down_off[x], down_off[x + 1]
            if lo == hi or down_tgt[lo] >= p:
                append_cut(lo)
            elif down_tgt[hi - 1] < p:
                append_cut(hi)
            else:
                append_cut(bisect_left(down_tgt, p, lo, hi))
        for x in range(seed_p, p):
            a, b = up_off[x], up_off[x + 1]
            if a != b:
                for v in up_tgt[a:b]:
                    if v < seed_p:
                        cuts[v] += 1
        return cuts
    cuts = [0] * p
    for v in range(p):
        lo, hi = down_off[v], down_off[v + 1]
        if lo == hi or down_tgt[lo] >= p:
            cuts[v] = lo
        elif down_tgt[hi - 1] < p:
            cuts[v] = hi
        else:
            cuts[v] = bisect_left(down_tgt, p, lo, hi)
    return cuts


# ----------------------------------------------------------------------
# initial gamma-core reduction
# ----------------------------------------------------------------------
def _reduce_array(
    csr: CSRAdjacency,
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
    up_off, up_tgt, down_off, down_tgt = csr.lists()
    del stack[:]
    push = stack.append
    for v in range(p):
        d = up_off[v + 1] - up_off[v] + cuts[v] - down_off[v]
        if d < gamma:
            deg[v] = _LOW
            push(v)
        else:
            deg[v] = d
    while stack:
        v = stack.pop()
        a, b = up_off[v], up_off[v + 1]
        if a != b:
            for w in up_tgt[a:b]:
                d = deg[w]
                if d >= 0:  # dead vertices are parked at _LOW
                    if d == gamma:
                        deg[w] = _LOW
                        push(w)
                    else:
                        deg[w] = d - 1
        a, b = down_off[v], cuts[v]
        if a != b:
            for w in down_tgt[a:b]:
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
    up_off: List[int],
    up_tgt: List[int],
    down_off: List[int],
    down_tgt: List[int],
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
            a, b = up_off[v], up_off[v + 1]
            if a != b:
                for w in up_tgt[a:b]:
                    d = deg[w]
                    if d >= 0:  # dead neighbours are parked at _LOW
                        if d == gamma:
                            deg[w] = _LOW
                            cvs_append(w)
                        else:
                            deg[w] = d - 1
            a, b = down_off[v], cuts[v]
            if a != b:
                for w in down_tgt[a:b]:
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
                for w in up_tgt[up_off[v]:up_off[v + 1]]:
                    if deg[w] >= 0:
                        is_nc = False
                        break
                if is_nc:
                    for w in down_tgt[down_off[v]:cuts[v]]:
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
    wall time in ms (``csr_build`` = the graph's one-time CSR
    materialisation, amortised to ~0 on later rounds; ``gamma_core`` =
    degree/cut maintenance + the γ-core reduction; ``peel`` = the
    ordered group peel) via :func:`repro.obs.trace.record_phase`.
    """
    if gamma < 1:
        raise ValueError("gamma must be at least 1")
    t0 = perf_counter()
    csr = view.graph.csr()
    t1 = perf_counter()
    p = view.p
    sc = scratch if scratch is not None else PeelScratch()
    if sc.csr is not csr:
        sc.invalidate()
    deg = sc.ensure_degree(p)
    cuts = _advance_cuts(csr, p, sc)
    _reduce_array(csr, p, gamma, cuts, deg, sc.stack)
    sc.remember(csr, p, cuts)
    t2 = perf_counter()

    up_off, up_tgt, down_off, down_tgt = csr.lists()
    keys, cvs, starts, nc_flags = _peel_groups(
        up_off, up_tgt, down_off, down_tgt,
        cuts, deg, p, gamma, stop_rank, track_noncontainment,
    )
    t3 = perf_counter()
    record_phase("csr_build", t1 - t0, phases)
    record_phase("gamma_core", t2 - t1, phases)
    record_phase("peel", t3 - t2, phases)
    return CVSRecord(
        keys=keys,
        cvs=cvs,
        starts=starts,
        p=p,
        gamma=gamma,
        stop_rank=stop_rank,
        nbrs=PrefixAdjacency(csr, p, cuts),
        noncontainment=nc_flags,
    )
