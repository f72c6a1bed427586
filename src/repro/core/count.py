"""CountIC / ConstructCVS — keynode peeling (Algorithms 2 and 5).

The number of influential γ-communities in a graph equals its number of
*keynodes* (Lemma 3.4): vertices ``u`` for which some subgraph with minimum
degree ≥ γ has influence value exactly ``w(u)``.  Algorithm 2 (CountIC)
computes all keynodes of a graph in **linear time** by iteratively

1. reducing the graph to its γ-core,
2. extracting the minimum-weight vertex ``u`` (a keynode), and
3. removing ``u`` and re-reducing to the γ-core (procedure ``Remove``),
   appending every removed vertex to the *community-aware vertex sequence*
   ``cvs``.

Algorithm 5 (ConstructCVS) is the same peel with an early stop used by the
progressive algorithm: stop as soon as the next minimum-weight vertex
already belonged to the previous (smaller) subgraph — its keynodes were
reported in earlier rounds (the suffix property of Section 4).

Rank encoding makes both trivial to implement in O(size): the
minimum-weight alive vertex is always the maximum alive rank, found with a
single descending scan pointer, and "belongs to the previous subgraph"
means "rank < previous prefix length".

The result is a :class:`CVSRecord`: ``keys`` (keynode ranks in extraction,
i.e. increasing-weight, order), ``cvs`` (vertex removal sequence) and the
group boundaries ``starts``, from which
:mod:`repro.core.enumerate` reconstructs the communities.  Vertices removed
by the *initial* γ-core reduction belong to no community of the graph and
are appended to neither sequence.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..graph.subgraph import PrefixView

__all__ = ["CVSRecord", "peel_cvs", "construct_cvs", "count_communities"]


@dataclass
class CVSRecord:
    """Output of the keynode peel over one (prefix) subgraph.

    Attributes
    ----------
    keys:
        Keynode ranks in extraction order — **increasing weight**
        (equivalently strictly decreasing rank).  ``keys[-1]`` is the
        highest-influence keynode: the top-1 community's keynode.
    cvs:
        The community-aware vertex sequence: every vertex removed by the
        main peel, in removal order.  ``cvs`` is partitioned into
        contiguous *groups*, one per keynode, each beginning with its
        keynode.
    starts:
        ``starts[i]`` = offset in ``cvs`` where keynode ``keys[i]``'s group
        begins.
    p:
        The prefix length (number of vertices) of the peeled subgraph.
    gamma:
        The cohesiveness parameter used.
    stop_rank:
        The progressive early-stop boundary that was applied (0 = none):
        only keynodes with rank >= ``stop_rank`` were extracted.
    nbrs:
        The prefix adjacency used by the peel — a materialised
        list-of-lists (python kernel) or a graph-row
        :class:`~repro.graph.subgraph.PrefixAdjacency` (array kernel);
        either way ``nbrs[v]`` is the in-prefix neighbour row EnumIC
        scans ("neighbours of v in g", Line 10 of Algorithm 3).
    noncontainment:
        When non-containment tracking was requested: one flag per keynode,
        true iff the keynode is a non-containment keynode (Section 5.1).
    """

    keys: List[int]
    cvs: List[int]
    starts: List[int]
    p: int
    gamma: int
    stop_rank: int = 0
    nbrs: Optional[Sequence[Sequence[int]]] = None
    noncontainment: Optional[List[bool]] = None
    #: Lazily-filled ``group(i)`` tuples; groups are immutable, so the
    #: slices are computed once and shared by every caller thereafter.
    _group_cache: Dict[int, Tuple[int, ...]] = field(
        default_factory=dict, repr=False, compare=False
    )

    @property
    def num_communities(self) -> int:
        """``CountIC``'s answer: |keys| (Lemma 3.4)."""
        return len(self.keys)

    @property
    def num_noncontainment(self) -> int:
        """Number of non-containment keynodes (requires tracking)."""
        if self.noncontainment is None:
            raise ValueError(
                "peel was run without track_noncontainment=True"
            )
        return sum(self.noncontainment)

    def group(self, i: int) -> Tuple[int, ...]:
        """The ``gp(keys[i])`` vertex group (keynode first).

        Returned as a cached, immutable tuple: the serving tier hands
        groups out per request, and groups never change once peeled, so
        repeat calls must not re-copy the ``cvs`` slice.
        """
        cached = self._group_cache.get(i)
        if cached is None:
            start = self.starts[i]
            stop = (
                self.starts[i + 1] if i + 1 < len(self.starts) else len(self.cvs)
            )
            cached = tuple(self.cvs[start:stop])
            self._group_cache[i] = cached
        return cached

    def group_bounds(self, i: int) -> Tuple[int, int]:
        """Half-open ``cvs`` bounds of group ``i``."""
        start = self.starts[i]
        stop = self.starts[i + 1] if i + 1 < len(self.starts) else len(self.cvs)
        return start, stop


def peel_cvs(
    nbrs: List[List[int]],
    gamma: int,
    stop_rank: int = 0,
    track_noncontainment: bool = False,
    p: Optional[int] = None,
) -> CVSRecord:
    """Run the keynode peel over an explicit adjacency (Algorithms 2/5).

    Parameters
    ----------
    nbrs:
        Adjacency lists of the subgraph over ranks ``0..len(nbrs)-1``;
        rank order must follow decreasing weight.  The lists are not
        modified.
    gamma:
        Minimum-degree cohesiveness parameter (γ >= 1).
    stop_rank:
        Stop extracting once the minimum-weight alive vertex has rank
        below this value (Algorithm 5's threshold; 0 disables).
    track_noncontainment:
        Also decide, per keynode, whether it is a non-containment keynode:
        true iff no vertex removed by its ``Remove`` call still has an
        alive neighbour afterwards (Section 5.1).

    Runs in O(p + m) time and space.
    """
    if gamma < 1:
        raise ValueError("gamma must be at least 1")
    if p is None:
        p = len(nbrs)
    deg = [len(row) for row in nbrs]
    alive = bytearray([1]) * p if p else bytearray()

    # --- Line 1: reduce to the gamma-core (removals recorded nowhere) ---
    stack = [u for u in range(p) if deg[u] < gamma]
    for u in stack:
        alive[u] = 0
    while stack:
        u = stack.pop()
        for w in nbrs[u]:
            if alive[w]:
                deg[w] -= 1
                if deg[w] == gamma - 1:
                    alive[w] = 0
                    stack.append(w)

    # --- main peel -------------------------------------------------------
    keys: List[int] = []
    cvs: List[int] = []
    starts: List[int] = []
    nc_flags: Optional[List[bool]] = [] if track_noncontainment else None

    queue: deque = deque()
    ptr = p - 1
    while True:
        while ptr >= stop_rank and not alive[ptr]:
            ptr -= 1
        if ptr < stop_rank:
            break
        u = ptr  # the minimum-weight alive vertex (Line 5 of Algorithm 2)
        keys.append(u)
        group_start = len(cvs)
        starts.append(group_start)

        # Procedure Remove(u, g, cvs): delete u, cascade gamma-core upkeep.
        alive[u] = 0
        queue.append(u)
        while queue:
            v = queue.popleft()
            cvs.append(v)
            for w in nbrs[v]:
                if alive[w]:
                    deg[w] -= 1
                    if deg[w] == gamma - 1:
                        alive[w] = 0
                        queue.append(w)

        if nc_flags is not None:
            # u is a non-containment keynode iff nothing removed in this
            # batch still touches a surviving vertex.
            is_nc = True
            for v in cvs[group_start:]:
                if any(alive[w] for w in nbrs[v]):
                    is_nc = False
                    break
            nc_flags.append(is_nc)

    return CVSRecord(
        keys=keys,
        cvs=cvs,
        starts=starts,
        p=p,
        gamma=gamma,
        stop_rank=stop_rank,
        nbrs=nbrs,
        noncontainment=nc_flags,
    )


def construct_cvs(
    view: PrefixView,
    gamma: int,
    stop_rank: int = 0,
    track_noncontainment: bool = False,
    kernel: Optional[str] = None,
    scratch=None,
    phases=None,
) -> CVSRecord:
    """ConstructCVS over a prefix view — the kernel dispatcher.

    This is the entry point used by LocalSearch (Algorithm 1, via
    ``CountIC``) and LocalSearch-P (Algorithm 4, with ``stop_rank`` set to
    the previous round's prefix length).

    ``kernel`` selects the peel implementation (any name in
    :data:`~repro.core.fastpeel.KERNELS`); ``None`` defers to the
    ``REPRO_KERNEL`` environment variable, then ``auto``.  Both kernels
    produce identical records (:mod:`repro.core.fastpeel`); the
    ``python`` kernel — this
    module's :func:`peel_cvs` over a materialised adjacency — is the
    differential-testing oracle.  ``scratch`` optionally carries a
    :class:`~repro.core.fastpeel.PeelScratch` across the rounds of one
    progressive query so buffers and down-cuts are reused.  ``phases``
    optionally accumulates per-phase wall time in ms (see
    :func:`repro.obs.trace.record_phase`) — the python kernel reports
    ``adjacency``/``peel``, the array kernel ``gamma_core`` / ``peel``;
    :func:`peel_cvs` itself stays untouched
    (it is the differential-testing oracle).
    """
    from time import perf_counter

    from ..obs.trace import record_phase
    from .fastpeel import fast_construct_cvs, resolve_kernel

    resolved = resolve_kernel(kernel)
    if resolved != "python":
        return fast_construct_cvs(
            view,
            gamma,
            stop_rank=stop_rank,
            track_noncontainment=track_noncontainment,
            scratch=scratch,
            phases=phases,
        )
    t0 = perf_counter()
    nbrs = view.neighbor_lists()
    t1 = perf_counter()
    record = peel_cvs(
        nbrs,
        gamma,
        stop_rank=stop_rank,
        track_noncontainment=track_noncontainment,
    )
    t2 = perf_counter()
    record_phase("adjacency", t1 - t0, phases)
    record_phase("peel", t2 - t1, phases)
    return record


def count_communities(
    view: PrefixView, gamma: int, kernel: Optional[str] = None
) -> int:
    """``CountIC(g, gamma)`` — the number of influential γ-communities.

    Linear in ``size(view)`` (Theorem 3.2).
    """
    return construct_cvs(view, gamma, kernel=kernel).num_communities
