"""k-core machinery: γ-core reduction, core decomposition, and exact
core numbers maintained across edge flips.

The γ-core of a graph is its maximal subgraph with minimum degree at least
γ (Seidman [34]).  Influential γ-communities live inside γ-cores, and
CountIC's first step (Line 1 of Algorithm 2) is a γ-core reduction.

This module provides:

* :func:`gamma_core` — alive-flags of the γ-core of a :class:`PrefixView`,
  by the standard linear-time cascade peel;
* :func:`core_decomposition` — core numbers of every vertex via
  bucket-based peeling (O(n + m), Batagelj–Zaveršnik), and
  :func:`peel_order`, the same peel with its order;
* :func:`degeneracy` — the maximum core number; this is the ``γmax``
  statistic of Table 1 in the paper (largest γ with a non-empty γ-core);
* :func:`core_stops` — the same decomposition folded into one stop rank
  per γ (:func:`fold_core_stops`), the bound that ends a search once
  its prefix holds the γ-core;
* :class:`KOrder` — the core numbers kept exact across edge insertions
  and deletions by the order-based maintenance of Zhang, Yu, Zhang &
  Qin ("A Fast Order-Based Approach for Core Maintenance", ICDE 2017).

Core numbers do not depend on vertex weights, so one decomposition
serves every γ and every reweight.
:meth:`~repro.graph.weighted_graph.WeightedGraph.core_table` keeps the
per-rank core numbers with the folded stops, exact on every graph
generation.  A reweight that reorders ranks permutes the numbers inside
the moved window and refolds the stops (:func:`fold_core_stops`, O(n)).
An edge flip runs through the graph's :class:`KOrder`: a BZ peel order
(a *k-order*) with, per vertex, ``deg+`` — its neighbours later in the
order.  ``deg+(v) <= core(v)`` holds for every vertex, so an insertion
that keeps it changes no core number; otherwise only the K-shell after
the earlier endpoint is re-peeled, visiting just the vertices whose
count of candidate neighbours is positive.  A deletion drops the
vertices of the K-shell whose count of neighbours with core >= K falls
below K to the tail of the (K-1)-shell.  :func:`~repro.graph.delta.apply_batch`
drives it one flip at a time and hands it from generation to
generation; a generation that is not the tip of an order builds one
from a single decomposition on its first batch of flips.
"""

from __future__ import annotations

from array import array
from heapq import heapify, heappop, heappush
from typing import Dict, List, Sequence, Tuple

from .subgraph import PrefixView
from .weighted_graph import WeightedGraph

__all__ = [
    "gamma_core",
    "gamma_core_members",
    "core_decomposition",
    "peel_order",
    "degeneracy",
    "core_stops",
    "fold_core_stops",
    "refold_core_stops",
    "KOrder",
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
    return peel_order(graph)[0]


def peel_order(graph: WeightedGraph) -> Tuple[List[int], List[int]]:
    """``(core, order)``: the core numbers and the order in which the
    bucket peel removed the vertices.

    Core numbers never decrease along ``order``, and each vertex has at
    most ``core[u]`` neighbours later in it: ``order`` is a k-order, the
    starting point of :class:`KOrder`.
    """
    n = graph.num_vertices
    if n == 0:
        return [], []
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
    return core, order


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


def refold_core_stops(
    stops: List[int], cores: List[int], moved: Dict[int, int]
) -> List[int]:
    """The :func:`fold_core_stops` table of ``cores``, updated from
    ``stops``, the table of ``cores`` before the ranks in ``moved``
    changed; ``moved`` maps each such rank to its old core number.

    A rise at rank r lifts each level it passes to at least r + 1; a
    fall re-reads each level it leaves whose stop rank no longer
    reaches it, scanning down for the next rank that does.

    >>> refold_core_stops([7, 7, 4, 4], [3, 3, 3, 2, 1, 2, 1], {3: 3, 5: 1})
    [7, 7, 6, 3]
    """
    stops = list(stops)
    for rank, old in moved.items():
        new = cores[rank]
        if new > old:
            stops.extend([0] * (new + 1 - len(stops)))
            for gamma in range(old + 1, new + 1):
                stops[gamma] = max(stops[gamma], rank + 1)
    for rank, old in moved.items():
        for gamma in range(cores[rank] + 1, old + 1):
            top = stops[gamma] - 1
            while top >= 0 and cores[top] < gamma:
                top -= 1
            stops[gamma] = top + 1
    while stops and not stops[-1]:
        stops.pop()
    return stops


#: Key spacing of a freshly labelled shell; a midpoint insert halves a
#: gap, so about 32 inserts land in one gap before its shell relabels.
_GAP = 1 << 32
#: Keys stay inside a signed 64-bit ``array`` slot with room to spare.
_KEY_LIMIT = 1 << 62


class KOrder:
    """Exact core numbers of one evolving graph, kept by the order-based
    core maintenance of Zhang, Yu, Zhang & Qin (ICDE 2017).

    The state is a k-order — the vertices by shell (core number), and
    inside each shell in a peel order — with, per vertex, ``deg[v]`` =
    ``deg+(v)``, its neighbours later in the order; ``deg+(v) <=
    core(v)`` holds for every ``v``.  Each shell is a doubly linked list
    (``nxt``/``prv``, ``head``/``tail`` per core) whose ``key`` values
    increase along it, so ``(core[v], key[v])`` compares two vertices'
    places in O(1); an insert takes the midpoint of its gap and a shell
    whose gap runs out is relabelled.

    :meth:`insert` and :meth:`remove` take the flipped edge and the rows
    of the graph that holds exactly the flips so far (this one
    included), and return the number of vertices they visited.  Vertex
    ids are ranks; :meth:`relabel` moves the order with a re-rank.
    ``moved`` maps each vertex whose core number changed since the
    caller last cleared it to its core number before that.
    """

    __slots__ = ("core", "deg", "key", "nxt", "prv", "head", "tail", "moved")

    def __init__(
        self,
        cores: Sequence[int],
        order: Sequence[int],
        up: Sequence[Sequence[int]],
        down: Sequence[Sequence[int]],
    ) -> None:
        n = len(order)
        position = [0] * n
        for i, v in enumerate(order):
            position[v] = i
        deg = [0] * n
        for v in range(n):  # each edge counts for its earlier endpoint
            pv = position[v]
            for w in up[v]:
                if position[w] > pv:
                    deg[v] += 1
                else:
                    deg[w] += 1
        self.core = array("i", cores)
        self.deg = array("i", deg)
        self.key = array("q", bytes(8 * n))
        self.nxt = array("i", [-1]) * n
        self.prv = array("i", [-1]) * n
        self.head: List[int] = []
        self.tail: List[int] = []
        self.moved: Dict[int, int] = {}
        key, nxt, prv, head, tail = self.key, self.nxt, self.prv, self.head, self.tail
        last, shell, at = -1, -1, 0
        for v in order:
            c = cores[v]
            if c != shell:
                self._grow(c)
                head[c], shell, at = v, c, 0
            else:
                nxt[last], prv[v] = v, last
            key[v] = at * _GAP
            tail[c] = last = v
            at += 1

    @classmethod
    def of(cls, graph: WeightedGraph) -> "KOrder":
        """The order of ``graph``, from one :func:`peel_order`."""
        cores, order = peel_order(graph)
        return cls(cores, order, graph._adj_up, graph._adj_down)

    # ------------------------------------------------------------------
    # the shell lists
    # ------------------------------------------------------------------
    def _grow(self, c: int) -> None:
        while len(self.head) <= c:
            self.head.append(-1)
            self.tail.append(-1)

    def _unlink(self, v: int) -> None:
        c, nxt, prv = self.core[v], self.nxt, self.prv
        a, b = prv[v], nxt[v]
        if a == -1:
            self.head[c] = b
        else:
            nxt[a] = b
        if b == -1:
            self.tail[c] = a
        else:
            prv[b] = a
        nxt[v] = prv[v] = -1

    def _relabel_shell(self, c: int) -> None:
        key, nxt = self.key, self.nxt
        v, at = self.head[c], 0
        while v != -1:
            key[v] = at
            at += _GAP
            v = nxt[v]

    def _place_after(self, a: int, v: int) -> bool:
        """Link ``v`` right after ``a`` in ``a``'s shell; True when the
        shell was relabelled (every key in it changed)."""
        key, nxt = self.key, self.nxt
        c = self.core[a]
        relabelled = False
        b = nxt[a]
        if b == -1:
            if key[a] + _GAP > _KEY_LIMIT:
                self._relabel_shell(c)
                relabelled = True
            key[v] = key[a] + _GAP
            self.tail[c] = v
        else:
            if key[b] - key[a] < 2:
                self._relabel_shell(c)
                relabelled = True
            key[v] = (key[a] + key[b]) // 2
            self.prv[b] = v
        nxt[a], self.prv[v], nxt[v] = v, a, b
        return relabelled

    def _append(self, c: int, v: int) -> None:
        """Link ``v`` (already of core ``c``) at the tail of shell ``c``."""
        self._grow(c)
        last = self.tail[c]
        if last == -1:
            self.head[c] = self.tail[c] = v
            self.key[v] = 0
        else:
            self._place_after(last, v)

    def _prepend(self, c: int, run: List[int]) -> None:
        """Link ``run`` (already of core ``c``), in order, at the head of
        shell ``c``."""
        self._grow(c)
        key, first = self.key, self.head[c]
        if first == -1:
            start = 0
            self.tail[c] = run[-1]
        else:
            if key[first] - len(run) * _GAP < -_KEY_LIMIT:
                self._relabel_shell(c)
            start = key[first] - len(run) * _GAP
            self.prv[first] = run[-1]
        self.head[c] = run[0]
        links = [-1, *run, first]
        for i, v in enumerate(run, 1):
            self.prv[v], self.nxt[v] = links[i - 1], links[i + 1]
            key[v] = start + (i - 1) * _GAP

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def _first(self, a: int, b: int) -> Tuple[int, int]:
        core, key = self.core, self.key
        if (core[a], key[a]) > (core[b], key[b]):
            return b, a
        return a, b

    def insert(
        self, a: int, b: int, up: Sequence[Sequence[int]], down: Sequence[Sequence[int]]
    ) -> int:
        """Account for the new edge ``(a, b)``.

        With ``u`` the endpoint earlier in the order and K its core,
        ``deg+(u)`` rises by one; if that still fits K nothing else
        changes.  Otherwise the K-shell is re-peeled from ``u``, in
        order, visiting only ``u`` and the vertices with ``deg*`` > 0
        (candidate neighbours earlier in the order).  A vertex with
        ``deg+ + deg*`` > K becomes a candidate; any other stays at K
        with ``deg+ += deg*``, and the candidates whose remaining degree
        falls to K are placed right after it.  The candidates left at
        the end rise to K + 1, at the head of the (K+1)-shell.
        """
        core, deg, key = self.core, self.deg, self.key
        u, _ = self._first(a, b)
        big_k = core[u]
        deg[u] += 1
        if deg[u] <= big_k:
            return 0
        dstar: Dict[int, int] = {}  # deg* of the vertices not visited yet
        cand: Dict[int, int] = {}  # candidate -> its deg*, in visit order
        done = set()
        heap = [(key[u], u)]
        # u turns candidate on the first visit; once no candidate is
        # left, no vertex still to visit has deg* > 0.
        while heap and (cand or not done):
            x = heappop(heap)[1]
            if x in done:
                continue
            done.add(x)
            ds = dstar.pop(x, 0)
            if deg[x] + ds > big_k:
                cand[x] = ds
                kx = key[x]
                for row in (up[x], down[x]):
                    for w in row:
                        if core[w] == big_k and key[w] > kx:
                            seen = dstar.get(w, 0)
                            dstar[w] = seen + 1
                            if not seen:
                                heappush(heap, (key[w], w))
            elif ds:
                deg[x] += ds
                freed = []
                for row in (up[x], down[x]):
                    for w in row:
                        if w in cand:  # x was later than w; now it is not
                            deg[w] -= 1
                            if deg[w] + cand[w] == big_k:
                                freed.append(w)
                if freed and self._free(x, freed, cand, dstar, done, up, down):
                    heap = [(key[v], v) for _, v in heap]
                    heapify(heap)
        if cand:
            run = list(cand)
            for v in run:
                self._unlink(v)
                core[v] = big_k + 1
                self.moved.setdefault(v, big_k)
            self._prepend(big_k + 1, run)
        return len(done)

    def _free(self, x, freed, cand, dstar, done, up, down) -> bool:
        """Place the ``freed`` candidates, and those they free in turn,
        right after ``x`` (which stays at K); True when the shell was
        relabelled."""
        core, deg, key = self.core, self.deg, self.key
        big_k = core[x]
        cursor, relabelled = x, False
        while freed:
            f = freed.pop()
            deg[f] += cand.pop(f)
            kf, kx = key[f], key[x]  # re-read: a placement may relabel
            for row in (up[f], down[f]):
                for w in row:
                    if core[w] != big_k:
                        continue
                    if w in cand:
                        if kf < key[w]:  # f counted in deg*(w)
                            cand[w] -= 1
                        else:  # f counted in deg+(w)
                            deg[w] -= 1
                        if deg[w] + cand[w] == big_k:
                            freed.append(w)
                    elif key[w] > kx and w not in done:
                        dstar[w] -= 1  # not visited yet: f is before it
            self._unlink(f)
            relabelled |= self._place_after(cursor, f)
            cursor = f
        return relabelled

    def remove(
        self, a: int, b: int, up: Sequence[Sequence[int]], down: Sequence[Sequence[int]]
    ) -> int:
        """Account for the deleted edge ``(a, b)``.

        With K the smaller core of the two endpoints, the vertices of
        the K-shell whose count of neighbours with core >= K falls below
        K drop to K - 1; they move, in drop order, to the tail of the
        (K-1)-shell, where ``deg+`` is that count, and each K-shell
        neighbour that was earlier in the order loses one from its
        ``deg+``.
        """
        core, deg, key = self.core, self.deg, self.key
        u, v = self._first(a, b)
        deg[u] -= 1  # v was later than u
        big_k = core[u]
        count: Dict[int, int] = {}
        stack = []
        for x in (u, v):
            if core[x] == big_k:
                count[x] = self._support(x, up, down)
                if count[x] < big_k:
                    stack.append(x)
        gone = set(stack)
        while stack:
            x = stack.pop()
            kx = key[x]
            for row in (up[x], down[x]):
                for w in row:
                    if core[w] != big_k:
                        continue
                    c = count.get(w)
                    if c is None:
                        c = self._support(w, up, down)
                    count[w] = c = c - 1
                    if key[w] < kx:
                        deg[w] -= 1
                    if c < big_k and w not in gone:
                        gone.add(w)
                        stack.append(w)
            self._unlink(x)
            core[x] = big_k - 1
            deg[x] = count[x]
            self._append(big_k - 1, x)
            self.moved.setdefault(x, big_k)
        return len(count)

    def _support(self, x, up, down) -> int:
        """Neighbours of ``x`` whose core is at least ``x``'s."""
        core = self.core
        c = core[x]
        return sum(1 for w in up[x] if core[w] >= c) + sum(
            1 for w in down[x] if core[w] >= c
        )

    def relabel(self, lo: int, old_ranks: List[int], pi: List[int]) -> None:
        """Move the order with a re-rank: new rank ``lo + i`` holds old
        rank ``old_ranks[i]``, and ``pi`` maps every old rank to its new
        one.  The links are mapped through ``pi`` at C level, O(n)."""
        hi = lo + len(old_ranks)
        for field in (self.core, self.deg, self.key, self.nxt, self.prv):
            field[lo:hi] = array(field.typecode, map(field.__getitem__, old_ranks))
        remap = (pi + [-1]).__getitem__  # -1 (no link) stays -1
        for links in (self.nxt, self.prv):
            links[:] = array("i", map(remap, links))
        self.head[:] = map(remap, self.head)
        self.tail[:] = map(remap, self.tail)
