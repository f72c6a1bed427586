"""The flat-array EnumIC kernel — allocation-free community enumeration.

:mod:`repro.core.enumerate` (the *python* kernel) is the readable,
line-by-line transcription of Algorithm 3 over the dict-based
:class:`~repro.graph.disjoint_set.KeyedDisjointSet` and stays the
differential-testing oracle.  This module is the enumeration side of
the ``array`` kernel (:mod:`repro.core.fastpeel` is the peel side): the
``v2key`` union-find becomes flat ``parent`` / ``size`` / ``key`` /
``anchor`` stores addressed by vertex rank, with path-halving find
loops inlined into the group scan.  Working state lives in plain Python
lists (CPython's fastest scalar substrate); the neighbour scan iterates
the graph's up-row and the in-prefix part of its down-row behind a
:class:`~repro.graph.subgraph.PrefixAdjacency` directly, so the
per-row list concatenation of ``nbrs[v]`` never happens.  The whole
group lands in ``u``'s set as one star rooted at the keynode — a bulk
write that is byte-identical to the oracle's per-vertex ``assign``
(singletons union into the first vertex, which always wins the
union-by-size tie).

All state lives in a reusable :class:`EnumScratch` mirroring
:class:`~repro.core.fastpeel.PeelScratch`: buffers grow and never
shrink, reset between queries is O(touched) (only vertices and keys
actually written are rolled back to the virgin ``-1`` state), and one
scratch shared across the rounds of a progressive query makes EnumIC-P
exactly the non-progressive enumeration split into instalments — the
``parent`` forest, labels and built communities persist, just as
Section 4's shared ``v2key`` prescribes.

Kernel selection reuses :func:`repro.core.fastpeel.resolve_kernel`
(explicit argument, then ``REPRO_KERNEL``, then ``auto``), so one
environment variable pins the peel and the enumeration together.

Equivalence argument (tested exhaustively in ``tests/test_fastenum.py``):
group vertices are always fresh when their group is processed (groups
partition the peeled vertices, and the scan's ``union_into`` never
touches untracked vertices), so the bulk group assignment reaches the
oracle's exact state; the scan then visits rows in the oracle's order
(group position ascending, up-part then in-prefix down-part), and the
key of a set does not depend on which root survived a union, so
children are appended in the identical sequence.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from ..graph.subgraph import PrefixAdjacency
from .community import Community, GroupView

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..graph.weighted_graph import WeightedGraph
    from .count import CVSRecord

__all__ = [
    "EnumScratch",
    "fast_build_community",
]


class EnumScratch:
    """Reusable working state of the fast enumeration.

    The flat mirror of :class:`~repro.graph.disjoint_set.KeyedDisjointSet`,
    addressed by vertex rank:

    * ``parent[v]`` — union-find parent; ``-1`` marks an untracked
      vertex (``v2key(v) = null``);
    * ``size[v]`` — set size, valid at live roots;
    * ``key[v]`` — the set's key, valid at live roots (a root always
      receives its key in the same operation that makes it a root, so
      stale values on dead slots are never read);
    * ``anchor[key]`` — some member vertex of the key's set, ``-1``
      when the key has no set (the oracle's ``_anchor`` dict).

    ``touched`` / ``anchored`` record exactly which
    slots were written, so :meth:`reset` rolls back in O(touched) —
    never O(capacity).  ``communities`` is EnumIC-P's global "already
    built" map, persisted across progressive rounds.

    One scratch belongs to one graph at a time (keyed on graph object
    identity); binding it to a different graph resets it, so accidental
    reuse degrades to a cold enumeration instead of corrupting state.
    """

    __slots__ = (
        "parent",
        "size",
        "key",
        "anchor",
        "touched",
        "anchored",
        "communities",
        "graph",
    )

    def __init__(self) -> None:
        self.parent: List[int] = []
        self.size: List[int] = []
        self.key: List[int] = []
        self.anchor: List[int] = []
        self.touched: List[int] = []
        self.anchored: List[int] = []
        self.communities: Dict[int, object] = {}
        self.graph: Optional["WeightedGraph"] = None

    # ------------------------------------------------------------------
    def begin(self, graph: "WeightedGraph", p: int, fresh: bool) -> None:
        """Bind the scratch to one enumeration pass.

        ``fresh`` resets the union-find (a cold EnumIC starts from an
        empty state, like a new :class:`EnumerationState`); progressive
        rounds pass ``False`` so EnumIC-P's state persists.  A graph
        switch always resets.
        """
        if self.graph is not graph:
            self.reset()
            self.graph = graph
        elif fresh:
            self.reset()
        self.ensure(p)

    def ensure(self, n: int) -> None:
        """Grow (never shrink) every store to at least ``n`` slots."""
        cap = len(self.parent)
        if cap >= n:
            return
        target = max(n, 2 * cap)
        self.parent.extend([-1] * (target - cap))
        self.size.extend([0] * (target - cap))
        self.key.extend([-1] * (target - cap))
        self.anchor.extend([-1] * (target - cap))

    def reset(self) -> None:
        """Roll every written slot back to virgin state — O(touched).

        ``size`` and ``key`` need no rollback: they are only read at
        live roots, and a vertex becomes a root only through operations
        that write both.
        """
        parent = self.parent
        for v in self.touched:
            parent[v] = -1
        anchor = self.anchor
        for k in self.anchored:
            anchor[k] = -1
        del self.touched[:]
        del self.anchored[:]
        self.communities.clear()

    # ------------------------------------------------------------------
    # scalar operations, mirroring KeyedDisjointSet exactly (used by the
    # truss enumeration and as the fallback for untypical group states;
    # the vertex-kernel hot loops inline these).
    # ------------------------------------------------------------------
    def find(self, v: int) -> int:
        """Root of ``v``'s set (path halving); ``v`` must be tracked."""
        parent = self.parent
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def key_of(self, v: int) -> int:
        """Key of ``v``'s set, or ``-1`` when ``v`` is untracked."""
        if self.parent[v] == -1:
            return -1
        return self.key[self.find(v)]

    def assign(self, v: int, key: int) -> None:
        """``v2key(v) <- key`` for a fresh vertex (tracked ones merge)."""
        if self.parent[v] != -1:
            self.union_into(v, key)
            return
        self.parent[v] = v
        self.size[v] = 1
        self.touched.append(v)
        a = self.anchor[key]
        if a == -1:
            self.key[v] = key
            self.anchor[key] = v
            self.anchored.append(key)
        else:
            self._link(self.find(a), v, key)

    def union_into(self, v: int, key: int) -> None:
        """``Union(v, key)``: merge ``v``'s set into the key's set."""
        v_root = self.find(v)
        anchor = self.anchor
        a = anchor[key]
        if a == -1:
            # The key has no set yet: v's set simply takes this key, and
            # the old key's anchor is dropped if it pointed here.
            old_key = self.key[v_root]
            if old_key >= 0:
                oa = anchor[old_key]
                if oa != -1 and self.find(oa) == v_root:
                    anchor[old_key] = -1
            self.key[v_root] = key
            anchor[key] = v_root
            self.anchored.append(key)
            return
        k_root = self.find(a)
        if k_root == v_root:
            self.key[v_root] = key
            return
        self._link(k_root, v_root, key)

    def _link(self, root_a: int, root_b: int, key: int) -> None:
        """Union two roots by size; the survivor gets ``key``."""
        size = self.size
        if size[root_a] < size[root_b]:
            root_a, root_b = root_b, root_a
        self.parent[root_b] = root_a
        size[root_a] += size[root_b]
        self.key[root_a] = key
        self.anchor[key] = root_a


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def fast_build_community(
    graph: "WeightedGraph",
    record: "CVSRecord",
    index: int,
    scratch: EnumScratch,
) -> Community:
    """Build keynode ``record.keys[index]``'s community on flat state.

    Lines 4-14 of Algorithm 3.  The caller owns the scratch lifecycle:
    :meth:`EnumScratch.begin` once per enumeration pass (``fresh=True``
    for a cold EnumIC, ``False`` for EnumIC-P rounds), then one call per
    keynode in decreasing weight order.
    """
    u = record.keys[index]
    start, stop = record.group_bounds(index)
    cvs = record.cvs
    parent = scratch.parent
    size = scratch.size
    key_arr = scratch.key
    anchor = scratch.anchor

    # Lines 5-8: gp(u) joins u's set.  Group vertices are fresh when the
    # group is processed (groups partition the peeled vertices and the
    # scan never tracks new ones), so the group lands as one star rooted
    # at the keynode — the exact state per-vertex assign would build.
    if anchor[u] == -1 and parent[u] == -1 and cvs[start] == u:
        touched = scratch.touched
        parent[u] = u
        touched.append(u)
        i = start + 1
        while i < stop:
            v = cvs[i]
            if parent[v] != -1:
                break  # untypical state: finish via the scalar path
            parent[v] = u
            touched.append(v)
            i += 1
        size[u] = i - start
        key_arr[u] = u
        anchor[u] = u
        scratch.anchored.append(u)
        for j in range(i, stop):
            scratch.assign(cvs[j], u)
    else:
        for i in range(start, stop):
            scratch.assign(cvs[i], u)

    # Lines 9-13: scan the group's rows; every foreign key met is a
    # child, then its set merges into u's (deduplication for free).
    children: List[Community] = []
    communities = scratch.communities
    nbrs = record.nbrs
    if type(nbrs) is PrefixAdjacency:
        # The graph's rows, cut to the prefix: no per-row concatenation.
        up, down, cuts = nbrs.flat()
        rows = []
        for v in cvs[start:stop]:
            rows.append(up[v])
            c = cuts[v]
            if c:
                rows.append(down[v][:c])
    else:
        # Materialised list-of-lists adjacency (python-kernel peel).
        rows = [nbrs[v] for v in cvs[start:stop]]
    for row in rows:
        for w in row:
            if parent[w] != -1:
                while parent[w] != w:  # find(w), path halving
                    parent[w] = parent[parent[w]]
                    w = parent[w]
                if key_arr[w] != u:
                    children.append(communities[key_arr[w]])
                    ka = anchor[u]
                    while parent[ka] != ka:  # find(anchor[u])
                        parent[ka] = parent[parent[ka]]
                        ka = parent[ka]
                    # ka != w (same root would mean key u); link by
                    # size, the key root winning ties.
                    if size[ka] < size[w]:
                        ka, w = w, ka
                    parent[w] = ka
                    size[ka] += size[w]
                    key_arr[ka] = u
                    anchor[u] = ka

    community = Community(
        graph,
        keynode=u,
        gamma=record.gamma,
        own_vertices=GroupView(cvs, start, stop),
        children=children,
    )
    communities[u] = community
    return community
