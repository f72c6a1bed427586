"""The vertex-weighted graph substrate (Section 3.1 "Graph Organization").

The paper's local-search framework relies on two pre-arrangements of the
input graph ``G = (V, E, w)``:

1. vertices are pre-sorted in **decreasing weight order**, and
2. the adjacency list ``N(u)`` of every vertex is pre-partitioned into
   ``N>=(u)`` (neighbours with weight no smaller than ``w(u)``) and
   ``N<(u)`` (neighbours with smaller weight),

so that the threshold-induced subgraph ``G>=tau`` can be extracted — and
grown incrementally — in time linear to its own size, never touching the
rest of the graph.

:class:`WeightedGraph` realises this by *re-ranking*: internally every
vertex is an integer **rank** in ``0..n-1`` assigned in decreasing weight
order (rank 0 = highest weight).  Consequences used throughout the library:

* ``V>=tau`` is always a rank **prefix** ``0..p-1``;
* ``N>=(u)`` is exactly the set of neighbours with rank **smaller** than
  ``u`` (stored as :meth:`neighbors_up`), ``N<(u)`` the larger ranks
  (:meth:`neighbors_down`), each sorted ascending so prefix-restricted
  degrees are a single :func:`bisect`;
* the minimum-weight alive vertex during a peel is simply the maximum alive
  rank — a descending scan pointer replaces a priority queue, keeping every
  peel linear.

Weights must be distinct (paper Section 2).  Construction through
:class:`~repro.graph.builder.GraphBuilder` offers tie-breaking policies;
this class itself accepts any strictly-decreasing sequence of finite
weights.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from typing import (
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..errors import GraphConstructionError, UnknownVertexError

__all__ = ["LabelOrder", "WeightedGraph"]


def _check_finite(weights: Sequence[float]) -> None:
    """Raise :class:`GraphConstructionError` on a NaN or infinite weight."""
    if not all(map(math.isfinite, weights)):
        rank = next(r for r, w in enumerate(weights) if not math.isfinite(w))
        raise GraphConstructionError(
            f"weight of rank {rank} is not finite: {weights[rank]!r}"
        )


class LabelOrder:
    """The member order of one label list: ``str(label)``, then rank.

    :meth:`key` is built once, on first use, and returns
    ``(position, by_position)``: ``position[rank]`` is the rank's place
    in the order and ``by_position[i]`` the label at place ``i``.  The
    positions are a permutation of ``0..n-1``, so any set of ranks
    sorts into member order as a plain int sort of its positions.
    :meth:`json_tokens` maps a position to its label's JSON text, and
    fills in one position at a time, on first lookup.

    A graph generation that keeps its parent's label list (an edge
    overlay, a compaction) shares the parent's instance, and with it
    the key and the tokens.  A re-rank permutes the labels inside a
    window of ranks (:meth:`relabelled`): when no two labels share a
    ``str`` the order does not depend on ranks, so the new instance
    shares ``by_position`` and the tokens and permutes ``position``;
    otherwise it builds its own.  Concurrent first calls may both build
    either; the results are equal and one wins.
    """

    __slots__ = ("_labels", "_key", "_tokens", "_str_unique")

    def __init__(self, labels: Sequence[Hashable]) -> None:
        self._labels = labels
        self._key: Optional[Tuple[List[int], List[Hashable]]] = None
        self._tokens: Optional[_JSONTokens] = None
        #: Whether no two labels share a ``str``; known once the key is.
        self._str_unique = False

    def key(self) -> Tuple[List[int], List[Hashable]]:
        key = self._key
        if key is None:
            labels = self._labels
            strs = list(map(str, labels))
            # A stable sort of ranks by str breaks str ties by rank.
            order = sorted(range(len(labels)), key=strs.__getitem__)
            position = [0] * len(order)
            for i, rank in enumerate(order):
                position[rank] = i
            self._str_unique = len(set(strs)) == len(strs)
            key = self._key = (position, [labels[r] for r in order])
        return key

    def relabelled(
        self, labels: Sequence[Hashable], lo: int, order: List[int]
    ) -> "LabelOrder":
        """The order of ``labels``: this instance's labels with the
        window ``[lo, lo + len(order))`` permuted so that new rank
        ``lo + i`` holds old rank ``lo + order[i]``."""
        new = LabelOrder(labels)
        key = self._key
        if key is not None and self._str_unique:
            position, by_position = key
            window = position[lo:lo + len(order)]
            position = list(position)
            position[lo:lo + len(order)] = [window[i] for i in order]
            new._str_unique = True
            new._tokens = self.json_tokens()
            new._key = (position, by_position)
        return new

    def json_tokens(self) -> Dict[int, str]:
        """Position -> ``json.dumps(label, sort_keys=True, default=str)``.

        A dict that encodes a position's label on its first lookup
        (``tokens[i]``; ``get`` and ``in`` see only filled positions),
        so it holds the labels that answers have listed, not the graph.
        """
        tokens = self._tokens
        if tokens is None:
            tokens = self._tokens = _JSONTokens(self.key()[1])
        return tokens


#: The wire's JSON: ``json.dumps(..., sort_keys=True, default=str)``
#: without building an encoder per call (``encode`` keeps no state
#: between calls).  Label tokens and the service's wire text both
#: encode through this one instance.
JSON_ENCODER = json.JSONEncoder(sort_keys=True, default=str)


class _JSONTokens(dict):
    """The fill-on-lookup dict behind :meth:`LabelOrder.json_tokens`."""

    __slots__ = ("_by_position",)

    def __init__(self, by_position: List[Hashable]) -> None:
        super().__init__()
        self._by_position = by_position

    def __missing__(self, position: int) -> str:
        token = self[position] = JSON_ENCODER.encode(
            self._by_position[position]
        )
        return token


class WeightedGraph:
    """An immutable, vertex-weighted, undirected simple graph.

    Do not call the constructor directly with unchecked data; prefer
    :meth:`from_edges` (or :class:`~repro.graph.builder.GraphBuilder` for
    incremental construction with validation and tie policies).

    Parameters
    ----------
    weights:
        Vertex weights indexed by rank, **strictly decreasing**.
    adj_up:
        ``adj_up[u]`` = sorted list of neighbours of ``u`` with rank < u
        (the paper's ``N>=(u)``).
    adj_down:
        ``adj_down[u]`` = sorted list of neighbours with rank > u
        (the paper's ``N<(u)``).
    labels:
        Original (user-facing) vertex labels indexed by rank.
    validate:
        When True (default) the invariants above are checked, in O(n + m).
    """

    __slots__ = (
        "_weights",
        "_adj_up",
        "_adj_down",
        "_labels",
        "_label_order",
        "_rank_of",
        "_num_edges",
        "_prefix_sizes",
        "_core_stops",
        "_core_numbers",
        "_core_order",
    )

    def __init__(
        self,
        weights: Sequence[float],
        adj_up: Sequence[Sequence[int]],
        adj_down: Sequence[Sequence[int]],
        labels: Optional[Sequence[Hashable]] = None,
        validate: bool = True,
    ) -> None:
        n = len(weights)
        self._weights: List[float] = list(weights)
        self._adj_up: List[List[int]] = [list(a) for a in adj_up]
        self._adj_down: List[List[int]] = [list(a) for a in adj_down]
        if labels is None:
            self._labels: List[Hashable] = list(range(n))
        else:
            self._labels = list(labels)
        if len(self._adj_up) != n or len(self._adj_down) != n:
            raise GraphConstructionError(
                "adjacency arrays must have one entry per vertex"
            )
        if len(self._labels) != n:
            raise GraphConstructionError("labels must have one entry per vertex")
        self._rank_of: Dict[Hashable, int] = {
            label: rank for rank, label in enumerate(self._labels)
        }
        if len(self._rank_of) != n:
            raise GraphConstructionError("vertex labels must be unique")
        self._label_order = LabelOrder(self._labels)
        self._num_edges = sum(len(a) for a in self._adj_up)
        # Lazily-extended cumulative prefix sizes; see prefix_size().
        # _prefix_sizes[p] = size(G_p) = p + |edges among ranks < p|.
        self._prefix_sizes: List[int] = [0]
        # Lazily-built core stops and the per-rank core numbers they
        # were folded from; see core_table().
        self._core_stops: Optional[List[int]] = None
        self._core_numbers: Optional[List[int]] = None
        # The KOrder that apply_batch maintains, on the generation it
        # describes (the tip); see repro.graph.delta.
        self._core_order = None
        if validate:
            self._validate()

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Tuple[Hashable, Hashable]],
        weights: Mapping[Hashable, float],
        vertices: Optional[Iterable[Hashable]] = None,
    ) -> "WeightedGraph":
        """Build a graph from an edge list and a label -> weight mapping.

        Vertices are every key of ``weights`` plus everything mentioned in
        ``edges`` (and optionally ``vertices`` for isolated vertices without
        a weight entry — those get weight below all others, in label order).
        Parallel edges are merged; self-loops are rejected.

        >>> g = WeightedGraph.from_edges([("a", "b")], {"a": 2.0, "b": 1.0})
        >>> g.num_vertices, g.num_edges
        (2, 1)
        """
        from .builder import GraphBuilder  # local import to avoid a cycle

        builder = GraphBuilder()
        if vertices is not None:
            for v in vertices:
                builder.add_vertex(v)
        for label, weight in weights.items():
            builder.add_vertex(label, weight)
        for u, v in edges:
            builder.add_edge(u, v)
        return builder.build()

    def __getstate__(self) -> Dict[str, object]:
        # The core order is live maintenance state of one process; a
        # copy keeps the exact numbers and builds its own on demand.
        return {
            name: getattr(self, name)
            for name in self.__slots__
            if name != "_core_order"
        }

    def __setstate__(self, state: Dict[str, object]) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        self._core_order = None

    def _validate(self) -> None:
        _check_finite(self._weights)
        n = self.num_vertices
        for rank in range(1, n):
            if not self._weights[rank - 1] > self._weights[rank]:
                raise GraphConstructionError(
                    "weights must be strictly decreasing by rank "
                    f"(ranks {rank - 1} and {rank}: "
                    f"{self._weights[rank - 1]!r} vs {self._weights[rank]!r})"
                )
        seen_up = 0
        for u in range(n):
            up, down = self._adj_up[u], self._adj_down[u]
            if any(v >= u for v in up):
                raise GraphConstructionError(
                    f"adj_up[{u}] contains a rank >= {u}"
                )
            if any(v <= u for v in down):
                raise GraphConstructionError(
                    f"adj_down[{u}] contains a rank <= {u}"
                )
            if sorted(set(up)) != list(up):
                raise GraphConstructionError(
                    f"adj_up[{u}] must be sorted and duplicate-free"
                )
            if sorted(set(down)) != list(down):
                raise GraphConstructionError(
                    f"adj_down[{u}] must be sorted and duplicate-free"
                )
            seen_up += len(up)
        # Mirror consistency: (v in adj_up[u]) <=> (u in adj_down[v]).
        down_total = sum(len(a) for a in self._adj_down)
        if down_total != seen_up:
            raise GraphConstructionError(
                "adj_up and adj_down disagree on the number of edges"
            )
        for u in range(n):
            for v in self._adj_up[u]:
                row = self._adj_down[v]
                pos = bisect_left(row, u)
                if pos >= len(row) or row[pos] != u:
                    raise GraphConstructionError(
                        f"edge ({u}, {v}) present in adj_up but not adj_down"
                    )

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``|V|``."""
        return len(self._weights)

    @property
    def num_edges(self) -> int:
        """Number of (undirected) edges ``|E|``."""
        return self._num_edges

    @property
    def size(self) -> int:
        """``size(G) = |V| + |E|`` as defined in Section 2 of the paper."""
        return self.num_vertices + self._num_edges

    def __len__(self) -> int:
        return self.num_vertices

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"WeightedGraph(n={self.num_vertices}, m={self.num_edges}, "
            f"size={self.size})"
        )

    def weight(self, rank: int) -> float:
        """Weight of the vertex at ``rank``."""
        return self._weights[rank]

    def weight_of_label(self, label: Hashable) -> float:
        """Weight of the vertex with user-facing ``label``."""
        return self._weights[self.rank_of(label)]

    def label(self, rank: int) -> Hashable:
        """User-facing label of the vertex at ``rank``."""
        return self._labels[rank]

    def labels(self, ranks: Iterable[int]) -> List[Hashable]:
        """Map an iterable of ranks to their labels."""
        return [self._labels[r] for r in ranks]

    def label_order(self) -> LabelOrder:
        """The member order of this graph's labels (see :class:`LabelOrder`)."""
        return self._label_order

    def rank_of(self, label: Hashable) -> int:
        """Rank (0 = highest weight) of the vertex with ``label``."""
        try:
            return self._rank_of[label]
        except KeyError:
            raise UnknownVertexError(label) from None

    def has_vertex(self, label: Hashable) -> bool:
        """Whether a vertex with this label exists."""
        return label in self._rank_of

    def has_edge_ranks(self, u: int, v: int) -> bool:
        """Whether the edge between ranks ``u`` and ``v`` exists (O(log d))."""
        if u == v:
            return False
        if u > v:
            u, v = v, u
        row = self._adj_up[v]  # neighbours of v with smaller rank
        pos = bisect_left(row, u)
        return pos < len(row) and row[pos] == u

    # ------------------------------------------------------------------
    # adjacency (the N>= / N< partition of Section 3.1)
    # ------------------------------------------------------------------
    def neighbors_up(self, u: int) -> List[int]:
        """``N>=(u)``: neighbours with rank < u (weight >= w(u)), sorted."""
        return self._adj_up[u]

    def neighbors_down(self, u: int) -> List[int]:
        """``N<(u)``: neighbours with rank > u (weight < w(u)), sorted."""
        return self._adj_down[u]

    def degree(self, u: int) -> int:
        """Degree of rank ``u`` in the full graph."""
        return len(self._adj_up[u]) + len(self._adj_down[u])

    def core_stop(self, gamma: int) -> int:
        """A prefix length that holds the whole γ-core of the graph.

        Every influential γ-community lies in the γ-core of ``G``, and
        the γ-core of any prefix ``G_p`` lies in it too, so a search
        whose prefix reaches ``core_stop(gamma)`` has seen every
        community; ``0`` means the γ-core is empty.  The value is 1 +
        the highest rank whose core number is >= γ, read from the
        :meth:`core_table`; for ``gamma <= 0`` it is ``n``.

        The table is exact on every generation: a mutated generation
        gets the numbers that :func:`~repro.graph.delta.apply_batch`
        keeps with the order-based core maintenance of
        :class:`~repro.graph.core_decomposition.KOrder`, and a re-rank
        permutes them with the ranks (core numbers do not depend on
        weights).
        """
        stops = self.core_table()
        if gamma <= 0:
            return self.num_vertices
        return stops[gamma] if gamma < len(stops) else 0

    @property
    def core_table_built(self) -> bool:
        """True once :meth:`core_table` answers without a decomposition."""
        return self._core_stops is not None

    def core_table(self) -> List[int]:
        """The :func:`~repro.graph.core_decomposition.core_stops` table
        behind :meth:`core_stop`, built by one decomposition on first
        use unless the generation came with its numbers (a benign
        double build can occur under concurrent first calls)."""
        table = self._core_stops
        if table is None:
            from .core_decomposition import core_decomposition

            self.set_core_numbers(core_decomposition(self))
            table = self._core_stops
        return table

    def core_numbers(self) -> List[int]:
        """The exact per-rank core numbers the :meth:`core_table` was
        folded from."""
        self.core_table()
        return self._core_numbers

    def set_core_numbers(self, cores: List[int]) -> None:
        """Install the exact per-rank core numbers ``cores`` and the
        table folded from them.

        The numbers are written before the table, so a reader that
        finds the table finds its numbers.
        """
        from .core_decomposition import fold_core_stops

        self._core_numbers = cores
        self._core_stops = fold_core_stops(cores)

    def iter_neighbors(self, u: int) -> Iterator[int]:
        """All neighbours of rank ``u`` (up-part first)."""
        yield from self._adj_up[u]
        yield from self._adj_down[u]

    def neighbors_in_prefix(self, u: int, p: int) -> Iterator[int]:
        """Neighbours of ``u`` inside the rank prefix ``[0, p)``.

        ``u`` itself must lie in the prefix.  Runs in O(d_prefix + log d).
        """
        yield from self._adj_up[u]
        down = self._adj_down[u]
        cut = bisect_left(down, p)
        for i in range(cut):
            yield down[i]

    def degree_in_prefix(self, u: int, p: int) -> int:
        """Degree of ``u`` within the rank prefix ``[0, p)`` (O(log d))."""
        return len(self._adj_up[u]) + bisect_left(self._adj_down[u], p)

    def down_cut(self, u: int, p: int) -> int:
        """Index into ``neighbors_down(u)`` of the first rank >= ``p``."""
        return bisect_left(self._adj_down[u], p)

    def iter_edges(self) -> Iterator[Tuple[int, int]]:
        """All edges as rank pairs ``(u, v)`` with ``u > v``.

        The iteration order is by increasing ``u`` (i.e. decreasing edge
        weight, where the weight of an edge is the weight of its
        minimum-weight endpoint — the ordering used by the semi-external
        algorithms of [27]).
        """
        for u in range(self.num_vertices):
            for v in self._adj_up[u]:
                yield (u, v)

    def edges_as_labels(self) -> Iterator[Tuple[Hashable, Hashable]]:
        """All edges as label pairs."""
        for u, v in self.iter_edges():
            yield (self._labels[u], self._labels[v])

    # ------------------------------------------------------------------
    # thresholds, prefixes and sizes
    # ------------------------------------------------------------------
    def prefix_for_threshold(self, tau: float) -> int:
        """Number of vertices with weight >= ``tau`` (``|V>=tau|``).

        Binary search over the decreasing weight array — O(log n).
        """
        # weights are strictly decreasing; find first index with w < tau.
        lo, hi = 0, self.num_vertices
        weights = self._weights
        while lo < hi:
            mid = (lo + hi) // 2
            if weights[mid] >= tau:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def threshold_for_prefix(self, p: int) -> float:
        """The weight ``tau`` such that ``V>=tau`` is exactly ranks ``< p``.

        This is the weight of rank ``p - 1``.  ``p`` must be >= 1.
        """
        if p <= 0:
            raise ValueError("prefix must contain at least one vertex")
        return self._weights[p - 1]

    @property
    def min_weight(self) -> float:
        """``tau_min``: the smallest vertex weight in the graph."""
        return self._weights[-1]

    @property
    def max_weight(self) -> float:
        """``tau_max``: the largest vertex weight in the graph."""
        return self._weights[0]

    def prefix_size(self, p: int) -> int:
        """``size(G_p) = p + |{edges among ranks < p}|`` — size of ``G>=tau``.

        Computed incrementally and memoised, so a sweep of growing prefixes
        costs O(p_max) in total and never touches ranks beyond the largest
        ``p`` requested (preserving the locality that instance-optimality
        relies on).
        """
        sizes = self._prefix_sizes
        while len(sizes) <= p:
            q = len(sizes)  # next prefix length to account for
            sizes.append(sizes[-1] + 1 + len(self._adj_up[q - 1]))
        return sizes[p]

    def grow_prefix(self, p: int, target_size: int) -> int:
        """Smallest prefix ``q >= p`` with ``size(G_q) >= target_size``.

        Implements Line 4 of Algorithm 1 (and Line 8 of Algorithm 4): grow
        the subgraph vertex by vertex — in decreasing weight order, adding
        each vertex together with its ``N>=`` edges — until the requested
        size is reached, or the whole graph is included (``tau_min``).
        Runs in time linear to the number of vertices/edges added.
        """
        n = self.num_vertices
        q = max(p, 0)
        while q < n and self.prefix_size(q) < target_size:
            q += 1
        return q

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------
    def induced_edge_count(self, ranks: Iterable[int]) -> int:
        """Number of edges of ``G`` with both endpoints in ``ranks``."""
        member = set(ranks)
        count = 0
        for u in member:
            for v in self._adj_up[u]:
                if v in member:
                    count += 1
        return count

    def induced_edges(
        self, ranks: Iterable[int]
    ) -> List[Tuple[int, int]]:
        """Edges of ``G`` with both endpoints in ``ranks`` (as rank pairs)."""
        member = set(ranks)
        out: List[Tuple[int, int]] = []
        for u in sorted(member):
            for v in self._adj_up[u]:
                if v in member:
                    out.append((u, v))
        return out

    def to_edge_list(self) -> List[Tuple[Hashable, Hashable]]:
        """The full edge list as label pairs (materialised)."""
        return list(self.edges_as_labels())

    def weights_by_label(self) -> Dict[Hashable, float]:
        """Mapping label -> weight for the whole graph."""
        return {
            self._labels[rank]: self._weights[rank]
            for rank in range(self.num_vertices)
        }
