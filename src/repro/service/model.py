"""Wire types of the service layer: queries and serializable results.

The algorithm layer returns :class:`~repro.core.community.Community`
forests that hold live references to the graph — ideal inside one query,
wrong for a serving layer that caches answers across queries and ships
them over a protocol.  :class:`CommunityView` is the frozen, graph-free
projection of a community (keynode label, influence, size, sorted member
labels); :class:`QueryResult` bundles the views with provenance (graph
version, resolved algorithm, cache source, latency) and serialises to
JSON.  Frozen views are what make the cache's prefix-reuse contract easy
to state: serving ``k' <= k`` from a cached top-``k`` returns the *same
bytes* as a fresh query.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Any, Dict, Hashable, List, Optional, Tuple

from ..api.spec import ALGORITHMS, AUTO, QuerySpec
from ..core.community import Community
from ..graph.weighted_graph import JSON_ENCODER

__all__ = [
    "CommunityView",
    "ForestProjector",
    "PrefixText",
    "QueryResult",
    "ViewSlice",
    "ALGORITHMS",
    "AUTO",
]


def _json_number(value: Any) -> str:
    """``JSON_ENCODER.encode(value)``, by json's own writer for a plain
    finite float (``float.__repr__``) or int (``int.__repr__``)."""
    kind = type(value)
    if kind is float and math.isfinite(value):
        return float.__repr__(value)
    if kind is int:
        return int.__repr__(value)
    return JSON_ENCODER.encode(value)


@dataclass(frozen=True)
class CommunityView:
    """Frozen, graph-free projection of one community.

    ``members`` are user-facing labels in member order: by
    ``str(label)``, and labels whose ``str`` forms collide (``1`` and
    ``"1"``) by rank.  It is a total order, so two views of the same
    community — however it was enumerated or projected — compare and
    serialise identically.
    """

    keynode: Hashable
    influence: float
    size: int
    members: Tuple[Hashable, ...]

    @classmethod
    def from_community(cls, community: Any) -> "CommunityView":
        """Project a :class:`Community` or :class:`TrussCommunity`.

        The reference projection: it walks the whole community and
        sorts by ``str``.  The serving tier projects through a
        :class:`ForestProjector`, which must agree with it exactly.
        """
        labels = community.graph.labels(sorted(community.vertex_ranks))
        return cls(
            keynode=community.keynode_label,
            influence=community.influence,
            size=community.num_vertices,
            # A stable sort of rank-ordered labels: str ties go by rank.
            members=tuple(sorted(labels, key=str)),
        )

    def to_dict(self, include_members: bool = True) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "keynode": self.keynode,
            "influence": self.influence,
            "size": self.size,
        }
        if include_members:
            out["members"] = list(self.members)
        return out

    # -- memoised wire text ---------------------------------------------
    # A view is immutable and a cache entry serves slices of one
    # persistent view tuple, so each rendering of a view is computed once
    # and stored on the view itself: it lives exactly as long as the
    # cache entry (or result) holding the view.  The memo sits in the
    # instance ``__dict__`` beside the fields, outside equality, hashing
    # and repr (which read fields only) and outside pickling (see
    # ``__getstate__``).  No lock: renderers racing on a fresh view each
    # store the same text, and a single dict store is atomic.  A view
    # made by a ForestProjector also carries its members' label tokens
    # and sorted positions until its JSON with members is first
    # rendered, which joins them instead of encoding every member.

    def json_fragment(self, include_members: bool = True) -> str:
        """``json.dumps(self.to_dict(include_members), sort_keys=True,
        default=str)``, rendered once per ``include_members`` variant."""
        slot = _JSON_MEMBERS if include_members else _JSON_BARE
        state = self.__dict__
        text = state.get(slot)
        if text is None:
            joined = state.get(_JSON_TOKENS) if include_members else None
            if joined is None:
                text = JSON_ENCODER.encode(self.to_dict(include_members))
            else:
                tokens, keynode, merged = joined
                members = ", ".join(map(tokens.__getitem__, merged))
                # The to_dict keys in sorted order.
                text = (
                    f'{{"influence": {_json_number(self.influence)}, '
                    f'"keynode": {tokens[keynode]}, '
                    f'"members": [{members}], '
                    f'"size": {_json_number(self.size)}}}'
                )
            state[slot] = text
            if joined is not None:
                state.pop(_JSON_TOKENS, None)
        return text

    def text_head(self) -> str:
        """The position-free tail of this view's ``top-{i}:`` line."""
        text = self.__dict__.get(_TEXT_HEAD)
        if text is None:
            text = self.__dict__[_TEXT_HEAD] = (
                f"influence={self.influence:.8g} "
                f"keynode={self.keynode} size={self.size}"
            )
        return text

    def text_members(self) -> str:
        """This view's ``members:`` line in the text protocol."""
        text = self.__dict__.get(_TEXT_MEMBERS)
        if text is None:
            text = self.__dict__[_TEXT_MEMBERS] = (
                "       members: " + ", ".join(str(v) for v in self.members)
            )
        return text

    def __getstate__(self) -> Dict[str, Any]:
        # Pickle the fields only: a rendered view pickles to the same
        # bytes as a fresh one.
        state = self.__dict__
        if len(state) > len(_FIELD_NAMES):
            state = {key: state[key] for key in _FIELD_NAMES}
        return state

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "CommunityView":
        """Inverse of :meth:`to_dict` (the warm-start restore path).

        Labels survive a JSON round-trip unchanged for the common cases
        (ints, strings); exotic hashable labels (tuples, frozensets)
        would come back as their JSON projections and should not be
        persisted.
        """
        members = tuple(payload.get("members", ()))
        return cls(
            keynode=payload["keynode"],
            influence=float(payload["influence"]),
            size=int(payload.get("size", len(members))),
            members=members,
        )


_FIELD_NAMES = tuple(f.name for f in fields(CommunityView))
# Memo keys in a view's ``__dict__``, one per rendering.
_JSON_MEMBERS = "_json_members"
_JSON_BARE = "_json_bare"
# (tokens, keynode position, sorted member positions) of a projected
# view, until its members JSON is rendered.
_JSON_TOKENS = "_json_tokens"
_TEXT_HEAD = "_text_head"
_TEXT_MEMBERS = "_text_members"


class ForestProjector:
    """Project communities of one answer into views, each one once.

    A :class:`~repro.core.community.Community` is its own group plus
    links to child communities that have strictly larger influence, so
    they come earlier in the same answer (EnumIC, Algorithm 3 Line 14).
    The projector keeps each projected community's members as a sorted
    list of :class:`~repro.graph.weighted_graph.LabelOrder` positions
    and builds a parent's list by sorting its own group's positions
    and merging in its children's lists: timsort merges the
    already-sorted runs.  Nothing is re-walked or re-stringified.

    Each view keeps its sorted positions and the label order's
    :meth:`~repro.graph.weighted_graph.LabelOrder.json_tokens` until its
    :meth:`CommunityView.json_fragment` with members is first asked
    for, which joins the positions' tokens: no member is encoded twice
    while the label order lives, and traffic that never asks for that
    fragment (text, JSON without members) encodes nothing.

    A child's list is handed to its parent, which is the child's only
    parent, so the memo holds only the roots projected so far: pairwise
    disjoint communities, at most one entry per graph vertex.  A child
    missing from the memo (projected by an earlier projector, or never)
    is sorted from its vertex ranks on the spot: the memo saves time
    only, never decides the answer.  Other community types (such as
    :class:`~repro.core.community.TrussCommunity`) sort their
    ``vertex_ranks`` by the same key, with no merge.

    Views equal :meth:`CommunityView.from_community`'s.  Not
    thread-safe: callers serialise use of one projector.
    """

    __slots__ = ("_sorted",)

    def __init__(self) -> None:
        self._sorted: Dict[Any, List[int]] = {}

    def view(self, community: Any) -> CommunityView:
        order = community.graph.label_order()
        position, by_position = order.key()
        if isinstance(community, Community):
            at = position.__getitem__
            merged = list(map(at, community.own_vertices))
            memo = self._sorted
            for child in community.children:
                part = memo.pop(child, None)
                merged += (
                    map(at, child.iter_vertex_ranks()) if part is None else part
                )
            merged.sort()
            memo[community] = merged
        else:
            merged = sorted(map(position.__getitem__, community.vertex_ranks))
        view = CommunityView(
            keynode=community.keynode_label,
            influence=community.influence,
            size=community.num_vertices,
            members=tuple(map(by_position.__getitem__, merged)),
        )
        view.__dict__[_JSON_TOKENS] = (
            order.json_tokens(),
            position[community.keynode],
            merged,
        )
        return view


def _join_fragments(
    views: Tuple[CommunityView, ...], include_members: bool
) -> str:
    """The views' JSON fragments, comma-separated: the inside of a
    result's ``"communities"`` array."""
    return ", ".join(v.json_fragment(include_members) for v in views)


class PrefixText:
    """The joined JSON of every prefix of one append-only view sequence.

    Per members flag it keeps one string, the first ``n`` views'
    fragments comma-joined, and each of those views' end offset in it.
    The ``"communities"`` text of any top-``k`` prefix (``k <= n``) is
    then one slice of that string, the string itself when ``k == n``,
    and a longer prefix extends it by the missing fragments only.  So
    the stored text is at most one full answer's worth per flag,
    however many distinct ``k``'s are served.

    Every caller passes a prefix of the same sequence.  No lock: each
    flag's ``(text, ends)`` pair is replaced whole, and a racing render
    at worst stores a shorter valid pair.
    """

    __slots__ = ("_joined",)

    def __init__(self) -> None:
        self._joined: Dict[bool, Tuple[str, Tuple[int, ...]]] = {}

    def body(
        self, views: Tuple[CommunityView, ...], include_members: bool
    ) -> str:
        """``_join_fragments(views, include_members)`` for a prefix
        ``views`` of the sequence."""
        k = len(views)
        if not k:
            return ""
        joined = self._joined.get(include_members)
        if joined is None or len(joined[1]) < k:
            text, ends = joined if joined is not None else ("", ())
            parts = [text] if ends else []
            offsets = list(ends)
            for view in views[len(ends):]:
                fragment = view.json_fragment(include_members)
                at = offsets[-1] + 2 if offsets else 0  # past ", "
                offsets.append(at + len(fragment))
                parts.append(fragment)
            joined = ", ".join(parts), tuple(offsets)
            self._joined[include_members] = joined
        text, ends = joined
        return text[: ends[k - 1]]


class ViewSlice(tuple):
    """A cache entry's top-k views, rendered from the entry's
    :class:`PrefixText`.

    A family's answer does not depend on ``k`` beyond a prefix cut
    (the suffix property), so the wire text of a cached top-k never
    changes and every slice an entry serves can take its communities
    JSON from one stored string (:meth:`json_body`).  Equality,
    hashing, repr and slicing are the tuple's (a slice of a ViewSlice
    is a plain tuple), and a ViewSlice pickles to a plain tuple.
    """

    def __new__(
        cls, views: Tuple[CommunityView, ...], text: PrefixText
    ) -> "ViewSlice":
        out = super().__new__(cls, views)
        out.text = text
        return out

    def json_body(self, include_members: bool = True) -> str:
        """``_join_fragments(self, include_members)``, from stored text."""
        return self.text.body(self, include_members)

    def __reduce__(self):
        return tuple, (tuple(self),)


@dataclass(frozen=True)
class QueryResult:
    """A served query: the answer plus its provenance.

    ``source`` records how the answer was produced:

    * ``"cold"`` — computed from scratch (cache miss);
    * ``"cache"`` — served entirely from a cached answer (``k' <= k``);
    * ``"extended"`` — a cached progressive cursor was *resumed* to reach
      a larger ``k`` (the paper's suffix property: no work is repeated).
    """

    query: QuerySpec
    algorithm: str
    graph_version: int
    communities: Tuple[CommunityView, ...]
    source: str
    elapsed_ms: float
    complete: bool = False
    plan_reason: Optional[str] = field(default=None, compare=False)
    #: Peel kernel in effect when the query was served (resolved name —
    #: ``python`` / ``array``); cache hits report the kernel
    #: any fresh work would have used.  Excluded from equality so cached
    #: answers compare identical across kernel reconfigurations.
    kernel: Optional[str] = field(default=None, compare=False)

    def __len__(self) -> int:
        return len(self.communities)

    def __iter__(self):
        return iter(self.communities)

    @property
    def influences(self) -> Tuple[float, ...]:
        return tuple(v.influence for v in self.communities)

    def _scalars(self) -> Dict[str, Any]:
        """Every top-level key of :meth:`to_dict` but the community list."""
        return {
            "graph": self.query.graph,
            "graph_version": self.graph_version,
            "gamma": self.query.gamma,
            "k": self.query.k,
            "delta": self.query.delta,
            "algorithm": self.algorithm,
            "source": self.source,
            "elapsed_ms": self.elapsed_ms,
            "complete": self.complete,
            "kernel": self.kernel,
        }

    def to_dict(self, include_members: bool = True) -> Dict[str, Any]:
        out = self._scalars()
        out["communities"] = [
            v.to_dict(include_members) for v in self.communities
        ]
        return out

    def to_json(self, include_members: bool = True) -> str:
        """Deterministic JSON (sorted keys, no whitespace variance).

        Byte-identical to ``json.dumps(self.to_dict(include_members),
        sort_keys=True, default=str)``, but the communities are spliced
        in as stored text: a :class:`ViewSlice` (what a progressive
        cache entry serves) cuts them from its entry's
        :class:`PrefixText`, any other tuple joins each view's memoised
        :meth:`CommunityView.json_fragment`.  So a cache hit encodes
        only the scalar head and tail.  Sorted, the keys open with
        ``"algorithm"`` then ``"communities"``; the rest follow.
        """
        scalars = self._scalars()
        algorithm = JSON_ENCODER.encode(scalars.pop("algorithm"))
        views = self.communities
        communities = (
            views.json_body(include_members)
            if type(views) is ViewSlice
            else _join_fragments(views, include_members)
        )
        rest = JSON_ENCODER.encode(scalars)
        return (
            f'{{"algorithm": {algorithm}, '
            f'"communities": [{communities}], {rest[1:]}'
        )

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "QueryResult":
        """Inverse of :meth:`to_dict` (the remote-ResultSet decode path).

        The payload's query parameters rebuild a :class:`QuerySpec` via
        the legacy-tolerant wire decoder, so responses from any server
        version that emits the classic key set decode identically.
        """
        spec = QuerySpec.from_wire({k: v for k, v in payload.items() if k != "v"})
        return cls(
            query=spec,
            algorithm=str(payload.get("algorithm", spec.algorithm)),
            graph_version=int(payload.get("graph_version", 0)),
            communities=tuple(
                CommunityView.from_dict(view)
                for view in payload.get("communities", ())
            ),
            source=str(payload.get("source", "cold")),
            elapsed_ms=float(payload.get("elapsed_ms", 0.0)),
            complete=bool(payload.get("complete", False)),
            kernel=payload.get("kernel"),
        )
