"""Forest-merged projection agrees with the reference projection.

The serving tier turns communities into views with a
:class:`~repro.service.model.ForestProjector`, which sorts each
community's own group once and merges its children's already-sorted
member lists.  :meth:`CommunityView.from_community` is the reference:
it walks the whole community and sorts by ``str``.  These tests drive
every serving path over graphs whose labels sort differently under
``str`` than by rank or by value (``9 < 10 < 100`` but
``"10" < "100" < "9"``; strings, some needing JSON escapes; large and
negative ints; tuples; ``1`` beside ``"1"``) and require equal views.
A projected view joins its JSON fragment from per-label tokens, so
every view's fragment and every ``QueryResult.to_json`` must also
equal the plain ``json.dumps`` encoding.
"""

from __future__ import annotations

import json
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.spec import QuerySpec
from repro.core.progressive import LocalSearchP
from repro.graph.delta import EdgeBatch, apply_batch
from repro.graph.weighted_graph import WeightedGraph
from repro.service.cache import CacheKey, ProgressiveEntry, ResultCache
from repro.service.engine import (
    _STATIC_RUNNERS,
    QueryEngine,
    progressive_cursor_factory,
)
from repro.service.model import CommunityView, ForestProjector
from repro.service.registry import GraphRegistry
from repro.service.sessions import SessionManager

LABELS = st.one_of(
    st.sampled_from([1, 2, 9, 10, 20, 100]),
    st.integers(0, 300),
    st.text("ab19", min_size=1, max_size=3),
    st.tuples(st.integers(0, 12), st.integers(0, 12)),
    # JSON escapes: quote, backslash, control characters, non-ASCII
    # (escaped as \uXXXX, astral planes as surrogate pairs).
    st.text(
        st.sampled_from(
            ['"', "\\", "\x00", "\x1f", "\n", "\x7f", "é", "漢", "\U0001f600", "1"]
        ),
        min_size=1,
        max_size=4,
    ),
    st.sampled_from([-1, -100, 2**31, -(2**63), 10**30, -(10**40)]),
    st.integers(-(2**70), 2**70),
)

COMMON = dict(max_examples=40, deadline=None)


@st.composite
def labelled_graphs(draw):
    """``(edges, weights, gamma)`` over mixed, str-misordered labels."""
    labels = draw(st.lists(LABELS, min_size=4, max_size=22, unique=True))
    n = len(labels)
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            min_size=n,
            max_size=4 * n,
        )
    )
    edges = sorted({(min(a, b), max(a, b)) for a, b in pairs if a != b})
    order = draw(st.permutations(range(n)))
    weights = {labels[i]: float(order[i] + 1) for i in range(n)}
    gamma = draw(st.integers(1, 3))
    return [(labels[a], labels[b]) for a, b in edges], weights, gamma


def _graph(case) -> WeightedGraph:
    edges, weights, _ = case
    return WeightedGraph.from_edges(edges, weights)


def _registry(graph: WeightedGraph) -> GraphRegistry:
    registry = GraphRegistry(preload_datasets=False, compact_after=None)
    registry.register("g", lambda: graph)
    return registry


def _reference(graph: WeightedGraph, gamma: int):
    """Every community of ``graph`` at ``gamma``, reference-projected."""
    communities = LocalSearchP(graph, gamma=gamma).run().communities
    return [CommunityView.from_community(c) for c in communities]


def _dumps(value) -> str:
    return json.dumps(value, sort_keys=True, default=str)


def _assert_served(result, expected) -> None:
    assert list(result.communities) == list(expected)
    for view in result.communities:
        assert view.json_fragment(True) == _dumps(view.to_dict(True))
    assert result.to_json() == _dumps(result.to_dict())
    fresh = replace(result, communities=tuple(expected))
    assert result.to_json() == fresh.to_json()


# ----------------------------------------------------------------------
# differential: every serving path against from_community
# ----------------------------------------------------------------------
@given(labelled_graphs())
@settings(**COMMON)
def test_static_runners_project_like_the_reference(case):
    graph, gamma = _graph(case), case[2]
    engine = QueryEngine(_registry(graph), cache=ResultCache(16))
    for algorithm, runner in _STATIC_RUNNERS.items():
        # A γ-truss needs γ >= 2.
        g = max(gamma, 2) if algorithm == "truss" else gamma
        spec = QuerySpec(graph="g", gamma=g, k=6, algorithm=algorithm)
        result = engine.execute(spec)
        assert result.source == "cold"
        expected = [
            CommunityView.from_community(c)
            for c in runner(graph, spec, engine.kernel).communities
        ]
        _assert_served(result, expected[: spec.k])


@given(labelled_graphs())
@settings(**COMMON)
def test_progressive_increments_project_like_the_reference(case):
    graph, gamma = _graph(case), case[2]
    expected = _reference(graph, gamma)
    engine = QueryEngine(_registry(graph), cache=ResultCache(4))
    for k in (1, 3, 4, len(expected) + 1):
        result = engine.execute(QuerySpec(graph="g", gamma=gamma, k=k))
        _assert_served(result, expected[:k])


@given(labelled_graphs(), st.integers(0, 4))
@settings(**COMMON)
def test_restored_entry_extends_like_the_reference(case, restored):
    graph, gamma = _graph(case), case[2]
    expected = _reference(graph, gamma)
    # A warm-start restore seeds frozen views and a cursor factory; the
    # fresh cursor's projector has none of the restored communities.
    entry = ProgressiveEntry(
        cursor_factory=progressive_cursor_factory(graph, gamma, 2.0),
        views=expected[:restored],
    )
    views, _, complete = entry.serve(len(expected) + 1)
    assert list(views) == expected
    assert complete


@given(labelled_graphs(), st.integers(1, 3))
@settings(**COMMON)
def test_trimmed_entry_extends_like_the_reference(case, cap):
    graph, gamma = _graph(case), case[2]
    expected = _reference(graph, gamma)
    factory = progressive_cursor_factory(graph, gamma, 2.0)
    entry = ProgressiveEntry(factory(), cursor_factory=factory, max_cached_k=cap)
    for k in (cap + 1, cap + 3, len(expected) + 1):
        views, _, _ = entry.serve(k)
        assert list(views) == expected[:k]


@given(labelled_graphs(), st.integers(1, 3))
@settings(**COMMON)
def test_session_batches_project_like_the_reference(case, batch):
    graph, gamma = _graph(case), case[2]
    expected = _reference(graph, gamma)
    sessions = SessionManager(QueryEngine(_registry(graph)))
    sid = sessions.create("g", gamma).session_id
    streamed, done = [], False
    while not done:
        views, done = sessions.next(sid, batch)
        streamed.extend(views)
    assert streamed == expected


@given(labelled_graphs())
@settings(**COMMON)
def test_mutated_generations_project_like_the_reference(case):
    edges, weights, gamma = case
    graph = _graph(case)
    registry = _registry(graph)
    engine = QueryEngine(registry, cache=ResultCache(16))
    labels = list(weights)

    def check(k):
        spec = QuerySpec(graph="g", gamma=gamma, k=k)
        expected = _reference(registry.get("g").graph, gamma)
        _assert_served(engine.execute(spec), expected[:k])
        # A second family on the same generation projects cold.
        other = replace(spec, gamma=gamma + 1)
        _assert_served(
            engine.execute(other),
            _reference(registry.get("g").graph, gamma + 1)[:k],
        )

    check(2)
    # Edge overlay: toggle the pair of the two lowest-weight labels.
    low = sorted(labels, key=weights.__getitem__)[:2]
    kind = "delete" if tuple(low) in edges or tuple(low[::-1]) in edges else "insert"
    registry.apply("g", [(kind, low[0], low[1])])
    check(len(labels))
    registry.compact("g")
    check(len(labels))
    # A reweight above every weight re-ranks the graph.
    registry.apply("g", [("reweight", low[0], float(len(labels) + 5))])
    check(len(labels))


# ----------------------------------------------------------------------
# member order is total: str(label), then rank
# ----------------------------------------------------------------------
def _colliding_graph(int_first: bool) -> WeightedGraph:
    """``1`` and ``"1"`` in one community, split over parent and child.

    The triangle ``{"1", "a", "b"}`` is a child community (γ=2) of the
    one keyed by ``1``, so a forest walk meets ``1`` before ``"1"``;
    the member order must not depend on that.
    """
    top, second = (1, "1") if int_first else ("1", 1)
    weights = {top: 10.0, "a": 9.0, "b": 8.0, second: 7.0, "c": 6.0}
    edges = [
        (top, "a"), ("a", "b"), ("b", top),
        (second, top), (second, "a"), ("c", second), ("c", "b"),
    ]
    return WeightedGraph.from_edges(edges, weights)


def test_colliding_str_forms_order_by_rank_on_every_path():
    for int_first, want in ((False, ("1", 1)), (True, (1, "1"))):
        graph = _colliding_graph(int_first)
        expected = _reference(graph, 2)
        assert [view.members[:2] for view in expected[1:]] == [want, want]

        registry = _registry(graph)
        engine = QueryEngine(registry, cache=ResultCache(8))
        k = len(expected)
        progressive = engine.execute(QuerySpec(graph="g", gamma=2, k=k))
        static = engine.execute(
            QuerySpec(graph="g", gamma=2, k=k, algorithm="localsearch")
        )
        sessions = SessionManager(QueryEngine(registry))
        streamed, _ = sessions.next(sessions.create("g", 2).session_id, k)
        _assert_served(progressive, expected)
        _assert_served(static, expected)
        rendered = {
            tuple((v.json_fragment(), v.text_members()) for v in views)
            for views in (
                expected, progressive.communities, static.communities, streamed
            )
        }
        assert len(rendered) == 1


# ----------------------------------------------------------------------
# the key is built once per label list; memos live with their cursor
# ----------------------------------------------------------------------
def _small_graph() -> WeightedGraph:
    """Nested γ=2 communities over labels 9, 10, 100, "x", (1, 2), 3."""
    labels = [9, 10, 100, "x", (1, 2), 3]
    weights = {label: float(10 - rank) for rank, label in enumerate(labels)}
    edges = [
        (9, 10), (10, 100), (100, 9), ("x", 9), ("x", 10),
        ((1, 2), "x"), ((1, 2), 100), (3, (1, 2)), (3, 9),
    ]
    return WeightedGraph.from_edges(edges, weights)


def test_label_order_key_is_shared_across_a_rerank():
    registry = _registry(_small_graph())
    base = registry.get("g").graph
    registry.apply("g", [("delete", 3, 9)])
    overlay = registry.get("g").graph
    # Built after the overlay was cut, the key and the tokens are still
    # one object each.
    key = overlay.label_order().key()
    tokens = overlay.label_order().json_tokens()
    assert overlay is not base
    assert base.label_order().key() is key
    assert base.label_order().json_tokens() is tokens
    registry.compact("g")
    compacted = registry.get("g").graph
    assert compacted is overlay  # compaction keeps the graph
    assert compacted.label_order().key() is key
    assert compacted.label_order().json_tokens() is tokens
    registry.apply("g", [("reweight", 3, 50.0)])  # rank 5 -> rank 0
    reranked = registry.get("g").graph
    assert reranked.label(0) == 3
    # No two labels share a str, so the member order does not depend
    # on ranks: the re-rank shares the labels in member order and the
    # tokens, and only moves the positions with the ranks.
    position, by_position = reranked.label_order().key()
    assert by_position is key[1]
    assert reranked.label_order().json_tokens() is tokens
    assert position == [key[0][5]] + key[0][:5]
    assert by_position == sorted(by_position, key=str)
    assert [by_position[position[r]] for r in range(6)] == [
        reranked.label(r) for r in range(6)
    ]


def test_label_order_of_a_rerank_with_str_ties_is_rebuilt():
    # 1 and "1" tie on str, so their member order follows their ranks.
    labels = [1, "1", 2, 3]
    weights = {label: float(10 - rank) for rank, label in enumerate(labels)}
    graph = WeightedGraph.from_edges([(1, "1"), ("1", 2), (2, 3)], weights)
    key = graph.label_order().key()
    reranked, _, _ = apply_batch(graph, EdgeBatch((("reweight", 1, 5.0),)))
    assert reranked.labels(range(4)) == ["1", 2, 3, 1]
    position, by_position = reranked.label_order().key()
    assert by_position is not key[1]
    assert by_position == ["1", 1, 2, 3]
    assert [by_position[position[r]] for r in range(4)] == [
        reranked.label(r) for r in range(4)
    ]


def test_label_tokens_fill_one_position_at_a_time():
    graph = _small_graph()
    order = graph.label_order()
    tokens = order.json_tokens()
    _, by_position = order.key()
    assert len(tokens) == 0  # nothing is encoded up front
    # Projecting the top γ=2 community, the triangle {9, 10, 100},
    # encodes nothing: text and member-less JSON never need tokens.
    view = ForestProjector().view(
        LocalSearchP(graph, gamma=2).run(1).communities[0]
    )
    view.text_members()
    assert view.json_fragment(False) == _dumps(view.to_dict(False))
    assert len(tokens) == 0
    # Its JSON with members encodes its members and nothing else, once.
    assert view.json_fragment(True) == _dumps(view.to_dict(True))
    assert "_json_tokens" not in vars(view)
    assert sorted(tokens) == sorted(map(by_position.index, view.members))
    assert all(tokens[i] == _dumps(by_position[i]) for i in tokens)
    # Looking a position up fills it; get() and in do not.
    last = len(by_position) - 1
    assert last not in tokens and tokens.get(last) is None
    assert tokens[last] == _dumps(by_position[last]) and last in tokens


def test_projected_fragments_match_json_dumps_for_any_scalar_type():
    """Int, bool and float-subclass weights and labels take the encoder
    wherever json's writer differs from ``repr``."""

    class Weight(float):
        def __repr__(self):
            return "Weight()"

    labels = [True, "é\"", -(2**80), None, 2.5, (1, "\x00")]
    weight_lists = (
        [60, 50, 40, 30, 20, 10],
        [Weight(6 - rank) for rank in range(6)],
        [6.5, 5.25, 4.0, 1e-300, -2.0, -1e300],
    )
    edges = [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (3, 5), (1, 5)]
    adj_up = [sorted(u for u, v in edges if v == r) for r in range(6)]
    adj_down = [sorted(v for u, v in edges if u == r) for r in range(6)]
    for weights in weight_lists:
        graph = WeightedGraph(weights, adj_up, adj_down, labels)
        communities = LocalSearchP(graph, gamma=1).run().communities
        projector = ForestProjector()
        for community in communities:
            view = projector.view(community)
            assert view == CommunityView.from_community(community)
            assert view.json_fragment(True) == _dumps(view.to_dict(True))


def test_projector_memo_holds_only_unparented_communities():
    graph = _small_graph()
    communities = LocalSearchP(graph, gamma=2).run().communities
    projector = ForestProjector()
    views = [projector.view(c) for c in communities]
    assert views == [CommunityView.from_community(c) for c in communities]
    children = {id(child) for c in communities for child in c.children}
    roots = [c for c in communities if id(c) not in children]
    assert len(projector._sorted) == len(roots) < len(communities)


def test_entry_memo_is_released_with_its_cursor():
    graph = _small_graph()
    factory = progressive_cursor_factory(graph, 2, 2.0)
    entry = ProgressiveEntry(factory(), cursor_factory=factory, max_cached_k=2)
    entry.serve(1)
    assert entry.cursor is not None and len(entry._projector._sorted) == 1
    views, _, _ = entry.serve(3)  # past the cap: cursor and memo go
    assert entry.cursor is None and entry._projector is None
    # A restored entry has no cursor and no memo until it must resume.
    restored = ProgressiveEntry(cursor_factory=factory, views=views[:1])
    assert restored._projector is None
    restored.serve(3)
    assert restored.cursor is not None and len(restored._projector._sorted) >= 1

    registry = _registry(graph)
    cache = ResultCache(4)
    engine = QueryEngine(registry, cache=cache)
    engine.execute(QuerySpec(graph="g", gamma=2, k=2))
    registry.apply("g", [("delete", 3, 9)])  # below the cached prefix
    (key,) = cache.keys()
    assert key == CacheKey("g", 2, 2, "localsearch-p", 2.0)
    migrated = cache.get(key)
    assert migrated.cursor is None and migrated._projector is None
