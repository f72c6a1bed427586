"""Memoised wire text of cached communities.

A :class:`CommunityView` renders its JSON fragment and its text-protocol
lines once and keeps them on itself, so a cache hit splices stored text
instead of re-encoding every community.  These tests pin the contract:

* **byte identity** — ``QueryResult.to_json`` equals the plain
  ``json.dumps(to_dict(), sort_keys=True, default=str)`` and the text
  mode equals a frozen copy of the pre-memo renderer, for arbitrary
  labels, non-finite influences and every rendering variant;
* **invisibility** — rendering leaves a view's equality, hash, repr and
  pickle bytes unchanged, and the memo dies with the cache entry;
* the typed rejections of non-finite ``delta`` and ``reweight`` values.
"""

from __future__ import annotations

import asyncio
import gc
import io
import json
import math
import pickle
import sys
import threading
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.spec import ALGORITHMS, QuerySpec, parse_spec_tokens
from repro.errors import QueryParameterError
from repro.graph.builder import graph_from_arrays
from repro.server import ReproClient, ReproServer
from repro.service import (
    GraphRegistry,
    QueryEngine,
    ResultCache,
    ServiceShell,
)
from repro.core.progressive import LocalSearchP
from repro.graph.weighted_graph import WeightedGraph
from repro.service.model import CommunityView, ForestProjector, QueryResult
from repro.service.shell import parse_mutation_ops


def format_views_reference(views, members, start=1):
    """The text renderer as it was before views memoised their text."""
    lines = []
    for i, view in enumerate(views, start=start):
        lines.append(
            f"top-{i}: influence={view.influence:.8g} "
            f"keynode={view.keynode} size={view.size}"
        )
        if members:
            lines.append(
                "       members: " + ", ".join(str(v) for v in view.members)
            )
    return lines


def json_reference(result, include_members):
    return json.dumps(
        result.to_dict(include_members), sort_keys=True, default=str
    )


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
_text = st.text(
    alphabet=st.sampled_from(
        list("abz09 _-") + ['"', "\\", "\n", "\t", "é", "漢", "\U0001f600"]
    ),
    max_size=8,
)
_scalar_labels = st.one_of(st.integers(-10**6, 10**6), _text)
#: Tuples encode as JSON arrays; frozensets and decimals are not
#: JSON-native and go through ``default=str`` (a decimal's str differs
#: from its repr, so a changed fallback shows).
_labels = st.one_of(
    _scalar_labels,
    st.tuples(_scalar_labels, _scalar_labels),
    st.frozensets(st.integers(0, 9), max_size=3),
    st.decimals(allow_nan=False, places=2, min_value=-100, max_value=100),
)
_influences = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1e-300]),
)


@st.composite
def views(draw):
    members = tuple(
        sorted(draw(st.lists(_labels, max_size=6, unique=True)), key=str)
    )
    return CommunityView(
        keynode=draw(_labels),
        influence=draw(_influences),
        size=draw(st.integers(0, 10**6)),
        members=members,
    )


@st.composite
def projected_views(draw):
    """A view from a :class:`ForestProjector`, carrying its label
    tokens and member positions but no rendered text yet."""
    labels = draw(st.lists(_labels, min_size=2, max_size=6, unique=True))
    n = len(labels)
    edges = draw(
        st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
            .filter(lambda e: e[0] < e[1]),
            min_size=1,
        )
    )
    graph = WeightedGraph(
        [float(n - rank) for rank in range(n)],
        [sorted(u for u, v in edges if v == r) for r in range(n)],
        [sorted(v for u, v in edges if u == r) for r in range(n)],
        labels,
    )
    communities = LocalSearchP(graph, gamma=1).run().communities
    projector = ForestProjector()
    views_list = [projector.view(c) for c in communities]
    view = draw(st.sampled_from(views_list))
    assert "_json_tokens" in vars(view)
    assert "_json_members" not in vars(view)
    return view


@st.composite
def results(draw):
    spec = QuerySpec(
        graph=draw(_text.filter(bool)),
        gamma=draw(st.integers(1, 100)),
        k=draw(st.integers(1, 1000)),
        delta=draw(st.floats(1.01, 64.0)),
    )
    return QueryResult(
        query=spec,
        algorithm=draw(st.one_of(st.sampled_from(ALGORITHMS), _text)),
        graph_version=draw(st.integers(0, 10**9)),
        communities=tuple(draw(st.lists(views(), max_size=5))),
        source=draw(st.sampled_from(["cold", "cache", "extended"])),
        elapsed_ms=draw(_influences),
        complete=draw(st.booleans()),
        kernel=draw(st.one_of(st.none(), st.sampled_from(["array", "numpy"]))),
    )


# ----------------------------------------------------------------------
# byte identity
# ----------------------------------------------------------------------
@settings(max_examples=300, deadline=None)
@given(result=results(), members_first=st.booleans())
def test_to_json_matches_plain_encoding(result, members_first):
    # Both variants, in either order: each memo slot must stand alone.
    order = (True, False) if members_first else (False, True)
    for include_members in order + order:
        assert result.to_json(include_members) == json_reference(
            result, include_members
        )


@settings(max_examples=200, deadline=None)
@given(result=results(), members_first=st.booleans())
def test_text_mode_matches_reference_renderer(result, members_first):
    views_list = list(result.communities)
    order = (True, False) if members_first else (False, True)
    for members in order + order:
        assert ServiceShell.render_result(result, members)[1:] == (
            format_views_reference(views_list, members)
        )
        for start in (1, 2, 7, 101):
            assert ServiceShell.format_views(
                views_list, members, start=start
            ) == format_views_reference(views_list, members, start=start)


@settings(max_examples=100, deadline=None)
@given(result=results())
def test_json_and_text_memos_coexist(result):
    # Render the same views through every variant in an interleaved
    # order; no variant may serve another's text.
    views_list = list(result.communities)
    for _ in range(2):
        assert ServiceShell.format_views(views_list, False) == (
            format_views_reference(views_list, False)
        )
        assert result.to_json(True) == json_reference(result, True)
        assert ServiceShell.format_views(views_list, True) == (
            format_views_reference(views_list, True)
        )
        assert result.to_json(False) == json_reference(result, False)


def test_empty_result_renders_no_communities():
    result = QueryResult(
        query=QuerySpec(graph="g", gamma=3, k=2),
        algorithm="localsearch-p",
        graph_version=4,
        communities=(),
        source="cache",
        elapsed_ms=0.5,
    )
    for include_members in (True, False):
        text = result.to_json(include_members)
        assert text == json_reference(result, include_members)
        assert '"communities": []' in text
    assert ServiceShell.render_result(result, True)[1:] == []


def test_engine_results_are_byte_identical(engine_stack):
    registry, cache, engine = engine_stack
    for k in (1, 2, 3):
        result = engine.execute(QuerySpec(graph="g", gamma=1, k=k))
        assert result.communities
        for include_members in (True, False, True):
            assert result.to_json(include_members) == json_reference(
                result, include_members
            )


# ----------------------------------------------------------------------
# the memo is invisible
# ----------------------------------------------------------------------
def _render_every_way(view):
    view.json_fragment(True)
    view.json_fragment(False)
    view.text_head()
    view.text_members()


@settings(max_examples=100, deadline=None)
@given(
    view=st.one_of(
        views().filter(lambda v: not math.isnan(v.influence)),
        projected_views(),
    )
)
def test_rendering_leaves_identity_unchanged(view):
    # A projected view arrives with its tokens; its twin, built from the
    # fields, has none.
    twin = CommunityView(view.keynode, view.influence, view.size, view.members)
    before = (hash(twin), repr(twin), pickle.dumps(twin))
    assert (hash(view), repr(view), pickle.dumps(view)) == before
    _render_every_way(view)
    assert view == twin and twin == view
    assert (hash(view), repr(view), pickle.dumps(view)) == before
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.dumps(view, protocol) == pickle.dumps(twin, protocol)


def test_concurrent_first_renders_agree():
    spec = QuerySpec(graph="g", gamma=1, k=3)
    views_list = tuple(
        CommunityView(i, float(i), 3, tuple(range(i, i + 40)))
        for i in range(200)
    )
    result = QueryResult(spec, "localsearch-p", 1, views_list, "cache", 0.1)
    want_json = json_reference(result, True)
    want_text = format_views_reference(views_list, True)
    outputs = []

    def render():
        outputs.append(
            (result.to_json(True), ServiceShell.format_views(views_list, True))
        )

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=render) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(previous)
    assert outputs == [(want_json, want_text)] * 8


def test_unpickled_view_renders_afresh():
    view = CommunityView("k", 2.5, 2, ("a", "b"))
    _render_every_way(view)
    clone = pickle.loads(pickle.dumps(view))
    assert clone == view
    assert vars(clone) == vars(CommunityView("k", 2.5, 2, ("a", "b")))
    assert clone.json_fragment(True) == view.json_fragment(True)


def _weighted_graph():
    edges = [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]
    weights = [17.5, 16.25, 15.0, 13.75, 12.5, 11.25]
    return graph_from_arrays(6, edges, weights=weights)


@pytest.fixture()
def engine_stack():
    registry = GraphRegistry(preload_datasets=False, compact_after=None)
    registry.register("g", _weighted_graph)
    cache = ResultCache(1)
    return registry, cache, QueryEngine(registry, cache=cache)


def _rendered_view_ref(engine, spec):
    result = engine.execute(spec)
    ServiceShell.render_result(result, True, as_json=True)
    ServiceShell.render_result(result, True)
    view = result.communities[0]
    assert "_json_members" in vars(view)
    return weakref.ref(view)


def test_rendered_view_dies_with_its_evicted_family(engine_stack):
    registry, cache, engine = engine_stack
    ref = _rendered_view_ref(engine, QuerySpec(graph="g", gamma=1, k=2))
    gc.collect()
    assert ref() is not None  # still cached
    engine.execute(QuerySpec(graph="g", gamma=2, k=2))  # evicts gamma=1
    gc.collect()
    assert ref() is None


def test_rendered_view_dies_with_its_invalidated_family(engine_stack):
    registry, cache, engine = engine_stack
    ref = _rendered_view_ref(engine, QuerySpec(graph="g", gamma=1, k=2))
    event = registry.apply("g", [("delete", 0, 1)])
    assert event.invalidated == 1
    gc.collect()
    assert ref() is None


# ----------------------------------------------------------------------
# non-finite parameters are typed errors
# ----------------------------------------------------------------------
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "Infinity"])
def test_non_finite_reweight_is_rejected(value):
    with pytest.raises(QueryParameterError, match="finite"):
        parse_mutation_ops([f"reweight=1:{value}"])


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_delta_is_rejected(value):
    with pytest.raises(QueryParameterError, match="finite"):
        parse_spec_tokens(["g", "k=3", f"delta={value}"])
    with pytest.raises(QueryParameterError, match="finite"):
        QuerySpec.from_wire({"graph": "g", "delta": float(value)})


def _shell(registry):
    out = io.StringIO()
    engine = QueryEngine(registry)
    return ServiceShell(engine, out), out


def test_shell_answers_typed_errors_and_leaves_graph_alone():
    registry = GraphRegistry(preload_datasets=False, compact_after=None)
    registry.register("g", _weighted_graph)
    shell, out = _shell(registry)
    version = registry.get("g").version
    for line in (
        "mutate g reweight=1:nan",
        "mutate g reweight=2:inf",
        "query g gamma=1 k=3 delta=nan",
        "query g gamma=1 k=3 delta=inf",
        'query {"graph": "g", "gamma": 1, "k": 3, "delta": NaN}',
    ):
        assert shell.execute_line(line)
    lines = out.getvalue().splitlines()
    assert len(lines) == 5
    assert all(line.startswith("error: ") for line in lines), lines
    assert all("finite" in line for line in lines), lines
    assert not any("convert" in line for line in lines)
    assert registry.get("g").version == version


def test_tcp_answers_typed_errors_for_non_finite_values():
    async def main():
        registry = GraphRegistry(preload_datasets=False, compact_after=None)
        registry.register("g", _weighted_graph)
        server = ReproServer(registry, shards=1)
        await server.start(tcp=("127.0.0.1", 0))
        host, port = server.tcp_address
        client = await ReproClient.connect(host, port=port)
        try:
            version = registry.get("g").version
            for line in (
                "mutate g reweight=1:nan",
                "mutate g reweight=2:-inf",
                "query g gamma=1 k=3 delta=nan",
                "query g gamma=1 k=3 delta=inf json",
            ):
                answer = await client.request(line)
                assert len(answer) == 1 and answer[0].startswith("error: ")
                assert "finite" in answer[0], answer
            assert registry.get("g").version == version
            # The connection is still healthy and serves real answers.
            ok = await client.request("mutate g reweight=2:0.5")
            assert ok[0].startswith("mutated")
        finally:
            await client.close()
            await server.stop()

    asyncio.run(main())
