"""Memoised wire text on the JSON hit path.

A repeated JSON query is served from stored text at three layers: the
shell keeps each parsed request document by its exact text, every slice
a progressive cache entry serves (a :class:`ViewSlice`) cuts its
communities JSON from the entry's one joined string (a
:class:`PrefixText`), and the transport frames a plain one-line answer
with one concatenation.  These tests pin that none of it changes a byte
and that the stored text stays bounded:

* a second render of every kind of served answer equals the first and
  equals ``json.dumps(result.to_dict(members), sort_keys=True,
  default=str)``, with members on and off;
* an entry's stored text is at most one full answer per members flag,
  however many distinct ``k``'s it serves;
* ``_send`` writes what the per-part framing wrote;
* each parse returns a spec object of its own, failures are never
  stored, and the parse memo stays within its bound.
"""

from __future__ import annotations

import asyncio
import json
import pickle

import pytest

from repro.api.spec import QuerySpec
from repro.errors import QueryParameterError
from repro.graph.builder import graph_from_arrays
from repro.server import BatchScheduler, ShardPool
from repro.server.transport import ReproServer, TERMINATOR, dot_stuff
from repro.service import GraphRegistry, QueryEngine, ResultCache, ServiceShell
from repro.service import shell as shell_module
from repro.service.model import CommunityView, PrefixText, ViewSlice


def layered_cliques(num_cliques=6):
    """Disjoint K4s with strictly decreasing weights: many communities."""
    edges = []
    for c in range(num_cliques):
        base = 4 * c
        for i in range(4):
            for j in range(i + 1, 4):
                edges.append((base + i, base + j))
    return graph_from_arrays(4 * num_cliques, edges)


@pytest.fixture()
def registry():
    registry = GraphRegistry(preload_datasets=False, compact_after=None)
    registry.register("cliques", layered_cliques)
    return registry


def spec(k, **fields):
    return QuerySpec(graph="cliques", gamma=3, k=k, mode="json", **fields)


def assert_renders_stable(result):
    """Two renders per members flag, in both flag orders, all equal to
    the plain encoding."""
    for order in ((True, False), (False, True)):
        for members in order:
            reference = json.dumps(
                result.to_dict(members), sort_keys=True, default=str
            )
            first = ServiceShell.render_result(result, members, True)
            assert first == [reference]
            assert ServiceShell.render_result(result, members, True) == first
            assert result.to_json(members) == reference


# ----------------------------------------------------------------------
# join: every served slice renders the same bytes twice
# ----------------------------------------------------------------------
def test_cache_hits_share_one_slice_and_its_text(registry):
    engine = QueryEngine(registry, cache=ResultCache())
    cold = engine.execute(spec(3))
    hit = engine.execute(spec(3))
    again = engine.execute(spec(3))
    assert (cold.source, hit.source, again.source) == ("cold", "cache", "cache")
    assert type(hit.communities) is ViewSlice
    assert again.communities is hit.communities
    assert_renders_stable(hit)
    assert_renders_stable(again)
    assert_renders_stable(cold)


def test_extended_answer_renders_identically(registry):
    engine = QueryEngine(registry, cache=ResultCache())
    engine.execute(spec(2))
    extended = engine.execute(spec(5))
    assert extended.source == "extended"
    assert_renders_stable(extended)
    hit = engine.execute(spec(5))
    assert hit.source == "cache"
    assert hit.communities is extended.communities
    assert_renders_stable(hit)


def test_exhausted_entry_shares_one_slice_for_every_large_k(registry):
    engine = QueryEngine(registry, cache=ResultCache())
    first = engine.execute(spec(10))
    assert first.complete and len(first) == 6
    for k in (7, 50):
        hit = engine.execute(spec(k))
        assert hit.communities is first.communities
        assert_renders_stable(hit)


def test_coalesced_followers_render_identically(registry):
    async def main():
        engine = QueryEngine(registry, cache=ResultCache())
        pool = ShardPool(1)
        scheduler = BatchScheduler(engine, pool, window_s=0.05)
        try:
            rounds = []
            for _ in range(2):
                rounds.append(
                    await asyncio.gather(
                        scheduler.submit(spec(5)),
                        scheduler.submit(spec(2)),
                        scheduler.submit(spec(2)),
                        scheduler.submit(spec(5)),
                    )
                )
        finally:
            pool.shutdown()
        return rounds

    rounds = asyncio.run(main())
    for results in rounds:
        assert [r.source for r in results][1:] == ["coalesced"] * 3
        for result in results:
            assert_renders_stable(result)
    # The second round's lead is a cache hit; its followers cut their
    # own prefixes of the lead's slice.
    first, second = rounds
    assert second[0].source == "cache"
    assert second[0].communities is first[0].communities
    assert second[1].communities == second[0].communities[:2]


@pytest.mark.parametrize("algorithm", ["onlineall", "forward"])
def test_static_entries_render_identically(registry, algorithm):
    engine = QueryEngine(registry, cache=ResultCache())
    cold = engine.execute(spec(4, algorithm=algorithm))
    assert cold.source == "cold"
    assert_renders_stable(cold)
    hits = [engine.execute(spec(k, algorithm=algorithm)) for k in (2, 2, 4)]
    assert [h.source for h in hits] == ["cache", "cache", "cache"]
    for hit in hits:
        assert type(hit.communities) is tuple
        assert_renders_stable(hit)


def test_migrated_entry_renders_identically(registry):
    engine = QueryEngine(registry, cache=ResultCache())
    before = engine.execute(spec(2))
    assert_renders_stable(before)
    # A low-weight edge between the last two cliques: the top two
    # communities sit above its barrier and survive re-seeded.
    event = registry.apply("cliques", [("insert", 16, 20)])
    assert event.preserved == 1
    results = [engine.execute(spec(2)) for _ in range(2)]
    assert [r.source for r in results] == ["cache", "cache"]
    assert results[0].graph_version == before.graph_version + 1
    assert results[1].communities is results[0].communities
    assert results[0].communities == before.communities
    for result in results:
        assert_renders_stable(result)
    fresh = QueryEngine(registry, cache=None).execute(spec(2))
    assert fresh.communities == results[0].communities


def test_trimmed_entry_renders_identically(registry):
    engine = QueryEngine(registry, cache=ResultCache(max_cached_k=3))
    big = engine.execute(spec(5))
    assert_renders_stable(big)
    hits = [engine.execute(spec(k)) for k in (2, 2, 3)]
    assert [h.source for h in hits] == ["cache", "cache", "cache"]
    assert hits[1].communities is hits[0].communities
    again = engine.execute(spec(5))  # past the cap: recomputed
    assert again.source == "extended"
    assert again.communities == big.communities
    for result in hits + [again]:
        assert_renders_stable(result)
    # Answers past the cap are plain tuples, so the stored text never
    # reaches past the retained views.
    assert type(big.communities) is tuple
    assert type(again.communities) is tuple
    text = hits[0].communities.text
    assert hits[2].communities.text is text
    assert stored_chars(text) == sum(
        len(hits[2].communities.json_body(members))
        for members in (True, False)
    )


def stored_chars(text):
    """Characters a :class:`PrefixText` holds, both members flags."""
    return sum(len(joined) for joined, _ in text._joined.values())


def test_many_distinct_ks_store_one_answer_of_text(registry):
    registry.register("many", lambda: layered_cliques(40))
    engine = QueryEngine(registry, cache=ResultCache())
    full = engine.execute(QuerySpec(graph="many", gamma=3, k=40))
    assert len(full) == 40
    ks = list(range(1, 41)) + [60, 200] + list(range(39, 0, -3))
    served = [
        engine.execute(QuerySpec(graph="many", gamma=3, k=k)) for k in ks
    ]
    assert all(r.source == "cache" for r in served)
    for result in served:
        assert_renders_stable(result)
    text = full.communities.text
    assert all(r.communities.text is text for r in served)
    # One full answer of text per members flag, not one per k.
    full_bodies = sum(
        len(full.communities.json_body(members)) for members in (True, False)
    )
    assert stored_chars(text) == full_bodies
    assert full_bodies < len(full.to_json(True)) + len(full.to_json(False))


def test_prefix_text_cuts_any_prefix_in_any_order():
    views = tuple(
        CommunityView(keynode=i, influence=9.0 - i, size=2, members=(i, -i))
        for i in range(7)
    )
    text = PrefixText()
    for k in (3, 0, 1, 7, 2, 5, 7, 6, 4):
        for members in (True, False):
            expected = ", ".join(
                v.json_fragment(members) for v in views[:k]
            )
            assert text.body(views[:k], members) == expected
    assert stored_chars(text) == sum(
        len(text.body(views, members)) for members in (True, False)
    )


def test_view_slice_is_a_tuple_outside_its_text():
    views = tuple(
        CommunityView(keynode=i, influence=5.0 - i, size=1, members=(i,))
        for i in range(4)
    )
    piece = ViewSlice(views, PrefixText())
    assert piece.json_body(True) == ", ".join(
        v.json_fragment(True) for v in views
    )
    assert piece == views and hash(piece) == hash(views)
    assert repr(piece) == repr(views)
    assert type(piece[:2]) is tuple
    clone = pickle.loads(pickle.dumps(piece))
    assert type(clone) is tuple and clone == views


# ----------------------------------------------------------------------
# frame: one framing path, the per-part framing's bytes
# ----------------------------------------------------------------------
def framing_reference(lines):
    """Every line split at newlines and dot-stuffed, then a ``.`` line."""
    payload = []
    for line in lines:
        for part in line.split("\n"):
            payload.append(dot_stuff(part))
    payload.append(TERMINATOR)
    return ("\n".join(payload) + "\n").encode("utf-8")


class _Writer:
    def __init__(self):
        self.chunks = []

    def write(self, data):
        self.chunks.append(data)

    async def drain(self):
        pass


@pytest.mark.parametrize(
    "lines",
    [
        ['{"algorithm": "localsearch-p", "communities": []}'],
        [".starts with a dot"],
        ["."],
        ["two\nparts"],
        ["ends with newline\n"],
        ["error: bad query argument: k='1.5' is not an integer"],
        ["localsearch-p[cache]: 1 communities", "top-1: influence=3", ".x"],
        [""],
        [],
        ["é 漢 \U0001f600"],
    ],
)
def test_send_frames_like_the_per_part_framing(lines):
    writer = _Writer()
    asyncio.run(ReproServer._send(None, writer, lines))
    assert writer.chunks == [framing_reference(lines)]
    writer = _Writer()
    asyncio.run(ReproServer._send(None, writer, iter(lines)))
    assert writer.chunks == [framing_reference(lines)]


# ----------------------------------------------------------------------
# parse: one memoised document, a fresh spec per request
# ----------------------------------------------------------------------
@pytest.fixture()
def memo():
    shell_module._WIRE_MEMO.clear()
    yield shell_module._WIRE_MEMO
    shell_module._WIRE_MEMO.clear()


def wire_line(**fields):
    doc = spec(3).to_wire_dict()
    doc.update(fields)
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def test_parses_are_equal_but_distinct(memo):
    line = wire_line(members=True)
    first, members_a = ServiceShell.parse_query_line(line)
    second, members_b = ServiceShell.parse_query_line(line)
    assert first == second == spec(3)
    assert first is not second
    assert members_a is members_b is True
    assert len(memo) == 1
    stored, _ = memo[line]
    assert stored is not first and stored is not second


def test_malformed_documents_raise_every_time_and_are_not_stored(memo):
    for line in (wire_line(k=1.5), wire_line(gamma="x"), '{"graph": ', "{}"):
        for _ in range(2):
            with pytest.raises(QueryParameterError):
                ServiceShell.parse_query_line(line)
        assert line not in memo
    assert not memo


def test_token_lines_are_not_memoised(memo):
    a, _ = ServiceShell.parse_query_line("cliques k=3 gamma=3 json")
    b, _ = ServiceShell.parse_query_line("cliques k=3 gamma=3 json")
    assert a == b and a is not b
    assert not memo


def test_parse_memo_stays_within_its_bound(memo):
    size = shell_module._WIRE_MEMO_SIZE
    for k in range(1, size + 50):
        parsed, _ = ServiceShell.parse_query_line(wire_line(k=k))
        assert parsed.k == k
        assert len(memo) <= size
    padded = wire_line(tenant="t" * shell_module._WIRE_MEMO_TEXT)
    assert ServiceShell.parse_query_line(padded)[0].tenant.startswith("t")
    assert padded not in memo
