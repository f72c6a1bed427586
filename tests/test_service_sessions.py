"""SessionManager: progressive batches, TTL eviction, cursor resumption,
and the family entry a session shares with the query engine."""

from __future__ import annotations

import pytest

from repro.api.spec import QuerySpec
from repro.core.progressive import LocalSearchP
from repro.core.reference import reference_communities
from repro.errors import UnknownSessionError
from repro.graph.builder import graph_from_arrays
from repro.service import (
    CacheKey,
    GraphRegistry,
    QueryEngine,
    ResultCache,
    ServiceMetrics,
    SessionManager,
)


def layered_cliques(num_cliques=5):
    edges = []
    for c in range(num_cliques):
        base = 4 * c
        for i in range(4):
            for j in range(i + 1, 4):
                edges.append((base + i, base + j))
    return graph_from_arrays(4 * num_cliques, edges)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture()
def registry():
    registry = GraphRegistry(preload_datasets=False)
    registry.register("cliques", layered_cliques)
    return registry


@pytest.fixture()
def clock():
    return FakeClock()


@pytest.fixture()
def manager(registry, clock):
    return SessionManager(QueryEngine(registry), ttl_seconds=60.0, clock=clock)


class TestProgressiveCursor:
    """The resumable stream handle added to core.progressive."""

    def test_take_is_idempotent_and_resumes(self, registry):
        graph = registry.get("cliques").graph
        cursor = LocalSearchP(graph, gamma=3).cursor()
        first_two = cursor.take(2)
        assert cursor.materialized == 2
        assert cursor.take(2) == first_two  # pure slice, no recompute
        four = cursor.take(4)
        assert four[:2] == first_two
        assert cursor.materialized >= 4

    def test_matches_plain_stream(self, registry):
        graph = registry.get("cliques").graph
        cursor = LocalSearchP(graph, gamma=3).cursor()
        stepwise = [cursor.take(i)[-1] for i in range(1, 6)]
        plain = list(LocalSearchP(graph, gamma=3).run(k=5).communities)
        assert [c.keynode for c in stepwise] == [c.keynode for c in plain]

    def test_exhaustion(self, registry):
        graph = registry.get("cliques").graph
        cursor = LocalSearchP(graph, gamma=3).cursor()
        everything = cursor.take(100)
        assert cursor.exhausted
        assert len(everything) == 5
        assert cursor.take(200) == everything


class TestSessions:
    def test_batches_are_disjoint_and_ordered(self, manager):
        session = manager.create("cliques", gamma=3)
        batch1, done1 = manager.next(session.session_id, 2)
        batch2, done2 = manager.next(session.session_id, 2)
        assert not done1 and not done2
        assert len(batch1) == len(batch2) == 2
        influences = [v.influence for v in batch1 + batch2]
        assert influences == sorted(influences, reverse=True)
        assert len({v.keynode for v in batch1 + batch2}) == 4

    def test_exhaustion_reported(self, manager):
        session = manager.create("cliques", gamma=3)
        views, done = manager.next(session.session_id, 50)
        assert len(views) == 5
        assert done
        more, still_done = manager.next(session.session_id, 5)
        assert more == [] and still_done

    def test_close_and_unknown(self, manager):
        session = manager.create("cliques", gamma=3)
        manager.close(session.session_id)
        with pytest.raises(UnknownSessionError):
            manager.next(session.session_id)
        with pytest.raises(UnknownSessionError):
            manager.close(session.session_id)

    def test_session_ids_are_unique(self, manager):
        ids = {manager.create("cliques", gamma=3).session_id for _ in range(5)}
        assert len(ids) == 5


class TestTTL:
    def test_idle_session_expires(self, manager, clock, registry):
        metrics = ServiceMetrics()
        manager.engine.metrics = metrics
        session = manager.create("cliques", gamma=3)
        clock.advance(61.0)
        assert manager.active() == []
        with pytest.raises(UnknownSessionError):
            manager.next(session.session_id)
        assert metrics.snapshot()["sessions_expired"] == 1

    def test_activity_refreshes_ttl(self, manager, clock):
        session = manager.create("cliques", gamma=3)
        for _ in range(4):
            clock.advance(45.0)
            manager.next(session.session_id, 1)
        assert session.session_id in manager

    def test_touch_refreshes_without_advancing(self, manager, clock):
        session = manager.create("cliques", gamma=3)
        clock.advance(45.0)
        manager.touch(session.session_id)
        clock.advance(45.0)
        assert session.session_id in manager
        views, _ = manager.next(session.session_id, 1)
        assert views[0].influence == max(
            v.influence
            for v in views
        )
        assert session.delivered == 1

    def test_expiry_only_counts_idle_sessions(self, manager, clock):
        s1 = manager.create("cliques", gamma=3)
        clock.advance(40.0)
        s2 = manager.create("cliques", gamma=3)
        clock.advance(30.0)  # s1 idle 70s, s2 idle 30s
        live = [row["session_id"] for row in manager.active()]
        assert live == [s2.session_id]
        assert s1.session_id not in manager


def reference(graph, gamma):
    """``(influence, member labels)`` of every community, by definition."""
    return [
        (influence, frozenset(graph.labels(sorted(ranks))))
        for influence, ranks in reference_communities(graph, gamma)
    ]


def pairs(views):
    return [(view.influence, frozenset(view.members)) for view in views]


def drain(manager, sid, batch=2):
    streamed, done = [], False
    while not done:
        views, done = manager.next(sid, batch)
        streamed.extend(views)
    return streamed


class TestSharedEntry:
    """A session streams from its family's cached ProgressiveEntry."""

    def test_session_after_query_reads_the_cached_prefix(
        self, registry, started_streams
    ):
        engine = QueryEngine(registry, cache=ResultCache(8))
        manager = SessionManager(engine)
        spec = QuerySpec(graph="cliques", gamma=3, k=2)
        queried = engine.execute(spec).communities
        assert len(started_streams) == 1
        sid = manager.create("cliques", gamma=3).session_id
        views, _ = manager.next(sid, 2)
        assert len(views) == 2
        assert all(a is b for a, b in zip(views, queried))
        manager.next(sid, 2)
        # One stream serves both readers; the query reads what the
        # session pulled.
        result = engine.execute(spec.with_k(4))
        assert result.source == "cache"
        assert len(started_streams) == 1

    def test_session_batches_are_not_counted_as_queries(self, registry):
        metrics = ServiceMetrics()
        engine = QueryEngine(registry, cache=ResultCache(8), metrics=metrics)
        manager = SessionManager(engine)
        drain(manager, manager.create("cliques", gamma=3).session_id)
        snap = metrics.snapshot()
        assert snap["queries_served"] == 0
        assert engine.cache.stats.lookups == 0
        assert snap["sessions_opened"] == 1

    def test_mutation_keeps_the_session_on_its_generation(self, registry):
        engine = QueryEngine(registry, cache=ResultCache(8))
        manager = SessionManager(engine)
        before = registry.get("cliques").graph
        sid = manager.create("cliques", gamma=3).session_id
        first, _ = manager.next(sid, 2)
        # Deleting an edge of the heaviest clique reaches gamma=3 and
        # removes its community.
        event = registry.apply("cliques", [("delete", 0, 1)])
        assert event.invalidated == 1
        rest = drain(manager, sid)
        assert pairs(first + rest) == reference(before, 3)
        after = registry.get("cliques").graph
        result = engine.execute(QuerySpec(graph="cliques", gamma=3, k=10))
        assert pairs(result.communities) == reference(after, 3)
        assert len(result.communities) == len(first + rest) - 1

    def test_compaction_keeps_the_session_on_the_cached_entry(
        self, registry, started_streams
    ):
        engine = QueryEngine(registry, cache=ResultCache(8))
        manager = SessionManager(engine)
        registry.apply("cliques", [("delete", 0, 1)])
        session = manager.create("cliques", gamma=3)
        first, _ = manager.next(session.session_id, 1)
        event = registry.compact("cliques")
        key = CacheKey("cliques", event.new_version, 3, "localsearch-p", 2.0)
        assert engine.cache.get(key) is session.entry
        rest = drain(manager, session.session_id)
        graph = registry.get("cliques").graph
        assert pairs(first + rest) == reference(graph, 3)
        result = engine.execute(
            QuerySpec(graph="cliques", gamma=3, k=len(first + rest))
        )
        assert result.source == "cache"
        assert pairs(result.communities) == reference(graph, 3)
        assert len(started_streams) == 1

    @pytest.mark.parametrize("batch", [1, 2, 3])
    def test_reading_past_max_cached_k_streams_the_reference(
        self, registry, batch
    ):
        engine = QueryEngine(registry, cache=ResultCache(8, max_cached_k=2))
        manager = SessionManager(engine)
        sid = manager.create("cliques", gamma=3).session_id
        streamed = drain(manager, sid, batch)
        graph = registry.get("cliques").graph
        assert pairs(streamed) == reference(graph, 3)
