"""ResultCache: LRU behaviour, prefix reuse, and resumable extension.

The load-bearing invariant (ISSUE 1 satellite): answering ``k' <= k``
from a cached top-``k`` must be **byte-identical** to a fresh,
cache-free query for ``k'``.
"""

from __future__ import annotations

import json

import pytest

from repro.api import QuerySpec
from repro.graph.builder import graph_from_arrays
from repro.service import (
    CacheKey,
    GraphRegistry,
    QueryEngine,
    ResultCache,
)
from repro.service.cache import ProgressiveEntry, StaticEntry


def two_k4s():
    """Two K4s with a weak bridge: exactly two gamma=3 communities."""
    return graph_from_arrays(
        8,
        [
            (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
            (4, 5), (4, 6), (4, 7), (5, 6), (5, 7), (6, 7),
            (3, 4),
        ],
    )


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
    registry = GraphRegistry(preload_datasets=False)
    registry.register("two-k4s", two_k4s)
    registry.register("cliques", layered_cliques)
    return registry


def communities_json(result) -> bytes:
    """Canonical bytes of a result's communities (the cached payload)."""
    return json.dumps(
        [v.to_dict() for v in result.communities], sort_keys=True
    ).encode("utf-8")


class TestPrefixReuseInvariant:
    @pytest.mark.parametrize("algorithm", ["localsearch-p", "localsearch"])
    @pytest.mark.parametrize("k_prime", [1, 2, 4, 6])
    def test_cached_prefix_is_byte_identical_to_fresh_query(
        self, registry, algorithm, k_prime
    ):
        cached_engine = QueryEngine(registry, cache=ResultCache())
        fresh_engine = QueryEngine(registry, cache=None)

        big = cached_engine.execute(
            QuerySpec(graph="cliques", gamma=3, k=6, algorithm=algorithm)
        )
        assert big.source == "cold"

        served = cached_engine.execute(
            QuerySpec(graph="cliques", gamma=3, k=k_prime, algorithm=algorithm)
        )
        assert served.source == "cache"
        fresh = fresh_engine.execute(
            QuerySpec(graph="cliques", gamma=3, k=k_prime, algorithm=algorithm)
        )
        assert fresh.source == "cold"
        assert communities_json(served) == communities_json(fresh)

    def test_extension_matches_fresh_query(self, registry):
        """k' > k resumes the stream — and still matches a fresh answer."""
        cached_engine = QueryEngine(registry, cache=ResultCache())
        fresh_engine = QueryEngine(registry, cache=None)

        cached_engine.execute(QuerySpec(graph="cliques", gamma=3, k=2))
        extended = cached_engine.execute(
            QuerySpec(graph="cliques", gamma=3, k=5)
        )
        assert extended.source == "extended"
        fresh = fresh_engine.execute(QuerySpec(graph="cliques", gamma=3, k=5))
        assert communities_json(extended) == communities_json(fresh)

    def test_extension_does_not_recompute_prefix(self, registry):
        """The resumed cursor's searcher never re-peels earlier prefixes."""
        engine = QueryEngine(registry, cache=ResultCache())
        engine.execute(QuerySpec(graph="cliques", gamma=3, k=2))
        key = CacheKey.for_spec(QuerySpec(graph="cliques", gamma=3), version=1)
        entry = engine.cache.get(key)
        assert isinstance(entry, ProgressiveEntry)
        rounds_before = entry.cursor.searcher.stats.rounds
        engine.execute(QuerySpec(graph="cliques", gamma=3, k=6))
        rounds_after = entry.cursor.searcher.stats.rounds
        # Resuming added rounds monotonically; prefixes stayed increasing
        # (a restart would reset to the small initial prefix).
        assert rounds_after >= rounds_before
        prefixes = entry.cursor.searcher.stats.prefixes
        assert prefixes == sorted(prefixes)


class TestSources:
    def test_cold_then_cache_then_extended(self, registry):
        engine = QueryEngine(registry, cache=ResultCache())
        assert engine.execute(
            QuerySpec(graph="two-k4s", gamma=3, k=1)
        ).source == "cold"
        assert engine.execute(
            QuerySpec(graph="two-k4s", gamma=3, k=1)
        ).source == "cache"
        assert engine.execute(
            QuerySpec(graph="two-k4s", gamma=3, k=2)
        ).source == "extended"
        stats = engine.cache.stats
        assert (stats.misses, stats.hits, stats.extended) == (1, 1, 1)
        assert stats.hit_rate == pytest.approx(2 / 3)

    def test_exhausted_cursor_serves_larger_k_from_cache(self, registry):
        engine = QueryEngine(registry, cache=ResultCache())
        first = engine.execute(QuerySpec(graph="two-k4s", gamma=3, k=10))
        assert len(first) == 2  # only two communities exist
        assert first.complete
        again = engine.execute(QuerySpec(graph="two-k4s", gamma=3, k=50))
        assert again.source == "cache"
        assert len(again) == 2
        assert again.complete

    def test_static_algorithm_larger_k_is_a_miss(self, registry):
        engine = QueryEngine(registry, cache=ResultCache())
        engine.execute(
            QuerySpec(graph="cliques", gamma=3, k=2, algorithm="localsearch")
        )
        bigger = engine.execute(
            QuerySpec(graph="cliques", gamma=3, k=4, algorithm="localsearch")
        )
        assert bigger.source == "cold"
        # ... but the refreshed entry now serves the larger prefix.
        assert engine.execute(
            QuerySpec(graph="cliques", gamma=3, k=4, algorithm="localsearch")
        ).source == "cache"

    def test_different_gamma_is_a_different_entry(self, registry):
        engine = QueryEngine(registry, cache=ResultCache())
        engine.execute(QuerySpec(graph="two-k4s", gamma=3, k=2))
        assert engine.execute(
            QuerySpec(graph="two-k4s", gamma=2, k=2)
        ).source == "cold"


class TestLRUAndInvalidation:
    def test_capacity_evicts_least_recently_used(self):
        cache = ResultCache(capacity=2)
        k1 = CacheKey("g", 1, 1, "a", 2.0)
        k2 = CacheKey("g", 1, 2, "a", 2.0)
        k3 = CacheKey("g", 1, 3, "a", 2.0)
        e = StaticEntry((), complete=True)
        cache.put(k1, e)
        cache.put(k2, e)
        cache.get(k1)  # refresh k1 -> k2 becomes LRU
        cache.put(k3, e)
        assert cache.get(k1) is not None
        assert cache.get(k2) is None
        assert cache.get(k3) is not None
        assert cache.stats.evictions == 1

    def test_reload_invalidates_via_version(self, registry):
        engine = QueryEngine(registry, cache=ResultCache())
        engine.execute(QuerySpec(graph="two-k4s", gamma=3, k=2))
        registry.reload("two-k4s")
        result = engine.execute(QuerySpec(graph="two-k4s", gamma=3, k=2))
        assert result.source == "cold"
        assert result.graph_version == 2

    def test_invalidate_graph(self, registry):
        engine = QueryEngine(registry, cache=ResultCache())
        engine.execute(QuerySpec(graph="two-k4s", gamma=3, k=2))
        engine.execute(QuerySpec(graph="cliques", gamma=3, k=2))
        dropped = engine.cache.invalidate_graph("two-k4s")
        assert dropped == 1
        assert len(engine.cache) == 1
        assert engine.execute(
            QuerySpec(graph="two-k4s", gamma=3, k=2)
        ).source == "cold"


class TestKTruncationPolicy:
    """ISSUE 2 satellite: `max_cached_k` bounds per-entry retention
    without ever changing what a query receives."""

    def test_cache_validates_max_cached_k(self):
        with pytest.raises(ValueError):
            ResultCache(max_cached_k=0)

    def test_entry_requires_factory_with_cap(self, registry):
        from repro.core.progressive import LocalSearchP

        cursor = LocalSearchP(layered_cliques(), gamma=3).cursor()
        with pytest.raises(ValueError):
            ProgressiveEntry(cursor, max_cached_k=2)

    def test_served_in_full_but_retained_capped(self, registry):
        engine = QueryEngine(registry, cache=ResultCache(max_cached_k=3))
        big = engine.execute(QuerySpec(graph="cliques", gamma=3, k=6))
        assert len(big) == 6
        key = CacheKey.for_spec(QuerySpec(graph="cliques", gamma=3), version=1)
        entry = engine.cache.get(key)
        assert isinstance(entry, ProgressiveEntry)
        assert entry.materialized == 3
        # The cursor (holding live Community objects) was released too.
        assert entry.cursor is None

    def test_prefix_within_cap_is_a_hit_beyond_recomputes(self, registry):
        capped = QueryEngine(registry, cache=ResultCache(max_cached_k=3))
        fresh = QueryEngine(registry, cache=None)
        capped.execute(QuerySpec(graph="cliques", gamma=3, k=6))

        small = capped.execute(QuerySpec(graph="cliques", gamma=3, k=2))
        assert small.source == "cache"
        assert communities_json(small) == communities_json(
            fresh.execute(QuerySpec(graph="cliques", gamma=3, k=2))
        )

        # Beyond the cap: the factory rebuilds a cursor and the stream
        # (deterministic) reproduces the identical answer.
        large = capped.execute(QuerySpec(graph="cliques", gamma=3, k=5))
        assert large.source == "extended"
        assert communities_json(large) == communities_json(
            fresh.execute(QuerySpec(graph="cliques", gamma=3, k=5))
        )

    def test_queries_within_cap_never_truncate(self, registry):
        engine = QueryEngine(registry, cache=ResultCache(max_cached_k=10))
        engine.execute(QuerySpec(graph="cliques", gamma=3, k=4))
        key = CacheKey.for_spec(QuerySpec(graph="cliques", gamma=3), version=1)
        entry = engine.cache.get(key)
        assert entry.materialized == 4
        assert entry.cursor is not None  # still resumable in place

    def test_static_entries_stored_pre_truncated(self, registry):
        engine = QueryEngine(registry, cache=ResultCache(max_cached_k=2))
        first = engine.execute(
            QuerySpec(graph="cliques", gamma=3, k=4, algorithm="localsearch")
        )
        assert len(first) == 4  # the caller sees everything
        key = CacheKey.for_spec(
            QuerySpec(graph="cliques", gamma=3, algorithm="localsearch"),
            version=1,
        )
        entry = engine.cache.get(key)
        assert isinstance(entry, StaticEntry)
        assert len(entry.views) == 2
        assert not entry.complete
        # Within the retained prefix: still a byte-identical hit.
        again = engine.execute(
            QuerySpec(graph="cliques", gamma=3, k=2, algorithm="localsearch")
        )
        assert again.source == "cache"
        assert communities_json(again) == communities_json(
            QueryEngine(registry, cache=None).execute(
                QuerySpec(graph="cliques", gamma=3, k=2, algorithm="localsearch")
            )
        )

    def test_exhaustion_flag_survives_only_below_cap(self, registry):
        # two-k4s has exactly 2 communities; cap 3 never truncates them.
        engine = QueryEngine(registry, cache=ResultCache(max_cached_k=3))
        done = engine.execute(QuerySpec(graph="two-k4s", gamma=3, k=10))
        assert done.complete
        again = engine.execute(QuerySpec(graph="two-k4s", gamma=3, k=50))
        assert again.source == "cache"
        assert again.complete

    def test_complete_survives_truncation_crossing_exhaustion(self, registry):
        # 6 communities total, cap 5: the exhausting query is truncated
        # in retention but must still be reported complete.
        capped = QueryEngine(registry, cache=ResultCache(max_cached_k=5))
        result = capped.execute(QuerySpec(graph="cliques", gamma=3, k=100))
        assert len(result) == 6
        assert result.complete
        reference = QueryEngine(registry, cache=None).execute(
            QuerySpec(graph="cliques", gamma=3, k=100)
        )
        assert reference.complete
