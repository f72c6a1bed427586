"""repro.live — streaming edge mutations over versioned graph generations.

Covers the whole subsystem end to end:

* :class:`EdgeBatch` validation and :func:`apply_batch` semantics
  (effective ops vs no-ops, barrier weights, the overlay fast path vs
  the rank-shuffle rebuild);
* overlay generations: rows equal to a scratch rebuild, untouched rows
  shared with the parent by reference, chaining and pickling;
* the differential property (satellite 1): random mutation streams
  replayed through the overlay path and through scratch rebuilds give
  byte-identical top-k answers across kernels and through the service;
* :class:`GraphRegistry` mutation surface — versioning, pending-batch
  counts, compaction (explicit and background), mutation hooks;
* scoped cache invalidation: families whose influence watermark clears
  the mutation barrier survive verbatim, the rest recompute — and both
  always match a scratch-rebuilt oracle; a family's barrier counts only
  the ops whose core level reaches its γ, checked by a hypothesis
  differential against ``core/reference.py`` and pinned on a seeded
  email stream.
"""

from __future__ import annotations

import random
import time
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.api.spec import QuerySpec
from repro.errors import GraphConstructionError, QueryParameterError, SelfLoopError
from repro.graph.builder import graph_from_arrays
from repro.graph.delta import (
    EdgeBatch,
    apply_batch,
    apply_ops_to_model,
)
from repro.core.reference import reference_communities, reference_truss_communities
from repro.service.cache import CacheKey, ProgressiveEntry, ResultCache, StaticEntry
from repro.service.engine import QueryEngine, progressive_cursor_factory
from repro.service.model import CommunityView
from repro.service.metrics import ServiceMetrics
from repro.service.registry import GraphRegistry
from repro.workloads.generators import delta_stream, erdos_renyi

KERNELS = ["python", "array"]


def _distinct_weights(n: int, seed: int = 0) -> list:
    rng = random.Random(seed)
    weights = set()
    while len(weights) < n:
        weights.add(round(rng.uniform(1.0, 100.0), 6))
    out = sorted(weights, reverse=True)
    rng.shuffle(out)
    return [float(w) for w in out]


def _small_graph():
    edges = [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]
    weights = [17.5, 16.25, 15.0, 13.75, 12.5, 11.25]
    return graph_from_arrays(6, edges, weights=weights), edges, weights


def _scratch(graph, model_edges, model_weights):
    n = graph.num_vertices
    return graph_from_arrays(
        n, sorted(model_edges), weights=[model_weights[i] for i in range(n)]
    )


def _rows(graph):
    n = graph.num_vertices
    return (
        [graph.neighbors_up(u) for u in range(n)],
        [graph.neighbors_down(u) for u in range(n)],
    )


# ----------------------------------------------------------------------
# EdgeBatch + apply_batch semantics
# ----------------------------------------------------------------------
class TestEdgeBatch:
    def test_validates_op_kinds(self):
        with pytest.raises(ValueError):
            EdgeBatch(ops=(("upsert", 0, 1),))

    def test_rejects_self_loops(self):
        with pytest.raises(SelfLoopError):
            EdgeBatch(ops=(("insert", 3, 3),))

    def test_reweight_needs_numeric_weight(self):
        with pytest.raises((TypeError, ValueError)):
            EdgeBatch(ops=(("reweight", 0, "heavy"),))

    @pytest.mark.parametrize("weight", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_reweights(self, weight):
        with pytest.raises(QueryParameterError, match="finite"):
            EdgeBatch(ops=(("reweight", 0, weight),))
        registry = GraphRegistry(preload_datasets=False)
        registry.register("g", lambda: _small_graph()[0])
        registry.get("g")
        with pytest.raises(QueryParameterError, match="finite"):
            registry.apply("g", [("reweight", 0, weight)])
        with repro.open(registry=registry) as rp:
            with pytest.raises(QueryParameterError, match="finite"):
                rp.mutate("g", [("reweight", 0, weight)])
        # A rejected batch never flips the graph's version.
        assert registry.version("g") == 1
        assert registry.mutations == 0

    def test_len_iter_describe(self):
        batch = EdgeBatch(ops=(("insert", 0, 1), ("reweight", 2, 5.5)))
        assert len(batch) == 2
        assert list(batch) == [("insert", 0, 1), ("reweight", 2, 5.5)]
        assert "insert" in batch.describe()


class TestApplyBatch:
    def test_insert_updates_adjacency_and_stats(self):
        graph, _, _ = _small_graph()
        new, barrier, stats = apply_batch(
            graph, EdgeBatch(ops=(("insert", 0, 4),))
        )
        assert stats.inserted == 1 and stats.noops == 0
        assert new.num_edges == graph.num_edges + 1
        assert new.has_edge_ranks(new.rank_of(0), new.rank_of(4))
        assert not graph.has_edge_ranks(graph.rank_of(0), graph.rank_of(4))
        # barrier = min endpoint weight of the touched edge
        assert barrier == 12.5

    def test_delete_and_noop_accounting(self):
        graph, _, _ = _small_graph()
        batch = EdgeBatch(ops=(("delete", 0, 1), ("delete", 3, 5)))
        new, barrier, stats = apply_batch(graph, batch)
        assert stats.deleted == 1
        assert stats.noops == 1  # (3, 5) was never present
        assert new.num_edges == graph.num_edges - 1
        assert barrier == 16.25

    def test_pure_noop_returns_same_graph(self):
        graph, _, _ = _small_graph()
        new, barrier, stats = apply_batch(
            graph, EdgeBatch(ops=(("delete", 3, 5),))
        )
        assert new is graph
        assert barrier == float("-inf")
        assert stats.noops == 1

    def test_reweight_without_rank_shuffle_shares_rows(self):
        graph, _, _ = _small_graph()
        # vertex 5: 11.25 -> 11.5 keeps the rank order intact
        new, barrier, stats = apply_batch(
            graph, EdgeBatch(ops=(("reweight", 5, 11.5),))
        )
        assert stats.reweighted == 1 and stats.rank_shuffle == 0
        assert barrier == 11.5
        assert new.weight(new.rank_of(5)) == 11.5
        # adjacency untouched: the new generation shares every row
        for u in range(graph.num_vertices):
            assert new.neighbors_up(u) is graph.neighbors_up(u)
            assert new.neighbors_down(u) is graph.neighbors_down(u)

    def test_reweight_rank_shuffle_rebuilds(self):
        graph, edges, weights = _small_graph()
        new, barrier, stats = apply_batch(
            graph, EdgeBatch(ops=(("reweight", 5, 99.0),))
        )
        assert stats.rank_shuffle == 1
        assert new.rank_of(5) == 0  # now the heaviest vertex
        assert barrier == 99.0
        model_w = {i: w for i, w in enumerate(weights)}
        model_w[5] = 99.0
        oracle = _scratch(graph, set(edges), model_w)
        assert _rows(new) == _rows(oracle)

    def test_weight_collision_raises(self):
        graph, _, _ = _small_graph()
        with pytest.raises(GraphConstructionError):
            apply_batch(graph, EdgeBatch(ops=(("reweight", 5, 17.5),)))

    def test_levels_scope_each_op_by_its_core(self):
        # A K4 (core 3) with a pendant path 3-4-5 (core 1).
        edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5)]
        weights = [10.0, 9.0, 8.0, 7.0, 6.0, 5.0]
        graph = graph_from_arrays(6, edges, weights=weights)
        graph.core_table()
        batch = EdgeBatch(
            ops=(
                ("insert", 0, 4),  # 4 rises to core 2: level min(3, 2)
                ("insert", 1, 4),  # 4 rises to core 3: level 3
                ("delete", 4, 5),  # read before the delete: core(5) = 1
                ("reweight", 5, 5.5),  # parent core(5) = 1
            )
        )
        _, barrier, stats = apply_batch(graph, batch)
        assert stats.levels == [(1, 5.5), (2, 6.0), (3, 6.0), (1, 5.5)]
        assert barrier == max(weight for _, weight in stats.levels)
        # Without a parent core table a reweight reaches every gamma.
        fresh = graph_from_arrays(6, edges, weights=weights)
        assert not fresh.core_table_built
        _, _, stats = apply_batch(fresh, EdgeBatch(ops=(("reweight", 5, 5.5),)))
        assert stats.levels == [(float("inf"), 5.5)]
        # A no-op records nothing.
        _, _, stats = apply_batch(graph, EdgeBatch(ops=(("insert", 0, 1),)))
        assert stats.levels == []

    def test_last_op_wins_per_edge(self):
        graph, _, _ = _small_graph()
        batch = EdgeBatch(
            ops=(("insert", 0, 4), ("delete", 0, 4), ("insert", 0, 4))
        )
        new, _, stats = apply_batch(graph, batch)
        assert stats.inserted == 1 and stats.deleted == 0
        assert new.has_edge_ranks(new.rank_of(0), new.rank_of(4))


# ----------------------------------------------------------------------
# overlay generations
# ----------------------------------------------------------------------
class TestOverlayRows:
    OPS = (("insert", 0, 4), ("delete", 1, 2))

    def _mutated(self):
        graph, edges, weights = _small_graph()
        new, _, _ = apply_batch(graph, EdgeBatch(ops=self.OPS))
        model_e = set(edges)
        model_w = {i: w for i, w in enumerate(weights)}
        apply_ops_to_model(model_e, model_w, self.OPS)
        return graph, new, _scratch(graph, model_e, model_w)

    def test_rows_match_scratch_rebuild(self):
        _, new, oracle = self._mutated()
        assert _rows(new) == _rows(oracle)
        assert new.num_edges == oracle.num_edges

    def test_untouched_rows_are_shared_with_the_parent(self):
        graph, new, _ = self._mutated()
        # (0, 4) touches down[0] and up[4]; (1, 2) down[1] and up[2].
        touched_up, touched_down = {2, 4}, {0, 1}
        for u in range(graph.num_vertices):
            assert (new.neighbors_up(u) is graph.neighbors_up(u)) == (
                u not in touched_up
            )
            assert (new.neighbors_down(u) is graph.neighbors_down(u)) == (
                u not in touched_down
            )

    def test_overlay_chains_share_rows(self):
        graph, _, _ = _small_graph()
        g1, _, _ = apply_batch(graph, EdgeBatch(ops=(("insert", 0, 4),)))
        g2, _, _ = apply_batch(g1, EdgeBatch(ops=(("insert", 0, 5),)))
        assert g2.neighbors_up(4) is g1.neighbors_up(4) == [0, 3]
        assert g2.neighbors_up(3) is graph.neighbors_up(3)
        assert g2.neighbors_down(0) == [1, 2, 4, 5]

    def test_pickles_with_its_rows(self):
        import pickle

        _, new, oracle = self._mutated()
        revived = pickle.loads(pickle.dumps(new))
        assert _rows(revived) == _rows(oracle)
        assert revived.core_stop(2) == new.core_stop(2)


# ----------------------------------------------------------------------
# satellite 1: the differential property
# ----------------------------------------------------------------------
class TestDifferentialProperty:
    def _stream_setup(self, seed):
        n, edges = erdos_renyi(60, 150, seed=seed)
        weights = _distinct_weights(n, seed=seed)
        graph = graph_from_arrays(n, edges, weights=weights)
        model_e = set(edges)
        model_w = {i: w for i, w in enumerate(weights)}
        return n, edges, weights, graph, model_e, model_w

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_overlay_matches_scratch_rebuild_per_kernel(
        self, kernel, monkeypatch
    ):
        monkeypatch.setenv("REPRO_KERNEL", kernel)
        n, edges, weights, graph, model_e, model_w = self._stream_setup(11)
        rng = random.Random(11)
        for batch in delta_stream(
            rng, n, edges, weights, batches=8, ops_per_batch=5
        ):
            graph, _, _ = apply_batch(graph, batch)
            apply_ops_to_model(model_e, model_w, batch.ops)
            oracle = _scratch(graph, model_e, model_w)
            spec_live = QuerySpec(graph="live", gamma=2, k=5)
            spec_oracle = QuerySpec(graph="oracle", gamma=2, k=5)
            reg = GraphRegistry(preload_datasets=False)
            live_graph, oracle_graph = graph, oracle
            reg.register("live", lambda g=live_graph: g)
            reg.register("oracle", lambda g=oracle_graph: g)
            engine = QueryEngine(reg)
            assert engine.kernel == kernel
            got = engine.execute(spec_live)
            want = engine.execute(spec_oracle)
            assert [
                (v.keynode, v.influence, v.members) for v in got.communities
            ] == [
                (v.keynode, v.influence, v.members) for v in want.communities
            ]

    def test_registry_apply_matches_scratch_through_service(self):
        n, edges, weights, graph, model_e, model_w = self._stream_setup(23)
        registry = GraphRegistry(preload_datasets=False, compact_after=None)
        base = graph
        registry.register("g", lambda: base)
        cache = ResultCache(32)
        engine = QueryEngine(registry, cache=cache)
        rng = random.Random(23)
        spec = QuerySpec(graph="g", gamma=2, k=6)
        for batch in delta_stream(
            rng, n, edges, weights, batches=6, ops_per_batch=4
        ):
            registry.apply("g", batch)
            apply_ops_to_model(model_e, model_w, batch.ops)
            got = engine.execute(spec)
            oreg = GraphRegistry(preload_datasets=False)
            oracle = _scratch(graph, model_e, model_w)
            oreg.register("g", lambda g=oracle: g)
            want = QueryEngine(oreg).execute(spec)
            assert [
                (v.keynode, v.influence, v.members) for v in got.communities
            ] == [
                (v.keynode, v.influence, v.members) for v in want.communities
            ]


# ----------------------------------------------------------------------
# registry: versions, pending batches, compaction, hooks
# ----------------------------------------------------------------------
class TestRegistryLive:
    def _registry(self, compact_after=None):
        graph, edges, weights = _small_graph()
        registry = GraphRegistry(
            preload_datasets=False, compact_after=compact_after
        )
        registry.register("g", lambda: graph)
        return registry, graph

    def test_apply_bumps_version_and_tracks_deltas(self):
        registry, _ = self._registry()
        assert registry.get("g").version == 1
        event = registry.apply("g", [("insert", 0, 4)])
        assert (event.old_version, event.new_version) == (1, 2)
        assert registry.get("g").version == 2
        assert registry.pending_deltas("g") == 1
        assert registry.mutations == 1

    def test_compact_folds_and_clears(self):
        registry, _ = self._registry()
        registry.apply("g", [("insert", 0, 4)])
        registry.apply("g", [("delete", 0, 1)])
        before = registry.get("g")
        event = registry.compact("g")
        assert event is not None and event.kind == "compact"
        after = registry.get("g")
        assert after.version == before.version + 1
        assert registry.pending_deltas("g") == 0
        # Same content, same rows: compaction only bumps the version.
        assert after.graph is before.graph
        assert registry.compactions == 1

    def test_compact_without_deltas_is_none(self):
        registry, _ = self._registry()
        assert registry.compact("g") is None

    def test_background_compaction_fires(self):
        registry, _ = self._registry(compact_after=2)
        registry.apply("g", [("insert", 0, 4)])
        registry.apply("g", [("insert", 0, 5)])
        deadline = time.time() + 5.0
        while registry.pending_deltas("g") and time.time() < deadline:
            time.sleep(0.02)
        assert registry.pending_deltas("g") == 0
        assert registry.compactions == 1

    def test_mutation_hooks_fire_and_build_resets(self):
        registry, _ = self._registry()
        events = []
        registry.add_mutation_hook(events.append)
        registry.apply("g", [("insert", 0, 4)])
        assert len(events) == 1 and events[0].kind == "mutate"
        registry.compact("g")
        assert len(events) == 2 and events[1].kind == "compact"
        registry.remove_mutation_hook(events.append)
        registry.apply("g", [("insert", 1, 3)])
        assert len(events) == 2

    def test_describe_reports_pending_deltas(self):
        registry, _ = self._registry()
        registry.apply("g", [("insert", 0, 4)])
        rows = {row["name"]: row for row in registry.describe()}
        assert rows["g"]["pending_deltas"] == 1


# ----------------------------------------------------------------------
# scoped cache invalidation
# ----------------------------------------------------------------------
class TestScopedInvalidation:
    def _stack(self):
        graph, edges, weights = _small_graph()
        registry = GraphRegistry(
            preload_datasets=False, compact_after=None
        )
        registry.register("g", lambda: graph)
        cache = ResultCache(32)
        metrics = ServiceMetrics()
        engine = QueryEngine(registry, cache=cache, metrics=metrics)
        return registry, cache, metrics, engine

    def test_low_barrier_mutation_preserves_cached_family(self):
        registry, cache, metrics, engine = self._stack()
        spec = QuerySpec(graph="g", gamma=1, k=2)
        engine.execute(spec)
        # insert far below the cached watermark (top-2 influence 15.0)
        event = registry.apply("g", [("insert", 3, 5)])
        assert event.preserved == 1 and event.invalidated == 0
        result = engine.execute(spec)
        assert result.source == "cache"
        assert result.graph_version == event.new_version

    def test_high_barrier_mutation_invalidates(self):
        registry, cache, metrics, engine = self._stack()
        spec = QuerySpec(graph="g", gamma=1, k=2)
        engine.execute(spec)
        event = registry.apply("g", [("delete", 0, 1)])
        assert event.invalidated == 1 and event.preserved == 0
        result = engine.execute(spec)
        assert result.source == "cold"
        assert result.graph_version == event.new_version

    def test_preserved_answers_match_scratch_oracle(self):
        registry, cache, metrics, engine = self._stack()
        spec = QuerySpec(graph="g", gamma=1, k=2)
        engine.execute(spec)
        registry.apply("g", [("insert", 3, 5)])
        preserved = engine.execute(spec)
        graph, edges, weights = _small_graph()
        model_e, model_w = set(edges), dict(enumerate(weights))
        apply_ops_to_model(model_e, model_w, (("insert", 3, 5),))
        oreg = GraphRegistry(preload_datasets=False)
        oracle = _scratch(graph, model_e, model_w)
        oreg.register("g", lambda: oracle)
        want = QueryEngine(oreg).execute(spec)
        assert [
            (v.keynode, v.influence, v.members)
            for v in preserved.communities
        ] == [
            (v.keynode, v.influence, v.members) for v in want.communities
        ]

    def test_compaction_preserves_everything(self):
        registry, cache, metrics, engine = self._stack()
        spec = QuerySpec(graph="g", gamma=1, k=2)
        engine.execute(spec)
        registry.apply("g", [("delete", 0, 1)])
        engine.execute(spec)  # recompute under v2
        event = registry.compact("g")
        assert event.preserved >= 1 and event.invalidated == 0
        result = engine.execute(spec)
        assert result.source == "cache"
        assert result.graph_version == event.new_version

    def test_compaction_rekeys_the_live_entry(self, started_streams):
        registry, cache, metrics, engine = self._stack()
        spec = QuerySpec(graph="g", gamma=1, k=1)
        registry.apply("g", [("insert", 3, 5)])
        engine.execute(spec)
        key = CacheKey.for_spec(spec, registry.get("g").version)
        entry = cache.get(key)
        del started_streams[:]
        event = registry.compact("g")
        assert (event.preserved, event.invalidated) == (1, 0)
        assert cache.get(replace(key, version=event.new_version)) is entry
        # The live cursor carries on: the extension resumes it.
        assert engine.execute(replace(spec, k=4)).source == "extended"
        assert started_streams == []

    def test_metrics_live_section(self):
        registry, cache, metrics, engine = self._stack()
        spec = QuerySpec(graph="g", gamma=1, k=2)
        engine.execute(spec)
        registry.apply("g", [("insert", 3, 5)])
        registry.apply("g", [("delete", 0, 1)])
        registry.compact("g")
        live = metrics.snapshot()["live"]
        assert live["mutations_applied"] == 2
        assert live["compactions"] == 1
        assert live["families_preserved"] >= 1
        assert live["families_invalidated"] >= 1
        assert live["graph_generation"]["g"] == registry.get("g").version

    def test_empty_family_survives_a_batch_below_its_core(self):
        registry, cache, metrics, engine = self._stack()
        # Every vertex has core 2, so no 3-community exists.
        spec = QuerySpec(graph="g", gamma=3, k=5)
        assert engine.execute(spec).communities == ()
        event = registry.apply("g", [("insert", 3, 5)])  # level 2 < 3
        assert event.preserved == 1 and event.invalidated == 0
        result = engine.execute(spec)
        assert result.source == "cache" and result.complete
        assert result.communities == ()

    def test_flip_below_the_core_keeps_a_family_above_the_barrier(self):
        # A K4 of core 3 (influence 7) and a heavier tail 3-4-5.
        edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5)]
        weights = [10.0, 9.0, 8.0, 7.0, 9.5, 9.25]
        graph = graph_from_arrays(6, edges, weights=weights)
        registry = GraphRegistry(preload_datasets=False, compact_after=None)
        registry.register("g", lambda: graph)
        engine = QueryEngine(registry, cache=ResultCache(8))
        three, two = (QuerySpec(graph="g", gamma=g, k=1) for g in (3, 2))
        before = engine.execute(three).communities
        assert before[0].influence == 7.0
        engine.execute(two)
        # The cycle 0-3-4-5 lifts 4 and 5 to core 2: level 2.
        event = registry.apply("g", [("insert", 0, 5)])
        assert event.barrier == 9.25 > before[-1].influence
        assert event.preserved == 1 and event.invalidated == 1
        result = engine.execute(three)
        assert result.source == "cache" and result.communities == before
        assert engine.execute(two).source == "cold"

    def test_a_newer_entry_survives_migration_as_the_same_object(self):
        # A loop-served cold query of v2 that ran between the handle
        # flip and the hook owns a live cursor; the migration keeps it.
        cache = ResultCache(8)
        views = (
            CommunityView(keynode=1, influence=9.0, size=2, members=(0, 1)),
        )
        old, new = (
            CacheKey(
                graph="g", version=v, gamma=1, algorithm="forward",
                delta=None,
            )
            for v in (1, 2)
        )
        stale, fresh = StaticEntry(views, True), StaticEntry(views, True)
        cache.put(old, stale)
        cache.put(new, fresh)
        for levels in (None, ()):
            assert cache.migrate_graph(
                "g", 1, 2, barrier=float("-inf"), levels=levels
            ) == (1, 0)
            assert cache.get(new) is fresh and cache.get(old) is None
            cache.put(old, stale)

    def test_migrate_scopes_each_family_by_its_levels(self):
        def key(gamma, algorithm="forward", version=1):
            return CacheKey(
                graph="g", version=version, gamma=gamma,
                algorithm=algorithm, delta=None,
            )

        high = (
            CommunityView(keynode=1, influence=4.0, size=2, members=(0, 1)),
        )
        low = (
            CommunityView(keynode=3, influence=2.0, size=2, members=(2, 3)),
        )
        cache = ResultCache(8)
        cache.put(key(2), StaticEntry(high, True))  # barrier 5: dropped
        cache.put(key(3), StaticEntry(high, True))  # barrier 3: kept
        cache.put(key(4), StaticEntry(low, True))  # reached by no op
        cache.put(key(4, "truss"), StaticEntry(low, True))  # level 3 >= 4 - 1
        cache.put(key(9, "localsearch-p"), ProgressiveEntry(exhausted=True))
        levels = [(3, 3.0), (2, 5.0)]
        assert cache.migrate_graph("g", 1, 2, 5.0, levels=levels) == (3, 2)
        kept = {k.gamma: cache.get(k) for k in cache.keys()}
        assert set(kept) == {3, 4, 9}
        assert kept[3].complete is False  # reached: the tail may differ
        assert kept[4].complete is True  # untouched: still the whole answer
        assert kept[9].exhausted and kept[9].views == ()
        assert cache.get(key(4, "truss", version=2)) is None

    def test_migrate_unit_semantics(self):
        # Direct migrate_graph exercise, no engine: watermark vs barrier.
        cache = ResultCache(8)
        views = (
            CommunityView(
                keynode=1, influence=9.0, size=2, members=(0, 1)
            ),
        )
        keep = CacheKey(
            graph="g", version=1, gamma=1, algorithm="forward",
            delta=None,
        )
        drop = CacheKey(
            graph="g", version=1, gamma=2, algorithm="forward",
            delta=None,
        )
        cache.put(keep, StaticEntry(views, True))
        low = (
            CommunityView(
                keynode=3, influence=2.0, size=2, members=(3, 4)
            ),
        )
        cache.put(drop, StaticEntry(low, True))
        preserved, invalidated = cache.migrate_graph(
            "g", 1, 2, barrier=5.0
        )
        assert (preserved, invalidated) == (1, 1)
        migrated = cache.get(
            CacheKey(
                graph="g", version=2, gamma=1, algorithm="forward",
                delta=None,
            )
        )
        assert migrated is not None and migrated.views == views
        # non-identical migration can never claim completeness
        assert migrated.complete is False
        assert cache.get(keep) is None


# ----------------------------------------------------------------------
# gamma-aware scoping: a differential property and a pinned stream
# ----------------------------------------------------------------------
#: Families of the differential: core progressive entries, core and
#: truss static entries, at gammas that leave some answers empty.
_FAMILIES = [(g, "localsearch-p") for g in (1, 2, 3, 4)] + [
    (g, algorithm) for g in (2, 3, 4) for algorithm in ("forward", "truss")
]


@st.composite
def _scoped_streams(draw):
    """A random weighted graph, per-family k (100 = the whole answer)
    and 1-4 batches of inserts, deletes and reweights, each applied to
    the previous generation or to a fresh build of its model (no core
    table)."""
    n = draw(st.integers(5, 10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = sorted(draw(st.sets(st.sampled_from(pairs), max_size=3 * n)))
    weights = [float(w) for w in draw(st.permutations(range(1, n + 1)))]
    ks = [draw(st.sampled_from((1, 2, 100))) for _ in _FAMILIES]
    op = st.one_of(
        st.tuples(st.sampled_from(("insert", "delete")), st.sampled_from(pairs)),
        st.tuples(
            st.just("reweight"),
            st.tuples(st.integers(0, n - 1), st.integers(0, 3 * n)),
        ),
    )
    batches = draw(
        st.lists(
            st.tuples(st.lists(op, min_size=1, max_size=4), st.booleans()),
            min_size=1,
            max_size=4,
        )
    )
    return n, edges, weights, ks, batches


def _reference_views(graph, gamma, algorithm):
    """Every community of ``graph`` by the reference derivation, as
    views in decreasing influence."""
    if algorithm == "truss":
        found = [
            (w, {x for edge in edge_set for x in edge})
            for w, edge_set in reference_truss_communities(graph, gamma)
        ]
    else:
        found = reference_communities(graph, gamma)
    return [
        CommunityView(
            keynode=graph.label(max(ranks)),
            influence=w,
            size=len(ranks),
            members=tuple(sorted(graph.labels(sorted(ranks)), key=str)),
        )
        for w, ranks in found
    ]


def _entry(graph, gamma, algorithm, k):
    views = _reference_views(graph, gamma, algorithm)
    head, complete = tuple(views[:k]), k >= len(views)
    if algorithm == "localsearch-p":
        return ProgressiveEntry(
            cursor_factory=progressive_cursor_factory(graph, gamma, 2.0),
            views=head,
            exhausted=complete,
        )
    return StaticEntry(head, complete)


@given(_scoped_streams())
@settings(max_examples=100, deadline=None)
def test_every_family_the_levels_keep_equals_the_reference(case):
    n, edges, weights, ks, batches = case
    model_e, model_w = set(edges), dict(enumerate(weights))
    graph = graph_from_arrays(n, edges, weights=weights)
    cache = ResultCache(64)
    keys = [
        CacheKey(graph="g", version=0, gamma=g, algorithm=a, delta=2.0)
        for g, a in _FAMILIES
    ]
    for key, k in zip(keys, ks):
        cache.put(key, _entry(graph, key.gamma, key.algorithm, k))
    for version, (raw, fresh) in enumerate(batches, start=1):
        ops, taken = [], set(model_w.values())
        for kind, arg in raw:
            if kind == "reweight":  # weights stay distinct
                vertex, value = arg
                if value + 0.5 in taken:
                    continue
                taken.add(value + 0.5)
                ops.append((kind, vertex, value + 0.5))
            else:
                ops.append((kind, *arg))
        if fresh:  # a parent with no core table
            graph = _scratch(graph, model_e, model_w)
        child, barrier, stats = apply_batch(graph, EdgeBatch(tuple(ops)))
        apply_ops_to_model(model_e, model_w, ops)
        assert barrier == max(
            (w for _, w in stats.levels), default=float("-inf")
        )
        cache.migrate_graph(
            "g", version - 1, version, barrier,
            levels=stats.levels,
            progressive_factory=lambda key: progressive_cursor_factory(
                child, key.gamma, key.delta
            ),
        )
        for old, k in zip(keys, ks):
            key = replace(old, version=version)
            want = _reference_views(child, key.gamma, key.algorithm)
            entry = cache.get(key)
            if entry is None:  # dropped: refill from the new generation
                cache.put(key, _entry(child, key.gamma, key.algorithm, k))
                continue
            views = entry.views
            assert list(views) == want[: len(views)]
            if isinstance(entry, ProgressiveEntry):
                complete = entry.exhausted
            else:
                complete = entry.complete
            if complete:
                assert len(views) == len(want)
        graph = child


#: The email families of live-churn's gamma sweep, k=100, over 150
#: ``delta_stream(random.Random(4242), ...)`` batches of 2 ops with
#: live-churn's email mix: kept and dropped family-batches per gamma
#: under the core-level rule.  The barrier rule alone drops
#: 69, 72, 61 and 150 (352 in all; 150 for the empty gamma=50 answer).
EMAIL_KEPT = {5: 102, 10: 121, 20: 147, 50: 150}
EMAIL_DROPPED = {5: 48, 10: 29, 20: 3, 50: 0}


def test_scoped_drops_are_pinned_on_an_email_stream():
    registry = GraphRegistry(compact_after=None)
    cache = ResultCache(64)
    engine = QueryEngine(registry, cache=cache)
    graph = registry.get("email").graph
    edges = [tuple(sorted(graph.labels(edge))) for edge in graph.iter_edges()]
    weights = [graph.weight_of_label(v) for v in range(graph.num_vertices)]
    stream = delta_stream(
        random.Random(4242),
        graph.num_vertices,
        edges,
        weights,
        ops_per_batch=2,
        mix=(0.4, 0.4, 0.2),
    )
    specs = {g: QuerySpec(graph="email", gamma=g, k=100) for g in EMAIL_KEPT}
    for spec in specs.values():
        engine.execute(spec)
    kept = dict.fromkeys(specs, 0)
    dropped = dict.fromkeys(specs, 0)
    for _ in range(150):
        version = registry.version("email")
        frontier = {
            g: cache.get(CacheKey.for_spec(spec, version)).views
            for g, spec in specs.items()
        }
        event = registry.apply("email", next(stream))
        for g, spec in specs.items():
            if cache.get(CacheKey.for_spec(spec, event.new_version)) is None:
                # No family drops where the barrier rule would keep it.
                views = frontier[g]
                assert not views or views[-1].influence <= event.barrier
                dropped[g] += 1
                engine.execute(spec)
            else:
                kept[g] += 1
    assert (kept, dropped) == (EMAIL_KEPT, EMAIL_DROPPED)
