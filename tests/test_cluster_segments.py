"""Shared-memory CSR segments: round-trips, identity, and cleanup.

The cluster tier's correctness contract is *byte identity*: a community
stream computed by a worker over a shared-memory-attached (or pickled)
graph must equal — view for view, field for field — the stream the
in-process engine computes over the original graph.  These tests drive
the same seeded graphs through all three execution paths and compare.
"""

from __future__ import annotations

import os
import pickle
import random

import pytest

from repro.api.spec import QuerySpec
from repro.cluster import segment as segment_module
from repro.cluster import (
    ClusterPool,
    SegmentStore,
    attach_graph,
    publish_graph,
    shared_memory_available,
)
from repro.graph import core_decomposition as core_module
from repro.graph.core_decomposition import core_decomposition, core_stops
from repro.graph.delta import apply_batch
from repro.graph.csr import CSRAdjacency
from repro.graph.weighted_graph import WeightedGraph
from repro.service.cache import ResultCache
from repro.service.engine import QueryEngine
from repro.service.registry import GraphHandle, GraphRegistry
from repro.workloads.generators import chung_lu, build_weighted_graph

from tests.conftest import random_graph

needs_shm = pytest.mark.skipif(
    not shared_memory_available(), reason="no usable shared memory here"
)

needs_mp = pytest.mark.skipif(
    not ClusterPool.available(), reason="multiprocessing unavailable"
)


def _shm_entries():
    try:
        return {f for f in os.listdir("/dev/shm") if f.startswith("repro-csr")}
    except FileNotFoundError:  # pragma: no cover - non-tmpfs platform
        return set()


def _seeded_graph(seed: int) -> WeightedGraph:
    n, edges = chung_lu(220, avg_degree=7.0, seed=seed)
    return build_weighted_graph(n, edges, weights="degree", seed=seed)


def _registry_with(graph: WeightedGraph, name: str = "g") -> GraphRegistry:
    registry = GraphRegistry(preload_datasets=False)
    registry.register(name, lambda: graph)
    return registry


# ----------------------------------------------------------------------
# publish / attach round trip
# ----------------------------------------------------------------------
@needs_shm
def test_publish_attach_round_trip_is_byte_identical(monkeypatch):
    graph = _seeded_graph(1)
    handle = GraphHandle("g", 1, graph)
    segment, shm = publish_graph(handle)
    opened = []

    def record(name, _attach=segment_module._attach_untracked):
        opened.append(_attach(name))
        return opened[-1]

    monkeypatch.setattr(segment_module, "_attach_untracked", record)
    try:
        attached = attach_graph(segment)
        # The graph holds its own rows: the worker's mapping is closed
        # before attach_graph returns.
        (attached_shm,) = opened
        assert attached_shm.buf is None
    finally:
        shm.close()
        shm.unlink()
    # ... and the graph outlives the segment itself.
    assert attached.num_vertices == graph.num_vertices
    assert attached.num_edges == graph.num_edges
    csr, acsr = graph.csr(), attached.csr()
    assert bytes(memoryview(csr.up_targets)) == bytes(
        memoryview(acsr.up_targets)
    )
    assert bytes(memoryview(csr.down_offsets)) == bytes(
        memoryview(acsr.down_offsets)
    )
    for u in range(graph.num_vertices):
        assert graph.neighbors_up(u) == attached.neighbors_up(u)
        assert graph.neighbors_down(u) == attached.neighbors_down(u)
        assert graph.weight(u) == attached.weight(u)
        assert graph.label(u) == attached.label(u)


def _forbid_decomposition(monkeypatch):
    def forbidden(graph):
        raise AssertionError("core decomposition ran on an attached graph")

    monkeypatch.setattr(core_module, "peel_order", forbidden)


def _all_core_stops(graph, reference):
    return [graph.core_stop(g) for g in range(1, len(reference) + 2)]


@needs_shm
def test_attached_graph_keeps_the_publishers_core_table(monkeypatch):
    graph = _seeded_graph(7)
    assert graph._core_stops is None
    segment, shm = publish_graph(GraphHandle("g", 1, graph))
    stops = graph._core_stops  # built once, by the publisher
    _forbid_decomposition(monkeypatch)
    try:
        attached = attach_graph(segment)
    finally:
        shm.close()
        shm.unlink()
    assert attached._core_stops == stops
    assert attached._core_numbers == graph._core_numbers
    assert _all_core_stops(attached, stops) == _all_core_stops(graph, stops)


@needs_shm
def test_a_replayed_delta_chain_ends_with_exact_cores(monkeypatch):
    # A worker catches up by replaying the registry's delta chain over
    # its attached graph with apply_batch: the first batch builds the
    # worker's own core order from one decomposition, and every
    # generation of the replay has exact core numbers.
    graph = _seeded_graph(9)
    registry = GraphRegistry(preload_datasets=False, compact_after=None)
    registry.register("g", lambda: graph)
    segment, shm = publish_graph(registry.get("g"))
    try:
        attached = attach_graph(segment)
    finally:
        shm.close()
        shm.unlink()
    rng = random.Random(9)
    n = graph.num_vertices
    for _ in range(12):
        present = sorted(registry.get("g").graph.edges_as_labels())
        ops = [("insert", *rng.sample(range(n), 2)) for _ in range(3)]
        ops += [("delete", u, v) for u, v in rng.sample(present, 2)]
        registry.apply("g", ops)
    chain = registry.delta_chain("g", 1, registry.version("g"))
    assert len(chain) == 12
    calls = []
    real = core_module.peel_order
    monkeypatch.setattr(
        core_module, "peel_order", lambda g: calls.append(g) or real(g)
    )
    replayed = [attached]
    for batch in chain:
        replayed.append(apply_batch(replayed[-1], batch)[0])
    assert calls == [attached]
    monkeypatch.undo()
    for generation in replayed[1:]:
        assert generation._core_numbers == core_decomposition(generation)
        assert generation._core_stops == core_stops(generation)
    parent = registry.get("g").graph
    assert replayed[-1]._core_numbers == parent._core_numbers
    assert replayed[-1]._core_stops == parent._core_stops


@needs_mp
def test_pickled_attach_carries_the_core_table(monkeypatch):
    graph = _seeded_graph(8)
    registry = _registry_with(graph)
    pool = ClusterPool(1, registry, use_shared_memory=False)
    try:
        pool.warm("g")
    finally:
        pool.shutdown()
    # The parent built the table before the graph went down the pipe,
    # so the worker's unpickled copy has it too.
    stops = graph._core_stops
    _forbid_decomposition(monkeypatch)
    clone = pickle.loads(pickle.dumps(graph))
    assert clone._core_stops == graph._core_stops
    assert _all_core_stops(clone, stops) == _all_core_stops(graph, stops)


@needs_shm
def test_segment_handle_is_small_and_picklable():
    graph = _seeded_graph(2)
    segment, shm = publish_graph(GraphHandle("g", 3, graph))
    try:
        blob = pickle.dumps(segment)
        # The handle must never smuggle the adjacency: it describes it.
        assert len(blob) < 4096
        clone = pickle.loads(blob)
        assert clone.shm_name == segment.shm_name
        assert clone.version == 3
        assert clone.nbytes == segment.nbytes
    finally:
        shm.close()
        shm.unlink()


@needs_shm
def test_identity_labels_are_elided_from_the_handle():
    graph = _seeded_graph(3)  # generator graphs: labels are 0..n-1 ranks?
    segment, shm = publish_graph(GraphHandle("g", 1, graph))
    try:
        labels = [graph.label(r) for r in range(graph.num_vertices)]
        if labels == list(range(graph.num_vertices)):
            assert segment.labels is None
        else:
            assert list(segment.labels) == labels
    finally:
        shm.close()
        shm.unlink()


@needs_shm
def test_segment_store_refcounts_and_unlinks():
    graph = _seeded_graph(4)
    handle = GraphHandle("g", 1, graph)
    store = SegmentStore()
    before = _shm_entries()
    first = store.acquire(handle)
    second = store.acquire(handle)
    assert first.shm_name == second.shm_name  # publish-once
    assert len(store) == 1
    assert not store.release("g", 1)  # one reference remains
    assert _shm_entries() - before  # still published
    assert store.release("g", 1)  # last reference: unlinked
    assert _shm_entries() == before


@needs_shm
def test_release_all_is_the_shutdown_backstop():
    store = SegmentStore()
    before = _shm_entries()
    store.acquire(GraphHandle("a", 1, _seeded_graph(5)))
    store.acquire(GraphHandle("b", 1, _seeded_graph(6)))
    assert len(_shm_entries() - before) == 2
    assert store.release_all() == 2
    assert _shm_entries() == before
    assert len(store) == 0


# ----------------------------------------------------------------------
# byte-identical community streams across execution paths
# ----------------------------------------------------------------------
def _stream_oracle(graph, gamma, k):
    registry = _registry_with(graph)
    engine = QueryEngine(registry, cache=ResultCache(8))
    return engine.execute(QuerySpec(graph="g", gamma=gamma, k=k))


@needs_mp
@pytest.mark.parametrize("use_shm", [True, False], ids=["shm", "pickle"])
def test_worker_streams_match_in_process_over_seeded_graphs(use_shm):
    if use_shm and not shared_memory_available():
        pytest.skip("no usable shared memory here")
    for seed in (11, 12, 13):
        graph = _seeded_graph(seed)
        gamma = 3 + seed % 3
        oracle = _stream_oracle(graph, gamma, k=12)
        registry = _registry_with(graph)
        cache = ResultCache(8)
        engine = QueryEngine(registry, cache=cache)
        pool = ClusterPool(
            1, registry, cache=cache, use_shared_memory=use_shm
        )
        try:
            result = pool.execute(
                engine, QuerySpec(graph="g", gamma=gamma, k=12)
            )
        finally:
            pool.shutdown()
        assert result.worker == "worker:0"
        assert result.communities == oracle.communities
        assert result.complete == oracle.complete
        assert [v.to_dict() for v in result.communities] == [
            v.to_dict() for v in oracle.communities
        ]


@needs_mp
def test_progressive_extend_is_identical_across_backends():
    graph = _seeded_graph(21)
    gamma = 3
    # In-process: cold k=4, then extend the same cursor to k=10.
    registry = _registry_with(graph)
    engine = QueryEngine(registry, cache=ResultCache(8))
    engine.execute(QuerySpec(graph="g", gamma=gamma, k=4))
    inproc = engine.execute(QuerySpec(graph="g", gamma=gamma, k=10))
    assert inproc.source == "extended"

    streams = {}
    for use_shm in (True, False):
        if use_shm and not shared_memory_available():
            continue
        reg = _registry_with(graph)
        cache = ResultCache(8)
        eng = QueryEngine(reg, cache=cache)
        pool = ClusterPool(1, reg, cache=cache, use_shared_memory=use_shm)
        try:
            pool.execute(eng, QuerySpec(graph="g", gamma=gamma, k=4))
            extended = pool.execute(
                eng, QuerySpec(graph="g", gamma=gamma, k=10)
            )
        finally:
            pool.shutdown()
        assert extended.source == "extended"  # worker cursor resumed
        assert extended.worker == "worker:0"
        streams[use_shm] = extended.communities
    for communities in streams.values():
        assert communities == inproc.communities


@needs_mp
def test_random_graph_noncontainment_and_static_paths_match():
    graph = random_graph(60, 0.12, seed=9, weights="shuffled")
    registry = _registry_with(graph)
    cache = ResultCache(8)
    engine = QueryEngine(registry, cache=cache)
    pool = ClusterPool(1, registry, cache=cache)
    try:
        for spec in (
            QuerySpec(graph="g", gamma=2, k=6, containment=False),
            QuerySpec(graph="g", gamma=2, k=6, algorithm="onlineall"),
            QuerySpec(graph="g", gamma=2, k=6, algorithm="truss"),
        ):
            oracle = QueryEngine(
                _registry_with(graph), cache=ResultCache(8)
            ).execute(spec)
            result = pool.execute(engine, spec)
            assert result.communities == oracle.communities, spec
    finally:
        pool.shutdown()


# ----------------------------------------------------------------------
# cleanup: no leaked /dev/shm entries
# ----------------------------------------------------------------------
@needs_mp
@needs_shm
def test_pool_shutdown_leaves_no_shm_entries():
    before = _shm_entries()
    graph = _seeded_graph(31)
    registry = _registry_with(graph)
    cache = ResultCache(8)
    engine = QueryEngine(registry, cache=cache)
    pool = ClusterPool(2, registry, cache=cache)
    try:
        pool.execute(engine, QuerySpec(graph="g", gamma=3, k=5))
        assert _shm_entries() - before  # a segment is live mid-flight
    finally:
        pool.shutdown()
    assert _shm_entries() == before


@needs_mp
@needs_shm
def test_worker_death_does_not_unlink_the_segment():
    graph = _seeded_graph(32)
    registry = _registry_with(graph)
    cache = ResultCache(8)
    engine = QueryEngine(registry, cache=cache)
    pool = ClusterPool(1, registry, cache=cache)
    try:
        pool.execute(engine, QuerySpec(graph="g", gamma=3, k=5))
        live = _shm_entries()
        worker = pool._workers[0]
        worker.process.kill()
        worker.process.join()
        # The dead worker's exit must not take the parent's segment
        # with it (the pre-3.13 resource-tracker trap).
        assert _shm_entries() == live
        # And the restarted worker serves the family on, re-seeded.
        result = pool.execute(engine, QuerySpec(graph="g", gamma=3, k=9))
        assert result.source in ("extended", "cache", "cold")
        assert worker.restarts == 1
    finally:
        pool.shutdown()
