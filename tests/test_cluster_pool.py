"""ClusterPool: routing, restarts, warm starts, metrics, and the server.

Complements ``test_cluster_segments.py`` (which proves byte identity of
the streams): these tests exercise the *pool* behaviour — family-affine
sticky routing, health checks and restart-with-reseed, warm-start
snapshots under the process backend, backend selection, the prefer-idle
replica fix on the thread ShardPool, and the new spec-addressed
metrics surface.
"""

from __future__ import annotations

import asyncio
import io
import json

import pytest

from repro.api.spec import QuerySpec
from repro.cluster import ClusterPool
from repro.errors import ClusterWorkerError
from repro.server import ReproClient, ReproServer, ShardPool, create_pool
from repro.server.warmstart import WarmStart
from repro.service.cache import ResultCache
from repro.service.engine import QueryEngine
from repro.service.metrics import ServiceMetrics, family_label
from repro.service.registry import GraphRegistry
from repro.service.sessions import SessionManager
from repro.service.shell import ServiceShell
from repro.workloads.generators import chung_lu, build_weighted_graph

needs_mp = pytest.mark.skipif(
    not ClusterPool.available(), reason="multiprocessing unavailable"
)


def _graph(seed: int = 7):
    n, edges = chung_lu(180, avg_degree=6.0, seed=seed)
    return build_weighted_graph(n, edges, weights="degree", seed=seed)


def _stack(seed: int = 7, cache_size: int = 16):
    registry = GraphRegistry(preload_datasets=False)
    graph = _graph(seed)
    registry.register("g", lambda: graph)
    cache = ResultCache(cache_size)
    metrics = ServiceMetrics()
    engine = QueryEngine(registry, cache=cache, metrics=metrics)
    return registry, cache, metrics, engine


# ----------------------------------------------------------------------
# routing
# ----------------------------------------------------------------------
def test_family_routing_is_sticky_and_deterministic():
    registry, cache, _, _ = _stack()
    pool = ClusterPool(4, registry, cache=cache)
    family_a = QuerySpec(graph="g", gamma=3, k=5).cache_key()
    family_b = QuerySpec(graph="g", gamma=4, k=5).cache_key()
    first = pool.route(family_a)
    assert all(pool.route(family_a) == first for _ in range(10))
    assert pool.route(family_a) == pool.home_worker(family_a)
    # Same k, different gamma: a different family, free to land elsewhere.
    assert pool.route(family_b) == pool.home_worker(family_b)
    pool.shutdown()


def test_replicated_first_placement_prefers_idle_worker():
    registry, cache, _, _ = _stack()
    pool = ClusterPool(4, registry, cache=cache, replication={"g": 3})
    family = QuerySpec(graph="g", gamma=3, k=5).cache_key()
    base = pool.home_worker(family)
    # Make the home candidate look busy before first placement.
    pool._workers[base].depth = 2
    chosen = pool.route(family)
    assert chosen != base
    assert chosen in {(base + i) % 4 for i in range(3)}
    # Sticky even after the load evaporates: the cursor lives there now.
    pool._workers[base].depth = 0
    assert pool.route(family) == chosen
    pool.shutdown()


def test_pool_validates_geometry():
    registry, cache, _, _ = _stack()
    with pytest.raises(ValueError):
        ClusterPool(0, registry)
    pool = ClusterPool(2, registry, cache=cache)
    with pytest.raises(ValueError):
        pool.replicate("g", 3)
    pool.shutdown()
    with pytest.raises(RuntimeError):
        pool.execute(None, QuerySpec(graph="g"))


# ----------------------------------------------------------------------
# execution behaviour
# ----------------------------------------------------------------------
@needs_mp
def test_execute_spec_serves_and_mirrors_into_parent_cache():
    registry, cache, metrics, engine = _stack()
    pool = ClusterPool(1, registry, cache=cache, metrics=metrics)
    try:
        async def run():
            return await pool.execute_spec(
                engine, QuerySpec(graph="g", gamma=3, k=6)
            )

        result = asyncio.run(run())
        assert result.source == "cold"
        assert result.worker == "worker:0"
        assert len(cache.keys()) == 1  # mirrored views landed
        # The mirror makes the repeat a parent-side slice: no dispatch.
        dispatches = pool._workers[0].dispatches
        again = pool.execute(engine, QuerySpec(graph="g", gamma=3, k=4))
        assert again.source == "cache"
        assert again.worker is None  # served in-parent
        assert pool._workers[0].dispatches == dispatches
    finally:
        pool.shutdown()


@needs_mp
def test_worker_errors_flatten_and_keep_the_worker_alive():
    registry, cache, metrics, engine = _stack()
    pool = ClusterPool(1, registry, cache=cache, metrics=metrics)
    try:
        pool.execute(engine, QuerySpec(graph="g", gamma=3, k=3))
        worker = pool._workers[0]
        # A protocol error is answered, flattened, without killing the
        # worker loop (exception objects never cross the pipe).
        with worker.lock:
            worker.conn.send(("no_such_tag",))
            assert worker.conn.poll(5.0)
            reply = worker.conn.recv()
        assert reply[0] == "error"
        assert worker.alive
        # A worker-side query failure surfaces as ClusterWorkerError.
        with worker.lock:
            worker.conn.send(
                ("query", QuerySpec(graph="not-attached", k=2), None)
            )
            assert worker.conn.poll(5.0)
            kind_reply = worker.conn.recv()
        assert kind_reply[0] == "error"
        assert kind_reply[1] == "UnknownGraphError"
        # And the pool still serves after the turbulence.
        result = pool.execute(engine, QuerySpec(graph="g", gamma=3, k=5))
        assert result.communities
    finally:
        pool.shutdown()


@needs_mp
def test_health_check_restarts_dead_workers():
    registry, cache, metrics, engine = _stack()
    pool = ClusterPool(2, registry, cache=cache, metrics=metrics)
    try:
        pool.execute(engine, QuerySpec(graph="g", gamma=3, k=4))
        victim = pool._workers[0]
        victim.process.kill()
        victim.process.join()
        status = pool.health_check()
        assert "worker:0" in status["restarted"]
        assert victim.alive
        assert metrics.worker_restarts == 1
        # The other worker answered the ping with stats.
        assert isinstance(status["worker:1"], dict)
    finally:
        pool.shutdown()


@needs_mp
def test_workers_take_the_server_cache_size():
    registry = GraphRegistry(preload_datasets=False)
    graphs = {"a": _graph(7), "b": _graph(8)}
    for name, graph in graphs.items():
        registry.register(name, lambda graph=graph: graph)
    server = ReproServer(registry, cache_size=1, workers=1)
    pool = server.shards
    try:
        assert isinstance(pool, ClusterPool)
        sources = [
            pool.execute(server.engine, QuerySpec(graph=name, gamma=3, k=4)).source
            for name in "abababab"
        ]
        # A one-entry worker cache evicts each graph's family before
        # it comes round again: nothing is answered from the worker.
        assert sources == ["cold"] * 8
        assert pool.health_check()["worker:0"]["cache_size"] == 1
    finally:
        pool.shutdown()


@needs_mp
def test_graph_reload_reattaches_new_version():
    registry, cache, metrics, engine = _stack()
    pool = ClusterPool(1, registry, cache=cache, metrics=metrics)
    try:
        first = pool.execute(engine, QuerySpec(graph="g", gamma=3, k=4))
        assert first.graph_version == 1
        registry.reload("g")
        second = pool.execute(engine, QuerySpec(graph="g", gamma=3, k=4))
        assert second.graph_version == 2
        assert second.source == "cold"  # fresh cursor for the new build
        assert second.communities == first.communities  # same data
        attaches = metrics.snapshot()["cluster"]["segment_attaches"]
        assert sum(attaches.values()) == 2  # one per version
    finally:
        pool.shutdown()


@needs_mp
def test_reload_unlinks_the_superseded_segment_at_once():
    registry, cache, metrics, engine = _stack()
    pool = ClusterPool(2, registry, cache=cache, metrics=metrics)
    if not pool.use_shared_memory:
        pool.shutdown()
        pytest.skip("shared memory unavailable")
    try:
        pool.warm("g")  # both workers attach version 1
        assert [s.version for s in pool.store.published()] == [1]
        registry.reload("g")
        pool.execute(engine, QuerySpec(graph="g", gamma=3, k=4))
        # One worker re-attached; the other never mapped version 1
        # past its attach, so nothing keeps it linked.
        assert [s.version for s in pool.store.published()] == [2]
    finally:
        pool.shutdown()


# ----------------------------------------------------------------------
# warm start under the process backend
# ----------------------------------------------------------------------
@needs_mp
def test_warmstart_snapshot_and_restore_work_with_cluster_backend(tmp_path):
    path = str(tmp_path / "warm.json")
    graph = _graph(3)

    def build_stack():
        registry = GraphRegistry(preload_datasets=False)
        registry.register("g", lambda: graph)
        cache = ResultCache(16)
        engine = QueryEngine(registry, cache=cache)
        return registry, cache, engine

    registry, cache, engine = build_stack()
    pool = ClusterPool(1, registry, cache=cache)
    try:
        served = pool.execute(engine, QuerySpec(graph="g", gamma=3, k=6))
        # Worker-computed state reaches the snapshot via the mirror.
        assert WarmStart(path).save(cache, registry) == 1
    finally:
        pool.shutdown()

    registry2, cache2, engine2 = build_stack()
    assert WarmStart(path).load(cache2, registry2) == 1
    pool2 = ClusterPool(1, registry2, cache=cache2)
    try:
        warm = pool2.execute(engine2, QuerySpec(graph="g", gamma=3, k=6))
        assert warm.source == "cache"
        assert warm.worker is None  # restored views: parent-side slice
        assert warm.communities == served.communities
        # Extension dispatches to a worker re-seeded from the snapshot.
        extended = pool2.execute(engine2, QuerySpec(graph="g", gamma=3, k=10))
        assert extended.source == "extended"
        assert extended.worker == "worker:0"
        assert extended.communities[:6] == served.communities
    finally:
        pool2.shutdown()


# ----------------------------------------------------------------------
# backend selection
# ----------------------------------------------------------------------
def test_create_pool_defaults_to_threads():
    pool = create_pool(shards=3)
    assert isinstance(pool, ShardPool)
    assert pool.num_shards == 3
    assert pool.backend == "thread"
    pool.shutdown()


def test_create_pool_promotes_to_processes_on_workers():
    registry = GraphRegistry(preload_datasets=False)
    pool = create_pool(workers=2, registry=registry)
    try:
        if ClusterPool.available():
            assert isinstance(pool, ClusterPool)
            assert pool.backend == "process"
        else:  # pragma: no cover - platform without multiprocessing
            assert isinstance(pool, ShardPool)
        assert pool.num_shards == 2
    finally:
        pool.shutdown()


def test_create_pool_falls_back_to_threads_without_registry():
    # No registry means the cluster tier cannot resolve graphs: threads.
    pool = create_pool(workers=2)
    assert isinstance(pool, ShardPool)
    assert pool.num_shards == 2
    pool.shutdown()


def test_create_pool_rejects_unknown_backend():
    with pytest.raises(ValueError):
        create_pool("fibers")


# ----------------------------------------------------------------------
# ShardPool: prefer-idle replica routing (the replication fix)
# ----------------------------------------------------------------------
def test_replica_routing_steers_around_a_busy_replica():
    metrics = ServiceMetrics()
    pool = ShardPool(4, replication={"hot": 2}, metrics=metrics)
    try:
        base = pool.home_shard("hot")
        twin = (base + 1) % 4
        # Round-robin turn 0 chooses base; make base busy, twin idle.
        pool._depth[base] = 1
        assert pool.route("hot") == twin
        assert metrics.replica_idle_dispatches == 1
        # Both busy: fall back to the round-robin choice (turn 1 = twin).
        pool._depth[twin] = 1
        assert pool.route("hot") in (base, twin)
        assert metrics.replica_idle_dispatches == 1  # no idle to steal
    finally:
        pool.shutdown()


def test_replica_routing_keeps_round_robin_when_all_idle():
    pool = ShardPool(4, replication={"hot": 3})
    try:
        base = pool.home_shard("hot")
        expected = [(base + i) % 4 for i in (0, 1, 2, 0, 1, 2)]
        assert [pool.route("hot") for _ in range(6)] == expected
    finally:
        pool.shutdown()


# ----------------------------------------------------------------------
# spec-addressed metrics + shell exposure
# ----------------------------------------------------------------------
def test_by_family_aggregates_hit_rate_and_percentiles():
    metrics = ServiceMetrics()
    family = QuerySpec(graph="g", gamma=3, k=5).cache_key()
    metrics.observe_query("localsearch-p", 10.0, "cold", family=family)
    metrics.observe_query("localsearch-p", 1.0, "cache", family=family)
    metrics.observe_query("localsearch-p", 2.0, "extended", family=family)
    rows = metrics.by_family()
    label = family_label(family)
    assert label in rows
    row = rows[label]
    assert row["queries"] == 3
    assert row["hit_rate"] == pytest.approx(2 / 3)
    assert row["p50_ms"] == 2.0
    assert row["p95_ms"] == 10.0


def test_by_family_table_is_bounded():
    metrics = ServiceMetrics(max_families=4)
    for gamma in range(1, 11):
        family = QuerySpec(graph="g", gamma=gamma, k=5).cache_key()
        metrics.observe_query("localsearch-p", 1.0, "cold", family=family)
    assert len(metrics.by_family()) == 4  # least-recently-active dropped


def test_shell_metrics_text_and_json_modes():
    registry = GraphRegistry(preload_datasets=False)
    graph = _graph(5)
    registry.register("g", lambda: graph)
    metrics = ServiceMetrics()
    engine = QueryEngine(registry, cache=ResultCache(8), metrics=metrics)
    out = io.StringIO()
    shell = ServiceShell(
        engine, SessionManager(registry, metrics=metrics), out, metrics=metrics
    )
    shell.execute_line("query g gamma=3 k=4")
    shell.execute_line("query g gamma=3 k=4")
    out.seek(0)
    out.truncate(0)
    shell.execute_line("metrics")
    text = out.getvalue()
    assert "family[" in text
    assert "hit_rate=0.500" in text
    assert "backend[thread]: 2" in text
    out.seek(0)
    out.truncate(0)
    shell.execute_line("metrics json")
    snapshot = json.loads(out.getvalue())
    assert snapshot["queries_served"] == 2
    assert snapshot["by_backend"] == {"thread": 2}
    (family_row,) = snapshot["by_family"].values()
    assert family_row["queries"] == 2
    assert family_row["p50_ms"] is not None
    out.seek(0)
    out.truncate(0)
    shell.execute_line("metrics nonsense")
    assert "error" in out.getvalue()


# ----------------------------------------------------------------------
# the server, end to end with worker processes
# ----------------------------------------------------------------------
@needs_mp
def test_server_serves_over_tcp_with_process_workers(tmp_path):
    async def main():
        server = ReproServer(workers=2, preload_datasets=True)
        await server.start(tcp=("127.0.0.1", 0))
        assert server.shards.backend == "process"
        host, port = server.tcp_address
        client = await ReproClient.connect(host, port=port)
        try:
            payload = await client.query("email", k=4, gamma=5, mode="json")
            assert payload["source"] == "cold"
            assert payload["worker"].startswith("worker:")
            extended_payload = await client.query(
                "email", k=9, gamma=5, mode="json"
            )
            assert extended_payload["source"] == "extended"
            assert extended_payload["communities"][:4] == payload["communities"]
            metrics_lines = await client.request("metrics json")
            snapshot = json.loads(metrics_lines[0])
            assert snapshot["by_backend"].get("process", 0) >= 2
            assert snapshot["cluster"]["segment_attaches"]
        finally:
            await client.close()
        await server.stop()

    asyncio.run(main())


@needs_mp
def test_server_coalesces_concurrent_queries_onto_one_worker_pass():
    async def main():
        server = ReproServer(workers=1, batch_window_ms=25.0)
        await server.start(tcp=("127.0.0.1", 0))
        host, port = server.tcp_address

        async def one(k: int):
            client = await ReproClient.connect(host, port=port)
            try:
                lines = await client.query("email", k=k, gamma=5)
                assert not lines[0].startswith("error"), lines
                return lines[0]
            finally:
                await client.close()

        batches_before = server.scheduler.stats.batches
        headers = await asyncio.gather(*(one(2 + i % 6) for i in range(12)))
        passes = server.scheduler.stats.batches - batches_before
        assert passes < 12  # coalesced onto shared worker passes
        assert any("[coalesced]" in h for h in headers)
        await server.stop()

    asyncio.run(main())
