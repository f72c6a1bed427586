"""Pure cache hits are served on the event loop; everything else is not.

``execute_spec`` first tries :meth:`QueryEngine.execute_cached` on the
loop and only sends cold, extending and lock-contended queries to a
shard thread (or worker process).  These tests pin the guarantees that
make that safe: the loop never builds a graph and never waits on a
busy entry lock, a loop-served hit is counted and traced exactly like
a shard-served one, and both execution backends behave the same.
"""

from __future__ import annotations

import asyncio
import json
import sys
import threading
import urllib.request

import pytest

from repro.api import QuerySpec
from repro.cluster import ClusterPool
from repro.graph.builder import graph_from_arrays
from repro.server import ReproClient, ReproServer
from repro.service import GraphRegistry, QueryEngine, ResultCache, ServiceMetrics
from repro.service.cache import ProgressiveEntry

needs_mp = pytest.mark.skipif(
    not ClusterPool.available(), reason="multiprocessing unavailable"
)


def layered_cliques(num_cliques=6):
    edges = []
    for c in range(num_cliques):
        base = 4 * c
        for i in range(4):
            for j in range(i + 1, 4):
                edges.append((base + i, base + j))
    return graph_from_arrays(4 * num_cliques, edges)


def make_registry(loader=layered_cliques):
    registry = GraphRegistry(preload_datasets=False)
    registry.register("cliques", loader)
    return registry


async def started(server):
    await server.start(tcp=("127.0.0.1", 0))
    host, port = server.tcp_address
    client = await ReproClient.connect(host, port=port)
    return client


def progressive_entry(server, gamma):
    [key] = [k for k in server.cache.keys() if k.gamma == gamma]
    entry = server.cache.get(key)
    assert isinstance(entry, ProgressiveEntry)
    return entry


class TestNoBlockingOnTheLoop:
    def test_first_query_builds_the_graph_on_a_shard_thread(self):
        built_on = []

        def loader():
            built_on.append(threading.get_ident())
            return layered_cliques()

        registry = make_registry(loader)

        async def main():
            loop_thread = threading.get_ident()
            server = ReproServer(registry=registry, backend="thread")
            client = await started(server)
            try:
                cold = await client.execute(
                    QuerySpec(graph="cliques", k=3, gamma=3)
                )
                hit = await client.execute(
                    QuerySpec(graph="cliques", k=2, gamma=3)
                )
            finally:
                await client.close()
                await server.stop()
            return loop_thread, cold, hit

        loop_thread, cold, hit = asyncio.run(main())
        assert len(built_on) == 1
        assert built_on[0] != loop_thread
        assert (cold.source, hit.source) == ("cold", "cache")
        assert hit.communities == cold.communities[:2]

    def test_busy_entry_lock_falls_back_to_the_shard(self):
        registry = make_registry()
        holding, release = threading.Event(), threading.Event()

        def hold(lock):
            with lock:
                holding.set()
                release.wait(10.0)

        async def main():
            server = ReproServer(registry=registry, backend="thread", shards=1)
            client = await started(server)
            try:
                for gamma in (2, 3):
                    await client.execute(
                        QuerySpec(graph="cliques", k=4, gamma=gamma)
                    )
                holder = threading.Thread(
                    target=hold, args=(progressive_entry(server, 2)._lock,)
                )
                holder.start()
                assert holding.wait(5.0)
                try:
                    blocked = asyncio.ensure_future(
                        client.execute(QuerySpec(graph="cliques", k=3, gamma=2))
                    )
                    # The only shard now waits on the held entry lock, so
                    # this second connection's hit can only complete if
                    # the loop serves it inline.
                    other = await ReproClient.connect(*server.tcp_address)
                    try:
                        inline = await asyncio.wait_for(
                            other.execute(
                                QuerySpec(graph="cliques", k=3, gamma=3)
                            ),
                            timeout=5.0,
                        )
                    finally:
                        await other.close()
                    assert not blocked.done()
                    assert server.shards.depths() == [1]
                finally:
                    release.set()
                    holder.join(5.0)
                assert not holder.is_alive()
                fallback = await asyncio.wait_for(blocked, timeout=5.0)
                snapshot = server.metrics.snapshot()
            finally:
                await client.close()
                await server.stop()
            return inline, fallback, snapshot

        inline, fallback, snapshot = asyncio.run(main())
        assert inline.source == "cache"
        assert fallback.source == "cache"
        assert len(fallback.communities) == 3
        assert snapshot["by_source"] == {"cold": 2, "cache": 2}


def _counts(snapshot):
    """The deterministic part of a ``metrics json`` document (phase
    timings are wall-clock values, so only their names are kept)."""
    server = snapshot["server"]
    return {
        "queries_served": snapshot["queries_served"],
        "by_source": snapshot["by_source"],
        "by_algorithm": snapshot["by_algorithm"],
        "by_kernel": snapshot["by_kernel"],
        "by_backend": snapshot["by_backend"],
        "by_graph": snapshot["by_graph"],
        "errors": snapshot["errors"],
        "batches": server["batches"],
        "batched_queries": server["batched_queries"],
        "cache_hit_rate": snapshot["cache_hit_rate"],
        "by_family": {
            label: (row["queries"], row["hit_rate"], sorted(row["phases_ms"]))
            for label, row in snapshot["by_family"].items()
        },
    }


def _served_counts(loop_hits: bool):
    """Counts after a fixed TCP sequence: 3 cold fills, 17 hits."""

    async def main():
        server = ReproServer(registry=make_registry(), backend="thread")
        if not loop_hits:
            server.engine.execute_cached = lambda spec: None
        client = await started(server)
        try:
            for gamma, k in [(2, 4), (3, 2), (3, 4), (2, 1), (3, 3)] * 4:
                await client.execute(
                    QuerySpec(graph="cliques", k=k, gamma=gamma)
                )
            [line] = await client.request("metrics json")
            stats = server.cache.stats
        finally:
            await client.close()
            await server.stop()
        return _counts(json.loads(line)), (
            stats.hits,
            stats.extended,
            stats.misses,
        )

    return asyncio.run(main())


def test_loop_hits_count_exactly_like_shard_hits():
    loop = _served_counts(loop_hits=True)
    assert loop[0]["by_source"] == {"cold": 2, "extended": 1, "cache": 17}
    assert loop == _served_counts(loop_hits=False)


def test_loop_and_shard_threads_lose_no_counts():
    """Hits served by ``execute_cached`` race cold fills and extensions
    on other threads over the shared cache and metrics; every query must
    be counted exactly once."""
    registry = make_registry()
    engine = QueryEngine(registry, cache=ResultCache(8), metrics=ServiceMetrics())
    threads, rounds = 6, 200
    errors = []

    def worker(index):
        try:
            for i in range(rounds):
                spec = QuerySpec(
                    graph="cliques", gamma=2 + (index + i) % 2, k=1 + i % 6
                )
                if engine.execute_cached(spec) is None:
                    engine.execute(spec)
        except Exception as exc:  # noqa: BLE001 — surfaced below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pool = [
            threading.Thread(target=worker, args=(i,)) for i in range(threads)
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in pool)
    assert errors == []
    total = threads * rounds
    stats = engine.cache.stats
    assert stats.hits + stats.extended + stats.misses == total
    assert engine.metrics.queries_served == total
    assert sum(engine.metrics.by_source.values()) == total


def _traces(base):
    with urllib.request.urlopen(base + "/traces?limit=20", timeout=10.0) as r:
        return json.loads(r.read().decode("utf-8"))["traces"]


@pytest.mark.parametrize(
    "backend", ["thread", pytest.param("process", marks=needs_mp)]
)
def test_traced_hit_has_transport_scheduler_and_engine_spans(backend):
    async def main():
        server = ReproServer(
            registry=make_registry(),
            backend=backend,
            workers=2 if backend == "process" else None,
            trace_sample=1.0,
            metrics_port=0,
        )
        client = await started(server)
        try:
            assert server.shards.backend == backend
            await client.execute(QuerySpec(graph="cliques", k=4, gamma=3))
            hit = await client.execute(QuerySpec(graph="cliques", k=2, gamma=3))
            mhost, mport = server.metrics_address
            traces = _traces(f"http://{mhost}:{mport}")
        finally:
            await client.close()
            await server.stop()
        return hit, traces

    hit, traces = asyncio.run(main())
    assert hit.source == "cache"
    [trace] = [
        t
        for t in traces
        if any(
            s["name"] == "transport" and s.get("tags", {}).get("source") == "cache"
            for s in t["spans"]
        )
    ]
    spans = {s["name"]: s for s in trace["spans"]}
    assert {"transport", "scheduler", "engine"} <= set(spans)
    # Served in the parent on the loop: no worker round trip.
    assert "cluster_dispatch" not in spans
    assert spans["engine"]["tags"]["source"] == "cache"
    assert spans["engine"]["parent_id"] == spans["scheduler"]["span_id"]
    assert spans["scheduler"]["parent_id"] == spans["transport"]["span_id"]
