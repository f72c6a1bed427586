"""Progressive queries are served on the event loop; unbounded work is not.

``ShardPool.execute_spec`` runs one engine pass on the loop
(``QueryEngine.execute(spec, on_loop=True)``): every LocalSearch-P
query of a built graph — cold fill, cursor extension or cache hit — is
answered there, and only graph builds, the non-progressive algorithms
and lock-contended queries go to a shard thread.  These tests pin the
guarantees that make
that safe: the loop never builds a graph and never waits on a busy
cache or entry lock, a loop-served query is counted and traced exactly
like a shard-served one, and its answer equals the reference
derivation while mutations and compactions race it.
"""

from __future__ import annotations

import asyncio
import json
import random
import sys
import threading
import urllib.request

import pytest

from repro.api import QuerySpec
from repro.core.progressive import ProgressiveCursor
from repro.core.reference import reference_top_k
from repro.graph.builder import graph_from_arrays
from repro.server import ReproClient, ReproServer
from repro.server.shards import ShardPool
from repro.service import GraphRegistry, QueryEngine, ResultCache, ServiceMetrics
from repro.service import engine as engine_module
from repro.service.cache import ProgressiveEntry
from repro.workloads.generators import erdos_renyi


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


@pytest.fixture
def take_threads(monkeypatch):
    """Names of the threads that ran ``ProgressiveCursor.take``, in order."""
    seen = []
    take = ProgressiveCursor.take

    def recording(self, k):
        seen.append(threading.current_thread().name)
        return take(self, k)

    monkeypatch.setattr(ProgressiveCursor, "take", recording)
    return seen


def hold_lock(lock, holding, release):
    """A thread body that holds ``lock`` until ``release`` (at most 10 s,
    so a loop that does block on it fails the test instead of hanging)."""
    with lock:
        holding.set()
        release.wait(10.0)


async def until_queued(pool, timeout=5.0):
    """Wait (on the loop) until a query sits on the single shard."""
    deadline = asyncio.get_running_loop().time() + timeout
    while pool.depths() != [1]:
        assert asyncio.get_running_loop().time() < deadline, pool.depths()
        await asyncio.sleep(0.005)


class TestNoBlockingOnTheLoop:
    def test_first_query_builds_the_graph_on_a_shard_thread(self):
        built_on = []

        def loader():
            built_on.append(threading.current_thread())
            return layered_cliques()

        registry = make_registry(loader)

        async def main():
            loop_thread = threading.get_ident()
            server = ReproServer(registry=registry)
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
        assert built_on[0].ident != loop_thread
        assert built_on[0].name.startswith("repro-shard-")
        assert (cold.source, hit.source) == ("cold", "cache")
        assert hit.communities == cold.communities[:2]

    def test_first_search_of_a_prebuilt_graph_runs_on_a_shard(
        self, take_threads
    ):
        """A graph built without a query (warm-start restore, an
        explicit ``get``) has no core table yet; the search that
        decomposes the whole graph for it runs on a shard, and the
        next cold query on the loop."""
        registry = make_registry()
        registry.get("cliques")

        async def main():
            loop_thread = threading.current_thread().name
            server = ReproServer(registry=registry)
            client = await started(server)
            try:
                for gamma in (2, 3):
                    await client.execute(
                        QuerySpec(graph="cliques", k=2, gamma=gamma)
                    )
            finally:
                await client.close()
                await server.stop()
            return loop_thread

        loop_thread = asyncio.run(main())
        assert len(take_threads) == 2
        assert take_threads[0].startswith("repro-shard-")
        assert take_threads[1] == loop_thread

    def test_busy_entry_lock_falls_back_to_the_shard(self):
        registry = make_registry()
        holding, release = threading.Event(), threading.Event()

        def hold(lock):
            with lock:
                holding.set()
                release.wait(10.0)

        async def main():
            server = ReproServer(registry=registry, shards=1)
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


class TestProgressiveWorkOnTheLoop:
    def test_cold_and_extending_queries_run_on_the_loop(self, take_threads):
        async def main():
            loop_thread = threading.current_thread().name
            server = ReproServer(registry=make_registry())
            client = await started(server)
            try:
                await client.execute(QuerySpec(graph="cliques", k=4, gamma=2))
                built = list(take_threads)
                cold = await client.execute(
                    QuerySpec(graph="cliques", k=2, gamma=3)
                )
                extended = await client.execute(
                    QuerySpec(graph="cliques", k=4, gamma=3)
                )
                snapshot = server.metrics.snapshot()
            finally:
                await client.close()
                await server.stop()
            return loop_thread, built, cold, extended, snapshot

        loop_thread, built, cold, extended, snapshot = asyncio.run(main())
        # The graph's first query builds it, so it runs on a shard...
        assert len(built) == 1 and built[0].startswith("repro-shard-")
        # ...and once it is built, a cold fill and an extension do not.
        assert take_threads[1:] == [loop_thread, loop_thread]
        assert (cold.source, extended.source) == ("cold", "extended")
        assert extended.communities[:2] == cold.communities
        assert snapshot["by_source"] == {"cold": 2, "extended": 1}
        assert snapshot["queries_served"] == 3

    @pytest.mark.parametrize(
        "extra", [{"algorithm": "onlineall"}, {"cohesion": "truss"}]
    )
    def test_static_algorithms_still_run_on_a_shard(self, monkeypatch, extra):
        algorithm = QuerySpec(graph="cliques", **extra).resolved_algorithm()
        runner = engine_module._STATIC_RUNNERS[algorithm]
        ran_on = []

        def recording(graph, query, kernel):
            ran_on.append(threading.current_thread().name)
            return runner(graph, query, kernel)

        monkeypatch.setitem(engine_module._STATIC_RUNNERS, algorithm, recording)

        async def main():
            server = ReproServer(
                registry=make_registry(), shards=1
            )
            client = await started(server)
            try:
                await client.execute(QuerySpec(graph="cliques", k=4, gamma=2))
                first = await client.execute(
                    QuerySpec(graph="cliques", k=3, gamma=3, **extra)
                )
                repeat = await client.execute(
                    QuerySpec(graph="cliques", k=2, gamma=3, **extra)
                )
            finally:
                await client.close()
                await server.stop()
            return first, repeat

        first, repeat = asyncio.run(main())
        assert len(ran_on) == 1 and ran_on[0].startswith("repro-shard-0")
        assert (first.source, repeat.source) == ("cold", "cache")
        assert first.algorithm == algorithm
        assert repeat.communities == first.communities[:2]

    def test_busy_entry_lock_sends_an_extension_to_the_shard(
        self, take_threads
    ):
        holding, release = threading.Event(), threading.Event()

        async def main():
            loop_thread = threading.current_thread().name
            server = ReproServer(
                registry=make_registry(), shards=1
            )
            client = await started(server)
            try:
                await client.execute(QuerySpec(graph="cliques", k=1, gamma=2))
                holder = threading.Thread(
                    target=hold_lock,
                    args=(progressive_entry(server, 2)._lock, holding, release),
                )
                holder.start()
                assert holding.wait(5.0)
                try:
                    blocked = asyncio.ensure_future(
                        client.execute(QuerySpec(graph="cliques", k=4, gamma=2))
                    )
                    await until_queued(server.shards)
                    # The shard waits on the held lock; a cold query of
                    # another family still runs on the loop meanwhile.
                    other = await ReproClient.connect(*server.tcp_address)
                    try:
                        inline = await asyncio.wait_for(
                            other.execute(
                                QuerySpec(graph="cliques", k=2, gamma=3)
                            ),
                            timeout=5.0,
                        )
                    finally:
                        await other.close()
                    inline_ran_on = take_threads[-1]
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
            return loop_thread, inline_ran_on, inline, fallback, snapshot

        loop_thread, inline_ran_on, inline, fallback, snapshot = asyncio.run(
            main()
        )
        assert inline.source == "cold" and inline_ran_on == loop_thread
        assert fallback.source == "extended"
        assert take_threads[-1].startswith("repro-shard-")
        assert len(fallback.communities) == 4
        assert snapshot["by_source"] == {"cold": 2, "extended": 1}

    def test_busy_cache_lock_sends_a_cold_query_to_the_shard(
        self, take_threads
    ):
        holding, release = threading.Event(), threading.Event()

        async def main():
            server = ReproServer(
                registry=make_registry(), shards=1
            )
            client = await started(server)
            try:
                await client.execute(QuerySpec(graph="cliques", k=1, gamma=2))
                holder = threading.Thread(
                    target=hold_lock,
                    args=(server.cache._lock, holding, release),
                )
                holder.start()
                assert holding.wait(5.0)
                try:
                    blocked = asyncio.ensure_future(
                        client.execute(QuerySpec(graph="cliques", k=2, gamma=3))
                    )
                    # The loop keeps turning (this poll runs on it) while
                    # the cold query waits on the shard for the lock.
                    await until_queued(server.shards)
                    await asyncio.sleep(0.05)
                    assert not blocked.done()
                finally:
                    release.set()
                    holder.join(5.0)
                assert not holder.is_alive()
                cold = await asyncio.wait_for(blocked, timeout=5.0)
            finally:
                await client.close()
                await server.stop()
            return cold

        cold = asyncio.run(main())
        assert cold.source == "cold"
        assert take_threads[-1].startswith("repro-shard-")


def _reference_pairs(graph, k, gamma):
    return [
        (influence, frozenset(graph.labels(sorted(members))))
        for influence, members in reference_top_k(graph, k, gamma)
    ]


def test_mutations_and_compactions_race_loop_served_cold_queries(take_threads):
    """A mutator thread (and the compactor threads it triggers) flips
    the graph while the loop serves cold queries through a one-entry
    cache; every answer equals the reference derivation on the
    generation it reports."""
    n, edges = erdos_renyi(40, 110, seed=5)
    rng = random.Random(5)
    weights = [float(w) for w in rng.sample(range(1, 1000), n)]
    base = graph_from_arrays(n, edges, weights=weights)
    registry = GraphRegistry(preload_datasets=False, compact_after=2)
    registry.register("g", lambda: base)
    generations = {}
    registry.add_mutation_hook(
        lambda event: generations.__setitem__(
            event.new_version, event.handle.graph
        )
    )
    engine = QueryEngine(registry, cache=ResultCache(1), metrics=ServiceMetrics())
    pool = ShardPool(1)
    stop = threading.Event()
    errors = []

    def mutate():
        present = {frozenset(edge) for edge in edges}
        flips = random.Random(6)
        try:
            while not stop.is_set():
                u, v = flips.sample(range(n), 2)
                edge = frozenset((u, v))
                kind = "delete" if edge in present else "insert"
                present ^= {edge}
                registry.apply("g", [(kind, u, v)])
                stop.wait(0.0005)
        except Exception as exc:  # noqa: BLE001 — surfaced below
            errors.append(exc)

    mutator = threading.Thread(target=mutate)

    async def main():
        loop_thread = threading.current_thread().name
        first = await pool.execute_spec(
            engine, QuerySpec(graph="g", k=3, gamma=2)
        )
        generations[first.graph_version] = registry.peek("g").graph
        results = [first]
        mutator.start()
        try:
            for i in range(80):
                spec = QuerySpec(graph="g", k=2 + i % 3, gamma=2 + (i + 1) % 2)
                results.append(await pool.execute_spec(engine, spec))
                await asyncio.sleep(0.0005)
        finally:
            stop.set()
            mutator.join(10.0)
        return loop_thread, results

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        loop_thread, results = asyncio.run(main())
    finally:
        sys.setswitchinterval(interval)
        pool.shutdown()
    assert not mutator.is_alive()
    assert errors == []
    assert all(r.source == "cold" for r in results)
    assert loop_thread in take_threads
    assert len({r.graph_version for r in results}) > 1
    assert registry.compactions >= 1
    for result in results:
        got = [
            (v.influence, frozenset(v.members)) for v in result.communities
        ]
        want = _reference_pairs(
            generations[result.graph_version],
            result.query.k,
            result.query.gamma,
        )
        assert got == want, result.graph_version


def _counts(snapshot):
    """The deterministic part of a ``metrics json`` document (phase
    timings are wall-clock values, so only their names are kept)."""
    server = snapshot["server"]
    return {
        "queries_served": snapshot["queries_served"],
        "by_source": snapshot["by_source"],
        "by_algorithm": snapshot["by_algorithm"],
        "by_kernel": snapshot["by_kernel"],
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
    """Counts after a fixed TCP sequence: 2 cold fills, 1 extension
    and 17 hits, served on the loop or (``loop_hits=False``) all on the
    shard."""

    async def main():
        server = ReproServer(registry=make_registry())
        if not loop_hits:
            execute = server.engine.execute
            server.engine.execute = lambda spec, on_loop=False: (
                None if on_loop else execute(spec)
            )
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
    """Non-blocking ``on_loop`` passes race blocking cold fills and
    extensions on other threads over the shared cache and metrics;
    every query must be counted exactly once."""
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
                if i % 2 or engine.execute(spec, on_loop=True) is None:
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


def test_traced_hit_has_transport_scheduler_and_engine_spans():
    async def main():
        server = ReproServer(
            registry=make_registry(), trace_sample=1.0, metrics_port=0
        )
        client = await started(server)
        try:
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
    assert spans["engine"]["tags"]["source"] == "cache"
    assert spans["engine"]["parent_id"] == spans["scheduler"]["span_id"]
    assert spans["scheduler"]["parent_id"] == spans["transport"]["span_id"]
