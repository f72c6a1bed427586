"""BatchScheduler: coalescing correctness, slicing, and error paths.

The invariant under test: whatever the batching, every waiter receives
exactly the prefix a serial, cache-free execution would have returned.
"""

from __future__ import annotations

import asyncio
import io

import pytest

from repro.api import QuerySpec, parse_spec_tokens
from repro.errors import UnknownGraphError
from repro.obs.trace import Tracer
from repro.graph.builder import graph_from_arrays
from repro.server import BatchScheduler, ShardPool
from repro.service import (
    GraphRegistry,
    QueryEngine,
    ResultCache,
    ServiceMetrics,
    ServiceShell,
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
    registry.register("cliques", layered_cliques)
    return registry


def make_scheduler(registry, metrics=None, window_s=0.05, max_batch=64):
    engine = QueryEngine(registry, cache=ResultCache(), metrics=metrics)
    pool = ShardPool(2)
    scheduler = BatchScheduler(
        engine, pool, metrics=metrics, max_batch=max_batch, window_s=window_s
    )
    return scheduler, pool


def reference_views(registry, query):
    """What a serial, cache-free engine returns for ``query``."""
    return QueryEngine(registry, cache=None).execute(query).communities


def test_concurrent_same_family_coalesces_to_one_pass(registry):
    async def main():
        metrics = ServiceMetrics()
        scheduler, pool = make_scheduler(registry, metrics)
        try:
            ks = [1, 3, 5, 2, 4, 5]
            queries = [QuerySpec(graph="cliques", gamma=3, k=k) for k in ks]
            results = await asyncio.gather(
                *(scheduler.submit(q) for q in queries)
            )
        finally:
            pool.shutdown()
        assert scheduler.stats.batches == 1
        assert scheduler.stats.queries == len(ks)
        assert scheduler.stats.max_width == len(ks)
        assert metrics.max_batch_width == len(ks)
        assert metrics.queue_depth_peak >= len(ks)
        for query, result in zip(queries, results):
            assert len(result.communities) == query.k
            assert result.communities == reference_views(registry, query)
        # Exactly one waiter (a max-k one) carried the engine execution.
        sources = sorted(r.source for r in results)
        assert sources.count("coalesced") == len(ks) - 1
        assert "cold" in sources

    asyncio.run(main())


def test_different_families_do_not_coalesce(registry):
    async def main():
        scheduler, pool = make_scheduler(registry)
        try:
            results = await asyncio.gather(
                scheduler.submit(QuerySpec(graph="cliques", gamma=3, k=2)),
                scheduler.submit(QuerySpec(graph="cliques", gamma=2, k=2)),
            )
        finally:
            pool.shutdown()
        assert scheduler.stats.batches == 2
        assert all(r.source == "cold" for r in results)

    asyncio.run(main())


def test_max_batch_splits_large_bursts(registry):
    async def main():
        scheduler, pool = make_scheduler(registry, max_batch=2)
        try:
            queries = [
                QuerySpec(graph="cliques", gamma=3, k=k) for k in (1, 2, 3, 4, 5)
            ]
            results = await asyncio.gather(
                *(scheduler.submit(q) for q in queries)
            )
        finally:
            pool.shutdown()
        assert scheduler.stats.batches == 3
        assert scheduler.stats.queries == 5
        for query, result in zip(queries, results):
            assert result.communities == reference_views(registry, query)

    asyncio.run(main())


def test_serial_traffic_is_width_one_and_undelayed(registry):
    async def main():
        scheduler, pool = make_scheduler(registry, window_s=0.0)
        try:
            for k in (2, 4, 1):
                result = await scheduler.submit(
                    QuerySpec(graph="cliques", gamma=3, k=k)
                )
                assert len(result.communities) == k
        finally:
            pool.shutdown()
        assert scheduler.stats.batches == 3
        assert scheduler.stats.max_width == 1

    asyncio.run(main())


def test_followers_complete_flag_tracks_their_own_k(registry):
    async def main():
        scheduler, pool = make_scheduler(registry)
        try:
            # 6 cliques -> 6 communities total; k=10 exhausts the stream.
            big, small = await asyncio.gather(
                scheduler.submit(QuerySpec(graph="cliques", gamma=3, k=10)),
                scheduler.submit(QuerySpec(graph="cliques", gamma=3, k=2)),
            )
        finally:
            pool.shutdown()
        assert big.complete
        assert len(big.communities) == 6
        assert not small.complete
        assert len(small.communities) == 2

    asyncio.run(main())


def test_errors_propagate_to_every_waiter(registry):
    async def main():
        scheduler, pool = make_scheduler(registry)
        try:
            results = await asyncio.gather(
                scheduler.submit(QuerySpec(graph="missing", gamma=3, k=2)),
                scheduler.submit(QuerySpec(graph="missing", gamma=3, k=4)),
                return_exceptions=True,
            )
        finally:
            pool.shutdown()
        assert len(results) == 2
        assert all(isinstance(r, UnknownGraphError) for r in results)

    asyncio.run(main())


def test_queue_depth_returns_to_zero(registry):
    async def main():
        scheduler, pool = make_scheduler(registry)
        try:
            await asyncio.gather(
                *(
                    scheduler.submit(QuerySpec(graph="cliques", gamma=3, k=k))
                    for k in (1, 2, 3)
                )
            )
        finally:
            pool.shutdown()
        assert scheduler.queue_depth == 0

    asyncio.run(main())


def test_validation():
    registry = GraphRegistry(preload_datasets=False)
    engine = QueryEngine(registry)
    pool = ShardPool(1)
    try:
        with pytest.raises(ValueError):
            BatchScheduler(engine, pool, max_batch=0)
        with pytest.raises(ValueError):
            BatchScheduler(engine, pool, window_s=-1.0)
    finally:
        pool.shutdown()


def test_kernel_spellings_share_one_pass_and_one_entry(registry):
    """The peel kernel is process configuration, not query identity.

    ``kernel=python``, ``kernel=array`` and no kernel at all name one
    family: they coalesce onto one engine pass, fill one cache entry,
    and each result reports the engine's own kernel.  An unknown kernel
    is still a typed ``error:`` line."""

    async def main():
        scheduler, pool = make_scheduler(registry)
        try:
            specs = [
                parse_spec_tokens(line.split())[0]
                for line in (
                    "cliques gamma=3 k=2 kernel=python",
                    "cliques gamma=3 k=4 kernel=array",
                    "cliques gamma=3 k=3",
                )
            ]
            assert len({scheduler.key_for(spec) for spec in specs}) == 1
            results = await asyncio.gather(
                *(scheduler.submit(spec) for spec in specs)
            )
        finally:
            pool.shutdown()
        return scheduler.engine, results

    engine, results = asyncio.run(main())
    assert sorted(r.source for r in results) == ["coalesced", "coalesced", "cold"]
    assert len(engine.cache) == 1
    assert all(r.kernel == engine.kernel for r in results)
    for result in results:
        assert result.communities == reference_views(registry, result.query)

    out = io.StringIO()
    shell = ServiceShell(engine, out)
    shell.execute_line("query cliques gamma=3 k=2 kernel=fortran")
    assert out.getvalue().splitlines() == [
        "error: unknown kernel 'fortran'; "
        "choose from auto, python, array, numpy"
    ]


def test_waiters_sharing_one_spec_object_are_each_served(registry):
    """The lead is one waiter, not one spec: a follower holding the
    lead's own QuerySpec object is still a coalesced follower, gets its
    own ``coalesced`` span and is counted once."""

    async def main():
        metrics = ServiceMetrics()
        scheduler, pool = make_scheduler(registry, metrics, window_s=0.05)
        tracer = Tracer(sample=1.0)
        scheduler.tracer = tracer
        query = QuerySpec(graph="cliques", gamma=3, k=3)
        twin = QuerySpec(graph="cliques", gamma=3, k=3)
        spans = [tracer.maybe_start("transport") for _ in range(3)]
        try:
            results = await asyncio.gather(
                scheduler.submit(query, span=spans[0]),
                scheduler.submit(query, span=spans[1]),
                scheduler.submit(twin, span=spans[2]),
            )
        finally:
            pool.shutdown()
        for span in spans:
            tracer.end(span)
        return metrics, scheduler, tracer, spans, results

    metrics, scheduler, tracer, spans, results = asyncio.run(main())
    assert [r.source for r in results] == ["cold", "coalesced", "coalesced"]
    assert results[0].query is results[1].query
    assert scheduler.stats.queries == 3
    assert metrics.snapshot()["queries_served"] == 3
    for span, followed in zip(spans, (False, True, True)):
        names = [s["name"] for s in tracer.store.get(span.trace_id)["spans"]]
        assert ("coalesced" in names) is followed
