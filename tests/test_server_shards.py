"""ShardPool: routing determinism, replication, and executor isolation."""

from __future__ import annotations

import asyncio
import threading
import zlib

import pytest

from repro.server import ShardPool
from repro.service.metrics import ServiceMetrics


def test_route_is_deterministic_per_graph():
    pool = ShardPool(4)
    try:
        assert pool.route("wiki") == pool.route("wiki") == pool.home_shard("wiki")
        assert pool.home_shard("wiki") == zlib.crc32(b"wiki") % 4
    finally:
        pool.shutdown()


def test_different_graphs_spread_over_shards():
    pool = ShardPool(8)
    try:
        names = [f"graph-{i}" for i in range(64)]
        shards = {pool.route(name) for name in names}
        assert len(shards) > 1
    finally:
        pool.shutdown()


def test_replication_round_robins_over_consecutive_shards():
    pool = ShardPool(4, replication={"hot": 3})
    try:
        base = pool.home_shard("hot")
        expected = [(base + i) % 4 for i in (0, 1, 2, 0, 1, 2)]
        assert [pool.route("hot") for _ in range(6)] == expected
        # Unreplicated graphs stay pinned.
        assert {pool.route("cold") for _ in range(6)} == {pool.home_shard("cold")}
    finally:
        pool.shutdown()


def test_replicate_validates_copies():
    pool = ShardPool(2)
    try:
        with pytest.raises(ValueError):
            pool.replicate("g", 0)
        with pytest.raises(ValueError):
            pool.replicate("g", 3)
    finally:
        pool.shutdown()


def test_num_shards_validated():
    with pytest.raises(ValueError):
        ShardPool(0)


def test_run_executes_on_the_routed_shard_thread():
    async def main():
        pool = ShardPool(3)
        try:
            index = pool.home_shard("email")
            name = await pool.run(
                "email", lambda: threading.current_thread().name
            )
            assert f"repro-shard-{index}" in name
            assert pool.depths() == [0, 0, 0]
        finally:
            pool.shutdown()

    asyncio.run(main())


def test_run_propagates_exceptions_and_decrements_depth():
    async def main():
        pool = ShardPool(1)
        try:
            def boom():
                raise RuntimeError("kaput")

            with pytest.raises(RuntimeError, match="kaput"):
                await pool.run("email", boom)
            assert pool.depths() == [0]
        finally:
            pool.shutdown()

    asyncio.run(main())


def test_run_after_shutdown_refuses():
    async def main():
        pool = ShardPool(1)
        pool.shutdown()
        with pytest.raises(RuntimeError):
            await pool.run("email", lambda: 1)

    asyncio.run(main())


def test_depth_tracks_inflight_work():
    async def main():
        pool = ShardPool(2)
        try:
            release = threading.Event()
            index = pool.home_shard("slow")

            async def held():
                return await pool.run("slow", release.wait)

            task = asyncio.ensure_future(held())
            await asyncio.sleep(0.05)
            assert pool.depths()[index] == 1
            release.set()
            assert await task is True
            assert pool.depths() == [0, 0]
        finally:
            pool.shutdown()

    asyncio.run(main())


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
