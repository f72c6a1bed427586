"""The concurrent serving tier (DESIGN: server subsystem).

:mod:`repro.service` (PR 1) made repeated queries cheap; this package
makes *concurrent clients* cheap, turning the transport-agnostic service
stack into a real network server:

* :mod:`~repro.server.transport` — asyncio TCP / unix-socket server for
  the existing line protocol; many clients per process, per-connection
  session scoping, graceful shutdown;
* :mod:`~repro.server.scheduler` — batch coalescing: concurrent queries
  sharing ``(graph, gamma, algorithm, delta)`` ride one engine pass (at
  most one cursor advance) and are sliced to their own ``k`` — correct
  because the progressive order is independent of ``k``;
* :mod:`~repro.server.shards` — the one execution path: progressive
  queries on the event loop, graph builds and whole-graph algorithms
  on per-graph shard threads, with replication for hot graphs;
* :mod:`~repro.server.warmstart` — result-cache snapshots (frozen,
  JSON-stable CommunityViews) saved on shutdown and restored on boot,
  keyed by graph version so stale snapshots boot cold;
* :mod:`~repro.server.client` — a minimal asyncio client for tests,
  benchmarks, and demos.

Quickstart (in-process; see ``repro serve --tcp`` for the CLI)::

    import asyncio
    from repro.server import ReproClient, ReproServer

    async def main():
        server = ReproServer(shards=2)
        await server.start(tcp=("127.0.0.1", 0))
        host, port = server.tcp_address
        client = await ReproClient.connect(host, port=port)
        print(await client.query("email", k=5, gamma=5))
        await client.close()
        await server.stop()

    asyncio.run(main())
"""

from .client import ReproClient
from .scheduler import BatchScheduler, CoalesceStats
from .shards import ShardPool
from .transport import ReproServer
from .warmstart import WarmStart

__all__ = [
    "BatchScheduler",
    "CoalesceStats",
    "ReproClient",
    "ReproServer",
    "ShardPool",
    "WarmStart",
]
