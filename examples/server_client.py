"""Demo: drive the concurrent repro server over real sockets.

Spawns a :class:`~repro.server.ReproServer` in-process on an ephemeral
TCP port, then exercises it the way a deployment would — point the same
client at ``repro serve --tcp 8642`` to talk to a separate process:

* repeated queries against a hot graph (cold -> cache -> resumed);
* a burst of *concurrent* clients whose queries coalesce onto shared
  cursor advances;
* a per-connection progressive session;
* the server-side metrics that watch it all.

Run with::

    PYTHONPATH=src python examples/server_client.py
"""

from __future__ import annotations

import asyncio

from repro.server import ReproClient, ReproServer

DATASET = "email"
GAMMA = 5


async def one_shot_queries(host: str, port: int) -> None:
    print("== one connection, three queries (watch the cache source) ==")
    client = await ReproClient.connect(host, port=port)
    for k in (8, 3, 16):
        lines = await client.query(DATASET, k=k, gamma=GAMMA)
        print(f"  k={k:<3} {lines[0]}")
    await client.close()


async def concurrent_burst(host: str, port: int, clients: int = 8) -> None:
    print(f"== {clients} concurrent clients, one query family ==")

    async def one_client(index: int) -> str:
        client = await ReproClient.connect(host, port=port)
        lines = await client.query(DATASET, k=2 + index, gamma=GAMMA)
        await client.close()
        return lines[0]

    for header in await asyncio.gather(
        *(one_client(i) for i in range(clients))
    ):
        print(f"  {header}")


async def progressive_session(host: str, port: int) -> None:
    print("== progressive session (no k needed; never repeats) ==")
    client = await ReproClient.connect(host, port=port)
    opened = await client.request(f"session open {DATASET} gamma={GAMMA}")
    sid = opened[0].split()[1]
    for _ in range(2):
        for line in await client.request(f"session next {sid} 2"):
            print(f"  {line}")
    await client.request(f"session close {sid}")
    await client.close()


async def show_metrics(host: str, port: int) -> None:
    print("== server metrics ==")
    client = await ReproClient.connect(host, port=port)
    for line in await client.request("metrics"):
        print(f"  {line}")
    await client.close()


async def main() -> None:
    server = ReproServer(shards=2, batch_window_ms=1.0)
    await server.start(tcp=("127.0.0.1", 0))
    assert server.tcp_address is not None
    host, port = server.tcp_address
    print(f"server listening on tcp://{host}:{port}\n")
    try:
        await one_shot_queries(host, port)
        await concurrent_burst(host, port)
        await progressive_session(host, port)
        await show_metrics(host, port)
    finally:
        await server.stop()
    stats = server.scheduler.stats
    print(
        f"\ncoalescing: {stats.queries} queries in {stats.batches} engine "
        f"passes (max batch width {stats.max_width})"
    )


if __name__ == "__main__":
    asyncio.run(main())
