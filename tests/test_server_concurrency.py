"""Concurrency correctness: hammering clients get serial-identical bytes.

The server may coalesce, shard, cache, or reorder internally however it
likes — but every client must receive, for its own query, *exactly* the
lines a serial, cache-free execution produces (volatile header fields
aside: latency and cache provenance legitimately differ).  Sessions on
different connections must advance independently with no cross-talk.
"""

from __future__ import annotations

import asyncio
from typing import List, Tuple

from repro.api import QuerySpec
from repro.graph.builder import graph_from_arrays
from repro.server import ReproClient, ReproServer
from repro.service import GraphRegistry, QueryEngine, ServiceShell


def layered_cliques(num_cliques=8):
    edges = []
    for c in range(num_cliques):
        base = 4 * c
        for i in range(4):
            for j in range(i + 1, 4):
                edges.append((base + i, base + j))
    return graph_from_arrays(4 * num_cliques, edges)


def two_k4s():
    return graph_from_arrays(
        8,
        [
            (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
            (4, 5), (4, 6), (4, 7), (5, 6), (5, 7), (6, 7),
            (3, 4),
        ],
    )


def make_registry():
    registry = GraphRegistry(preload_datasets=False)
    registry.register("cliques", layered_cliques)
    registry.register("two-k4s", two_k4s)
    return registry


def mixed_workload(client_index: int) -> List[Tuple[str, int, int, bool]]:
    """(graph, gamma, k, members) per query — varied per client."""
    graphs = ("cliques", "two-k4s")
    out = []
    for i in range(6):
        graph = graphs[(client_index + i) % 2]
        gamma = (2, 3)[(client_index + i) % 2]
        k = 1 + (client_index + 2 * i) % 5
        members = (client_index + i) % 3 == 0
        out.append((graph, gamma, k, members))
    return out


def payload_lines(lines: List[str]) -> List[str]:
    """Strip the volatile header (elapsed ms, cache source) — keep the
    deterministic community payload."""
    assert lines and not lines[0].startswith("error"), lines
    return lines[1:]


def serial_reference(workload) -> List[List[str]]:
    """What a serial, cache-free engine renders for each query."""
    engine = QueryEngine(make_registry(), cache=None)
    reference = []
    for graph, gamma, k, members in workload:
        result = engine.execute(QuerySpec(graph=graph, gamma=gamma, k=k))
        reference.append(ServiceShell.render_result(result, members)[1:])
    return reference


def test_hammering_clients_match_serial_execution_exactly():
    clients = 12

    async def one_client(host, port, index):
        client = await ReproClient.connect(host, port=port)
        responses = []
        try:
            for graph, gamma, k, members in mixed_workload(index):
                lines = await client.query(
                    graph, k=k, gamma=gamma, members=members
                )
                responses.append(payload_lines(lines))
        finally:
            await client.close()
        return responses

    async def main():
        server = ReproServer(make_registry(), shards=3, batch_window_ms=1.0)
        await server.start(tcp=("127.0.0.1", 0))
        host, port = server.tcp_address
        got = await asyncio.gather(
            *(one_client(host, port, i) for i in range(clients))
        )
        stats = server.scheduler.stats
        await server.stop()
        return got, stats

    got, stats = asyncio.run(main())

    for index, responses in enumerate(got):
        workload = mixed_workload(index)
        assert responses == serial_reference(workload), (
            f"client {index} diverged from serial execution"
        )
    total = sum(len(mixed_workload(i)) for i in range(clients))
    assert stats.queries == total
    # With 12 clients over 4 query families, coalescing must have fired.
    assert stats.batches < stats.queries


def test_interleaved_sessions_have_no_cross_talk():
    clients = 6
    steps = 4

    async def one_client(host, port, index):
        gamma = (2, 3)[index % 2]
        graph = ("cliques", "two-k4s")[index % 2]
        client = await ReproClient.connect(host, port=port)
        try:
            opened = await client.request(f"session open {graph} gamma={gamma}")
            sid = opened[0].split()[1]
            lines: List[str] = []
            for _ in range(steps):
                batch = await client.request(f"session next {sid} 1")
                lines.extend(
                    line for line in batch if line.startswith("top-")
                )
                await asyncio.sleep(0)  # maximise interleaving
            await client.request(f"session close {sid}")
            return lines
        finally:
            await client.close()

    async def main():
        server = ReproServer(make_registry(), shards=2)
        await server.start(tcp=("127.0.0.1", 0))
        host, port = server.tcp_address
        results = await asyncio.gather(
            *(one_client(host, port, i) for i in range(clients))
        )
        await server.stop()
        return results

    results = asyncio.run(main())

    for index, lines in enumerate(results):
        # Every session advanced monotonically: top-1, top-2, ... with
        # strictly decreasing influence — no skipped or repeated ranks
        # (which is exactly what cross-connection leakage would cause).
        ranks = [int(line.split(":")[0].split("-")[1]) for line in lines]
        assert ranks == list(range(1, len(ranks) + 1)), f"client {index}"
        influences = [float(line.split("influence=")[1].split()[0]) for line in lines]
        assert influences == sorted(influences, reverse=True)
        assert len(set(influences)) == len(influences)

    # Clients with the same (graph, gamma) saw the same stream; the two
    # groups saw different streams.
    assert results[0] == results[2] == results[4]
    assert results[1] == results[3] == results[5]
    assert results[0] != results[1]
