"""ReproServer transport: framing, session scoping, lifecycle, shutdown."""

from __future__ import annotations

import asyncio
import re

import pytest

from repro.graph.builder import graph_from_arrays
from repro.server import ReproClient, ReproServer
from repro.server.transport import dot_stuff, dot_unstuff
from repro.service import GraphRegistry


def layered_cliques(num_cliques=6):
    edges = []
    for c in range(num_cliques):
        base = 4 * c
        for i in range(4):
            for j in range(i + 1, 4):
                edges.append((base + i, base + j))
    return graph_from_arrays(4 * num_cliques, edges)


def make_registry():
    registry = GraphRegistry(preload_datasets=False)
    registry.register("cliques", layered_cliques)
    return registry


def make_server(**kwargs):
    kwargs.setdefault("shards", 2)
    return ReproServer(make_registry(), **kwargs)


def run(coro):
    return asyncio.run(coro)


# ----------------------------------------------------------------------
def test_dot_stuffing_roundtrip():
    for line in (".", "..", ".hidden", "plain", ""):
        assert dot_unstuff(dot_stuff(line)) == line
    assert dot_stuff(".") != "."  # the terminator can never appear raw


def test_tcp_query_and_graphs_commands():
    async def main():
        server = make_server()
        await server.start(tcp=("127.0.0.1", 0))
        host, port = server.tcp_address
        client = await ReproClient.connect(host, port=port)
        assert "1 graphs registered" in client.greeting[0]

        listing = await client.request("graphs")
        assert any("cliques" in line for line in listing)

        lines = await client.query("cliques", k=3, gamma=3)
        assert lines[0].startswith("localsearch-p[")
        assert len(lines) == 4
        assert lines[1].startswith("top-1:")

        errors = await client.request("query nosuch k=1")
        assert errors[0].startswith("error:")

        await client.close()
        await server.stop()

    run(main())


def test_unix_socket_transport(tmp_path):
    async def main():
        path = str(tmp_path / "repro.sock")
        server = make_server()
        await server.start(unix_path=path)
        client = await ReproClient.connect(unix_path=path)
        lines = await client.query("cliques", k=2, gamma=3)
        assert lines[1].startswith("top-1:")
        await client.close()
        await server.stop()
        import os

        assert not os.path.exists(path)  # socket file cleaned up

    run(main())


def test_sessions_are_scoped_per_connection():
    async def main():
        server = make_server()
        await server.start(tcp=("127.0.0.1", 0))
        host, port = server.tcp_address
        alice = await ReproClient.connect(host, port=port)
        bob = await ReproClient.connect(host, port=port)

        opened = await alice.request("session open cliques gamma=3")
        assert opened[0].startswith("session s1 open")

        # Bob cannot see or advance Alice's session.
        assert (await bob.request("sessions"))[0] == "(no active sessions)"
        stolen = await bob.request("session next s1")
        assert stolen[0].startswith("error:")

        # Alice still streams hers fine after Bob's poking.
        batch = await alice.request("session next s1 2")
        assert batch[0].startswith("top-1:")
        assert batch[1].startswith("top-2:")

        await alice.close()
        await bob.close()
        await server.stop()

    run(main())


def test_connection_drop_closes_its_sessions():
    async def main():
        server = make_server()
        await server.start(tcp=("127.0.0.1", 0))
        host, port = server.tcp_address
        client = await ReproClient.connect(host, port=port)
        await client.request("session open cliques gamma=3")
        assert server.metrics.sessions_opened == 1
        assert server.metrics.sessions_closed == 0
        await client.close()
        # Wait for the handler to finish its teardown.
        for _ in range(100):
            if server.metrics.sessions_closed:
                break
            await asyncio.sleep(0.01)
        assert server.metrics.sessions_closed == 1
        assert server.metrics.connections_closed >= 1
        await server.stop()

    run(main())


def test_abrupt_disconnect_leaves_server_healthy():
    async def main():
        server = make_server()
        await server.start(tcp=("127.0.0.1", 0))
        host, port = server.tcp_address

        reader, writer = await asyncio.open_connection(host, port)
        await reader.readline()  # part of the greeting
        writer.close()  # vanish without `quit`

        client = await ReproClient.connect(host, port=port)
        lines = await client.query("cliques", k=1, gamma=3)
        assert lines[1].startswith("top-1:")
        await client.close()
        await server.stop()

    run(main())


def test_shutdown_command_stops_the_whole_server():
    async def main():
        server = make_server()
        await server.start(tcp=("127.0.0.1", 0))
        host, port = server.tcp_address
        serve_task = asyncio.ensure_future(server.serve_until_shutdown())

        client = await ReproClient.connect(host, port=port)
        response = await client.request("shutdown")
        assert response == ["shutting down"]
        await asyncio.wait_for(serve_task, timeout=10.0)

        with pytest.raises(OSError):
            await ReproClient.connect(host, port=port)

    run(main())


def test_quit_only_closes_one_connection():
    async def main():
        server = make_server()
        await server.start(tcp=("127.0.0.1", 0))
        host, port = server.tcp_address
        first = await ReproClient.connect(host, port=port)
        assert (await first.request("quit"))[0] == "bye"
        second = await ReproClient.connect(host, port=port)
        lines = await second.query("cliques", k=1, gamma=3)
        assert lines[1].startswith("top-1:")
        await second.close()
        await server.stop()

    run(main())


def test_metrics_expose_server_section():
    async def main():
        server = make_server()
        await server.start(tcp=("127.0.0.1", 0))
        host, port = server.tcp_address
        client = await ReproClient.connect(host, port=port)
        await client.query("cliques", k=2, gamma=3)
        lines = await client.request("metrics")
        text = "\n".join(lines)
        assert "connections: opened=1" in text
        assert "batches: 1" in text
        assert "queue_depth:" in text
        await client.close()
        await server.stop()

    run(main())


def test_tenant_is_inert_on_the_wire():
    """``tenant=`` is accepted and validated, but changes neither the
    answer nor the cache entry that serves it."""

    def masked(lines):
        return [re.sub(r" in [0-9.]+ ms$", " in <MS> ms", x) for x in lines]

    async def main():
        server = make_server()
        await server.start(tcp=("127.0.0.1", 0))
        client = await ReproClient.connect(port=server.tcp_address[1])
        cold = await client.request("query cliques k=3 gamma=3")
        plain = await client.request("query cliques k=3 gamma=3")
        acme = await client.request("query cliques k=3 gamma=3 tenant=acme")
        other = await client.request(
            "query cliques k=3 gamma=3 tenant=other"
        )
        await client.close()
        await server.stop()
        return cold, plain, acme, other

    cold, plain, acme, other = run(main())
    assert cold[0].startswith("localsearch-p[cold]")
    assert plain[0].startswith("localsearch-p[cache]")
    assert masked(acme) == masked(plain)
    assert masked(other) == masked(plain)
    assert acme[1:] == cold[1:]


def test_start_requires_an_endpoint():
    async def main():
        server = make_server()
        with pytest.raises(ValueError):
            await server.start()

    run(main())


@pytest.mark.parametrize("ttl", [0, -1.0, float("nan")])
def test_non_positive_session_ttl_is_rejected_at_construction(ttl):
    with pytest.raises(ValueError, match="session_ttl"):
        make_server(session_ttl=ttl)


@pytest.mark.parametrize("port", [-1, 65536])
def test_out_of_range_ports_are_rejected(port):
    with pytest.raises(ValueError, match="out of range"):
        make_server(metrics_port=port)

    async def main():
        server = make_server()
        with pytest.raises(ValueError, match="out of range"):
            await server.start(tcp=("127.0.0.1", port))
        await server.stop()

    run(main())


def test_stop_is_idempotent():
    async def main():
        server = make_server()
        await server.start(tcp=("127.0.0.1", 0))
        await server.stop()
        await server.stop()

    run(main())


def test_oversized_line_answers_then_disconnects():
    async def main():
        server = make_server()
        await server.start(tcp=("127.0.0.1", 0))
        host, port = server.tcp_address
        reader, writer = await asyncio.open_connection(host, port)
        # Consume the greeting block.
        while (await reader.readline()).decode().rstrip("\n") != ".":
            pass
        writer.write(b"query " + b"x" * 200_000 + b"\n")
        await writer.drain()
        lines = []
        while True:
            raw = await reader.readline()
            if not raw:
                break
            lines.append(raw.decode().rstrip("\n"))
        assert "error: protocol line too long" in lines
        writer.close()

        # The server survived and serves new connections.
        client = await ReproClient.connect(host, port=port)
        assert (await client.query("cliques", k=1, gamma=3))[1].startswith("top-1:")
        await client.close()
        await server.stop()

    run(main())


def test_stale_socket_file_is_cleared_on_start(tmp_path):
    import socket as socket_module

    async def main():
        path = str(tmp_path / "stale.sock")
        # A crashed predecessor: bound socket file, nobody listening.
        leftover = socket_module.socket(socket_module.AF_UNIX)
        leftover.bind(path)
        leftover.close()

        server = make_server()
        await server.start(unix_path=path)
        client = await ReproClient.connect(unix_path=path)
        assert (await client.query("cliques", k=1, gamma=3))[1].startswith("top-1:")
        await client.close()
        await server.stop()

    run(main())


def test_live_socket_is_not_stolen(tmp_path):
    async def main():
        path = str(tmp_path / "live.sock")
        first = make_server()
        await first.start(unix_path=path)
        second = make_server()
        with pytest.raises(OSError):
            await second.start(unix_path=path)
        # The live server keeps working.
        client = await ReproClient.connect(unix_path=path)
        assert (await client.query("cliques", k=1, gamma=3))[1].startswith("top-1:")
        await client.close()
        await first.stop()

    run(main())


def test_fully_buffered_oversized_line_still_gets_error_reply():
    # 64 KiB < line < buffer size: the whole line (newline included) is
    # already in the StreamReader when the limit trips — the error reply
    # must still arrive (no hang waiting for more bytes).
    async def main():
        server = make_server()
        await server.start(tcp=("127.0.0.1", 0))
        host, port = server.tcp_address
        reader, writer = await asyncio.open_connection(host, port)
        while (await reader.readline()).decode().rstrip("\n") != ".":
            pass
        writer.write(b"query " + b"x" * 80_000 + b"\n")
        await writer.drain()
        lines = []
        while True:
            raw = await asyncio.wait_for(reader.readline(), timeout=5.0)
            if not raw:
                break
            lines.append(raw.decode().rstrip("\n"))
        assert "error: protocol line too long" in lines
        writer.close()
        await server.stop()

    run(main())


def test_long_members_response_line_reaches_the_client():
    # A cycle: its only gamma=2 community is the whole ring, whose
    # `members` line far exceeds asyncio's 64 KiB default read limit.
    from repro.graph.builder import graph_from_arrays as build

    def ring(n=20_000):
        return build(n, [(i, (i + 1) % n) for i in range(n)])

    async def main():
        registry = GraphRegistry(preload_datasets=False)
        registry.register("ring", ring)
        server = ReproServer(registry, shards=1)
        await server.start(tcp=("127.0.0.1", 0))
        host, port = server.tcp_address
        client = await ReproClient.connect(host, port=port)
        lines = await client.query("ring", k=1, gamma=2, members=True)
        members_line = next(line for line in lines if "members:" in line)
        assert len(members_line) > 64 * 1024
        await client.close()
        await server.stop()

    run(main())
