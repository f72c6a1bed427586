#!/usr/bin/env python3
"""The public API in five minutes: open() and connect(), one surface.

Everything goes through three types:

* ``QuerySpec``   — the typed query (validated, wire-codable)
* ``Repro``       — the facade: ``repro.open(...)`` (in-process) or
                    ``repro.connect(...)`` (a running server)
* ``ResultSet``   — the lazy answer: slice, iterate, extend, stream

This script runs the identical queries against both backends — an
in-process engine and a live TCP server — and shows that the facade
cannot tell them apart.

Run:  python examples/api_quickstart.py
"""

from __future__ import annotations

import asyncio
import threading

import repro
from repro import QuerySpec


def show(title, rs) -> None:
    print(f"\n== {title} ==")
    for i, view in enumerate(rs, start=1):
        print(
            f"  top-{i}: influence={view.influence:.6g} "
            f"keynode={view.keynode} size={view.size}"
        )
    stats = rs.stats
    print(
        f"  [{stats['source']}] algorithm={stats['algorithm']} "
        f"kernel={stats['kernel']} in {stats['elapsed_ms']:.2f} ms"
    )


def local_demo() -> None:
    # ------------------------------------------------------------------
    # open(): the in-process backend.  Stand-in datasets are registered
    # lazily; nothing is built until the first query touches a graph.
    # ------------------------------------------------------------------
    with repro.open() as rp:
        email = rp.graph("email")

        # Nothing has run yet: ResultSets are lazy.
        rs = email.topk(k=5, gamma=5)
        print("fetched before first access?", rs.fetched)

        show("top-5 influential 5-communities (cold)", rs)

        # Slicing is served from the shared result cache: rs2[:3] needs
        # only the prefix, which the progressive order makes exact.
        rs2 = email.topk(k=5, gamma=5)
        top3 = rs2[:3]
        print(f"\nrs2[:3] -> {len(top3)} views, source={rs2.source}")

        # Extending RESUMES the cached progressive cursor (the paper's
        # suffix property): no prefix is ever re-peeled.
        rs.extend_to(8)
        print(f"extend_to(8) -> {len(rs)} views, source={rs.source}")

        # A spec is a value: build once, reuse, ship over the wire.  The
        # peel kernel is not part of it: that is process configuration
        # ($REPRO_KERNEL, resolved once when the engine is built), and
        # every result reports it as provenance (stats['kernel']).
        spec = QuerySpec(graph="email", gamma=5, k=3)
        print("\nwire form:", spec.to_wire())
        assert QuerySpec.from_wire(spec.to_wire()) == spec
        show("same family as a spec value", rp.topk(spec))


def remote_demo() -> None:
    # ------------------------------------------------------------------
    # connect(): the same surface against a live server.  Here we start
    # one in-process on an ephemeral port; normally it is
    # ``repro serve --tcp 8642`` on another machine.
    # ------------------------------------------------------------------
    from repro.server import ReproServer

    server = ReproServer(shards=2)
    started = threading.Event()
    box = {}

    def run_server():
        async def main():
            await server.start(tcp=("127.0.0.1", 0))
            box["port"] = server.tcp_address[1]
            started.set()
            await server.serve_until_shutdown()

        asyncio.run(main())

    thread = threading.Thread(target=run_server, daemon=True)
    thread.start()
    started.wait(10)

    with repro.connect(port=box["port"]) as rp:
        print("\nserver graphs:", ", ".join(rp.graphs()))
        # Identical call shape to the local path — the ResultSet is now
        # backed by the server's shared cache, coalescing and shards.
        rs = rp.graph("email").topk(k=5, gamma=5)
        show("the same query, remote backend", rs)
        rs.extend_to(8)
        print(f"remote extend_to(8) -> {len(rs)} views (server cursor resumed)")

    server.request_shutdown()
    thread.join(timeout=10)


def main() -> None:
    local_demo()
    remote_demo()
    print("\nopen() and connect(): one QuerySpec, one ResultSet, one API.")


if __name__ == "__main__":
    main()
