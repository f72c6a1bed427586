"""Server tier — concurrent TCP throughput, coalescing, and warm restarts.

The serving claims of the :mod:`repro.server` subsystem (ISSUE 2):

* **concurrency** — 32 concurrent TCP clients hammering one hot graph
  achieve at least **5x** the queries/sec of serial one-connection
  execution against the *same* server.  The server runs its
  throughput-tuned configuration (a small batch-collection window, the
  classic dynamic-batching trade: a lone serial client pays the window
  per query, concurrent clients share it per *batch* — so this gate
  measures the throughput config's concurrency payoff, not raw
  event-loop speed).  As a sanity floor, concurrent traffic must also
  reach **0.75x** a serial client of a window-free server, where on a
  single CPU the amortization gain is necessarily smaller.  The
  windowed serial, concurrent and window-free serial bursts alternate
  in ``ROUNDS`` rounds against two servers running side by side, and
  the gates compare per-arm medians, so host speed drifting during the
  run moves every arm alike;
* **coalescing** — the batch scheduler performs *strictly fewer* engine
  passes (= cursor advances) than queries served: concurrent queries of
  one ``(graph, gamma, algorithm, delta)`` family ride a shared pass and
  are sliced to their own ``k``;
* **warm start** — a kill/restart cycle restores the result cache from
  the shutdown snapshot: the first post-restart query is already a cache
  hit (warm hit rate > 0 with zero cold computations).

Run standalone (asserts all three and writes a JSON report for CI)::

    python benchmarks/bench_server_concurrency.py [--output report.json]
"""

from __future__ import annotations

import argparse
import asyncio
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import List, Optional

from repro.server import ReproClient, ReproServer

DATASET = "wiki"
GAMMA = 10
KS = (4, 8, 16, 32)

CLIENTS = 32
QUERIES_PER_CLIENT = 8
SERIAL_QUERIES = 64

SHARDS = 2
BATCH_WINDOW_MS = 2.0
SPEEDUP_FLOOR = 5.0
ROUNDS = 5


async def _run_client(host: str, port: int, queries: int) -> None:
    """One client: connect, issue ``queries`` hot-graph queries, quit."""
    client = await ReproClient.connect(host, port=port)
    try:
        for i in range(queries):
            lines = await client.query(
                DATASET, k=KS[i % len(KS)], gamma=GAMMA
            )
            assert lines and not lines[0].startswith("error"), lines
    finally:
        await client.close()


async def _qps(burst, queries: int) -> float:
    started = time.perf_counter()
    await burst
    return queries / (time.perf_counter() - started)


async def concurrency_report(warmstart_path: str) -> dict:
    """Run all three phases against in-process servers over real TCP."""
    server = ReproServer(
        shards=SHARDS,
        batch_window_ms=BATCH_WINDOW_MS,
        warmstart_path=warmstart_path,
    )
    await server.start(tcp=("127.0.0.1", 0))
    assert server.tcp_address is not None
    host, port = server.tcp_address
    # The window-free baseline shares the graph, not the cache.
    no_window = ReproServer(server.registry, shards=1, batch_window_ms=0.0)
    await no_window.start(tcp=("127.0.0.1", 0))
    assert no_window.tcp_address is not None
    host0, port0 = no_window.tcp_address

    # Warm the graph + cursor once so every burst serves a hot graph.
    await _run_client(host, port, len(KS))
    await _run_client(host0, port0, len(KS))

    # Phases 1 and 2, alternating: serial (one connection, one query in
    # flight at a time), concurrent (CLIENTS connections hammering the
    # same graph) and serial against the window-free server.
    stats = server.scheduler.stats
    total = CLIENTS * QUERIES_PER_CLIENT
    serial, concurrent, serial_no_window = [], [], []
    advances = served = 0
    for _ in range(ROUNDS):
        serial.append(
            await _qps(_run_client(host, port, SERIAL_QUERIES), SERIAL_QUERIES)
        )
        advances -= stats.batches
        served -= stats.queries
        concurrent.append(
            await _qps(
                asyncio.gather(
                    *(
                        _run_client(host, port, QUERIES_PER_CLIENT)
                        for _ in range(CLIENTS)
                    )
                ),
                total,
            )
        )
        advances += stats.batches
        served += stats.queries
        serial_no_window.append(
            await _qps(
                _run_client(host0, port0, SERIAL_QUERIES), SERIAL_QUERIES
            )
        )
    await no_window.stop()
    serial_qps = statistics.median(serial)
    concurrent_qps = statistics.median(concurrent)
    serial_qps_no_window = statistics.median(serial_no_window)
    max_width = stats.max_width

    # Phase 3: kill/restart — stop() snapshots the cache; a fresh server
    # (fresh registry, fresh cache) restores it and serves warm.
    await server.stop()
    restarted = ReproServer(
        shards=1,
        batch_window_ms=0.0,
        warmstart_path=warmstart_path,
    )
    await restarted.start(tcp=("127.0.0.1", 0))
    assert restarted.tcp_address is not None
    host2, port2 = restarted.tcp_address
    await _run_client(host2, port2, 1)
    snap = restarted.metrics.snapshot()
    warm_hit_rate = snap["cache_hit_rate"]
    cold_after_restart = snap["by_source"].get("cold", 0)
    await restarted.stop()

    return {
        "dataset": DATASET,
        "gamma": GAMMA,
        "clients": CLIENTS,
        "rounds": ROUNDS,
        "serial_qps_rounds": serial,
        "concurrent_qps_rounds": concurrent,
        "serial_qps_no_window_rounds": serial_no_window,
        "serial_qps": serial_qps,
        "serial_qps_no_window": serial_qps_no_window,
        "concurrent_qps": concurrent_qps,
        "speedup": concurrent_qps / serial_qps if serial_qps else 0.0,
        "batch_window_ms": BATCH_WINDOW_MS,
        "concurrent_queries_served": served,
        "concurrent_cursor_advances": advances,
        "max_batch_width": max_width,
        "snapshot_entries_saved": server.saved_entries,
        "snapshot_entries_restored": restarted.restored_entries,
        "warm_hit_rate_after_restart": warm_hit_rate,
        "cold_queries_after_restart": cold_after_restart,
    }


def acceptance(report: dict) -> List[str]:
    """Return the list of failed criteria (empty = pass)."""
    failures = []
    if report["speedup"] < SPEEDUP_FLOOR:
        failures.append(
            f"(a) concurrency: speedup {report['speedup']:.2f}x "
            f"< {SPEEDUP_FLOOR}x"
        )
    if report["concurrent_qps"] < 0.75 * report["serial_qps_no_window"]:
        # Sanity bound: a degenerate server (window tax with zero real
        # concurrency benefit) would serve concurrent traffic far below
        # the window-free serial rate; batching must at least recoup its
        # own window under load.
        failures.append(
            f"(a') degenerate batching: concurrent "
            f"{report['concurrent_qps']:,.0f} q/s < 0.75x window-free "
            f"serial {report['serial_qps_no_window']:,.0f} q/s"
        )
    if not report["concurrent_cursor_advances"] < report[
        "concurrent_queries_served"
    ]:
        failures.append(
            f"(b) coalescing: {report['concurrent_cursor_advances']} engine "
            f"passes for {report['concurrent_queries_served']} queries"
        )
    if not (
        report["snapshot_entries_restored"] > 0
        and report["warm_hit_rate_after_restart"] > 0.0
        and report["cold_queries_after_restart"] == 0
    ):
        failures.append(
            f"(c) warm start: restored="
            f"{report['snapshot_entries_restored']}, hit rate="
            f"{report['warm_hit_rate_after_restart']:.3f}, cold="
            f"{report['cold_queries_after_restart']}"
        )
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output",
        default="bench_server_concurrency.json",
        help="where to write the JSON report (CI uploads it as an artifact)",
    )
    args = parser.parse_args(argv)

    print(f"building server (dataset {DATASET!r})...", flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        report = asyncio.run(
            concurrency_report(str(Path(tmp) / "warmstart.json"))
        )

    print(f"medians of {ROUNDS} alternating rounds:")
    print(f"serial (1 connection):     {report['serial_qps']:10,.0f} q/s")
    print(
        f"serial (no batch window):  "
        f"{report['serial_qps_no_window']:10,.0f} q/s"
    )
    print(
        f"concurrent ({CLIENTS} clients):  "
        f"{report['concurrent_qps']:10,.0f} q/s "
        f"({report['speedup']:.1f}x)"
    )
    print(
        f"coalescing:                {report['concurrent_cursor_advances']} "
        f"engine passes for {report['concurrent_queries_served']} queries "
        f"(max batch width {report['max_batch_width']})"
    )
    print(
        f"warm restart:              "
        f"{report['snapshot_entries_restored']} entries restored, "
        f"hit rate {report['warm_hit_rate_after_restart']:.2f}, "
        f"{report['cold_queries_after_restart']} cold queries"
    )

    failures = acceptance(report)
    report["acceptance_pass"] = not failures
    Path(args.output).write_text(
        json.dumps(report, indent=2, sort_keys=True), encoding="utf-8"
    )
    print(f"report written to {args.output}")
    if failures:
        for failure in failures:
            print("FAIL", failure)
        return 1
    print("acceptance (>=5x concurrent, coalesced, warm restart): PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
