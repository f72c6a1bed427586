#!/usr/bin/env python3
"""Observability in-process: traces, kernel phases, and the exporter.

The same ``repro.obs`` tier the server uses works without any server:
hand a :class:`~repro.obs.trace.Tracer` to ``repro.open(...)`` and the
engine mints one trace per sampled query, down to the peel kernel's
per-phase timings; a :class:`~repro.obs.export.MetricsServer` then
serves the standard endpoints from the same process.

Part two boots a real :class:`~repro.server.transport.ReproServer`
with the history collector and an SLO, runs traffic, and pulls the
server-rendered ``/dashboard`` plus ``/history.json`` and ``/readyz``
— the full live-ops surface, all stdlib.

Run:  python examples/observability.py
"""

from __future__ import annotations

import asyncio
import json
import time
import urllib.request

import repro
from repro import QuerySpec
from repro.obs import MetricsServer, Tracer, format_trace
from repro.service import ServiceMetrics

# sample=1.0: trace every query (a production default is ~0.02 —
# 1 in 50 — plus slow-query exemplars, which are always retained).
tracer = Tracer(sample=1.0, slow_ms=5.0)
metrics = ServiceMetrics()

with repro.open(metrics=metrics, tracer=tracer) as rp:
    # A cold query (real peel work) and a warm repeat (cache slice).
    for _ in range(2):
        rs = rp.graph("email").topk(k=10, gamma=10)
        print(
            f"[{rs.stats['source']}] {len(rs.communities)} communities "
            f"in {rs.stats['elapsed_ms']:.2f} ms"
        )

    # Every trace is a span tree; the engine span carries the kernel
    # phase breakdown (gamma_core / peel / enumerate / cursor_resume)
    # — algorithmic time, not just queueing.
    print("\nrecent traces:")
    for trace in tracer.store.recent(5):
        print("\n".join(format_trace(trace)))

    # The zero-dep HTTP exporter serves the same data to the outside:
    # /metrics (Prometheus), /metrics.json, /traces, /traces/slow.
    exporter = MetricsServer(metrics, trace_store=tracer.store, port=0)
    host, port = exporter.start()
    try:
        base = f"http://{host}:{port}"
        text = urllib.request.urlopen(base + "/metrics").read().decode()
        wanted = (
            "repro_queries_served_total",
            "repro_cache_hit_rate",
            "repro_family_latency_ms",
        )
        print("\nscraped /metrics:")
        for line in text.splitlines():
            if line.startswith(wanted):
                print(f"  {line}")
        slow = json.loads(
            urllib.request.urlopen(base + "/traces/slow").read()
        )["traces"]
        print(f"\nslow-query exemplars retained (>=5ms): {len(slow)}")
    finally:
        exporter.stop()


# ----------------------------------------------------------------------
# Part two: the live dashboard against a real server.
# ----------------------------------------------------------------------
async def live_dashboard() -> None:
    from repro.server.client import ReproClient
    from repro.server.transport import ReproServer

    server = ReproServer(
        metrics_port=0,          # ephemeral exporter port
        trace_sample=1.0,
        slo="p95_ms=500,err_rate=0.05,window_s=60",
        history_interval=0.2,    # fast cadence so the demo has points
    )
    await server.start(tcp=("127.0.0.1", 0))
    try:
        host, port = server.tcp_address
        mhost, mport = server.metrics_address
        base = f"http://{mhost}:{mport}"

        client = await ReproClient.connect(host, port=port)
        try:
            for gamma in (3, 5, 3):  # cold, cold, cache hit
                await client.execute(QuerySpec(graph="email", k=5, gamma=gamma))
        finally:
            await client.close()

        # Three collector ticks -> two derived rate points, enough for
        # the dashboard sparklines to draw a segment.
        deadline = time.time() + 10.0
        doc = {}
        while time.time() < deadline:
            doc = json.loads(
                urllib.request.urlopen(base + "/history.json?window=60").read()
            )
            if len(doc.get("points", [])) >= 2:
                break
            await asyncio.sleep(0.1)

        newest = doc["points"][-1]
        print(f"\nlive server on {host}:{port}, dashboard at {base}/dashboard")
        print(
            f"history: {len(doc['points'])} point(s), newest "
            f"qps={newest['qps']:.2f} queue={newest['queue_depth']}"
        )
        ready = json.loads(urllib.request.urlopen(base + "/readyz").read())
        print(f"readyz: ready={ready['ready']} reasons={ready['reasons']}")
        slo = doc.get("slo_status") or {}
        print(f"slo: ok={slo.get('ok')} over {slo.get('window_s'):g}s window")

        html = urllib.request.urlopen(base + "/dashboard").read().decode()
        has_heatmap = 'id="heatmap"' in html
        print(
            f"dashboard: {len(html)} bytes of pure-stdlib HTML "
            f"(sparklines={'spark-qps' in html}, heatmap={has_heatmap})"
        )
    finally:
        await server.stop()


asyncio.run(live_dashboard())
