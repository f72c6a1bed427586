"""End-to-end observability smoke: serve, query, scrape, trace.

Boots a real :class:`~repro.server.transport.ReproServer` with the
metrics exporter on an ephemeral port and ``trace_sample=1.0``; runs
one query over TCP; then asserts the whole observability path:

* ``/metrics`` (Prometheus text) exposes the serving counters —
  ``repro_queries_served_total``, per-family latency quantiles,
  coalesce rate and scheduler queue depth;
* ``/traces`` returns the query's stitched trace: transport →
  scheduler → engine, with the engine span carrying >= 3 kernel phase
  timings;
* the shell ``trace`` command over the *same* TCP connection lists
  that trace and renders it by id.

The same boot also checks that ``/readyz`` reports ready,
``/history.json`` returns collector points with the configured SLO
attached, and ``/dashboard`` renders the full stdlib-only page (no
scripts, no external fetches).  ``--history-output FILE`` saves the
history document as a CI artifact.  Exit code 0 on PASS.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
import urllib.request

from repro.api import QuerySpec
from repro.server.client import ReproClient
from repro.server.transport import ReproServer

#: Span names every stitched trace must contain.
TRACE_SPANS = {"transport", "scheduler", "engine"}
MIN_PHASES = 3


def _http_json(base: str, path: str) -> dict:
    with urllib.request.urlopen(base + path, timeout=10.0) as response:
        return json.loads(response.read().decode("utf-8"))


def _http_text(base: str, path: str) -> str:
    with urllib.request.urlopen(base + path, timeout=10.0) as response:
        return response.read().decode("utf-8")


def check_prometheus(text: str) -> None:
    required = [
        "repro_queries_served_total",
        "repro_family_latency_ms",
        "repro_server_coalesce_rate",
        "repro_server_queue_depth",
        "repro_traces_recorded_total",
    ]
    missing = [name for name in required if name not in text]
    assert not missing, f"/metrics missing series: {missing}"
    # Quantile labels on the family summary, not just the series name.
    assert 'quantile="0.5"' in text and 'quantile="0.95"' in text, (
        "family latency summary lacks p50/p95 quantile labels"
    )


#: Substrings every dashboard render must contain, and markup it must
#: not: the page works airgapped, with zero scripts or external fetches.
DASHBOARD_REQUIRED = (
    "<!DOCTYPE html>",
    "<title>repro dashboard</title>",
    '<meta http-equiv="refresh"',
    'id="queues"',
)
DASHBOARD_FORBIDDEN = ("<script", "<link", "http://", "https://")


def check_dashboard(html: str) -> None:
    missing = [needle for needle in DASHBOARD_REQUIRED if needle not in html]
    assert not missing, f"/dashboard missing markup: {missing}"
    lowered = html.lower()
    present = [tag for tag in DASHBOARD_FORBIDDEN if tag in lowered]
    assert not present, f"/dashboard has external/script markup: {present}"


def check_history(doc: dict) -> None:
    points = doc.get("points", [])
    assert points, f"history document has no points: {doc}"
    newest = points[-1]
    for key in ("t", "dt", "qps", "error_rate", "queue_depth"):
        assert key in newest, f"history point lacks {key!r}: {newest}"
    assert doc.get("slo"), f"configured SLO absent from document: {doc}"
    status = doc.get("slo_status")
    assert status and status["ok"], f"lenient smoke SLO breached: {status}"
    assert doc.get("breach_count") == 0, doc


def check_readyz(doc: dict) -> None:
    assert doc.get("ready") is True, f"/readyz not ready: {doc}"
    assert doc.get("reasons") == [], doc


def check_trace(trace: dict) -> None:
    spans = trace.get("spans", [])
    names = {span["name"] for span in spans}
    assert TRACE_SPANS <= names, (
        f"stitched trace spans {sorted(names)} missing "
        f"{sorted(TRACE_SPANS - names)}"
    )
    engine_spans = [span for span in spans if span["name"] == "engine"]
    phases = {
        phase for span in engine_spans for phase in span.get("phases", {})
    }
    assert len(phases) >= MIN_PHASES, (
        f"engine span has {sorted(phases)}: want >= {MIN_PHASES} "
        "kernel phases"
    )


async def main(history_output: str = "") -> int:
    server = ReproServer(
        metrics_port=0,
        trace_sample=1.0,
        batch_window_ms=0.0,
        # Lenient SLO: the smoke asserts the machinery reports *ok*,
        # not that CI hardware meets a production latency target.
        slo="p95_ms=60000,err_rate=0.99,window_s=60",
        history_interval=0.2,
    )
    await server.start(tcp=("127.0.0.1", 0))
    try:
        assert server.metrics_address is not None
        mhost, mport = server.metrics_address
        base = f"http://{mhost}:{mport}"
        host, port = server.tcp_address

        client = await ReproClient.connect(host, port=port)
        try:
            result = await client.execute(
                QuerySpec(graph="email", k=5, gamma=3)
            )
            assert result.communities, "query returned no communities"
            queried_at = time.time()

            # Traces finalise before the response bytes leave the
            # server, so the scrape after the reply is race-free.
            listing = _http_json(base, "/traces?limit=5")["traces"]
            assert listing, "no traces retained after a traced query"
            trace = _http_json(base, f"/traces/{listing[0]['trace_id']}")
            check_trace(trace)

            assert _http_text(base, "/healthz").strip() == "ok"
            check_prometheus(_http_text(base, "/metrics"))
            snapshot = _http_json(base, "/metrics.json")
            assert snapshot["queries_served"] >= 1, snapshot
            assert snapshot["traces"]["traces_recorded"] >= 1, snapshot

            # Shell surface over the same connection: list + render.
            lines = await client.request("trace limit=5")
            assert any(
                trace["trace_id"] in line for line in lines
            ), f"shell 'trace' listing lacks {trace['trace_id']}: {lines}"
            rendered = await client.request(f"trace {trace['trace_id']}")
            assert any("engine" in line for line in rendered), rendered

            # Readiness, collector history, dashboard.
            check_readyz(_http_json(base, "/readyz"))
            history = _wait_for_history(base, after=queried_at)
            check_history(history)
            check_dashboard(_http_text(base, "/dashboard?window=60"))
            assert "repro_slo_ok{" in _http_text(base, "/metrics"), (
                "/metrics lacks repro_slo_* with an SLO configured"
            )
            if history_output:
                with open(history_output, "w", encoding="utf-8") as fh:
                    json.dump(history, fh, indent=2, sort_keys=True)
                print(f"history document written to {history_output}")
        finally:
            await client.close()
    finally:
        await server.stop()

    print(
        "smoke_metrics_endpoint: PASS (trace spans stitched, "
        "/metrics + /traces + /readyz + "
        "/history.json + /dashboard live)"
    )
    return 0


def _wait_for_history(
    base: str, after: float, timeout_s: float = 10.0
) -> dict:
    """Poll until the collector has a derived point taken after wall
    time ``after``, so the query that returned before it is in the
    point (ticks come at the 0.2 s cadence)."""
    deadline = time.time() + timeout_s
    doc: dict = {}
    while time.time() < deadline:
        doc = _http_json(base, "/history.json?window=60")
        if any(point["t"] > after for point in doc.get("points", ())):
            return doc
        time.sleep(0.1)
    raise AssertionError(f"history has no point after t={after}: {doc}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--history-output", metavar="FILE", default="",
        help="also write the /history.json document (CI artifact)",
    )
    cli_args = parser.parse_args()
    sys.exit(asyncio.run(main(history_output=cli_args.history_output)))
