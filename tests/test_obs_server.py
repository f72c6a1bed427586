"""End-to-end tracing through the serving tier.

One query through the full server yields one stitched trace —
transport -> scheduler -> engine with kernel phases — retrievable over
the shell ``trace`` command and the HTTP exporter alike.
"""

from __future__ import annotations

import asyncio
import io
import json
import queue
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import cli
from repro.api import QuerySpec
from repro.graph.builder import graph_from_arrays
from repro.obs.profiling import OnDemandProfiler
from repro.obs.trace import Tracer
from repro.server import BatchScheduler, ReproServer, ShardPool
from repro.server.client import ReproClient
from repro.service import (
    GraphRegistry,
    QueryEngine,
    ResultCache,
    ServiceShell,
)


def layered_cliques(num_cliques=6):
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


def _http_json(base: str, path: str):
    with urllib.request.urlopen(base + path, timeout=10.0) as response:
        return json.loads(response.read().decode("utf-8"))


def _http_get(base: str, path: str):
    """(status, body) — non-2xx statuses returned, not raised."""
    try:
        with urllib.request.urlopen(base + path, timeout=10.0) as response:
            return response.status, response.read().decode("utf-8")
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode("utf-8")


class TestThreadBackendEndToEnd:
    def test_stitched_trace_via_shell_and_http(self, registry):
        async def main():
            server = ReproServer(
                registry=registry,
                trace_sample=1.0,
                metrics_port=0,
            )
            await server.start(tcp=("127.0.0.1", 0))
            try:
                host, port = server.tcp_address
                mhost, mport = server.metrics_address
                base = f"http://{mhost}:{mport}"
                client = await ReproClient.connect(host, port=port)
                try:
                    result = await client.execute(
                        QuerySpec(graph="cliques", k=3, gamma=3)
                    )
                    assert result.communities

                    [trace] = _http_json(base, "/traces?limit=1")["traces"]
                    names = {s["name"] for s in trace["spans"]}
                    assert {"transport", "scheduler", "engine"} <= names
                    engine = next(
                        s for s in trace["spans"] if s["name"] == "engine"
                    )
                    assert len(engine.get("phases", {})) >= 3

                    listing = await client.request("trace limit=5")
                    assert any(
                        trace["trace_id"] in line for line in listing
                    )
                    rendered = await client.request(
                        f"trace {trace['trace_id']}"
                    )
                    assert any("scheduler" in line for line in rendered)
                finally:
                    await client.close()
            finally:
                await server.stop()

        asyncio.run(main())

    def test_sampled_out_queries_leave_no_trace(self, registry):
        async def main():
            server = ReproServer(
                registry=registry, trace_sample=0.0
            )
            await server.start(tcp=("127.0.0.1", 0))
            try:
                host, port = server.tcp_address
                client = await ReproClient.connect(host, port=port)
                try:
                    await client.execute(
                        QuerySpec(graph="cliques", k=3, gamma=3)
                    )
                finally:
                    await client.close()
                counters = server.tracer.store.counters()
                assert counters["traces_recorded"] == 0
            finally:
                await server.stop()

        asyncio.run(main())


class TestCoalescedTraces:
    def test_followers_record_coalesced_span(self, registry):
        async def main():
            tracer = Tracer(sample=1.0)
            engine = QueryEngine(
                registry, cache=ResultCache(), tracer=tracer
            )
            pool = ShardPool(2)
            scheduler = BatchScheduler(
                engine, pool, window_s=0.05, tracer=tracer
            )
            spans = [
                tracer.maybe_start("transport"),
                tracer.maybe_start("transport"),
            ]
            try:
                queries = [
                    QuerySpec(graph="cliques", gamma=3, k=k) for k in (5, 2)
                ]
                results = await asyncio.gather(
                    *(
                        scheduler.submit(query, span=span)
                        for query, span in zip(queries, spans)
                    )
                )
            finally:
                pool.shutdown()
            traces = [tracer.end(span) for span in spans]
            assert sorted(r.source for r in results) == [
                "coalesced", "cold"
            ]
            by_root = {
                trace["trace_id"]: {s["name"] for s in trace["spans"]}
                for trace in traces
            }
            all_names = set().union(*by_root.values())
            assert "scheduler" in all_names
            assert "coalesced" in all_names
            # The follower's coalesced span points at the leader trace.
            follower_span = next(
                s
                for trace in traces
                for s in trace["spans"]
                if s["name"] == "coalesced"
            )
            assert follower_span["tags"]["leader"] in by_root

        asyncio.run(main())


class TestObservabilityEndpoints:
    """The PR-7 surface over a live thread-backend server."""

    def test_dashboard_history_readyz_profile(self, registry):
        async def main():
            server = ReproServer(
                registry=registry,
                trace_sample=1.0,
                metrics_port=0,
                slo="p95_ms=60000,err_rate=0.9,window_s=30",
                history_interval=0.1,
            )
            await server.start(tcp=("127.0.0.1", 0))
            try:
                host, port = server.tcp_address
                mhost, mport = server.metrics_address
                base = f"http://{mhost}:{mport}"
                client = await ReproClient.connect(host, port=port)
                try:
                    for k in (2, 3, 4):
                        await client.execute(
                            QuerySpec(graph="cliques", k=k, gamma=3)
                        )
                    # Let the collector take a couple of post-traffic
                    # ticks so rates exist.
                    deadline = time.time() + 5.0
                    while (
                        len(server.history.ticks()) < 3
                        and time.time() < deadline
                    ):
                        await asyncio.sleep(0.05)

                    # liveness is bare; readiness is a judgement
                    status, body = _http_get(base, "/healthz")
                    assert (status, body) == (200, "ok\n")
                    status, body = _http_get(base, "/readyz")
                    assert status == 200
                    ready = json.loads(body)
                    assert ready["ready"] and ready["reasons"] == []
                    assert ready["slo"]["ok"]

                    doc = _http_json(base, "/history.json?window=60")
                    assert doc["points"], "derived points expected"
                    point = doc["points"][-1]
                    assert point["qps"] >= 0.0
                    assert doc["slo"]["window_s"] == 30.0
                    assert doc["breach_count"] == 0

                    status, html = _http_get(base, "/dashboard")
                    assert status == 200
                    assert "<title>repro dashboard</title>" in html
                    assert 'id="queues"' in html
                    assert 'id="slo"' in html
                    assert "/traces/" in html  # exemplar links
                    assert "<script" not in html.lower()
                    assert "https://" not in html

                    # the Prometheus exposition grew the SLO series
                    status, text = _http_get(base, "/metrics")
                    assert "repro_slo_ok{" in text
                    assert "repro_slo_breaches_total 0" in text
                    assert "repro_latency_overall_ms{" in text

                    status, report = _http_get(
                        base, "/profile?seconds=0.05"
                    )
                    assert status == 200
                    assert report.startswith("profile:")
                    status, body = _http_get(base, "/profile?seconds=-1")
                    assert status == 400
                finally:
                    await client.close()
            finally:
                await server.stop()
            assert not server.history.running  # stop() stops collecting

        asyncio.run(main())

    def test_slo_breach_flips_readyz_and_recovers(self, registry):
        async def main():
            server = ReproServer(
                registry=registry,
                metrics_port=0,
                slo="err_rate=0.5,window_s=2",
                history_interval=0.2,
            )
            await server.start(tcp=("127.0.0.1", 0))
            try:
                host, port = server.tcp_address
                mhost, mport = server.metrics_address
                base = f"http://{mhost}:{mport}"
                client = await ReproClient.connect(host, port=port)
                try:
                    # Every request errors: unknown graph.
                    for _ in range(4):
                        lines = await client.request(
                            "query no-such-graph k=2"
                        )
                        assert lines[0].startswith("error:")
                    deadline = time.time() + 10.0
                    status = None
                    while time.time() < deadline:
                        status, body = _http_get(base, "/readyz")
                        if status == 503:
                            break
                        await asyncio.sleep(0.1)
                    assert status == 503
                    doc = json.loads(body)
                    assert any(
                        "slo breach" in reason for reason in doc["reasons"]
                    )
                    assert server.history.breach_count >= 1

                    # Breach events surface on the dashboard too.
                    _, html = _http_get(base, "/dashboard")
                    assert "✗ breach" in html

                    # Good traffic + the 2s window sliding past the
                    # failures recovers readiness end to end.
                    deadline = time.time() + 15.0
                    while time.time() < deadline:
                        await client.execute(
                            QuerySpec(graph="cliques", k=2, gamma=3)
                        )
                        status, body = _http_get(base, "/readyz")
                        if status == 200:
                            break
                        await asyncio.sleep(0.2)
                    assert status == 200
                    events = [
                        e["event"] for e in server.history.breaches()
                    ]
                    assert events[0] == "breach"
                    assert "recovered" in events
                finally:
                    await client.close()
            finally:
                await server.stop()

        asyncio.run(main())

    def test_profile_busy_returns_409(self, registry):
        async def main():
            server = ReproServer(
                registry=registry,
                metrics_port=0,
            )
            await server.start(tcp=("127.0.0.1", 0))
            try:
                mhost, mport = server.metrics_address
                base = f"http://{mhost}:{mport}"
                loop = asyncio.get_running_loop()
                first = loop.run_in_executor(
                    None, _http_get, base, "/profile?seconds=0.8"
                )
                await asyncio.sleep(0.2)  # let the first capture arm
                status, body = _http_get(base, "/profile?seconds=0.1")
                assert status == 409
                assert "already running" in json.loads(body)["error"]
                status, report = await first
                assert status == 200
                assert report.startswith("profile:")
            finally:
                await server.stop()

        asyncio.run(main())

    def test_history_disabled_404s(self, registry):
        async def main():
            # metrics_port alone enables observability, which builds a
            # history; to get a server WITHOUT one, wire the exporter
            # directly.
            from repro.obs.export import MetricsServer
            from repro.service import ServiceMetrics

            exporter = MetricsServer(ServiceMetrics(), port=0)
            mhost, mport = exporter.start()
            try:
                base = f"http://{mhost}:{mport}"
                status, body = _http_get(base, "/history.json")
                assert status == 404
                assert "disabled" in json.loads(body)["error"]
                status, body = _http_get(base, "/profile?seconds=0.1")
                assert status == 404
                # readyz without a callback defaults to ready
                status, body = _http_get(base, "/readyz")
                assert status == 200
                assert json.loads(body)["ready"] is True
                # the dashboard still renders from the bare snapshot
                status, html = _http_get(base, "/dashboard")
                assert status == 200
                assert "<title>repro dashboard</title>" in html
            finally:
                exporter.stop()

        asyncio.run(main())



class _BlockingLines:
    """A stdin stand-in: ``readline`` blocks until a line is fed."""

    def __init__(self) -> None:
        self._lines: "queue.Queue[str]" = queue.Queue()

    def feed(self, line: str) -> None:
        self._lines.put(line)

    def readline(self) -> str:
        return self._lines.get()


class _LockedText(io.StringIO):
    """A StringIO that a serving thread writes and the test polls."""

    def __init__(self) -> None:
        super().__init__()
        self._lock = threading.Lock()

    def write(self, text: str) -> int:
        with self._lock:
            return super().write(text)

    def getvalue(self) -> str:
        with self._lock:
            return super().getvalue()


class TestReadinessParity:
    SLO = "p95_ms=60000,err_rate=0.5,window_s=30"

    def _stdio_readyz(self):
        stdin, out = _BlockingLines(), _LockedText()
        argv = [
            "serve", "--no-datasets", "--metrics-port", "0",
            "--slo", self.SLO,
        ]
        thread = threading.Thread(
            target=cli.main, args=(argv,), kwargs={"out": out, "in_stream": stdin}
        )
        thread.start()
        try:
            deadline = time.time() + 10.0
            while "metrics on http://" not in out.getvalue():
                assert time.time() < deadline, out.getvalue()
                time.sleep(0.02)
            url = out.getvalue().split("metrics on ", 1)[1].split()[0]
            return _http_get(url[: -len("/metrics")], "/readyz")
        finally:
            stdin.feed("quit\n")
            thread.join(timeout=10.0)

    def _network_readyz(self, registry):
        async def main():
            server = ReproServer(
                registry=registry, metrics_port=0,
                slo=self.SLO,
            )
            await server.start(tcp=("127.0.0.1", 0))
            try:
                mhost, mport = server.metrics_address
                return _http_get(f"http://{mhost}:{mport}", "/readyz")
            finally:
                await server.stop()

        return asyncio.run(main())

    def test_stdio_and_network_answer_the_same_document(self, registry):
        stdio_status, stdio_body = self._stdio_readyz()
        net_status, net_body = self._network_readyz(registry)
        assert stdio_status == net_status == 200
        stdio_doc, net_doc = json.loads(stdio_body), json.loads(net_body)
        assert stdio_doc == net_doc
        # The verdict rides along while the objectives hold, too.
        assert stdio_doc["slo"]["ok"] is True
        assert stdio_doc["reasons"] == []


class TestNonFiniteWindows:
    MESSAGE = "profile seconds must be a positive finite number"

    def test_profiler_rejects_non_finite_and_non_positive(self):
        profiler = OnDemandProfiler()
        for seconds in (float("nan"), float("inf"), -float("inf"), 0.0, -1.0):
            with pytest.raises(ValueError, match=self.MESSAGE):
                profiler.capture(seconds)
        assert not profiler.armed

    def test_shell_answers_its_own_error(self, registry):
        engine = QueryEngine(registry, cache=ResultCache())
        engine.profiler = OnDemandProfiler()
        out = io.StringIO()
        shell = ServiceShell(engine, out)
        for value in ("nan", "inf"):
            shell.execute_line(f"profile seconds={value}")
        lines = out.getvalue().splitlines()
        assert lines == [
            f"error: {self.MESSAGE}, got nan",
            f"error: {self.MESSAGE}, got inf",
        ]

    def test_wire_and_http_answer_typed_errors(self, registry):
        async def main():
            server = ReproServer(
                registry=registry, metrics_port=0
            )
            await server.start(tcp=("127.0.0.1", 0))
            try:
                host, port = server.tcp_address
                client = await ReproClient.connect(host, port=port)
                try:
                    lines = await client.request("profile seconds=nan")
                    assert lines == [f"error: {self.MESSAGE}, got nan"]
                    # The connection survives the bad request.
                    assert (await client.request("help"))[0] == "commands:"
                finally:
                    await client.close()
                mhost, mport = server.metrics_address
                base = f"http://{mhost}:{mport}"
                for path, key in (
                    ("/profile?seconds=nan", "seconds"),
                    ("/profile?seconds=inf", "seconds"),
                    ("/history.json?window=nan", "window"),
                    ("/dashboard?window=-inf", "window"),
                ):
                    status, body = _http_get(base, path)
                    assert status == 400, path
                    doc = json.loads(body)
                    assert doc["type"] == "QueryParameterError", path
                    assert doc["error"].startswith(
                        f"{key} must be a finite number"
                    ), path
                status, body = _http_get(base, "/profile?seconds=-1")
                assert status == 400
                assert json.loads(body) == {
                    "error": f"{self.MESSAGE}, got -1.0",
                    "type": "QueryParameterError",
                }
            finally:
                await server.stop()

        asyncio.run(main())
