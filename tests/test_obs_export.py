"""repro.obs.export — Prometheus rendering, HTTP endpoints, repro trace."""

from __future__ import annotations

import io
import json
import urllib.error
import urllib.request

import pytest

from repro.api.spec import FamilyKey
from repro.cli import main
from repro.obs.export import MetricsServer, render_prometheus
from repro.obs.history import SLO, MetricsHistory
from repro.obs.trace import TraceStore, Tracer
from repro.service.metrics import ServiceMetrics


def family(graph="g", gamma=2):
    return FamilyKey(
        graph=graph, gamma=gamma, algorithm="localsearch-p",
        delta=2.0,
    )


def populated_metrics() -> ServiceMetrics:
    metrics = ServiceMetrics()
    for elapsed, source in ((4.0, "cold"), (1.0, "cache"), (2.0, "cache")):
        metrics.observe_query(
            "localsearch-p", elapsed, source,
            kernel="fastpeel", family=family(),
        )
    metrics.observe_error(kind="QueryParameterError")
    metrics.observe_batch(2)
    metrics.observe_queue_depth(3)
    return metrics


class TestRenderPrometheus:
    def test_core_series(self):
        text = render_prometheus(populated_metrics().snapshot())
        assert "repro_queries_served_total 3" in text
        assert 'repro_queries_by_source_total{source="cache"} 2' in text
        assert (
            'repro_errors_by_kind_total{kind="QueryParameterError"} 1'
            in text
        )
        assert "repro_server_queue_depth 3" in text
        assert "repro_server_coalesce_rate" in text

    def test_family_quantiles(self):
        text = render_prometheus(populated_metrics().snapshot())
        assert 'quantile="0.5"' in text
        assert 'quantile="0.95"' in text
        assert "repro_family_latency_ms" in text
        assert "repro_family_queries_total" in text

    def test_label_escaping(self):
        metrics = ServiceMetrics()
        metrics.observe_error(kind='Weird"Kind\nName\\x')
        text = render_prometheus(metrics.snapshot())
        assert r'kind="Weird\"Kind\nName\\x"' in text

    def test_trace_counters(self):
        tracer = Tracer(sample=1.0, slow_ms=0.0)
        tracer.end(tracer.maybe_start("query"))
        text = render_prometheus(
            ServiceMetrics().snapshot(), tracer.store
        )
        assert "repro_traces_recorded_total 1" in text
        assert "repro_traces_slow_total 1" in text

    def test_help_and_type_headers_once(self):
        text = render_prometheus(populated_metrics().snapshot())
        assert text.count("# TYPE repro_queries_served_total counter") == 1


class TestSloRender:
    """``repro_slo_*`` series from a history with a configured SLO."""

    @staticmethod
    def _history(metrics, slo, mutate=None):
        clock = {"now": 1000.0}
        history = MetricsHistory(
            metrics, slo=slo, clock=lambda: clock["now"]
        )
        history.sample()
        if mutate is not None:
            mutate()
        clock["now"] += 1.0
        history.sample()
        return history

    def test_slo_block_renders_target_value_and_ok(self):
        metrics = populated_metrics()
        history = self._history(
            metrics, SLO(err_rate=0.5, p95_ms=1000.0)
        )
        text = render_prometheus(metrics.snapshot(), history=history)
        assert 'repro_slo_target{objective="err_rate"} 0.5' in text
        assert 'repro_slo_target{objective="p95_ms"} 1000.0' in text
        assert 'repro_slo_ok{objective="err_rate"} 1' in text
        assert "repro_slo_breaches_total 0" in text

    def test_breach_flips_ok_and_counts(self):
        metrics = populated_metrics()

        def fail_everything():
            for _ in range(5):
                metrics.observe_error(kind="Boom")

        history = self._history(
            metrics, SLO(err_rate=0.1), mutate=fail_everything
        )
        text = render_prometheus(metrics.snapshot(), history=history)
        assert 'repro_slo_ok{objective="err_rate"} 0' in text
        assert "repro_slo_breaches_total 1" in text

    def test_no_slo_no_block(self):
        metrics = populated_metrics()
        # A history without an SLO contributes nothing, same as none.
        history = MetricsHistory(metrics, clock=lambda: 0.0)
        for text in (
            render_prometheus(metrics.snapshot()),
            render_prometheus(metrics.snapshot(), history=history),
        ):
            assert "repro_slo_" not in text


@pytest.fixture()
def exporter():
    tracer = Tracer(sample=1.0)
    root = tracer.maybe_start("transport")
    child = tracer.start_span("engine", root)
    tracer.end(child)
    trace = tracer.end(root, source="cold")
    server = MetricsServer(populated_metrics(), trace_store=tracer.store)
    host, port = server.start()
    try:
        yield f"http://{host}:{port}", trace
    finally:
        server.stop()


def _get(url: str):
    with urllib.request.urlopen(url, timeout=10.0) as response:
        return response.read().decode("utf-8")


class TestMetricsServer:
    def test_metrics_text(self, exporter):
        base, _ = exporter
        text = _get(base + "/metrics")
        assert "repro_queries_served_total 3" in text
        assert "repro_traces_recorded_total 1" in text

    def test_metrics_json(self, exporter):
        base, _ = exporter
        doc = json.loads(_get(base + "/metrics.json"))
        assert doc["queries_served"] == 3
        assert doc["traces"]["traces_recorded"] == 1

    def test_healthz(self, exporter):
        base, _ = exporter
        assert _get(base + "/healthz").strip() == "ok"

    def test_traces_listing_and_by_id(self, exporter):
        base, trace = exporter
        listing = json.loads(_get(base + "/traces?limit=5"))["traces"]
        assert listing[0]["trace_id"] == trace["trace_id"]
        doc = json.loads(_get(base + f"/traces/{trace['trace_id']}"))
        assert {s["name"] for s in doc["spans"]} == {"transport", "engine"}

    def test_unknown_trace_404(self, exporter):
        base, _ = exporter
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(base + "/traces/nope")
        assert err.value.code == 404

    def test_unknown_path_404(self, exporter):
        base, _ = exporter
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(base + "/bogus")
        assert err.value.code == 404

    def test_start_and_stop_idempotent(self):
        server = MetricsServer(ServiceMetrics())
        address = server.start()
        assert server.start() == address
        server.stop()
        server.stop()


class TestTraceCli:
    def _run(self, argv):
        out = io.StringIO()
        code = main(argv, out=out)
        return code, out.getvalue()

    def test_listing_and_render(self, exporter):
        base, trace = exporter
        port = base.rsplit(":", 1)[1]
        code, text = self._run(["trace", "--port", port])
        assert code == 0
        assert trace["trace_id"] in text
        code, text = self._run(
            ["trace", "--port", port, "--id", trace["trace_id"]]
        )
        assert code == 0
        assert "engine" in text

    def test_json_mode(self, exporter):
        base, trace = exporter
        port = base.rsplit(":", 1)[1]
        code, text = self._run(["trace", "--port", port, "--json"])
        assert code == 0
        doc = json.loads(text)
        assert doc["traces"][0]["trace_id"] == trace["trace_id"]

    def test_unknown_id_exits_nonzero(self, exporter):
        base, _ = exporter
        port = base.rsplit(":", 1)[1]
        code, text = self._run(
            ["trace", "--port", port, "--id", "missing"]
        )
        assert code == 1
        assert "no trace" in text

    def test_unreachable_server_exits_nonzero(self):
        code, text = self._run(["trace", "--port", "1"])
        assert code == 1
        assert "cannot reach" in text


class TestMetricsCli:
    """``repro metrics`` — the snapshot/history puller."""

    def _run(self, argv):
        out = io.StringIO()
        code = main(argv, out=out)
        return code, out.getvalue()

    def test_snapshot_text(self, exporter):
        base, _ = exporter
        port = base.rsplit(":", 1)[1]
        code, text = self._run(["metrics", "--port", port])
        assert code == 0
        assert "queries_served: 3" in text
        assert "cache_hit_rate:" in text
        assert "traces: recorded=1" in text

    def test_json_mode_dumps_snapshot(self, exporter):
        base, _ = exporter
        port = base.rsplit(":", 1)[1]
        code, text = self._run(["metrics", "--port", port, "--json"])
        assert code == 0
        doc = json.loads(text)
        assert doc["queries_served"] == 3

    def test_history_against_disabled_server(self, exporter):
        base, _ = exporter
        port = base.rsplit(":", 1)[1]
        code, text = self._run(["metrics", "--port", port, "--history"])
        assert code == 1
        assert "history collector disabled" in text

    def test_history_text_renders_points_and_slo(self):
        metrics = populated_metrics()
        clock = {"now": 1000.0}
        history = MetricsHistory(
            metrics, slo=SLO(err_rate=0.5), clock=lambda: clock["now"]
        )
        history.sample()
        metrics.observe_query("localsearch-p", 2.0, "cache")
        clock["now"] += 1.0
        history.sample()
        server = MetricsServer(metrics, history=history)
        _, port = server.start()
        try:
            code, text = self._run(
                ["metrics", "--port", str(port), "--history"]
            )
        finally:
            server.stop()
        assert code == 0
        assert "qps=1.00" in text
        assert "slo[ok]:" in text

    def test_unreachable_server_exits_nonzero(self):
        code, text = self._run(["metrics", "--port", "1"])
        assert code == 1
        assert "cannot reach" in text
