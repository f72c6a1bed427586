"""Metrics + trace exposition: Prometheus text and JSON over HTTP.

Everything here is standard library.  :func:`render_prometheus` turns a
:meth:`~repro.service.metrics.ServiceMetrics.snapshot` (plus the trace
store's counters) into Prometheus text-format 0.0.4.  Every counter and
gauge series comes from one loop over the declaration table
:data:`~repro.service.metrics.METRICS`; only the latency percentiles,
the per-family rows, the trace counters and the SLO series are written
out by hand.  :class:`MetricsServer` serves it from a daemonized
:class:`~http.server.ThreadingHTTPServer`, alongside JSON endpoints for
the raw snapshot and the trace rings:

* ``GET /metrics``        — Prometheus text exposition
* ``GET /metrics.json``   — the snapshot as one JSON document
* ``GET /traces``         — recent traces (``?limit=N``, default 20)
* ``GET /traces/slow``    — slow-query exemplars (``?limit=N``)
* ``GET /traces/<id>``    — one trace by id (404 when unknown)
* ``GET /healthz``        — bare liveness probe (``ok``; answers iff
  the process serves HTTP — never consults SLOs)
* ``GET /readyz``         — readiness: 200 when the server should
  receive traffic, 503 with a JSON reason when an SLO is breached
* ``GET /dashboard``      — the server-rendered HTML explorer
  (:mod:`repro.obs.dashboard`; ``?window=S`` bounds the series)
* ``GET /history.json``   — derived time-series points (``?window=S``)
* ``GET /profile``        — on-demand cProfile capture
  (``?seconds=N&top=M``; 409 while another capture runs)

A non-finite ``seconds`` or ``window`` answers 400 with a typed JSON
error, ``{"error": ..., "type": "QueryParameterError"}``.

The server thread only ever *reads* shared state (snapshot() and the
trace store are internally locked; the history collector samples on its
own thread), so it needs no coordination with the serving loop;
``repro serve --metrics-port N`` starts it next to the transport and
``repro trace`` / ``repro metrics`` are its CLI clients.
"""

from __future__ import annotations

import json
import math
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from ..errors import QueryParameterError
from ..service.metrics import COUNTER, METRICS, Metric
from .dashboard import render_dashboard
from .history import MetricsHistory
from .profiling import OnDemandProfiler, ProfileBusyError
from .trace import TraceStore

__all__ = ["MetricsServer", "render_prometheus"]

#: Default dashboard/history window, seconds.
DEFAULT_WINDOW_S = 300.0


def _escape_label(value: Any) -> str:
    """Prometheus label-value escaping (backslash, quote, newline)."""
    return (
        str(value)
        .replace("\\", r"\\")
        .replace('"', r"\"")
        .replace("\n", r"\n")
    )


def _fmt(value: float) -> str:
    """Render a sample value (ints stay ints; floats use repr)."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


class _Lines:
    """Accumulate exposition lines with one HELP/TYPE header per metric."""

    def __init__(self) -> None:
        self._out: List[str] = []
        self._seen: set = set()

    def sample(
        self,
        name: str,
        value: Any,
        labels: Optional[Dict[str, Any]] = None,
        help_text: str = "",
        kind: str = "gauge",
    ) -> None:
        if value is None:
            return
        if name not in self._seen:
            self._seen.add(name)
            if help_text:
                self._out.append(f"# HELP {name} {help_text}")
            self._out.append(f"# TYPE {name} {kind}")
        if labels:
            rendered = ",".join(
                f'{key}="{_escape_label(val)}"'
                for key, val in sorted(labels.items())
            )
            self._out.append(f"{name}{{{rendered}}} {_fmt(value)}")
        else:
            self._out.append(f"{name} {_fmt(value)}")

    def text(self) -> str:
        return "\n".join(self._out) + "\n"


#: Rows of the live tier print after the latency and family blocks,
#: every other exported row before them.
_EXPORTED = [metric for metric in METRICS if metric.prom is not None]
_BEFORE_LATENCY = [m for m in _EXPORTED if m.keys[0] != "live"]
_AFTER_LATENCY = [m for m in _EXPORTED if m.keys[0] == "live"]


def _sample_rows(
    out: _Lines, snapshot: Dict[str, Any], rows: List[Metric]
) -> None:
    """The series of declared counters and gauges, in table order."""
    for metric in rows:
        kind = "counter" if metric.kind == COUNTER else "gauge"
        value = metric.read(snapshot)
        if metric.label is None:
            out.sample(metric.prom, value, help_text=metric.help, kind=kind)
            continue
        for label_value, sample in sorted(value.items()):
            out.sample(
                metric.prom,
                sample,
                labels={metric.label: label_value},
                help_text=metric.help,
                kind=kind,
            )


def render_prometheus(
    snapshot: Dict[str, Any],
    trace_store: Optional[TraceStore] = None,
    history: Optional[MetricsHistory] = None,
) -> str:
    """Prometheus text exposition of one metrics snapshot.

    With a ``history`` whose SLO is configured, the ``repro_slo_*``
    series (per-objective target/value/verdict plus the cumulative
    breach counter) ride along.
    """
    out = _Lines()
    _sample_rows(out, snapshot, _BEFORE_LATENCY)

    for algo, pcts in sorted((snapshot.get("latency_ms") or {}).items()):
        for pname, value in sorted(pcts.items()):
            out.sample(
                "repro_latency_ms",
                value,
                labels={
                    "algorithm": algo,
                    "quantile": f"{int(pname[1:]) / 100:g}",
                },
                help_text="Nearest-rank latency percentiles per algorithm.",
            )
    for pname, value in sorted(
        (snapshot.get("latency_overall_ms") or {}).items()
    ):
        out.sample(
            "repro_latency_overall_ms",
            value,
            labels={"quantile": f"{int(pname[1:]) / 100:g}"},
            help_text="Pooled latency percentiles across all algorithms.",
        )

    for family, row in sorted((snapshot.get("by_family") or {}).items()):
        out.sample(
            "repro_family_queries_total",
            row.get("queries", 0),
            labels={"family": family},
            help_text="Queries served per canonical spec family.",
            kind="counter",
        )
        out.sample(
            "repro_family_hit_rate",
            row.get("hit_rate", 0.0),
            labels={"family": family},
        )
        for pname in ("p50_ms", "p95_ms"):
            out.sample(
                "repro_family_latency_ms",
                row.get(pname),
                labels={
                    "family": family,
                    "quantile": f"{int(pname[1:-3]) / 100:g}",
                },
                help_text="Per-family nearest-rank latency percentiles.",
            )

    _sample_rows(out, snapshot, _AFTER_LATENCY)

    if trace_store is not None:
        counters = trace_store.counters()
        out.sample(
            "repro_traces_recorded_total",
            counters["traces_recorded"],
            help_text="Finished traces stored (post-sampling).",
            kind="counter",
        )
        out.sample(
            "repro_traces_slow_total", counters["slow_traces"], kind="counter"
        )
        out.sample(
            "repro_trace_spans_total",
            counters["spans_recorded"],
            kind="counter",
        )

    status = history.slo_status() if history is not None else None
    if status is not None:
        for name, objective in sorted(status["objectives"].items()):
            labels = {"objective": name}
            out.sample(
                "repro_slo_target",
                objective.get("target"),
                labels=labels,
                help_text="Configured SLO target per objective.",
            )
            out.sample(
                "repro_slo_value",
                objective.get("value"),
                labels=labels,
                help_text="Observed value over the SLO window.",
            )
            out.sample(
                "repro_slo_ok",
                1 if objective.get("ok") else 0,
                labels=labels,
                help_text="1 when the objective holds, 0 on breach.",
            )
        out.sample(
            "repro_slo_breaches_total",
            history.breach_count,
            help_text="Cumulative ok->breach transitions.",
            kind="counter",
        )
    return out.text()


class _Handler(BaseHTTPRequestHandler):
    """Route table over the owning :class:`MetricsServer`'s state."""

    server_version = "repro-obs/1"
    protocol_version = "HTTP/1.1"

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # scrapes are high-frequency; stay silent

    def _reply(
        self, body: str, content_type: str, status: int = 200
    ) -> None:
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type + "; charset=utf-8")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _reply_json(self, document: Any, status: int = 200) -> None:
        self._reply(
            json.dumps(document, sort_keys=True, default=str),
            "application/json",
            status,
        )

    @staticmethod
    def _query_float(
        params: Dict[str, List[str]], key: str, default: float
    ) -> float:
        """A float query parameter; unparseable falls back to
        ``default``, and a non-finite value is a bad request."""
        try:
            value = float(params.get(key, [default])[0])
        except (TypeError, ValueError):
            return default
        if not math.isfinite(value):
            raise QueryParameterError(
                f"{key} must be a finite number, got {value!r}"
            )
        return value

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        try:
            self._route()
        except QueryParameterError as exc:
            self._reply_json(
                {"error": str(exc), "type": type(exc).__name__}, status=400
            )

    def _route(self) -> None:
        exporter: "MetricsServer" = self.server.exporter  # type: ignore[attr-defined]
        parsed = urlparse(self.path)
        path = parsed.path.rstrip("/") or "/"
        params = parse_qs(parsed.query)
        try:
            limit = int(params.get("limit", ["20"])[0])
        except ValueError:
            limit = 20
        store = exporter.trace_store
        history = exporter.history
        if path == "/metrics":
            self._reply(
                render_prometheus(
                    exporter.metrics.snapshot(), store, history
                ),
                "text/plain",
            )
        elif path == "/metrics.json":
            snapshot = exporter.metrics.snapshot()
            if store is not None:
                snapshot["traces"] = store.counters()
            self._reply_json(snapshot)
        elif path == "/healthz":
            self._reply("ok\n", "text/plain")
        elif path == "/readyz":
            doc = (
                exporter.readiness()
                if exporter.readiness is not None
                else {"ready": True, "reasons": []}
            )
            self._reply_json(doc, status=200 if doc.get("ready") else 503)
        elif path == "/dashboard":
            self._reply(exporter.render_dashboard_page(params), "text/html")
        elif path == "/history.json":
            if history is None:
                self._reply_json(
                    {"error": "history collector disabled"}, status=404
                )
            else:
                window = self._query_float(
                    params, "window", DEFAULT_WINDOW_S
                )
                self._reply_json(history.document(window))
        elif path == "/profile":
            self._serve_profile(exporter, params)
        elif path == "/traces" and store is not None:
            self._reply_json({"traces": store.recent(limit)})
        elif path == "/traces/slow" and store is not None:
            self._reply_json({"traces": store.slow(limit)})
        elif path.startswith("/traces/") and store is not None:
            trace = store.get(path[len("/traces/"):])
            if trace is None:
                self._reply_json({"error": "unknown trace id"}, status=404)
            else:
                self._reply_json(trace)
        else:
            self._reply_json({"error": f"unknown path {path!r}"}, status=404)

    def _serve_profile(
        self, exporter: "MetricsServer", params: Dict[str, List[str]]
    ) -> None:
        profiler = exporter.profiler
        if profiler is None:
            self._reply_json(
                {"error": "profiling disabled (no engine attached)"},
                status=404,
            )
            return
        seconds = self._query_float(params, "seconds", 5.0)
        try:
            top = int(params.get("top", ["25"])[0])
        except ValueError:
            top = 25
        try:
            report = profiler.capture(seconds, top=top)
        except ProfileBusyError as exc:
            self._reply_json({"error": str(exc)}, status=409)
        except ValueError as exc:
            raise QueryParameterError(str(exc)) from exc
        else:
            self._reply(report, "text/plain")


class MetricsServer:
    """A daemon-threaded HTTP exposition server (port 0 = ephemeral)."""

    def __init__(
        self,
        metrics,
        trace_store: Optional[TraceStore] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        history: Optional[MetricsHistory] = None,
        readiness: Optional[Callable[[], Dict[str, Any]]] = None,
        profiler: Optional[OnDemandProfiler] = None,
    ) -> None:
        self.metrics = metrics
        self.trace_store = trace_store
        #: Optional :class:`MetricsHistory` backing ``/history.json``,
        #: the dashboard series, and the ``repro_slo_*`` exposition.
        #: The caller owns its lifecycle (start/stop).
        self.history = history
        #: Optional zero-arg callable returning the ``/readyz``
        #: document (``{"ready": bool, "reasons": [...], ...}``).
        self.readiness = readiness
        #: Optional :class:`OnDemandProfiler` backing ``/profile``.
        self.profiler = profiler
        self._host = host
        self._port = port
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    def render_dashboard_page(self, params: Dict[str, List[str]]) -> str:
        """Assemble the ``/dashboard`` HTML from the live state."""
        window = _Handler._query_float(params, "window", DEFAULT_WINDOW_S)
        points: List[Dict[str, Any]] = []
        slo_status = None
        breaches: List[Dict[str, Any]] = []
        if self.history is not None:
            points = self.history.series(window)
            slo_status = self.history.slo_status()
            breaches = self.history.breaches()
        slow_traces: List[Dict[str, Any]] = []
        if self.trace_store is not None:
            slow_traces = self.trace_store.summaries(8, slow=True)
            if not slow_traces:
                slow_traces = self.trace_store.summaries(8)
        readiness = self.readiness() if self.readiness is not None else None
        return render_dashboard(
            self.metrics.snapshot(),
            points=points,
            slo_status=slo_status,
            breaches=breaches,
            slow_traces=slow_traces,
            readiness=readiness,
            window_s=window,
        )

    @property
    def address(self) -> Optional[Tuple[str, int]]:
        """``(host, port)`` once started, else ``None``."""
        if self._httpd is None:
            return None
        return self._httpd.server_address[:2]

    def start(self) -> Tuple[str, int]:
        """Bind and serve on a daemon thread; returns the bound address."""
        if self._httpd is not None:
            return self.address  # type: ignore[return-value]
        httpd = ThreadingHTTPServer((self._host, self._port), _Handler)
        httpd.daemon_threads = True
        httpd.exporter = self  # type: ignore[attr-defined]
        self._httpd = httpd
        self._thread = threading.Thread(
            target=httpd.serve_forever,
            name="repro-metrics-http",
            daemon=True,
        )
        self._thread.start()
        return self.address  # type: ignore[return-value]

    def stop(self) -> None:
        """Shut the listener down (idempotent)."""
        httpd, thread = self._httpd, self._thread
        self._httpd = self._thread = None
        if httpd is not None:
            httpd.shutdown()
            httpd.server_close()
        if thread is not None:
            thread.join(timeout=5.0)
