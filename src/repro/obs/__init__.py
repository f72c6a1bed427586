"""repro.obs — end-to-end query tracing and zero-dep metrics export.

:mod:`repro.obs.trace` provides the span/tracer primitives threaded
through every serving layer (transport → scheduler → shard pool →
engine → peel kernels); :mod:`repro.obs.export` serves the
metrics snapshot and the trace rings over HTTP in Prometheus-text and
JSON form.  Both are standard-library only.  The export tier (which
pulls in ``http.server``) loads lazily so the kernel hot path's
``record_phase`` import stays featherweight.
"""

from .trace import (
    DEFAULT_SLOW_MS,
    DEFAULT_TRACE_SAMPLE,
    NO_TRACE,
    Span,
    Tracer,
    TraceStore,
    current_span,
    format_trace,
    format_trace_line,
    record_phase,
    use_span,
)

__all__ = [
    "DEFAULT_SLOW_MS",
    "DEFAULT_TRACE_SAMPLE",
    "MetricsHistory",
    "MetricsServer",
    "NO_TRACE",
    "OnDemandProfiler",
    "ProfileBusyError",
    "SLO",
    "Span",
    "TraceStore",
    "Tracer",
    "current_span",
    "format_trace",
    "format_trace_line",
    "parse_slo",
    "record_phase",
    "render_dashboard",
    "render_prometheus",
    "use_span",
]

#: Lazily-resolved exports (PEP 562): attribute -> submodule.  Keeps
#: the kernel hot path's ``record_phase`` import from dragging in
#: ``http.server`` / ``cProfile`` / the dashboard renderer, and from
#: importing :mod:`repro.service` (which the history collector reads
#: its metric table from) while :mod:`repro.core` is half-initialised.
_LAZY = {
    "MetricsHistory": "history",
    "SLO": "history",
    "parse_slo": "history",
    "MetricsServer": "export",
    "render_prometheus": "export",
    "render_dashboard": "dashboard",
    "OnDemandProfiler": "profiling",
    "ProfileBusyError": "profiling",
}


def __getattr__(name):
    submodule = _LAZY.get(name)
    if submodule is not None:
        from importlib import import_module

        return getattr(import_module(f".{submodule}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
