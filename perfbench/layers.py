"""Per-layer numbers from the spans a traced server wrote out.

A span's self time is its duration minus the part of it that its child
spans cover.  Per-query figures divide a layer's summed self time by the
number of query lines the transport served in the traced window, so the
layers of the query path add up to the server's time per query.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Sequence

#: Span name -> per-layer metric reporting its self time per query.
PER_QUERY = {
    "shell.parse": "shell.parse_ms",
    "shell.render": "shell.render_ms",
    "scheduler.submit": "scheduler.wait_ms",
    "pool.execute": "pool.handoff_ms",
    "engine.execute": "engine.self_ms",
    "cache.get": "cache.get_ms",
    "cache.serve": "cache.serve_ms",
    "kernel.take": "kernel.take_ms",
}
#: Span name -> per-layer metric reporting its mean duration per call.
PER_CALL = {
    "cache.migrate": "cache.migrate_ms",
    "registry.apply": "registry.apply_ms",
    "registry.compact": "registry.compact_ms",
}
KERNEL_PHASES = ("gamma_core", "peel", "enumerate", "csr_build", "cursor_resume")


def _covered(start: float, end: float, intervals: List[tuple]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total, cursor = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: Sequence[list]) -> List[Optional[float]]:
    """Self time (seconds) of every span; ``None`` for unfinished ones."""
    children: Dict[int, List[tuple]] = defaultdict(list)
    for name, start, end, _request, parent, _extra in spans:
        if parent is not None and end is not None:
            children[parent].append((start, end))
    out: List[Optional[float]] = []
    for index, (_name, start, end, _request, _parent, _extra) in enumerate(spans):
        if end is None:
            out.append(None)
            continue
        out.append(end - start - _covered(start, end, children.get(index, [])))
    return out


def layer_metrics(
    spans: Sequence[list], window: tuple, client_latency_ms: float
) -> Dict[str, float]:
    """Per-layer metrics over spans that started inside ``window``."""
    start, end = window
    selfs = self_times(spans)
    self_ms: Dict[str, float] = defaultdict(float)
    total_ms: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    phases: Dict[str, float] = defaultdict(float)
    accessed: Dict[tuple, float] = {}
    for (name, t0, t1, _request, _parent, extra), own in zip(spans, selfs):
        if own is None or not start <= t0 < end:
            continue
        self_ms[name] += own * 1000.0
        total_ms[name] += (t1 - t0) * 1000.0
        calls[name] += 1
        if name == "kernel.take" and extra is not None:
            for phase, ms in extra["phases"].items():
                phases[phase] += ms
            if extra["accessed"] is not None:
                size = extra["family"][0]
                accessed[tuple(extra["family"])] = extra["accessed"] / size
    queries = max(calls["transport.serve"], 1)
    out = {metric: self_ms[name] / queries for name, metric in PER_QUERY.items()}
    server_ms = (total_ms["transport.serve"] + total_ms["transport.send"]) / queries
    out["transport.self_ms"] = (
        self_ms["transport.serve"] + self_ms["transport.send"]
    ) / queries
    # What the client saw beyond the server's own handling of the line:
    # the wait behind the requests pipelined ahead of it, and the socket.
    out["transport.queue_ms"] = client_latency_ms - server_ms
    for name, metric in PER_CALL.items():
        out[metric] = total_ms[name] / calls[name] if calls[name] else 0.0
    for phase in KERNEL_PHASES:
        out[f"kernel.{phase}_ms"] = phases[phase] / queries
    out["kernel.accessed_fraction"] = (
        sum(accessed.values()) / len(accessed) if accessed else 0.0
    )
    out["registry.build_s"] = sum(
        t1 - t0 for name, t0, t1, *_ in spans if name == "registry.build"
    )
    return out
