"""Zero-dependency tracing: spans, sampling, and a bounded trace store.

One query produces one **trace**: a tree of :class:`Span` timings whose
root is minted at the serving edge (the network transport, or the engine
itself for stdio/facade callers) and whose children follow the query
through the scheduler, the shard pool and the engine — down to the peel
kernel's per-phase timings.  The design
constraints, in order:

* **hot-path first** — tracing is sampled (off by default); an
  unsampled query pays one counter tick and a handful of ``is None``
  checks (``benchmarks/bench_obs_overhead.py`` gates the total under
  5%).  Spans carry monotonic ``perf_counter`` durations; the wall
  clock appears only once per span, for display.
* **explicit propagation across executors** — ``loop.run_in_executor``
  does *not* copy contextvars, so the serving layers hand spans along
  as plain arguments and re-enter them with :func:`use_span` on the
  worker thread.  The :data:`NO_TRACE` sentinel marks "the sampling
  decision was already made upstream: do not trace", which stops the
  engine from minting a second root for a query the transport chose
  not to sample.
* **bounded retention** — finished traces land in a
  :class:`TraceStore` ring; traces slower than ``slow_ms`` are
  *additionally* kept in their own ring, so slow exemplars survive any
  amount of fast traffic.

:func:`record_phase` is the kernel-side hook: it adds a named phase
duration to an explicit ``phases`` dict (``SearchStats.phases``) and,
when a span is active, to that span — so traces explain *algorithmic*
time (CSR build, gamma-core, peel, enumeration, cursor resume), not
just queueing.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import deque
from contextvars import ContextVar
from typing import Any, Dict, List, Optional

__all__ = [
    "DEFAULT_SLOW_MS",
    "DEFAULT_TRACE_SAMPLE",
    "NO_TRACE",
    "Span",
    "TraceStore",
    "Tracer",
    "current_span",
    "format_trace",
    "format_trace_line",
    "record_phase",
    "use_span",
]

#: Default slow-query threshold (exemplar retention + the ``slow`` flag).
DEFAULT_SLOW_MS = 250.0

#: Default sampling rate when observability is enabled without an
#: explicit ``--trace-sample``: every 50th query (and always the first —
#: the counter starts at zero), keeping the warm cache-hit path well
#: under the 5% overhead budget while still producing exemplars.
DEFAULT_TRACE_SAMPLE = 0.02


class _NoTrace:
    """Sentinel: "upstream decided not to trace this query"."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - repr only
        return "NO_TRACE"


NO_TRACE = _NoTrace()

_current: "ContextVar[Optional[object]]" = ContextVar(
    "repro_obs_span", default=None
)


#: The span active in this context (``None`` or :data:`NO_TRACE` when
#: nothing should be recorded).  Bound straight to ``ContextVar.get`` —
#: every query pays this call, so no Python wrapper frame around it.
current_span = _current.get


class use_span:
    """Make ``span`` the current span for the duration of a block.

    Accepts ``None`` (treated as :data:`NO_TRACE`: the block runs
    untraced and downstream layers will not mint a new root either).
    A plain ``__enter__``/``__exit__`` class, not ``@contextmanager`` —
    this sits on the per-query path of every executor hop, and the
    generator protocol costs several times more than two slot writes.
    """

    __slots__ = ("_span", "_token")

    def __init__(self, span) -> None:
        self._span = span

    def __enter__(self):
        self._token = _current.set(
            self._span if self._span is not None else NO_TRACE
        )
        return self._span

    def __exit__(self, *exc_info) -> None:
        _current.reset(self._token)


def record_phase(
    name: str, seconds: float, phases: Optional[Dict[str, float]] = None
) -> None:
    """Accumulate ``seconds`` under phase ``name`` (stored as ms).

    Writes to the explicit ``phases`` dict when given (the per-search
    ``SearchStats.phases`` accumulator) *and* to the current span, if
    one is active — span phases are therefore per-query increments even
    when the stats object outlives the query (a cached cursor's stats
    accumulate over its whole family lifetime).
    """
    ms = seconds * 1000.0
    if phases is not None:
        phases[name] = phases.get(name, 0.0) + ms
    span = _current.get()
    if span is not None and span is not NO_TRACE:
        sp = span.phases
        sp[name] = sp.get(name, 0.0) + ms


class Span:
    """One timed operation inside a trace (mutable until ended)."""

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "tags",
        "phases",
        "start_ms",
        "duration_ms",
        "_t0",
        "_root",
    )

    def __init__(
        self,
        trace_id: str,
        span_id: int,
        parent_id: Optional[int],
        name: str,
        tags: Optional[Dict[str, Any]] = None,
        root: bool = False,
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.tags: Dict[str, Any] = dict(tags) if tags else {}
        self.phases: Dict[str, float] = {}
        self.start_ms = time.time() * 1000.0
        self.duration_ms = 0.0
        self._t0 = time.perf_counter()
        self._root = root

    def annotate(self, **tags: Any) -> None:
        """Attach key/value tags (last write wins)."""
        self.tags.update(tags)

    def to_dict(self) -> Dict[str, Any]:
        """A plain-dict projection (JSON-safe)."""
        out: Dict[str, Any] = {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_ms": self.start_ms,
            "duration_ms": self.duration_ms,
        }
        if self.tags:
            out["tags"] = dict(self.tags)
        if self.phases:
            out["phases"] = {k: round(v, 4) for k, v in self.phases.items()}
        return out


class TraceStore:
    """Bounded, thread-safe retention of finished traces.

    Two rings: ``capacity`` recent traces of any speed, plus
    ``slow_capacity`` traces at or above ``slow_ms`` — slow exemplars
    are retained even when fast traffic would have rotated them out of
    the recent ring long ago.
    """

    def __init__(
        self,
        capacity: int = 256,
        slow_capacity: int = 64,
        slow_ms: float = DEFAULT_SLOW_MS,
    ) -> None:
        if capacity < 1 or slow_capacity < 1:
            raise ValueError("trace store capacities must be at least 1")
        self.slow_ms = float(slow_ms)
        self._lock = threading.Lock()
        self._recent: "deque[Dict[str, Any]]" = deque(maxlen=capacity)
        self._slow: "deque[Dict[str, Any]]" = deque(maxlen=slow_capacity)
        self.traces_recorded = 0
        self.slow_traces = 0
        self.spans_recorded = 0

    def add(self, trace: Dict[str, Any]) -> None:
        trace["slow"] = trace["duration_ms"] >= self.slow_ms
        with self._lock:
            self.traces_recorded += 1
            self.spans_recorded += len(trace["spans"])
            self._recent.append(trace)
            if trace["slow"]:
                self.slow_traces += 1
                self._slow.append(trace)

    def recent(self, limit: int = 20) -> List[Dict[str, Any]]:
        """Most recent traces, newest first."""
        with self._lock:
            rows = list(self._recent)
        return rows[-limit:][::-1] if limit > 0 else []

    def slow(self, limit: int = 20) -> List[Dict[str, Any]]:
        """Most recent slow traces, newest first."""
        with self._lock:
            rows = list(self._slow)
        return rows[-limit:][::-1] if limit > 0 else []

    def get(self, trace_id: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            for ring in (self._recent, self._slow):
                for trace in reversed(ring):
                    if trace["trace_id"] == trace_id:
                        return trace
        return None

    def summaries(
        self, limit: int = 20, slow: bool = False
    ) -> List[Dict[str, Any]]:
        """Compact newest-first rows for listings (no span payloads).

        The dashboard's exemplar table wants ids, names and durations —
        not the full span trees — so this projection keeps the render
        path from copying every retained span on each page load.
        """
        rows = self.slow(limit) if slow else self.recent(limit)
        return [
            {
                "trace_id": trace["trace_id"],
                "name": trace["name"],
                "start_ms": trace["start_ms"],
                "duration_ms": trace["duration_ms"],
                "spans": len(trace["spans"]),
                "slow": bool(trace.get("slow")),
            }
            for trace in rows
        ]

    def counters(self) -> Dict[str, int]:
        with self._lock:
            return {
                "traces_recorded": self.traces_recorded,
                "slow_traces": self.slow_traces,
                "spans_recorded": self.spans_recorded,
            }


class Tracer:
    """Mint, nest, and finish spans; assemble finished traces.

    ``sample`` in ``(0, 1]`` enables counter-based sampling (GIL-safe:
    one :func:`itertools.count` tick per candidate query, no lock, no
    RNG on the unsampled path); the counter starts at zero so the very
    first query is always traced.  ``sample=0`` disables root minting
    entirely — child spans for an explicitly propagated parent still
    record.
    """

    #: Backstop against a runaway trace accumulating unbounded spans.
    MAX_SPANS = 512

    def __init__(
        self,
        sample: float = 0.0,
        slow_ms: float = DEFAULT_SLOW_MS,
        store: Optional[TraceStore] = None,
    ) -> None:
        self.store = (
            store if store is not None else TraceStore(slow_ms=slow_ms)
        )
        self.slow_ms = float(slow_ms)
        self.set_sample(sample)
        self._tick = itertools.count()
        # Span ids start from a per-tracer random 48-bit base, so spans
        # of two tracers never share an id: counters that each start
        # at 1 would collide, and a tree rendered from both would turn
        # cyclic.
        self._span_ids = itertools.count(
            int.from_bytes(os.urandom(6), "big") << 16
        )
        # Trace ids are <pid>-<random>-<counter>: the entropy is drawn
        # once per tracer, not per trace — a urandom syscall on every
        # sampled root would dominate the span lifecycle cost.
        self._trace_prefix = f"{os.getpid() & 0xFFFF:04x}-{os.urandom(4).hex()}"
        self._trace_ids = itertools.count()
        self._lock = threading.Lock()
        #: trace_id -> finished span dicts of the still-open trace.
        self._active: Dict[str, List[Dict[str, Any]]] = {}

    # ------------------------------------------------------------------
    def set_sample(self, sample: float) -> None:
        sample = float(sample)
        if not 0.0 <= sample <= 1.0:
            raise ValueError("sample must be in [0, 1]")
        self.sample = sample
        self._period = 0 if sample == 0.0 else max(1, round(1.0 / sample))

    @property
    def sampling(self) -> bool:
        """True when this tracer can mint new root spans."""
        return self._period > 0

    # ------------------------------------------------------------------
    def maybe_start(self, name: str, **tags: Any) -> Optional[Span]:
        """Mint a root span for a new trace, subject to sampling."""
        period = self._period
        if not period or next(self._tick) % period:
            return None
        trace_id = f"{self._trace_prefix}-{next(self._trace_ids):06x}"
        span = Span(
            trace_id, next(self._span_ids), None, name, tags, root=True
        )
        # Fresh unique key -> a plain (GIL-atomic) store; no lock needed.
        self._active[trace_id] = []
        return span

    def start_span(self, name: str, parent, **tags: Any) -> Optional[Span]:
        """A child span of ``parent`` (``None`` in, ``None`` out)."""
        if parent is None or parent is NO_TRACE:
            return None
        return Span(
            parent.trace_id, next(self._span_ids), parent.span_id, name, tags
        )

    def end(self, span: Optional[Span], **tags: Any):
        """Finish a span.

        Child spans accumulate into their trace; ending a **root** span
        assembles the whole trace into the store and returns it.
        ``None`` in, no-op out.
        """
        if span is None or span is NO_TRACE:
            return None
        span.duration_ms = (time.perf_counter() - span._t0) * 1000.0
        if tags:
            span.tags.update(tags)
        with self._lock:
            spans = self._active.get(span.trace_id)
            if spans is None:
                # The trace already closed (an error path ended the root
                # while this span was still in flight): drop late child
                # spans instead of leaking an orphan accumulator.
                if not span._root:
                    return None
                spans = []
            spans.append(span.to_dict())
            if not span._root:
                if len(spans) > self.MAX_SPANS:
                    del spans[: len(spans) - self.MAX_SPANS]
                return None
            self._active.pop(span.trace_id, None)
        # Spans ship in completion order; format_trace() sorts children
        # by start_ms at render time, so no sort on the recording path.
        trace = {
            "trace_id": span.trace_id,
            "name": span.name,
            "start_ms": span.start_ms,
            "duration_ms": span.duration_ms,
            "spans": spans,
        }
        self.store.add(trace)
        return trace


# ----------------------------------------------------------------------
# rendering (shared by the shell `trace` command and `repro trace`)
# ----------------------------------------------------------------------
def _fmt_tags(payload: Dict[str, Any]) -> str:
    tags = payload.get("tags") or {}
    parts = [f"{k}={v}" for k, v in sorted(tags.items())]
    phases = payload.get("phases") or {}
    if phases:
        parts.append(
            "phases["
            + " ".join(
                f"{name}={ms:.3f}ms" for name, ms in sorted(phases.items())
            )
            + "]"
        )
    return (" " + " ".join(parts)) if parts else ""


def format_trace_line(trace: Dict[str, Any]) -> str:
    """One summary line per trace (the ``trace`` listing format)."""
    flag = " SLOW" if trace.get("slow") else ""
    return (
        f"{trace['trace_id']}  {trace['name']:<10} "
        f"{trace['duration_ms']:9.3f}ms  {len(trace['spans'])} spans{flag}"
    )


def format_trace(trace: Dict[str, Any]) -> List[str]:
    """Render one trace as an indented span tree (parent -> children)."""
    spans = trace.get("spans", [])
    by_id = {s["span_id"]: s for s in spans}
    children: Dict[Optional[int], List[Dict[str, Any]]] = {}
    for span in spans:
        parent = span.get("parent_id")
        if parent not in by_id:
            parent = None  # orphaned (ring-trimmed ancestor): show at root
        children.setdefault(parent, []).append(span)
    for bucket in children.values():
        bucket.sort(key=lambda s: s["start_ms"])
    lines = [
        f"trace {trace['trace_id']} — {trace['name']} "
        f"({trace['duration_ms']:.3f}ms)"
        + (" [SLOW]" if trace.get("slow") else "")
    ]

    # Guard against malformed id graphs (e.g. colliding span ids): each
    # span renders at most once, so a cycle cannot recurse.
    visited: set = set()

    def walk(parent: Optional[int], depth: int) -> None:
        for span in children.get(parent, []):
            if id(span) in visited:
                continue
            visited.add(id(span))
            lines.append(
                "  " * depth
                + f"{span['name']} {span['duration_ms']:.3f}ms"
                + _fmt_tags(span)
            )
            walk(span["span_id"], depth + 1)

    walk(None, 1)
    # Spans unreachable from any root (a parent-id cycle in a malformed
    # payload) still render, flat, rather than silently vanishing.
    for span in sorted(spans, key=lambda s: s["start_ms"]):
        if id(span) not in visited:
            visited.add(id(span))
            lines.append(
                f"  {span['name']} {span['duration_ms']:.3f}ms"
                + _fmt_tags(span)
            )
            walk(span["span_id"], 2)
    return lines
