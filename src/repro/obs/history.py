"""Time-series metrics: a sampling collector over ServiceMetrics.

Everything in :mod:`repro.service.metrics` is a point-in-time counter;
answering "what changed in the last five minutes" needs history.
:class:`MetricsHistory` is a daemon collector thread that samples
:meth:`~repro.service.metrics.ServiceMetrics.snapshot` (plus the trace
store's counters) on a fixed interval into a bounded ring of **ticks**.
Each tick stores the *cumulative* counters, not rates — rates (qps, hit
rate, coalesce rate, error rate) are derived at read time from the
deltas between consecutive retained ticks divided by their real
timestamp gap.  That one decision is what makes the series robust:

* **ring wrap** — when old ticks rotate out, the remaining ticks still
  carry absolute counter values, so every surviving pair still yields
  an exact rate for its own interval;
* **collector restart** — a stopped and restarted collector resumes
  against the same monotonic counters; the first new tick pairs with
  the last old one and the rate over the gap is simply averaged over
  the (longer) real ``dt`` rather than invented;
* **scrape gaps** — a delayed sample widens ``dt`` instead of spiking
  the rate.

:class:`SLO` adds declarative objectives (``p95_ms``, ``err_rate``)
evaluated over the most recent history window; ok -> breach transitions
land in a bounded breach-event ring shown on the dashboard and counted
by the ``repro_slo_breaches_total`` Prometheus series.  The collector
must stay far under the serving stack's <5% observability budget —
``benchmarks/bench_obs_overhead.py`` gates it at <2% added latency when
sampling at a 1s interval.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Callable, Dict, List, Optional

from ..service.metrics import HIT_SOURCES, METRICS, SERVED_SOURCES

__all__ = ["SLO", "parse_slo", "MetricsHistory"]

#: The table rows copied into every tick, under their ``tick`` keys.
_TICKED = tuple(metric for metric in METRICS if metric.tick is not None)


class SLO:
    """Declarative service-level objectives over the history window.

    ``p95_ms`` bounds the overall p95 latency gauge (the global bounded
    reservoir, read at the newest tick); ``err_rate`` bounds the
    fraction of requests that errored *within the window*
    (``d_errors / (d_queries + d_errors)`` between the window's first
    and last tick — errored requests never reach ``queries_served``, so
    the denominator is requests, not served queries).  Objectives left
    ``None`` are not evaluated; an objective with no data yet holds
    (readiness must not flap before traffic exists).
    """

    __slots__ = ("p95_ms", "err_rate", "window_s")

    def __init__(
        self,
        p95_ms: Optional[float] = None,
        err_rate: Optional[float] = None,
        window_s: float = 60.0,
    ) -> None:
        if p95_ms is not None and p95_ms <= 0:
            raise ValueError("slo p95_ms must be positive")
        if err_rate is not None and not 0.0 <= err_rate <= 1.0:
            raise ValueError("slo err_rate must be in [0, 1]")
        if window_s <= 0:
            raise ValueError("slo window_s must be positive")
        self.p95_ms = p95_ms
        self.err_rate = err_rate
        self.window_s = float(window_s)

    def describe(self) -> Dict[str, float]:
        out: Dict[str, float] = {"window_s": self.window_s}
        if self.p95_ms is not None:
            out["p95_ms"] = self.p95_ms
        if self.err_rate is not None:
            out["err_rate"] = self.err_rate
        return out

    # ------------------------------------------------------------------
    def evaluate(self, ticks: List[Dict[str, Any]]) -> Dict[str, Any]:
        """Evaluate every configured objective over ``ticks``.

        ``ticks`` is the window's raw tick list, oldest first.  Returns
        ``{"ok": bool, "window_s": ..., "objectives": {name: {"target",
        "value", "ok"}}}`` — ``value`` is ``None`` (and the objective
        holds) when the window has no data to judge yet.
        """
        objectives: Dict[str, Dict[str, Any]] = {}
        if self.p95_ms is not None:
            value = None
            for tick in reversed(ticks):
                overall = tick.get("latency_overall_ms") or {}
                if overall.get("p95") is not None:
                    value = overall["p95"]
                    break
            objectives["p95_ms"] = {
                "target": self.p95_ms,
                "value": value,
                "ok": value is None or value <= self.p95_ms,
            }
        if self.err_rate is not None:
            value = None
            if len(ticks) >= 2:
                first, last = ticks[0], ticks[-1]
                d_err = last["errors"] - first["errors"]
                d_q = last["queries_served"] - first["queries_served"]
                requests = d_q + d_err
                if requests > 0:
                    value = d_err / requests
            objectives["err_rate"] = {
                "target": self.err_rate,
                "value": value,
                "ok": value is None or value <= self.err_rate,
            }
        return {
            "ok": all(obj["ok"] for obj in objectives.values()),
            "window_s": self.window_s,
            "objectives": objectives,
        }


def parse_slo(spec: str) -> SLO:
    """Parse ``"p95_ms=50,err_rate=0.01[,window_s=60]"`` into an SLO."""
    fields: Dict[str, float] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        key, sep, value = part.partition("=")
        key = key.strip()
        if not sep or key not in ("p95_ms", "err_rate", "window_s"):
            raise ValueError(
                f"bad SLO term {part!r} "
                "(want p95_ms=MS, err_rate=FRACTION, window_s=SECONDS)"
            )
        try:
            fields[key] = float(value)
        except ValueError as exc:
            raise ValueError(f"bad SLO value in {part!r}") from exc
    if not ("p95_ms" in fields or "err_rate" in fields):
        raise ValueError("an SLO needs at least one of p95_ms / err_rate")
    return SLO(
        p95_ms=fields.get("p95_ms"),
        err_rate=fields.get("err_rate"),
        window_s=fields.get("window_s", 60.0),
    )


class MetricsHistory:
    """Bounded time-series collection over a shared metrics sink.

    Parameters
    ----------
    metrics:
        The :class:`~repro.service.metrics.ServiceMetrics` to sample.
    trace_store:
        Optional :class:`~repro.obs.trace.TraceStore`; its counters ride
        along in every tick.
    interval_s:
        Collector period (default 1s; the <2% overhead gate is at 1s).
    capacity:
        Ring size in ticks (default 600 = ten minutes at 1s).
    max_families:
        Per-tick cap on retained family rows (the busiest families by
        served count; the live table itself is bounded separately).
    slo:
        Optional :class:`SLO` evaluated on every sample; ok/breach
        transitions append to the breach-event ring.
    gauges:
        Optional callable returning extra point-in-time gauges to store
        verbatim in the tick under ``"gauges"`` (e.g. the scheduler's
        pending-by-family map).
    clock:
        Timestamp source (injectable for deterministic tests).
    """

    def __init__(
        self,
        metrics,
        trace_store=None,
        interval_s: float = 1.0,
        capacity: int = 600,
        max_families: int = 16,
        slo: Optional[SLO] = None,
        gauges: Optional[Callable[[], Dict[str, Any]]] = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        if capacity < 2:
            raise ValueError("capacity must be at least 2 (rates need pairs)")
        if max_families < 1:
            raise ValueError("max_families must be at least 1")
        self.metrics = metrics
        self.trace_store = trace_store
        self.interval_s = float(interval_s)
        self.max_families = max_families
        self.slo = slo
        self.gauges = gauges
        self.clock = clock
        self._lock = threading.Lock()
        self._ticks: "deque[Dict[str, Any]]" = deque(maxlen=capacity)
        self._breaches: "deque[Dict[str, Any]]" = deque(maxlen=64)
        self.breach_count = 0
        self.sample_errors = 0
        #: Last per-objective verdict, for transition detection.
        self._last_ok: Dict[str, bool] = {}
        self._slo_status: Optional[Dict[str, Any]] = None
        self._stop: Optional[threading.Event] = None
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # collection
    # ------------------------------------------------------------------
    def sample(self) -> Dict[str, Any]:
        """Take one tick now (also the collector thread's body)."""
        now = self.clock()
        snap = self.metrics.snapshot()
        families = snap.get("by_family") or {}
        if len(families) > self.max_families:
            busiest = sorted(
                families.items(),
                key=lambda item: item[1].get("queries", 0),
                reverse=True,
            )[: self.max_families]
            families = dict(busiest)
        source = snap.get("by_source") or {}
        tick: Dict[str, Any] = {"t": now}
        for metric in _TICKED:
            value = metric.read(snap)
            tick[metric.tick] = (
                dict(value) if metric.label is not None else value
            )
        tick["hits"] = sum(source.get(s, 0) for s in HIT_SOURCES)
        tick["hit_base"] = sum(source.get(s, 0) for s in SERVED_SOURCES)
        tick["families"] = families
        tick["latency_overall_ms"] = dict(snap.get("latency_overall_ms") or {})
        if self.trace_store is not None:
            tick["traces"] = self.trace_store.counters()
        if self.gauges is not None:
            try:
                tick["gauges"] = self.gauges()
            except Exception:  # a gauge probe must never kill the tick
                self.sample_errors += 1
        with self._lock:
            self._ticks.append(tick)
            if self.slo is not None:
                self._evaluate_slo_locked(now)
        return tick

    def _evaluate_slo_locked(self, now: float) -> None:
        window = self._window_locked(self.slo.window_s)
        status = self.slo.evaluate(window)
        self._slo_status = status
        for name, obj in status["objectives"].items():
            was_ok = self._last_ok.get(name, True)
            if was_ok and not obj["ok"]:
                self.breach_count += 1
                self._breaches.append(
                    {
                        "t": now,
                        "objective": name,
                        "event": "breach",
                        "value": obj["value"],
                        "target": obj["target"],
                    }
                )
            elif not was_ok and obj["ok"]:
                self._breaches.append(
                    {
                        "t": now,
                        "objective": name,
                        "event": "recovered",
                        "value": obj["value"],
                        "target": obj["target"],
                    }
                )
            self._last_ok[name] = obj["ok"]

    def _run(self, stop: threading.Event) -> None:
        while not stop.wait(self.interval_s):
            try:
                self.sample()
            except Exception:  # keep collecting; a bad tick is dropped
                self.sample_errors += 1

    def start(self) -> None:
        """Start (or restart) the collector thread; takes an immediate
        first tick so rates exist one interval later, not two."""
        if self._thread is not None and self._thread.is_alive():
            return
        try:
            self.sample()
        except Exception:
            self.sample_errors += 1
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run,
            args=(self._stop,),
            name="repro-metrics-history",
            daemon=True,
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop collecting (idempotent); the ring is retained, and a
        later :meth:`start` resumes against the same counters."""
        stop, thread = self._stop, self._thread
        self._stop = self._thread = None
        if stop is not None:
            stop.set()
        if thread is not None:
            thread.join(timeout=5.0)

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def _window_locked(
        self, window_s: Optional[float]
    ) -> List[Dict[str, Any]]:
        ticks = list(self._ticks)
        if window_s is None or not ticks:
            return ticks
        cutoff = ticks[-1]["t"] - window_s
        start = len(ticks)
        for i in range(len(ticks) - 1, -1, -1):
            if ticks[i]["t"] < cutoff:
                break
            start = i
        # One tick before the window edge anchors the first delta, so a
        # window covering N ticks yields N derived points, not N-1.
        if start > 0:
            start -= 1
        return ticks[start:]

    def ticks(self, window_s: Optional[float] = None) -> List[Dict[str, Any]]:
        """Raw ticks (cumulative counters), oldest first."""
        with self._lock:
            return self._window_locked(window_s)

    def series(self, window_s: Optional[float] = None) -> List[Dict[str, Any]]:
        """Derived rate points, oldest first.

        Each point pairs a tick with its predecessor: counters become
        per-second rates over the pair's *actual* timestamp gap, which
        is what keeps them exact across ring wrap, scrape gaps, and
        collector restarts.  Deltas are clamped at zero so a swapped-in
        fresh metrics sink cannot produce negative rates.
        """
        ticks = self.ticks(window_s)
        points: List[Dict[str, Any]] = []
        for prev, cur in zip(ticks, ticks[1:]):
            point = _derive_pair(prev, cur)
            if point is not None:
                points.append(point)
        return points

    def latest(self) -> Optional[Dict[str, Any]]:
        """The newest derived point, or ``None`` before two ticks exist."""
        with self._lock:
            ticks = list(self._ticks)[-2:]
        if len(ticks) < 2:
            return None
        return _derive_pair(ticks[0], ticks[1])

    def breaches(self) -> List[Dict[str, Any]]:
        """SLO breach/recovery events, oldest first (bounded ring)."""
        with self._lock:
            return [dict(event) for event in self._breaches]

    def slo_status(self) -> Optional[Dict[str, Any]]:
        """The last evaluated SLO verdict (``None`` without an SLO or
        before the first sample)."""
        with self._lock:
            if self.slo is None:
                return None
            if self._slo_status is None:
                return self.slo.evaluate(self._window_locked(self.slo.window_s))
            return self._slo_status

    def readiness(self) -> Dict[str, Any]:
        """The ``/readyz`` document: this collector's SLO verdict.

        The verdict rides along as ``"slo"`` whenever one exists, and a
        breach adds a reason; ``ready`` holds iff no reason remains.
        Both frontends build ``/readyz`` here, so they answer the same
        document.
        """
        doc: Dict[str, Any] = {"reasons": []}
        status = self.slo_status()
        if status is not None:
            doc["slo"] = status
            breached = sorted(
                name
                for name, objective in status["objectives"].items()
                if not objective["ok"]
            )
            if breached:
                doc["reasons"].append(f"slo breach: {', '.join(breached)}")
        doc["ready"] = not doc["reasons"]
        return doc

    def document(self, window_s: Optional[float] = None) -> Dict[str, Any]:
        """The ``/history.json`` payload: derived points + SLO state."""
        doc: Dict[str, Any] = {
            "interval_s": self.interval_s,
            "window_s": window_s,
            "points": self.series(window_s),
            "breach_count": self.breach_count,
            "breaches": self.breaches(),
        }
        if self.slo is not None:
            doc["slo"] = self.slo.describe()
            doc["slo_status"] = self.slo_status()
        return doc


def _derive_pair(prev: Dict[str, Any], cur: Dict[str, Any]) -> Optional[Dict[str, Any]]:
    """One derived point from a consecutive tick pair (see series())."""
    dt = cur["t"] - prev["t"]
    if dt <= 0:
        return None
    d_q = max(0, cur["queries_served"] - prev["queries_served"])
    d_err = max(0, cur["errors"] - prev["errors"])
    d_hits = max(0, cur["hits"] - prev["hits"])
    d_base = max(0, cur["hit_base"] - prev["hit_base"])
    d_batches = max(0, cur["batches"] - prev["batches"])
    d_batched = max(0, cur["batched_queries"] - prev["batched_queries"])
    # .get with defaults: ticks recorded before the live-mutation fields
    # existed (or by an older collector) still derive cleanly.
    d_mut = max(0, cur.get("mutations_applied", 0) - prev.get("mutations_applied", 0))
    d_inv = max(0, cur.get("families_invalidated", 0) - prev.get("families_invalidated", 0))
    d_pres = max(0, cur.get("families_preserved", 0) - prev.get("families_preserved", 0))
    touched = d_inv + d_pres
    requests = d_q + d_err
    return {
        "t": cur["t"],
        "dt": dt,
        "qps": d_q / dt,
        "eps": d_err / dt,
        "error_rate": d_err / requests if requests else 0.0,
        "hit_rate": d_hits / d_base if d_base else None,
        "coalesce_rate": 1.0 - d_batches / d_batched if d_batched else 0.0,
        "mutations_per_s": d_mut / dt,
        # Of the cached families a mutation touched this interval, the
        # fraction scoped invalidation actually had to drop (None when
        # no mutation touched any cached family).
        "invalidation_rate": d_inv / touched if touched else None,
        "queue_depth": cur["queue_depth"],
        "families": {
            # One level of nesting (the phases_ms breakdown) — copy it
            # too, so mutating a derived point never writes through to
            # the retained tick.
            label: {
                key: dict(value) if isinstance(value, dict) else value
                for key, value in row.items()
            }
            for label, row in cur["families"].items()
        },
        "latency_overall_ms": dict(cur["latency_overall_ms"]),
    }
