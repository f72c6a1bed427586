"""Service metrics — counters and latency percentiles for the serving layer.

Pure in-process instrumentation (no external dependency).  Every counter
and gauge is declared once, as a :class:`Metric` row of :data:`METRICS`:
its path in the :meth:`ServiceMetrics.snapshot` document, its kind, its
optional label dimension, its Prometheus name and HELP text, and its key
in a history tick.  ``ServiceMetrics`` initialises its state from the
table, ``snapshot()`` builds the nested document from it, and the
Prometheus exporter (:func:`repro.obs.export.render_prometheus`) and the
history collector (:class:`repro.obs.history.MetricsHistory`) loop over
it.  A new counter is one row plus the ``observe_*`` line that bumps it.

The bespoke parts sit beside the table: a bounded latency reservoir per
algorithm (plus one pooled reservoir) with nearest-rank percentiles, and
the LRU-bounded **per-family** table — :meth:`ServiceMetrics.by_family`
reports hit rate and p50/p95 latency per
:class:`~repro.api.spec.FamilyKey`.

``snapshot()`` returns a plain dict so the shell's ``metrics`` command
and tests can consume it directly.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict, defaultdict, deque
from typing import Any, Callable, Deque, Dict, Iterable, Optional

__all__ = [
    "percentile", "family_label", "ServiceMetrics", "Metric", "METRICS",
    "HIT_SOURCES", "SERVED_SOURCES",
]

#: Sources that served a query without a fresh computation: a cache
#: slice, a resumed cursor, or a seat on another query's batch.
HIT_SOURCES = frozenset({"cache", "extended", "coalesced"})
#: Every source that served a query (the hit rate's denominator).
SERVED_SOURCES = HIT_SOURCES | {"cold"}

#: Metric kinds.  A ``peak`` is a gauge that only rises (the highest
#: value seen); a ``rate`` holds no state of its own and is derived from
#: other rows when the snapshot is built.
COUNTER, GAUGE, PEAK, RATE = "counter", "gauge", "peak", "rate"


def percentile(samples: Iterable[float], q: float) -> Optional[float]:
    """Nearest-rank percentile (``q`` in (0, 100]); ``None`` if empty."""
    values = sorted(samples)
    if not values:
        return None
    if not 0.0 < q <= 100.0:
        raise ValueError("percentile q must be in (0, 100]")
    rank = max(1, math.ceil(q / 100.0 * len(values)))
    return values[rank - 1]


def family_label(family) -> str:
    """A stable, JSON-key-safe rendering of a FamilyKey."""
    return (
        f"{family.graph}|gamma={family.gamma}|{family.algorithm}"
        f"|delta={family.delta:g}"
    )


def _hit_rate(values: Dict[str, Any]) -> float:
    # .get (never index) — by_source is a defaultdict, and a *read*
    # must not insert zero-count keys into snapshots.
    source = values["by_source"]
    served = sum(source.get(s, 0) for s in SERVED_SOURCES)
    if not served:
        return 0.0
    return sum(source.get(s, 0) for s in HIT_SOURCES) / served


def _coalesce_rate(values: Dict[str, Any]) -> float:
    if not values["batched_queries"]:
        return 0.0
    return 1.0 - values["batches"] / values["batched_queries"]


class Metric:
    """One declared counter or gauge.

    ``path`` is the dotted position in the snapshot document; its last
    part, ``attr``, names the :class:`ServiceMetrics` attribute holding
    the state, so no two rows may share it.  A row with a ``label``
    holds one value per label value.  ``prom`` is the Prometheus series name
    (``None`` = not exported), ``tick`` the key the history collector
    copies the value to (``None`` = not sampled), and ``derive``
    computes a ``rate`` row from the other rows' values.
    """

    __slots__ = (
        "path", "keys", "kind", "label", "prom", "help", "attr", "tick",
        "derive",
    )

    def __init__(
        self,
        path: str,
        kind: str,
        label: Optional[str] = None,
        prom: Optional[str] = None,
        help: str = "",
        tick: Optional[str] = None,
        derive: Optional[Callable[[Dict[str, Any]], float]] = None,
    ) -> None:
        self.path, self.kind, self.label = path, kind, label
        self.prom, self.help, self.tick, self.derive = prom, help, tick, derive
        self.keys = tuple(path.split("."))
        self.attr = self.keys[-1]

    def read(self, snapshot: Dict[str, Any]) -> Any:
        """This row's value in a snapshot document; a missing row (a
        partial or older document) reads as zero, or ``{}`` if labelled."""
        node = snapshot
        for key in self.keys[:-1]:
            node = node.get(key) or {}
        if self.label is not None:
            return node.get(self.keys[-1]) or {}
        return node.get(self.keys[-1], 0.0 if self.kind == RATE else 0)


#: Every counter and gauge, in Prometheus exposition order.
METRICS = (
    Metric("queries_served", COUNTER, prom="repro_queries_served_total",
           help="Queries served across all frontends.",
           tick="queries_served"),
    Metric("by_source", COUNTER, "source", "repro_queries_by_source_total"),
    Metric("by_algorithm", COUNTER, "algorithm",
           "repro_queries_by_algorithm_total"),
    Metric("by_kernel", COUNTER, "kernel", "repro_queries_by_kernel_total"),
    # Never evicts (one integer per registered graph), so per-graph
    # demand stays exact however many families churn through the
    # LRU-bounded family table.
    Metric("by_graph", COUNTER, "graph", tick="graphs"),
    Metric("errors", COUNTER, prom="repro_errors_total",
           help="Errors observed by shell/transport/pool paths.",
           tick="errors"),
    Metric("by_error", COUNTER, "kind", "repro_errors_by_kind_total"),
    Metric("cache_hit_rate", RATE, prom="repro_cache_hit_rate",
           help="Fraction of queries served without fresh computation.",
           derive=_hit_rate),
    Metric("sessions_opened", COUNTER, prom="repro_sessions_opened_total"),
    Metric("sessions_closed", COUNTER, prom="repro_sessions_closed_total"),
    Metric("sessions_expired", COUNTER, prom="repro_sessions_expired_total"),
    # Server tier (repro.server): connections, batch coalescing and
    # scheduler queue pressure.
    Metric("server.coalesce_rate", RATE, prom="repro_server_coalesce_rate",
           help="Fraction of scheduler queries sharing an engine pass.",
           derive=_coalesce_rate),
    Metric("server.connections_opened", COUNTER,
           prom="repro_server_connections_opened_total"),
    Metric("server.connections_closed", COUNTER,
           prom="repro_server_connections_closed_total"),
    Metric("server.batches", COUNTER, prom="repro_server_batches_total",
           tick="batches"),
    Metric("server.batched_queries", COUNTER,
           prom="repro_server_batched_queries_total",
           tick="batched_queries"),
    # Replicated-shard dispatches steered to an idle replica in
    # preference to a busy round-robin choice.
    Metric("server.replica_idle_dispatches", COUNTER,
           prom="repro_server_replica_idle_dispatches_total",
           tick="replica_idle_dispatches"),
    Metric("server.max_batch_width", PEAK,
           prom="repro_server_max_batch_width"),
    Metric("server.queue_depth", GAUGE, prom="repro_server_queue_depth",
           tick="queue_depth"),
    Metric("server.queue_depth_peak", PEAK,
           prom="repro_server_queue_depth_peak"),
    # Live tier (repro.live): mutations, scoped invalidation, compaction.
    Metric("live.mutations_applied", COUNTER,
           prom="repro_live_mutations_applied_total",
           help="Edge-mutation batches applied through GraphRegistry.apply.",
           tick="mutations_applied"),
    Metric("live.families_invalidated", COUNTER,
           prom="repro_live_families_invalidated_total",
           help="Cached families dropped by scoped invalidation.",
           tick="families_invalidated"),
    Metric("live.families_preserved", COUNTER,
           prom="repro_live_families_preserved_total",
           help="Cached families carried across a graph mutation.",
           tick="families_preserved"),
    Metric("live.compactions", COUNTER, prom="repro_live_compactions_total",
           help="Compactions: pending-batch count reset, version bumped.",
           tick="compactions"),
    Metric("live.graph_generation", GAUGE, "graph", "repro_graph_generation",
           "Current registry version (generation) per graph."),
)

#: The rows that hold state (every kind but ``rate``).
_STATE = tuple(metric for metric in METRICS if metric.kind != RATE)


class _FamilyStats:
    """Per-family counters + bounded latency reservoir."""

    __slots__ = ("queries", "no_compute", "latency_ms", "phases")

    def __init__(self, max_samples: int) -> None:
        self.queries = 0
        self.no_compute = 0
        self.latency_ms: Deque[float] = deque(maxlen=max_samples)
        #: Latest kernel-phase accumulator snapshot ({phase: ms}) — a
        #: progressive family's stats accumulate over its lifetime, so
        #: the newest snapshot is the family's cumulative breakdown.
        self.phases: Optional[Dict[str, float]] = None

    def record(
        self,
        elapsed_ms: float,
        source: str,
        phases: Optional[Dict[str, float]] = None,
    ) -> None:
        self.queries += 1
        if source in HIT_SOURCES:
            self.no_compute += 1
        self.latency_ms.append(elapsed_ms)
        if phases:
            self.phases = dict(phases)


class ServiceMetrics:
    """Thread-safe counters + per-algorithm latency reservoirs.

    Each row of :data:`METRICS` that holds state is an attribute named
    by its ``attr`` (a ``defaultdict(int)`` when labelled, else ``0``),
    updated in place by the ``observe_*`` methods under one lock.

    ``max_samples`` bounds each algorithm's reservoir (oldest samples
    fall out first), keeping memory constant under heavy traffic;
    ``max_families`` bounds the per-family table the same way (least-
    recently-active families fall out first).
    """

    PERCENTILES = (50.0, 90.0, 99.0)
    #: Percentiles reported per family (the satellite contract: p50/p95).
    FAMILY_PERCENTILES = (50.0, 95.0)
    #: Percentiles over the global reservoir (all algorithms pooled) —
    #: the gauge the p95 SLO and the dashboard stat tile read.
    OVERALL_PERCENTILES = (50.0, 95.0, 99.0)

    def __init__(
        self, max_samples: int = 1024, max_families: int = 512
    ) -> None:
        if max_samples < 1:
            raise ValueError("max_samples must be at least 1")
        if max_families < 1:
            raise ValueError("max_families must be at least 1")
        self._lock = threading.Lock()
        self._max_samples = max_samples
        self._max_families = max_families
        for metric in _STATE:
            setattr(
                self,
                metric.attr,
                defaultdict(int) if metric.label is not None else 0,
            )
        self._latency_ms: Dict[str, Deque[float]] = {}
        #: Global latency reservoir across every algorithm — one pooled
        #: p95 gauge for SLO evaluation and the dashboard.
        self._latency_all: Deque[float] = deque(maxlen=max_samples)
        self._families: "OrderedDict[object, _FamilyStats]" = OrderedDict()

    # ------------------------------------------------------------------
    def observe_query(
        self,
        algorithm: str,
        elapsed_ms: float,
        source: str,
        kernel: Optional[str] = None,
        family=None,
        phases: Optional[Dict[str, float]] = None,
    ) -> None:
        """Record one served query.

        ``kernel`` is the peel kernel used, ``family`` the spec's
        canonical :class:`~repro.api.spec.FamilyKey`; ``phases`` the
        query's kernel-phase timing accumulator (``{phase: ms}``, the
        ``SearchStats.phases`` dict) — ``None`` leaves the family's
        previous breakdown in place (pure cache hits do no kernel work).
        """
        with self._lock:
            self.queries_served += 1
            self.by_source[source] += 1
            self.by_algorithm[algorithm] += 1
            if kernel is not None:
                self.by_kernel[kernel] += 1
            reservoir = self._latency_ms.get(algorithm)
            if reservoir is None:
                reservoir = deque(maxlen=self._max_samples)
                self._latency_ms[algorithm] = reservoir
            reservoir.append(elapsed_ms)
            self._latency_all.append(elapsed_ms)
            if family is not None:
                self.by_graph[family.graph] += 1
                stats = self._families.get(family)
                if stats is None:
                    stats = _FamilyStats(self._max_samples)
                    self._families[family] = stats
                    while len(self._families) > self._max_families:
                        self._families.popitem(last=False)
                else:
                    self._families.move_to_end(family)
                stats.record(elapsed_ms, source, phases)

    def observe_error(self, kind: Optional[str] = None) -> None:
        """Record one error; ``kind`` is the exception type name."""
        with self._lock:
            self.errors += 1
            if kind is not None:
                self.by_error[kind] += 1

    def session_opened(self) -> None:
        with self._lock:
            self.sessions_opened += 1

    def session_closed(self, expired: bool = False) -> None:
        with self._lock:
            self.sessions_closed += 1
            if expired:
                self.sessions_expired += 1

    def connection_opened(self) -> None:
        with self._lock:
            self.connections_opened += 1

    def connection_closed(self) -> None:
        with self._lock:
            self.connections_closed += 1

    def observe_batch(self, width: int) -> None:
        """Record one coalesced engine pass serving ``width`` queries."""
        with self._lock:
            self.batches += 1
            self.batched_queries += width
            if width > self.max_batch_width:
                self.max_batch_width = width

    def observe_queue_depth(self, depth: int) -> None:
        """Record the scheduler's current pending-query depth."""
        with self._lock:
            self.queue_depth = depth
            if depth > self.queue_depth_peak:
                self.queue_depth_peak = depth

    def observe_replica_idle_dispatch(self) -> None:
        """A replicated dispatch was steered to an idle replica."""
        with self._lock:
            self.replica_idle_dispatches += 1

    # -- live tier ------------------------------------------------------
    def observe_mutation(
        self,
        graph: str,
        version: int,
        invalidated: int = 0,
        preserved: int = 0,
        compaction: bool = False,
    ) -> None:
        """Record one graph-version flip (mutation batch or compaction).

        ``invalidated``/``preserved`` are the scoped-invalidation
        outcome over the cached families of the flipped graph;
        ``version`` updates the generation gauge.
        """
        with self._lock:
            if compaction:
                self.compactions += 1
            else:
                self.mutations_applied += 1
            self.families_invalidated += invalidated
            self.families_preserved += preserved
            self.graph_generation[graph] = version

    # ------------------------------------------------------------------
    @property
    def cache_hit_rate(self) -> float:
        """Fraction of queries answered without a fresh computation
        (cache slice, resumed cursor, or coalesced onto a shared batch)."""
        with self._lock:
            return _hit_rate(vars(self))

    def latency_percentiles(self, algorithm: str) -> Dict[str, Optional[float]]:
        """``{"p50": ..., "p90": ..., "p99": ...}`` for one algorithm."""
        with self._lock:
            samples = list(self._latency_ms.get(algorithm, ()))
        return {
            f"p{int(q)}": percentile(samples, q) for q in self.PERCENTILES
        }

    def by_family(self) -> Dict[str, Dict[str, object]]:
        """Spec-addressed aggregates: one row per active FamilyKey.

        Each row carries the served count, the fraction served without
        fresh computation, nearest-rank p50/p95 latency over the
        family's bounded reservoir, and the family's latest kernel-phase
        breakdown (``phases_ms``, e.g. peel vs enumerate time — the
        dashboard heatmap's breakdown column).  Keys are the stable
        :func:`family_label` strings (JSON-safe).
        """
        with self._lock:
            rows = self._copy_families_locked()
        return self._family_document(rows)

    def _copy_families_locked(self) -> list:
        return [
            (
                family,
                stats.queries,
                stats.no_compute,
                list(stats.latency_ms),
                dict(stats.phases) if stats.phases else {},
            )
            for family, stats in self._families.items()
        ]

    def _family_document(self, rows: list) -> Dict[str, Dict[str, object]]:
        out: Dict[str, Dict[str, object]] = {}
        for family, queries, no_compute, samples, phases in rows:
            out[family_label(family)] = {
                "queries": queries,
                "hit_rate": no_compute / queries if queries else 0.0,
                **{
                    f"p{int(q)}_ms": percentile(samples, q)
                    for q in self.FAMILY_PERCENTILES
                },
                "phases_ms": phases,
            }
        return out

    def snapshot(self) -> Dict[str, object]:
        """A point-in-time, JSON-friendly view of everything.

        One consistent cut: every value — the :data:`METRICS` rows, the
        latency reservoirs and the family rows — is copied under one
        hold of the lock, and the derived fields (the hit and coalesce
        rates, the family percentiles) are computed from that copy.

        Every container in the document is a **defensive copy**:
        mutating a snapshot never writes through to live state, and
        live updates never mutate an already-returned snapshot — both
        directions are regression-tested, since the history collector
        and the HTTP exporter hold snapshots across threads.
        """
        with self._lock:
            values = {
                metric.attr: (
                    dict(getattr(self, metric.attr))
                    if metric.label is not None
                    else getattr(self, metric.attr)
                )
                for metric in _STATE
            }
            latencies = {
                algo: list(samples)
                for algo, samples in self._latency_ms.items()
            }
            overall = list(self._latency_all)
            families = self._copy_families_locked()
        out: Dict[str, Any] = {}
        for metric in METRICS:
            node = out
            for key in metric.keys[:-1]:
                node = node.setdefault(key, {})
            node[metric.keys[-1]] = (
                metric.derive(values)
                if metric.derive is not None
                else values[metric.attr]
            )
        out["by_family"] = self._family_document(families)
        out["latency_ms"] = {
            algo: {
                f"p{int(q)}": percentile(samples, q)
                for q in self.PERCENTILES
            }
            for algo, samples in latencies.items()
        }
        out["latency_overall_ms"] = {
            f"p{int(q)}": percentile(overall, q)
            for q in self.OVERALL_PERCENTILES
        }
        return out
