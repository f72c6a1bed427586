"""Service metrics — counters and latency percentiles for the serving layer.

Pure in-process instrumentation (no external dependency): monotonically
increasing counters (queries served, per-source/backend breakdown,
session lifecycle), a bounded latency reservoir per algorithm, and
nearest-rank percentiles over it.  Since PR 4 one canonical query
identity exists (:meth:`repro.api.spec.QuerySpec.cache_key`), so the
sink can also aggregate **per family**: :meth:`ServiceMetrics.by_family`
reports hit rate and p50/p95 latency per
:class:`~repro.api.spec.FamilyKey` — the spec-addressed observability
the shell's ``metrics`` command surfaces in text and JSON modes.  The
cluster tier (:mod:`repro.cluster`) adds placement counters: per-worker
dispatches and queue depths, segment attach counts, worker restarts,
and a ``by_backend`` split of thread- vs process-served queries.

``snapshot()`` returns a plain dict so the shell's ``metrics`` command
and tests can consume it directly.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict, defaultdict, deque
from typing import Deque, Dict, Iterable, Optional

__all__ = ["percentile", "family_label", "ServiceMetrics"]


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


class _FamilyStats:
    """Per-family counters + bounded latency reservoir."""

    __slots__ = ("queries", "no_compute", "latency_ms", "phases")

    #: Sources that served without a fresh computation (mirrors
    #: :attr:`ServiceMetrics.cache_hit_rate`'s numerator).
    HIT_SOURCES = frozenset({"cache", "extended", "coalesced"})

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
        if source in self.HIT_SOURCES:
            self.no_compute += 1
        self.latency_ms.append(elapsed_ms)
        if phases:
            self.phases = dict(phases)


class ServiceMetrics:
    """Thread-safe counters + per-algorithm latency reservoirs.

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
        self.queries_served = 0
        self.by_source: Dict[str, int] = defaultdict(int)
        self.by_algorithm: Dict[str, int] = defaultdict(int)
        self.by_kernel: Dict[str, int] = defaultdict(int)
        #: Queries by execution backend: ``thread`` = the in-process
        #: engine (stdio shell, thread shards, parent-side cache hits
        #: under the cluster backend), ``process`` = cluster workers.
        self.by_backend: Dict[str, int] = defaultdict(int)
        self._latency_ms: Dict[str, Deque[float]] = {}
        #: Global latency reservoir across every algorithm — one pooled
        #: p95 gauge for SLO evaluation and the dashboard.
        self._latency_all: Deque[float] = deque(maxlen=max_samples)
        self._families: "OrderedDict[object, _FamilyStats]" = OrderedDict()
        #: Cumulative queries per graph name.  One integer per
        #: *registered* graph (naturally bounded), so — unlike the
        #: LRU-bounded family table — it never evicts: the control
        #: plane's per-graph demand signal stays exact no matter how
        #: many distinct families churn through the window.
        self.by_graph: Dict[str, int] = defaultdict(int)
        self.sessions_opened = 0
        self.sessions_closed = 0
        self.sessions_expired = 0
        self.errors = 0
        #: Errors by exception type name (``observe_error(kind=...)``).
        self.by_error: Dict[str, int] = defaultdict(int)
        # Server tier (repro.server): connection lifecycle, batch
        # coalescing, and scheduler queue pressure.
        self.connections_opened = 0
        self.connections_closed = 0
        self.batches = 0
        self.batched_queries = 0
        self.max_batch_width = 0
        self.queue_depth = 0
        self.queue_depth_peak = 0
        #: Replicated-shard dispatches steered to an idle replica in
        #: preference to a busy round-robin choice.
        self.replica_idle_dispatches = 0
        # Cluster tier (repro.cluster): placement + segment lifecycle.
        self.by_worker: Dict[str, int] = defaultdict(int)
        self.segment_attaches: Dict[str, int] = defaultdict(int)
        self.worker_restarts = 0
        self.cluster_depth: Dict[str, int] = {}
        self.cluster_depth_peak = 0
        # Live tier (repro.live): streaming mutations + scoped
        # invalidation + delta-chain compaction.
        self.mutations_applied = 0
        self.families_invalidated = 0
        self.families_preserved = 0
        self.compactions = 0
        #: Current graph generation (version) per mutated graph — the
        #: segment-generation gauge the Prometheus exporter reports.
        self.graph_generation: Dict[str, int] = {}
        # Control tier (repro.control): applied controller decisions by
        # policy name, and admission rejections by tenant label.
        self.control_decisions: Dict[str, int] = defaultdict(int)
        self.admission_rejected: Dict[str, int] = defaultdict(int)

    # ------------------------------------------------------------------
    def observe_query(
        self,
        algorithm: str,
        elapsed_ms: float,
        source: str,
        kernel: Optional[str] = None,
        family=None,
        backend: Optional[str] = None,
        worker: Optional[str] = None,
        phases: Optional[Dict[str, float]] = None,
    ) -> None:
        """Record one served query.

        ``kernel`` is the peel kernel used, ``family`` the spec's
        canonical :class:`~repro.api.spec.FamilyKey`, ``backend`` the
        execution backend (``None`` counts as ``thread``), ``worker``
        the serving cluster worker tag, if any; ``phases`` the query's
        kernel-phase timing accumulator (``{phase: ms}``, the
        ``SearchStats.phases`` dict) — ``None`` leaves the family's
        previous breakdown in place (pure cache hits do no kernel work).
        """
        with self._lock:
            self.queries_served += 1
            self.by_source[source] += 1
            self.by_algorithm[algorithm] += 1
            self.by_backend[backend if backend is not None else "thread"] += 1
            if kernel is not None:
                self.by_kernel[kernel] += 1
            if worker is not None:
                self.by_worker[worker] += 1
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

    # -- cluster tier ---------------------------------------------------
    def observe_segment_attach(self, mode: str) -> None:
        """A worker attached a graph (``mode`` = ``shm`` / ``pickle``)."""
        with self._lock:
            self.segment_attaches[mode] += 1

    def observe_worker_restart(self) -> None:
        with self._lock:
            self.worker_restarts += 1

    def observe_cluster_depth(self, worker: str, depth: int) -> None:
        """Record one worker's queued + in-flight job count."""
        with self._lock:
            self.cluster_depth[worker] = depth
            if depth > self.cluster_depth_peak:
                self.cluster_depth_peak = depth

    # -- control tier ---------------------------------------------------
    def observe_control_decision(self, policy: str) -> None:
        """The adaptive controller applied one decision of ``policy``."""
        with self._lock:
            self.control_decisions[policy] += 1

    def observe_admission_rejected(self, tenant: Optional[str]) -> None:
        """Admission control refused a query (``None`` = anonymous)."""
        with self._lock:
            self.admission_rejected[tenant if tenant else "-"] += 1

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
            # .get (never index) — by_source is a defaultdict, and a
            # *read* must not insert zero-count keys into snapshots.
            served = sum(
                self.by_source.get(s, 0)
                for s in ("cache", "extended", "cold", "coalesced")
            )
            if not served:
                return 0.0
            return (
                self.by_source.get("cache", 0)
                + self.by_source.get("extended", 0)
                + self.by_source.get("coalesced", 0)
            ) / served

    @property
    def coalesce_rate(self) -> float:
        """Fraction of scheduler-served queries that shared another
        query's engine pass (0.0 when batching never ran)."""
        with self._lock:
            if not self.batched_queries:
                return 0.0
            return 1.0 - self.batches / self.batched_queries

    def latency_percentiles(self, algorithm: str) -> Dict[str, Optional[float]]:
        """``{"p50": ..., "p90": ..., "p99": ...}`` for one algorithm."""
        with self._lock:
            samples = list(self._latency_ms.get(algorithm, ()))
        return {
            f"p{int(q)}": percentile(samples, q) for q in self.PERCENTILES
        }

    def overall_latency(self) -> Dict[str, Optional[float]]:
        """Pooled p50/p95/p99 over the global reservoir (all algorithms)."""
        with self._lock:
            samples = list(self._latency_all)
        return {
            f"p{int(q)}": percentile(samples, q)
            for q in self.OVERALL_PERCENTILES
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
            rows = [
                (
                    family,
                    stats.queries,
                    stats.no_compute,
                    list(stats.latency_ms),
                    dict(stats.phases) if stats.phases else {},
                )
                for family, stats in self._families.items()
            ]
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

        Every container in the document is a **defensive copy** built
        under the lock (``by_error``, the cluster depth dicts, the
        family rows, the latency tables): mutating a snapshot never
        writes through to live state, and live updates never mutate an
        already-returned snapshot — both directions are regression-
        tested, since the history collector and the HTTP exporter hold
        snapshots across threads.
        """
        with self._lock:
            latencies = {
                algo: list(samples)
                for algo, samples in self._latency_ms.items()
            }
            overall = list(self._latency_all)
            cluster = {
                "by_worker": dict(self.by_worker),
                "segment_attaches": dict(self.segment_attaches),
                "worker_restarts": self.worker_restarts,
                "queue_depth": dict(self.cluster_depth),
                "queue_depth_peak": self.cluster_depth_peak,
            }
            control = {
                "decisions": dict(self.control_decisions),
                "admission_rejected": dict(self.admission_rejected),
            }
            live = {
                "mutations_applied": self.mutations_applied,
                "families_invalidated": self.families_invalidated,
                "families_preserved": self.families_preserved,
                "compactions": self.compactions,
                "graph_generation": dict(self.graph_generation),
            }
            out: Dict[str, object] = {
                "queries_served": self.queries_served,
                "by_source": dict(self.by_source),
                "by_algorithm": dict(self.by_algorithm),
                "by_kernel": dict(self.by_kernel),
                "by_backend": dict(self.by_backend),
                "by_graph": dict(self.by_graph),
                "sessions_opened": self.sessions_opened,
                "sessions_closed": self.sessions_closed,
                "sessions_expired": self.sessions_expired,
                "errors": self.errors,
                "by_error": dict(self.by_error),
                "server": {
                    "connections_opened": self.connections_opened,
                    "connections_closed": self.connections_closed,
                    "batches": self.batches,
                    "batched_queries": self.batched_queries,
                    "max_batch_width": self.max_batch_width,
                    "queue_depth": self.queue_depth,
                    "queue_depth_peak": self.queue_depth_peak,
                    "replica_idle_dispatches": self.replica_idle_dispatches,
                },
            }
        out["cluster"] = cluster
        out["live"] = live
        out["control"] = control
        out["server"]["coalesce_rate"] = self.coalesce_rate  # type: ignore[index]
        out["cache_hit_rate"] = self.cache_hit_rate
        out["by_family"] = self.by_family()
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
