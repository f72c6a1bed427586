"""QueryEngine — plan, dispatch, cache, and measure top-k queries.

The engine is the service layer's front door: it resolves a
:class:`~repro.api.spec.QuerySpec` against the
:class:`~repro.service.registry.GraphRegistry`, plans which algorithm to
run (the spec's canonical resolution: ``"auto"`` picks LocalSearch-P —
instance-optimal, progressive, and, crucially for a serving layer,
*resumable* — unless the spec's ``cohesion``/``containment`` fields say
otherwise), consults the :class:`~repro.service.cache.ResultCache`
keyed by the spec's :meth:`~repro.api.spec.QuerySpec.cache_key`, and
normalises whatever the algorithm returns into a serializable
:class:`~repro.service.model.QueryResult`, recording latency and cache
provenance in :class:`~repro.service.metrics.ServiceMetrics`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from ..api.spec import AUTO, KERNEL_ALGORITHMS, QuerySpec
from ..baselines import backward, forward, online_all
from ..core.fastpeel import resolve_kernel
from ..core.local_search import LocalSearch
from ..core.noncontainment import top_k_noncontainment_communities
from ..core.progressive import LocalSearchP, ProgressiveCursor
from ..core.truss_search import top_k_truss_communities
from ..graph.weighted_graph import WeightedGraph
from ..obs.trace import NO_TRACE, Tracer, current_span, use_span
from .cache import BUSY, CacheKey, ProgressiveEntry, ResultCache, StaticEntry
from .metrics import ServiceMetrics
from .model import CommunityView, ForestProjector, QueryResult
from .registry import GraphHandle, GraphRegistry

__all__ = ["QueryPlan", "QueryEngine", "progressive_cursor_factory"]

#: What a serve step yields: ``(views, source, complete, phases)``.
_Served = Tuple[
    Tuple[CommunityView, ...], str, bool, Optional[Dict[str, float]]
]


def progressive_cursor_factory(
    graph: WeightedGraph,
    gamma: int,
    delta: float,
    kernel: Optional[str] = None,
) -> Callable[[], ProgressiveCursor]:
    """The one recipe for (re)building a progressive cursor.

    Shared by the engine's hot path, the warm-start restore and the
    live-mutation cache migration, so a rebuilt cursor always re-peels
    with semantics identical to the one whose views it is extending.
    ``kernel=None`` defers to ``$REPRO_KERNEL``.  Each cursor's stream
    owns one :class:`~repro.core.fastpeel.PeelScratch` /
    :class:`~repro.core.fastenum.EnumScratch` pair, so every resume
    reuses the family's peel buffers and its EnumIC-P union-find.
    """

    def factory():
        return LocalSearchP(
            graph, gamma=gamma, delta=delta, kernel=kernel
        ).cursor()

    return factory


@dataclass(frozen=True)
class QueryPlan:
    """The planner's decision for one query."""

    algorithm: str
    progressive: bool
    reason: str


#: Non-progressive runners: (graph, spec, engine kernel) -> object
#: with ``.communities``.  onlineall and backward use their own peels;
#: truss takes the kernel for its union-find only, and like them
#: reports no kernel (see :data:`~repro.api.spec.KERNEL_ALGORITHMS`).
_STATIC_RUNNERS: Dict[
    str, Callable[[WeightedGraph, QuerySpec, Optional[str]], object]
] = {
    "localsearch": lambda g, q, kern: LocalSearch(
        g, gamma=q.gamma, delta=q.delta, kernel=kern
    ).search(q.k),
    "forward": lambda g, q, kern: forward(g, q.k, q.gamma, kernel=kern),
    "onlineall": lambda g, q, kern: online_all(g, q.k, q.gamma),
    "backward": lambda g, q, kern: backward(g, q.k, q.gamma),
    "truss": lambda g, q, kern: top_k_truss_communities(
        g, q.k, q.gamma, kernel=kern
    ),
    "noncontainment": lambda g, q, kern: top_k_noncontainment_communities(
        g, q.k, q.gamma, delta=q.delta, kernel=kern
    ),
}


class QueryEngine:
    """Serve :class:`QuerySpec` objects against long-lived graphs.

    Parameters
    ----------
    registry:
        Source of graph handles (built once, shared across queries).
    cache:
        Optional result cache; pass ``None`` to disable caching (every
        query is then a cold computation — used by tests/benchmarks as
        the baseline).
    metrics:
        Optional shared metrics sink.
    tracer:
        Optional :class:`~repro.obs.trace.Tracer`.  When an upstream
        layer (transport/scheduler/pool) already started a span for
        this query, execution records an ``engine`` child span; when no
        span is active at all (the stdio shell / facade path — the
        engine *is* the serving edge there), the tracer's sampling
        decides whether to mint a ``query`` root.  The
        :data:`~repro.obs.trace.NO_TRACE` sentinel marks "upstream
        sampled this query out": no span is recorded and no root is
        minted.

    The peel kernel is process configuration: the engine resolves
    ``$REPRO_KERNEL`` once, when it is built, into :attr:`kernel`, runs
    every kernel-dispatcher algorithm on it and reports it on each
    result.
    """

    def __init__(
        self,
        registry: GraphRegistry,
        cache: Optional[ResultCache] = None,
        metrics: Optional[ServiceMetrics] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.registry = registry
        self.cache = cache
        self.metrics = metrics
        self.tracer = tracer
        #: The resolved peel kernel every query of this engine runs on.
        self.kernel = resolve_kernel()
        #: Optional :class:`~repro.obs.profiling.OnDemandProfiler`.
        #: When armed, :meth:`_execute` routes through it so one live
        #: execution at a time is captured; unarmed cost is one
        #: attribute load per query.
        self.profiler = None
        # repro.live: migrate (don't drop) cached families across
        # mutation version flips.
        registry.add_mutation_hook(self._on_graph_mutated)

    # ------------------------------------------------------------------
    def _on_graph_mutated(self, event) -> None:
        """Mutation hook: scoped cache migration + live metrics.

        Runs inside :meth:`GraphRegistry.apply` / ``compact`` right
        after the atomic handle flip.  Each family's barrier is the
        largest weight among the batch's ops whose core level reaches
        its γ (``event.stats.levels``); families no op reaches, and
        those whose influence frontier sits above their barrier, are
        re-keyed to the new version with a cursor factory bound to the
        new graph; the rest are dropped (a session holding one keeps
        streaming the old generation).  A compaction keeps the graph,
        so each entry moves over as it is, live cursor included.
        Counts are attached to the event for the caller.
        """
        identical = event.kind == "compact"
        preserved = invalidated = 0
        if self.cache is not None:
            graph = event.handle.graph

            def factory_for(new_key: CacheKey):
                return progressive_cursor_factory(
                    graph, new_key.gamma, new_key.delta, kernel=self.kernel
                )

            preserved, invalidated = self.cache.migrate_graph(
                event.graph,
                event.old_version,
                event.new_version,
                event.barrier,
                identical=identical,
                levels=(
                    event.stats.levels if event.stats is not None else None
                ),
                progressive_factory=factory_for,
            )
            event.preserved += preserved
            event.invalidated += invalidated
        if self.metrics is not None:
            self.metrics.observe_mutation(
                event.graph,
                event.new_version,
                invalidated=invalidated,
                preserved=preserved,
                compaction=identical,
            )

    # ------------------------------------------------------------------
    def plan(self, query: QuerySpec) -> QueryPlan:
        """Resolve ``algorithm="auto"`` and classify the dispatch."""
        return self._plan(query, query.resolved_algorithm())

    @staticmethod
    def _plan(query: QuerySpec, algorithm: str) -> QueryPlan:
        """The plan for ``query`` given its already-resolved algorithm."""
        progressive = algorithm == "localsearch-p"
        if query.algorithm != AUTO:
            reason = "requested explicitly"
        elif progressive:
            reason = (
                "auto: LocalSearch-P is instance-optimal and its "
                "stream resumes, so cached answers extend to larger k"
            )
        else:
            reason = (
                f"auto: resolved to {algorithm!r} by the spec's "
                f"cohesion={query.cohesion!r} / "
                f"containment={query.containment!r}"
            )
        return QueryPlan(algorithm, progressive=progressive, reason=reason)

    # ------------------------------------------------------------------
    def progressive_entry(
        self, handle: GraphHandle, key: CacheKey,
        blocking: bool = True, resume: bool = True,
    ) -> Optional[ProgressiveEntry]:
        """The family's one progressive entry: the cached one, else a
        fresh one stored under ``key``.  Queries and sessions share it.

        ``None`` when a lock is busy (``blocking=False``), or when
        nothing is cached and ``resume=False`` forbids a new stream.
        """
        cache = self.cache
        entry = cache.get(key, blocking) if cache is not None else None
        if isinstance(entry, ProgressiveEntry):
            return entry
        if entry is BUSY or not resume:
            return None
        cursor_factory = progressive_cursor_factory(
            handle.graph, key.gamma, key.delta, kernel=self.kernel
        )
        entry = ProgressiveEntry(
            cursor_factory(),
            cursor_factory=cursor_factory,
            max_cached_k=cache.max_cached_k if cache is not None else None,
        )
        if cache is not None and not cache.put(key, entry, blocking):
            return None
        return entry

    def _serve_progressive(
        self,
        handle: GraphHandle,
        query: QuerySpec,
        key: CacheKey,
        blocking: bool,
        resume: bool,
    ) -> Optional[_Served]:
        entry = self.progressive_entry(handle, key, blocking, resume)
        if entry is None:
            return None
        served = entry.serve(query.k, blocking=blocking, resume=resume)
        if served is None:
            return None
        return served + (_cursor_phases(entry),)

    def _serve_static(
        self,
        handle: GraphHandle,
        query: QuerySpec,
        key: CacheKey,
        algorithm: str,
        blocking: bool,
    ) -> Optional[_Served]:
        cache = self.cache
        entry = cache.get(key, blocking) if cache is not None else None
        hit = _static_hit(entry, query.k)
        if hit is not None or not blocking:
            return hit
        result = _STATIC_RUNNERS[algorithm](handle.graph, query, self.kernel)
        views = tuple(map(ForestProjector().view, result.communities))
        stats = getattr(result, "stats", None)
        stats_phases = getattr(stats, "phases", None)
        phases = dict(stats_phases) if stats_phases else None
        complete = len(views) < query.k
        if cache is not None:
            cache.put(
                key, StaticEntry.capped(views, complete, cache.max_cached_k)
            )
        return views[: query.k], "cold", complete, phases

    # ------------------------------------------------------------------
    def execute(
        self, query: QuerySpec, *, on_loop: bool = False
    ) -> Optional[QueryResult]:
        """Serve one query end to end.

        With ``on_loop=True`` this is the event loop's entry point.  It
        never builds a graph, never waits on a lock another thread can
        hold and never runs a whole-graph pass: it serves a progressive
        query in full (hit, cursor extension or cold fill, each bounded
        by the prefix LocalSearch-P touches) and a static query only if
        its cached entry covers ``k``.  It returns ``None`` — having
        recorded nothing — when the graph is not built, its core table
        is not built yet (a cache hit is still served), a static answer
        is not cached, or a cache or entry lock is busy; the caller then
        runs the plain :meth:`execute` off the loop.  A query served
        here is recorded exactly like one served by the plain call
        (cache and metrics counters, family phases, the ``engine`` span,
        the profiler), except that with no upstream span it mints no
        trace root: the plain call makes the sampling decision.
        """
        return self._run(query, blocking=not on_loop)

    def _run(self, query: QuerySpec, blocking: bool) -> Optional[QueryResult]:
        """Trace one execution: an ``engine`` child span under an
        upstream span, else (blocking path only) a sampled ``query``
        root."""
        tracer = self.tracer
        if tracer is None:
            return self._execute(query, blocking)
        parent = current_span()
        if parent is NO_TRACE:
            span = None  # upstream sampled this query out
        elif parent is not None:
            span = tracer.start_span("engine", parent)
        elif not blocking:
            span = None
        else:
            # No serving layer above us: the engine is the edge, and
            # the sampling decision is made (once) here.  Tags attach
            # only after the sampling decision — the unsampled path must
            # not pay for a kwargs dict it will throw away.
            span = tracer.maybe_start("query")
            if span is not None:
                span.annotate(graph=query.graph)
        if span is None:
            return self._execute(query, blocking)
        with use_span(span):
            try:
                result = self._execute(query, blocking)
            except Exception as exc:
                tracer.end(span, error=type(exc).__name__)
                raise
        if result is None:
            # Not served here: the child span is dropped unrecorded
            # (spans only reach their trace when ended) and the
            # blocking path retries.
            return None
        tracer.end(
            span,
            graph=query.graph,
            k=query.k,
            gamma=query.gamma,
            algorithm=result.algorithm,
            source=result.source,
            kernel=result.kernel,
            elapsed_ms=round(result.elapsed_ms, 4),
        )
        return result

    def _execute(
        self, query: QuerySpec, blocking: bool
    ) -> Optional[QueryResult]:
        """Dispatch to the execution body, via the profiler when armed."""
        profiler = self.profiler
        if profiler is not None:
            return profiler.profile_call(self._execute_impl, query, blocking)
        return self._execute_impl(query, blocking)

    def _execute_impl(
        self, query: QuerySpec, blocking: bool
    ) -> Optional[QueryResult]:
        """The untraced execution body (plan → cache → run → record).

        Without ``blocking`` the graph handle is only peeked and the
        cache and entry locks are only tried.
        """
        started = time.perf_counter()
        # ONE handle read per query: graph, version, cache key and the
        # result's graph_version all derive from this single immutable
        # reference, so a concurrent mutation/compaction flip can never
        # produce a mixed-version answer (the flip only swaps the
        # entry's handle reference; this one stays pinned).
        if blocking:
            handle = self.registry.get(query.graph)
            resume = True
        else:
            handle = self.registry.peek(query.graph)
            if handle is None:  # unknown or unbuilt: never build here
                return None
            # A first search of a fresh build decomposes the whole
            # graph for its core stop; that pass stays off the loop.
            resume = handle.graph.core_table_built
        # ONE spec resolution per query: the canonical family keys the
        # cache, plans the dispatch and labels the metrics row.
        family = query.cache_key()
        key = CacheKey.for_family(family, handle.version)
        plan = self._plan(query, family.algorithm)
        kernel = self.kernel if plan.algorithm in KERNEL_ALGORITHMS else None
        if plan.progressive:
            served = self._serve_progressive(
                handle, query, key, blocking, resume
            )
        else:
            served = self._serve_static(
                handle, query, key, plan.algorithm, blocking
            )
        if served is None:
            return None
        views, source, complete, phases = served
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        if self.cache is not None:
            self.cache.record(source)
        if self.metrics is not None:
            self.metrics.observe_query(
                plan.algorithm,
                elapsed_ms,
                source,
                kernel=kernel,
                family=family,
                phases=phases,
            )
        return QueryResult(
            query=query,
            algorithm=plan.algorithm,
            graph_version=handle.version,
            communities=views,
            source=source,
            elapsed_ms=elapsed_ms,
            complete=complete,
            plan_reason=plan.reason,
            kernel=kernel,
        )


def _cursor_phases(entry: ProgressiveEntry) -> Optional[Dict[str, float]]:
    """The family cursor's cumulative kernel-phase timings, if any.

    Snapshot after a serve, so the metrics row carries the family's
    lifetime peel/enumerate breakdown.  The cursor is ``None`` after
    k-truncation released it (or for a restored entry that never
    resumed): no fresh timing then.
    """
    cursor = entry.cursor
    if cursor is None or not cursor.searcher.stats.phases:
        return None
    return dict(cursor.searcher.stats.phases)


def _static_hit(entry, k: int) -> Optional[_Served]:
    """A static entry's answer for ``k`` if it covers it (lock-free;
    ``None`` for anything else, :data:`~repro.service.cache.BUSY`
    included)."""
    if not isinstance(entry, StaticEntry):
        return None
    served = entry.serve(k)
    if served is None:
        return None
    views, source = served
    return views, source, entry.complete and k >= len(entry.views), None
