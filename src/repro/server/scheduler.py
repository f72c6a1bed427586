"""BatchScheduler — coalesce concurrent queries onto shared engine passes.

The paper's progressive order is what makes coalescing *correct*: the
result sequence for a ``(graph, gamma, algorithm, delta)`` family does
not depend on ``k`` — ``k`` only truncates it.  So when N queries of the
same family are in flight at once, ONE engine pass at ``max(k)``
satisfies all of them; every waiter gets its own prefix slice, byte-for-
byte identical to what a serial execution would have returned.

Batching strategy is *batch-while-busy* (no artificial latency by
default): the first arrival for an idle family dispatches immediately;
queries arriving before that pass completes (in the same loop turn,
or while it waits on a shard) accumulate and are flushed together the
moment it finishes.  Under serial traffic every batch has width 1 and
nothing is delayed; under concurrent load batch width grows with
pressure and each engine pass (= at most one cursor advance) amortises
across the whole batch.  An optional ``window_s``
adds a deliberate collection pause for throughput-tuned deployments.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..api.spec import FamilyKey, QuerySpec
from ..obs.trace import Span, Tracer
from ..service.engine import QueryEngine
from ..service.metrics import ServiceMetrics, family_label
from ..service.model import QueryResult
from .shards import ShardPool

__all__ = ["CoalesceStats", "BatchScheduler"]

#: Source tag for queries served by slicing another query's engine pass.
COALESCED = "coalesced"


@dataclass
class CoalesceStats:
    """Scheduler-side counters (``batches`` == engine passes, which for
    progressive plans bounds the number of cursor advances)."""

    batches: int = 0
    queries: int = 0
    max_width: int = 0

    def record(self, width: int) -> None:
        self.batches += 1
        self.queries += width
        if width > self.max_width:
            self.max_width = width


class BatchScheduler:
    """Funnel async query submissions into coalesced engine executions.

    Parameters
    ----------
    engine:
        The (thread-safe) query engine; ``shards`` runs each pass.
    shards:
        Worker pool routing by graph name.
    metrics:
        Optional shared metrics sink (batch widths, queue depth, and a
        per-waiter ``observe_query`` for coalesced followers).
    max_batch:
        Upper bound on queries flushed per engine pass.
    window_s:
        Optional collection pause before the first flush of an idle
        family (0 = dispatch immediately, coalescing only under load).
    tracer:
        Optional :class:`~repro.obs.trace.Tracer`.  When the transport
        handed :meth:`submit` a span, the batch records a ``scheduler``
        child span under the *lead* waiter's trace, and every coalesced
        follower's own trace gets a ``coalesced`` span tagged with the
        leader's trace id — the cross-trace link that explains where a
        follower's latency actually went.
    """

    def __init__(
        self,
        engine: QueryEngine,
        shards: ShardPool,
        metrics: Optional[ServiceMetrics] = None,
        max_batch: int = 64,
        window_s: float = 0.0,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if window_s < 0:
            raise ValueError("window_s must be non-negative")
        self.engine = engine
        self.shards = shards
        self.metrics = metrics
        self.max_batch = max_batch
        self.window_s = window_s
        self.tracer = tracer
        self.stats = CoalesceStats()
        self._pending: Dict[
            FamilyKey,
            List[
                Tuple[
                    QuerySpec,
                    "asyncio.Future[QueryResult]",
                    Optional[Span],
                ]
            ],
        ] = {}
        self._draining: Set[FamilyKey] = set()
        # Strong references: the event loop only holds weak refs to
        # fire-and-forget tasks, and a GC'd drain task would strand every
        # waiter of its family forever.
        self._drain_tasks: Set["asyncio.Task[None]"] = set()

    # ------------------------------------------------------------------
    def key_for(self, query: QuerySpec) -> FamilyKey:
        """The coalescing key: the spec's canonical cache identity
        (``auto`` algorithm resolved)."""
        return query.cache_key()

    @property
    def queue_depth(self) -> int:
        return sum(len(waiters) for waiters in self._pending.values())

    def pending_by_family(self) -> Dict[str, int]:
        """Waiters per family label, for the history collector's gauges.

        Called from the collector's thread while the event loop mutates
        ``_pending``; ``list(dict.items())`` is atomic under the GIL, so
        this sees a coherent point-in-time copy without locking.
        """
        return {
            family_label(key): len(waiters)
            for key, waiters in list(self._pending.items())
        }

    async def submit(
        self, query: QuerySpec, span: Optional[Span] = None
    ) -> QueryResult:
        """Serve one query, sharing an engine pass with concurrent peers."""
        key = self.key_for(query)
        future: "asyncio.Future[QueryResult]" = (
            asyncio.get_running_loop().create_future()
        )
        self._pending.setdefault(key, []).append((query, future, span))
        if self.metrics is not None:
            self.metrics.observe_queue_depth(self.queue_depth)
        if key not in self._draining:
            self._draining.add(key)
            task = asyncio.ensure_future(self._drain(key))
            self._drain_tasks.add(task)
            task.add_done_callback(self._drain_tasks.discard)
        return await future

    # ------------------------------------------------------------------
    async def _drain(self, key: FamilyKey) -> None:
        """Flush ``key``'s pending queries until none remain."""
        try:
            if self.window_s > 0:
                await asyncio.sleep(self.window_s)
            while True:
                waiters = self._pending.get(key)
                if not waiters:
                    break
                batch = waiters[: self.max_batch]
                self._pending[key] = waiters[self.max_batch:]
                if self.metrics is not None:
                    self.metrics.observe_queue_depth(self.queue_depth)
                await self._run_batch(key, batch)
        finally:
            # No awaits between the emptiness check above and here, so a
            # new arrival either saw us in _draining (and enqueued) or
            # will start its own drain after the discard.
            self._draining.discard(key)
            if not self._pending.get(key):
                self._pending.pop(key, None)

    async def _run_batch(
        self,
        key: FamilyKey,
        batch: List[
            Tuple[QuerySpec, "asyncio.Future[QueryResult]", Optional[Span]]
        ],
    ) -> None:
        k_max = max(query.k for query, _, _ in batch)
        # The lead is a position, not a spec: two waiters may hold one
        # QuerySpec object, and only the lead's own waiter is served
        # the engine's result.
        lead_at = next(
            idx for idx, (query, _, _) in enumerate(batch) if query.k == k_max
        )
        lead, _, lead_span = batch[lead_at]
        tracer = self.tracer
        bspan = (
            tracer.start_span("scheduler", lead_span, width=len(batch))
            if tracer is not None and lead_span is not None
            else None
        )
        # Cross-trace links: each traced follower's own trace records a
        # "coalesced" span covering its wait on the lead's engine pass,
        # tagged with the leader's trace id — the follower's latency is
        # explained without dumping the leader's trace.
        coalesced: Dict[int, Span] = {}
        if tracer is not None:
            for idx, (_, _, span) in enumerate(batch):
                if idx != lead_at and span is not None:
                    coalesced[idx] = tracer.start_span(
                        "coalesced",
                        span,
                        leader=(
                            lead_span.trace_id
                            if lead_span is not None
                            else "untraced"
                        ),
                        width=len(batch),
                    )
        started = time.perf_counter()
        try:
            # The pool runs the engine on the loop when it can, else
            # on the spec graph's shard.
            result = await self.shards.execute_spec(
                self.engine, lead, span=bspan if bspan is not None else lead_span
            )
        except Exception as exc:  # noqa: BLE001 — propagate to every waiter
            if bspan is not None:
                tracer.end(bspan, error=type(exc).__name__)
            for idx, (_, future, _) in enumerate(batch):
                cspan = coalesced.get(idx)
                if cspan is not None:
                    tracer.end(cspan, error=type(exc).__name__)
                if not future.done():
                    future.set_exception(exc)
            return
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        if bspan is not None:
            tracer.end(bspan, k_max=k_max, source=result.source)
        self.stats.record(len(batch))
        if self.metrics is not None:
            self.metrics.observe_batch(len(batch))
        for idx, (query, future, span) in enumerate(batch):
            cspan = coalesced.get(idx)
            if cspan is not None:
                tracer.end(cspan, source=COALESCED)
            if future.done():  # waiter went away (connection dropped)
                continue
            if idx == lead_at:
                future.set_result(result)
            else:
                future.set_result(self._slice(result, query))
                if self.metrics is not None:
                    self.metrics.observe_query(
                        result.algorithm,
                        elapsed_ms,
                        COALESCED,
                        kernel=result.kernel,
                        family=key,
                    )

    @staticmethod
    def _slice(result: QueryResult, query: QuerySpec) -> QueryResult:
        """A follower's view of the lead's result: its own k-prefix."""
        views = result.communities[: query.k]
        return QueryResult(
            query=query,
            algorithm=result.algorithm,
            graph_version=result.graph_version,
            communities=views,
            source=COALESCED,
            elapsed_ms=result.elapsed_ms,
            complete=result.complete and query.k >= len(result.communities),
            plan_reason=(
                "coalesced onto a concurrent batch sharing "
                "(graph, gamma, algorithm, delta)"
            ),
            kernel=result.kernel,
        )
