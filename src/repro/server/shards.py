"""ShardPool — per-graph worker threads for the work the loop must not run.

A progressive query — a LocalSearch-P cold fill, a cursor extension or
a cache hit — is served on the event loop itself
(:meth:`ShardPool.execute_spec` calls
:meth:`~repro.service.engine.QueryEngine.execute` with
``on_loop=True``).  Its cost is linear in the prefix it touches
(Theorem 3.3), a millisecond or two on the served graphs, far below
the interpreter's 5 ms GIL switch interval: a shard thread would give
the loop no turn during such a query, yet the thread hop costs more
than a hit.  The loop takes the cache and entry locks only
non-blocking, so it never waits on a mutation, compaction or snapshot
holding them.  What goes to a shard is the work that is unbounded or
must wait: graph builds (and a fresh build's core decomposition),
the non-progressive algorithms (onlineall, forward, truss, ...), and
any query whose cache or entry lock is busy.  For that work the pool
gives each shard a single-threaded executor and routes by graph name
(stable CRC32 hash), so

* work against one graph serialises on that graph's shard;
* work against *different* graphs lands on different shards and never
  blocks each other;
* **hot graphs** can be replicated onto several consecutive shards
  (:meth:`ShardPool.replicate`) so a hot graph's shard-bound work —
  builds and whole-graph algorithms — spreads across replicas.
  Dispatch **prefers an idle replica**: the base rotation is
  round-robin, but when the rotation's choice is mid-job and a twin
  sits idle, the work is steered to the idle twin instead (counted in
  ``ServiceMetrics.replica_idle_dispatches``).  Replicas share the one
  immutable graph object, whose own ``N>=``/``N<`` rows the peel
  kernels read — replication adds workers, not memory.

Shards are *threads*: they keep the loop responsive but are GIL-bound.
This pool is the server's one execution path.  Worker processes would
not pay: a cold LocalSearch-P query costs less in process than one
pipe round trip to another process would.
"""

from __future__ import annotations

import asyncio
import zlib
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Callable, Dict, List, Mapping, Optional, TypeVar

from ..obs.trace import use_span

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api.spec import QuerySpec
    from ..obs.trace import Span
    from ..service.engine import QueryEngine
    from ..service.metrics import ServiceMetrics
    from ..service.model import QueryResult

__all__ = ["ShardPool"]

T = TypeVar("T")


class ShardPool:
    """Route unbounded graph work onto per-shard worker threads.

    Parameters
    ----------
    num_shards:
        Number of single-threaded executors.  One per expected
        concurrently-hot graph is plenty; shards are cheap (one thread).
    replication:
        Optional ``{graph_name: copies}`` seed — equivalent to calling
        :meth:`replicate` per entry.
    metrics:
        Optional sink for routing counters (idle-replica steals).
    """

    def __init__(
        self,
        num_shards: int = 1,
        replication: Optional[Mapping[str, int]] = None,
        thread_name_prefix: str = "repro-shard",
        metrics: Optional["ServiceMetrics"] = None,
    ) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be at least 1")
        self._executors = [
            ThreadPoolExecutor(
                max_workers=1, thread_name_prefix=f"{thread_name_prefix}-{i}"
            )
            for i in range(num_shards)
        ]
        self.metrics = metrics
        self._replication: Dict[str, int] = {}
        self._rr: Dict[str, int] = defaultdict(int)
        self._depth = [0] * num_shards
        self._shut_down = False
        for name, copies in dict(replication or {}).items():
            self.replicate(name, copies)

    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return len(self._executors)

    def replicate(self, graph: str, copies: int) -> None:
        """Serve ``graph`` from ``copies`` consecutive shards, round-robin."""
        if not 1 <= copies <= self.num_shards:
            raise ValueError(
                f"replication for {graph!r} must be in [1, {self.num_shards}]"
            )
        self._replication[graph] = copies

    def home_shard(self, graph: str) -> int:
        """The graph's base shard (stable across processes: CRC32)."""
        return zlib.crc32(graph.encode("utf-8")) % self.num_shards

    def route(self, graph: str) -> int:
        """The shard index the *next* unit of work for ``graph`` goes to.

        Unreplicated graphs stay pinned to their home shard.  Replicated
        graphs rotate round-robin, **except** when the rotation's choice
        is busy and another replica is idle: the dispatch then steals
        the first idle replica (in rotation order), so load skew from
        long advances cannot stack queued work behind one replica while
        its twin does nothing.
        """
        base = self.home_shard(graph)
        copies = self._replication.get(graph, 1)
        if copies <= 1:
            return base
        turn = self._rr[graph]
        self._rr[graph] = turn + 1
        candidates = [
            (base + (turn + i) % copies) % self.num_shards
            for i in range(copies)
        ]
        chosen = candidates[0]
        if self._depth[chosen] > 0:
            for candidate in candidates[1:]:
                if self._depth[candidate] == 0:
                    chosen = candidate
                    if self.metrics is not None:
                        self.metrics.observe_replica_idle_dispatch()
                    break
        return chosen

    # ------------------------------------------------------------------
    async def run(self, graph: str, fn: Callable[[], T]) -> T:
        """Run ``fn`` on ``graph``'s shard; await the result."""
        if self._shut_down:
            raise RuntimeError("shard pool is shut down")
        index = self.route(graph)
        self._depth[index] += 1
        try:
            return await asyncio.get_running_loop().run_in_executor(
                self._executors[index], fn
            )
        finally:
            self._depth[index] -= 1

    async def execute_spec(
        self,
        engine: "QueryEngine",
        spec: "QuerySpec",
        span: Optional["Span"] = None,
    ) -> "QueryResult":
        """Serve one spec: on the loop when it can be, else on its shard.

        The scheduler's one execution call.  One engine pass runs
        right here (``engine.execute(spec, on_loop=True)``, no thread
        hop): it serves every progressive query of a built graph,
        cold, extending or hit, and a static query whose answer is
        cached.  It answers ``None`` for a graph build, an uncached
        static algorithm or a busy cache or entry lock, and that query
        then runs on the spec graph's shard.  The upstream span is
        entered explicitly on both paths (``run_in_executor`` does not
        copy contextvars); a ``None`` span still maps to
        :data:`~repro.obs.trace.NO_TRACE` so an untraced server query
        never mints a second root inside the engine.
        """
        if self._shut_down:
            raise RuntimeError("shard pool is shut down")
        with use_span(span):
            result = engine.execute(spec, on_loop=True)
        if result is not None:
            return result

        def traced() -> "QueryResult":
            with use_span(span):
                return engine.execute(spec)

        return await self.run(spec.graph, traced)

    def depths(self) -> List[int]:
        """In-flight work per shard (event-loop-thread view)."""
        return list(self._depth)

    def shutdown(self, wait: bool = True) -> None:
        """Stop all shard executors (idempotent)."""
        self._shut_down = True
        for executor in self._executors:
            executor.shutdown(wait=wait)

