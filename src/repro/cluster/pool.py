"""ClusterPool — multi-process shard execution with family affinity.

:class:`~repro.server.shards.ShardPool` runs progressive queries on
the event loop and the rest on shard *threads*: under CPython's GIL,
N queries peeling N graphs still progress one bytecode at a time.  ClusterPool
promotes the same routing surface to worker **processes**:

* **family-affine dispatch** — work is routed by the spec's canonical
  :meth:`~repro.api.spec.QuerySpec.cache_key` (a
  :class:`~repro.api.spec.FamilyKey`), and the assignment is *sticky*:
  a progressive family always lands on the worker holding its live
  cursor, so coalesced ``extend_to`` advances stay one-pass exactly as
  they do in-process.  First placement prefers the least-loaded
  candidate among a graph's replicas; after that the cursor pins it.
* **shared-memory graphs** — each registered graph's CSR buffers are
  published once into a :mod:`~repro.cluster.segment` and every worker
  maps them zero-copy; platforms without shared memory fall back to
  pickling the graph down each worker's pipe once
  (``use_shared_memory=False`` forces the fallback for tests).
* **parent-side cache mirror** — every worker result is mirrored into
  the parent :class:`~repro.service.cache.ResultCache` as frozen views,
  so (a) repeat hits are served in-parent on the event loop, with no
  IPC and no executor hop, (b) warm-start
  snapshots keep working unchanged regardless of backend, and (c) a
  **restarted** worker is re-seeded from the mirror: the first job of a
  family carries the cached views and the fresh worker's rebuilt
  cursor resumes from them instead of re-peeling from scratch.
* **health + drain** — dead workers are detected on dispatch (and by
  explicit :meth:`health_check` pings), restarted, and re-seeded;
  :meth:`shutdown` drains in-flight jobs, stops workers, and unlinks
  every published segment (``/dev/shm`` entries outlive processes, so
  shutdown is the hard backstop against leaks).

The pool's async surface is :meth:`execute_spec`, shared with
ShardPool, which is all the :class:`~repro.server.scheduler.
BatchScheduler` needs — backend selection is one constructor swap in
:func:`repro.server.shards.create_pool`.
"""

from __future__ import annotations

import asyncio
import threading
import time
import zlib
from collections import OrderedDict
from dataclasses import replace
from typing import Dict, List, Mapping, Optional, Tuple

from ..api.spec import FamilyKey, QuerySpec
from ..errors import ClusterWorkerError, ServiceError
from ..obs.trace import Span, Tracer, current_span, use_span
from ..service.cache import (
    CacheKey,
    ProgressiveEntry,
    ResultCache,
    StaticEntry,
)
from ..service.engine import QueryEngine, progressive_cursor_factory
from ..service.metrics import ServiceMetrics
from ..service.model import QueryResult
from ..service.registry import GraphHandle, GraphRegistry
from .segment import SegmentHandle, SegmentStore, mp_start_method, shared_memory_available
from .worker import WorkerConfig, worker_main

__all__ = ["ClusterPool"]


class _Worker:
    """Parent-side bookkeeping for one worker process."""

    __slots__ = (
        "index",
        "process",
        "conn",
        "lock",
        "attached",
        "families",
        "depth",
        "dispatches",
        "restarts",
    )

    def __init__(self, index: int) -> None:
        self.index = index
        self.process = None
        self.conn = None
        self.lock = threading.Lock()
        self.attached: Dict[str, int] = {}  # graph name -> attached version
        #: Families this worker is believed to hold cursor state for,
        #: LRU-ordered.  Bounded by the pool to the worker's own cache
        #: size: once the worker's LRU would have evicted a family, the
        #: parent forgets it too and re-sends the seed (which the
        #: worker ignores if it does still hold the entry) — without
        #: the bound the two views diverge and stale "held" marks
        #: suppress the re-seed forever.
        self.families: "OrderedDict[FamilyKey, bool]" = OrderedDict()
        self.depth = 0
        self.dispatches = 0
        self.restarts = 0

    @property
    def tag(self) -> str:
        return f"worker:{self.index}"

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()


class ClusterPool:
    """Route :class:`QuerySpec` execution onto long-lived worker processes.

    Parameters
    ----------
    workers:
        Number of worker processes.
    registry:
        The parent graph registry — source of handles, versions, and the
        build hook that publishes segments eagerly.
    cache:
        Optional parent result cache for the mirror / re-seed / warm-
        start contract (strongly recommended in servers).  Its
        capacity is each worker's cache capacity too; without it the
        workers cache nothing.
    metrics:
        Optional shared metrics sink (per-worker dispatch counts and
        queue depths, segment attach counts, restarts, ``by_backend``).
    replication:
        ``{graph: copies}`` — candidate-worker fan-out for a graph's
        families at first placement (parity with ShardPool).
    use_shared_memory:
        Force the segment path on/off; ``None`` probes the platform.
    start_method:
        multiprocessing start method; ``None`` honours
        ``$REPRO_MP_START`` and then the platform default.
    job_timeout:
        Seconds a single worker job may run before the pool declares the
        worker wedged and restarts it.
    """

    def __init__(
        self,
        workers: int,
        registry: GraphRegistry,
        *,
        cache: Optional[ResultCache] = None,
        metrics: Optional[ServiceMetrics] = None,
        replication: Optional[Mapping[str, int]] = None,
        use_shared_memory: Optional[bool] = None,
        start_method: Optional[str] = None,
        job_timeout: float = 300.0,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if registry is None:
            raise ValueError("ClusterPool requires a graph registry")
        self.registry = registry
        self.cache = cache
        self.metrics = metrics
        self.tracer = tracer
        self.job_timeout = job_timeout
        self.use_shared_memory = (
            shared_memory_available()
            if use_shared_memory is None
            else use_shared_memory
        )
        self.start_method = (
            start_method if start_method is not None else mp_start_method()
        )
        self.store = SegmentStore()
        self._workers = [_Worker(i) for i in range(workers)]
        self._replication: Dict[str, int] = {}
        # Sticky family placements, LRU-bounded: an assignment evicted
        # here has been idle long enough that the worker-side cursor is
        # LRU-gone too, and the parent mirror re-seeds wherever the
        # family lands next.
        self._family_worker: "OrderedDict[FamilyKey, int]" = OrderedDict()
        self._max_routed_families = 4096
        self._route_lock = threading.Lock()
        self._publish_lock = threading.Lock()
        self._published: Dict[str, Tuple[int, SegmentHandle]] = {}
        self._started = False
        self._shut_down = False
        self._hook_registered = False
        for name, copies in dict(replication or {}).items():
            self.replicate(name, copies)

    # ------------------------------------------------------------------
    # surface parity with ShardPool
    # ------------------------------------------------------------------
    backend = "process"

    @property
    def num_shards(self) -> int:
        return len(self._workers)

    def replicate(self, graph: str, copies: int) -> None:
        """Fan a graph's *new* families over ``copies`` candidate workers."""
        if not 1 <= copies <= self.num_shards:
            raise ValueError(
                f"replication for {graph!r} must be in [1, {self.num_shards}]"
            )
        self._replication[graph] = copies

    def depths(self) -> List[int]:
        """Queued + in-flight jobs per worker (parent view)."""
        return [worker.depth for worker in self._workers]

    def liveness(self) -> Dict[str, bool]:
        """``{worker tag: alive}`` — a pure probe, unlike
        :meth:`health_check`, which restarts what it finds dead.
        Readiness checks call this so probing never mutates the pool.
        """
        return {worker.tag: worker.alive for worker in self._workers}

    @staticmethod
    def available(start_method: Optional[str] = None) -> bool:
        """True when worker processes can actually be created here."""
        try:
            import multiprocessing

            context = multiprocessing.get_context(
                start_method or mp_start_method()
            )
            parent, child = context.Pipe()
            parent.close()
            child.close()
        except (ImportError, OSError, ValueError):
            return False
        return True

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start_workers(self) -> None:
        """Spawn all worker processes (idempotent; also done lazily)."""
        if self._shut_down:
            raise RuntimeError("cluster pool is shut down")
        if self._started:
            return
        self._started = True
        if not self._hook_registered:
            # Publish eagerly whenever the registry (re)builds a graph:
            # workers attaching later find the segment already staged.
            add_hook = getattr(self.registry, "add_build_hook", None)
            if add_hook is not None:
                add_hook(self._on_graph_built)
                self._hook_registered = True
        for worker in self._workers:
            with worker.lock:
                if worker.process is None:
                    self._spawn(worker)

    def _spawn(self, worker: _Worker) -> None:
        """(Re)create one worker process (``worker.lock`` held)."""
        import multiprocessing
        import os

        if self._shut_down:
            # A shutdown racing an in-flight dispatch must never win a
            # fresh process (or re-publish a segment the store already
            # unlinked): fail the dispatch with a catchable service
            # error instead (the transport renders ReproErrors as clean
            # `error:` lines even while tearing down).
            raise ClusterWorkerError(
                worker.tag, "ShutDown", "cluster pool is shut down"
            )
        context = multiprocessing.get_context(self.start_method)
        parent_conn, child_conn = context.Pipe()
        config = WorkerConfig(
            worker_id=worker.index,
            cache_size=self.cache.capacity if self.cache is not None else None,
            max_cached_k=self.cache.max_cached_k if self.cache is not None else None,
            kernel_env=os.environ.get("REPRO_KERNEL"),
        )
        process = context.Process(
            target=worker_main,
            args=(child_conn, config),
            name=f"repro-cluster-{worker.index}",
            daemon=True,
        )
        process.start()
        child_conn.close()  # parent keeps only its end: EOF detection works
        worker.process = process
        worker.conn = parent_conn
        worker.attached = {}
        worker.families = OrderedDict()

    def warm(self, graph: str) -> None:
        """Attach ``graph`` on every worker, eagerly.

        Serving deployments call this at boot (and benchmarks before
        timing) so the one-time costs — segment publication, worker
        attach, per-worker adjacency-list rebuild — are paid before the
        first query instead of inside its latency.
        """
        self.start_workers()
        handle = self.registry.get(graph)
        for worker in self._workers:
            with worker.lock:
                if worker.process is None:
                    self._spawn(worker)
                self._ensure_attached(worker, handle)

    def _restart(self, worker: _Worker) -> None:
        """Replace a dead/wedged worker (``worker.lock`` held)."""
        process, conn = worker.process, worker.conn
        if conn is not None:
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
        if process is not None:
            process.terminate()
            process.join(timeout=2.0)
            if process.is_alive():  # pragma: no cover - stubborn child
                process.kill()
                process.join(timeout=2.0)
        worker.restarts += 1
        if self.metrics is not None:
            self.metrics.observe_worker_restart()
        self._spawn(worker)

    def health_check(self) -> Dict[str, object]:
        """Ping every worker; restart the dead.  Returns a status dict."""
        statuses: Dict[str, object] = {}
        restarted: List[str] = []
        for worker in self._workers:
            if worker.process is None:
                statuses[worker.tag] = "not started"
                continue
            if not worker.alive:
                with worker.lock:
                    if not worker.alive:
                        self._restart(worker)
                        restarted.append(worker.tag)
                statuses[worker.tag] = "restarted"
                continue
            if not worker.lock.acquire(blocking=False):
                statuses[worker.tag] = "busy"  # mid-job is healthy
                continue
            try:
                reply = self._roundtrip(worker, ("ping",), timeout=5.0)
                statuses[worker.tag] = reply[1]
            except (OSError, EOFError, ServiceError):
                self._restart(worker)
                restarted.append(worker.tag)
                statuses[worker.tag] = "restarted"
            finally:
                worker.lock.release()
        statuses["restarted"] = restarted
        return statuses

    def shutdown(self, wait: bool = True) -> None:
        """Graceful drain: stop workers, then unlink every segment."""
        if self._shut_down:
            return
        self._shut_down = True
        remove_hook = getattr(self.registry, "remove_build_hook", None)
        if self._hook_registered and remove_hook is not None:
            remove_hook(self._on_graph_built)
        for worker in self._workers:
            if worker.process is None:
                continue
            # Draining = taking the lock: an in-flight job finishes its
            # roundtrip under the lock before we can ask for the stop.
            acquired = worker.lock.acquire(timeout=10.0 if wait else 0.2)
            if acquired:
                try:
                    if worker.alive and worker.conn is not None:
                        try:
                            worker.conn.send(("stop",))
                            worker.conn.poll(1.0 if wait else 0.1)
                        except (OSError, BrokenPipeError):
                            pass
                    if worker.conn is not None:
                        try:
                            worker.conn.close()
                        except OSError:  # pragma: no cover - closed
                            pass
                finally:
                    worker.lock.release()
            else:
                # A dispatcher thread still owns the pipe: touching it
                # here (send/close under its poll) is a fd race.  Kill
                # the process instead — the dispatcher observes the
                # death, and its restart attempt fails cleanly on the
                # _spawn shutdown guard.
                worker.process.terminate()
            worker.process.join(timeout=5.0 if wait else 1.0)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=2.0)
                if worker.process.is_alive():  # pragma: no cover
                    worker.process.kill()
                    worker.process.join(timeout=1.0)
        self.store.release_all()

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    @staticmethod
    def _family_bytes(family: FamilyKey) -> bytes:
        return (
            f"{family.graph}|{family.gamma}|{family.algorithm}"
            f"|{family.delta!r}"
        ).encode("utf-8")

    def home_worker(self, family: FamilyKey) -> int:
        """The family's base worker (stable CRC32, before replication)."""
        return zlib.crc32(self._family_bytes(family)) % self.num_shards

    def route(self, family: FamilyKey) -> int:
        """The worker index serving ``family`` — sticky after placement.

        First placement picks the least-loaded worker among the family
        graph's replica candidates; every later dispatch reuses it, so
        the worker holding the family's cursor keeps it.
        """
        with self._route_lock:
            index = self._family_worker.get(family)
            if index is not None:
                self._family_worker.move_to_end(family)
                return index
            base = self.home_worker(family)
            copies = min(
                self._replication.get(family.graph, 1), self.num_shards
            )
            candidates = [(base + i) % self.num_shards for i in range(copies)]
            index = min(
                candidates, key=lambda i: (self._workers[i].depth, candidates.index(i))
            )
            self._family_worker[family] = index
            while len(self._family_worker) > self._max_routed_families:
                self._family_worker.popitem(last=False)
            return index

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    async def execute_spec(
        self,
        engine: QueryEngine,
        spec: QuerySpec,
        span: Optional[Span] = None,
    ) -> QueryResult:
        """Serve one spec (the scheduler's entry): a pure slice of the
        parent mirror on the loop, anything else off it."""
        if self._shut_down:
            raise RuntimeError("cluster pool is shut down")
        with use_span(span):
            result = engine.execute_cached(spec)
        if result is not None:
            return result
        return await asyncio.get_running_loop().run_in_executor(
            None, self._execute_with_span, spec, span
        )

    def _execute_with_span(
        self, spec: QuerySpec, span: Optional[Span]
    ) -> QueryResult:
        """Re-enter the upstream span on the executor thread
        (``run_in_executor`` does not copy contextvars; ``None`` maps to
        NO_TRACE so an untraced server query never re-mints a root)."""
        with use_span(span):
            return self._execute_on_worker(spec)

    def execute(self, engine: QueryEngine, spec: QuerySpec) -> QueryResult:
        """Serve one spec: parent cache slice, or a worker roundtrip."""
        if self._shut_down:
            raise RuntimeError("cluster pool is shut down")
        # A pure slice of mirrored views: served in-parent, no IPC.
        result = engine.execute_cached(spec)
        if result is not None:
            return result
        return self._execute_on_worker(spec)

    def _execute_on_worker(self, spec: QuerySpec) -> QueryResult:
        """One worker roundtrip for a spec the parent cache missed."""
        if self._shut_down:
            raise RuntimeError("cluster pool is shut down")
        self.start_workers()
        handle = self.registry.get(spec.graph)
        family = spec.cache_key()
        key = CacheKey.for_family(family, handle.version)
        worker = self._workers[self.route(family)]
        tracer = self.tracer
        parent = current_span()
        dspan = (
            tracer.start_span("cluster_dispatch", parent, worker=worker.tag)
            if tracer is not None and parent is not None
            else None
        )
        # The (trace_id, span_id) pair travels down the pipe; the worker
        # roots its own spans under it and ships them back as plain
        # dicts, so the parent trace stitches across the process edge.
        trace_ref = (
            (dspan.trace_id, dspan.span_id) if dspan is not None else None
        )
        started = time.perf_counter()
        # depth is shared by every executor thread dispatching to this
        # worker; bare += would lose updates and skew route()'s
        # least-loaded placement forever.
        with self._route_lock:
            worker.depth += 1
            depth = worker.depth
        if self.metrics is not None:
            self.metrics.observe_cluster_depth(worker.tag, depth)
        try:
            reply = self._dispatch(worker, handle, spec, family, key, trace_ref)
        except Exception as exc:  # noqa: BLE001 — close the span, re-raise
            if dspan is not None:
                tracer.end(dspan, error=type(exc).__name__)
            raise
        finally:
            with self._route_lock:
                worker.depth -= 1
                depth = worker.depth
            if self.metrics is not None:
                self.metrics.observe_cluster_depth(worker.tag, depth)
        if reply[0] == "error":
            if self.metrics is not None:
                self.metrics.observe_error(kind=reply[1])
            if dspan is not None:
                tracer.end(dspan, error=reply[1])
            raise ClusterWorkerError(worker.tag, reply[1], reply[2])
        result: QueryResult = reply[1]
        if dspan is not None:
            # Length-tolerant: pre-obs workers reply with 2-tuples.
            tracer.attach(dspan, reply[2] if len(reply) > 2 else None)
            tracer.end(dspan, source=result.source)
        worker.dispatches += 1
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        self._mirror(key, handle, result)
        result = replace(result, worker=worker.tag)
        if self.metrics is not None:
            self.metrics.observe_query(
                result.algorithm,
                elapsed_ms,
                result.source,
                kernel=result.kernel,
                family=family,
                backend="process",
                worker=worker.tag,
            )
        return result

    def _dispatch(
        self,
        worker: _Worker,
        handle: GraphHandle,
        spec: QuerySpec,
        family: FamilyKey,
        key: CacheKey,
        trace_ref: Optional[Tuple[str, str]] = None,
    ):
        """One locked worker roundtrip, restarting + retrying once."""
        for attempt in (0, 1):
            with worker.lock:
                try:
                    if worker.process is None:
                        self._spawn(worker)  # lazy first start, not a restart
                    elif not worker.alive:
                        self._restart(worker)
                    self._ensure_attached(worker, handle)
                    seed = (
                        self._seed_payload(key)
                        if family not in worker.families
                        else None
                    )
                    reply = self._roundtrip(
                        worker,
                        ("query", spec, seed, trace_ref),
                        timeout=self.job_timeout,
                    )
                    if reply[0] == "result" and self.cache is not None:
                        # Error replies (and cacheless workers) create
                        # no worker-side entry: marking the family held
                        # would skip the seed on the next attempt.
                        # Successful ones refresh the LRU slot, trimmed
                        # to the worker's cache size (the parent's) so
                        # "held" marks expire in step with the worker's
                        # actual evictions.
                        worker.families[family] = True
                        worker.families.move_to_end(family)
                        while len(worker.families) > self.cache.capacity:
                            worker.families.popitem(last=False)
                    return reply
                except (OSError, EOFError, BrokenPipeError) as exc:
                    # The worker died (or wedged past the deadline) mid-
                    # job: restart it; the retry re-attaches and re-seeds
                    # from the parent mirror, losing no served state.
                    self._restart(worker)
                    if attempt:
                        raise ClusterWorkerError(
                            worker.tag, type(exc).__name__, str(exc)
                        ) from exc

    def _roundtrip(self, worker: _Worker, message, timeout: float):
        """Blocking send/recv on the worker pipe (``worker.lock`` held)."""
        conn = worker.conn
        if conn is None:
            raise EOFError("worker has no pipe")
        conn.send(message)
        deadline = time.monotonic() + timeout
        while not conn.poll(0.05):
            if not worker.alive:
                raise EOFError("worker process died mid-job")
            if time.monotonic() >= deadline:
                raise EOFError(
                    f"worker job exceeded {timeout:.0f}s deadline"
                )
        return conn.recv()

    # ------------------------------------------------------------------
    # graph attachment + segments
    # ------------------------------------------------------------------
    def _on_graph_built(self, handle: GraphHandle) -> None:
        """Registry build hook: stage the segment before anyone asks."""
        if self._started and self.use_shared_memory and not self._shut_down:
            self._segment_for(handle)

    def _segment_for(self, handle: GraphHandle) -> SegmentHandle:
        """The published segment for this (graph, version), publish-once."""
        with self._publish_lock:
            current = self._published.get(handle.name)
            if current is not None and current[0] == handle.version:
                return current[1]
            segment = self.store.acquire(handle)
            if current is not None:
                # A reload superseded the old version: its one reference
                # goes, so the store unlinks it (workers hold copied
                # rows, not mappings).
                self.store.release(handle.name, current[0])
            self._published[handle.name] = (handle.version, segment)
            return segment

    def _ensure_attached(self, worker: _Worker, handle: GraphHandle) -> None:
        """Attach ``handle``'s graph on ``worker`` (``worker.lock`` held)."""
        attached = worker.attached.get(handle.name)
        if attached is not None:
            if attached >= handle.version:
                # Never downgrade.  A dispatcher that read its handle
                # just before a mutation flip arrives here with the old
                # version while the worker already serves the new one;
                # re-attaching would force the worker *back*, re-publish
                # a superseded segment, and serve mixed-version answers.
                # The worker answers on its (newer) generation and the
                # _mirror version guard keeps the stale-keyed result out
                # of the parent cache.
                return
            if self._attach_delta(worker, handle, attached):
                return
            # No contiguous delta chain (a compaction or rebuild opened
            # a gap) or the worker rejected the replay: fall through to
            # a full re-attach of the flat generation.
        if self.use_shared_memory:
            # The worker copies the rows and closes its mapping before
            # it answers, so it holds no segment reference: the
            # publisher's own, in ``_published``, keeps the segment
            # linked through this round trip.
            reply = self._roundtrip(
                worker,
                ("attach_shm", self._segment_for(handle)),
                timeout=self.job_timeout,
            )
            mode = "shm"
        else:
            # The pickled graph carries its core stop table, so build it
            # here once rather than once per worker.
            handle.graph.core_table()
            reply = self._roundtrip(
                worker,
                ("attach_pickle", handle.name, handle.version, handle.graph),
                timeout=self.job_timeout,
            )
            mode = "pickle"
        if reply[0] == "error":
            raise ClusterWorkerError(worker.tag, reply[1], reply[2])
        if attached is not None:
            # Cursor state for the old version went with the re-attach;
            # the graph's families must be re-seeded on next dispatch.
            worker.families = OrderedDict(
                (f, True) for f in worker.families if f.graph != handle.name
            )
        worker.attached[handle.name] = handle.version
        if self.metrics is not None:
            self.metrics.observe_segment_attach(mode)

    def _attach_delta(
        self, worker: _Worker, handle: GraphHandle, attached: int
    ) -> bool:
        """Catch the worker up via the registry's delta chain, if it
        covers ``attached → handle.version`` contiguously.

        The worker replays the batches over its installed generation —
        O(touched rows) per worker, no segment publication, no full
        graph pickle.
        """
        delta_chain = getattr(self.registry, "delta_chain", None)
        if delta_chain is None:
            return False
        chain = delta_chain(handle.name, attached, handle.version)
        if chain is None:
            return False
        reply = self._roundtrip(
            worker,
            ("apply_delta", handle.name, handle.version, chain),
            timeout=self.job_timeout,
        )
        if reply[0] != "ok":
            return False
        worker.attached[handle.name] = handle.version
        # The worker dropped its cursors for the old generation; next
        # dispatch re-seeds each family from the parent's scope-migrated
        # mirror (preserved families re-seed warm, invalidated ones
        # recompute).
        worker.families = OrderedDict(
            (f, True) for f in worker.families if f.graph != handle.name
        )
        if self.metrics is not None:
            self.metrics.observe_segment_attach("delta")
        return True

    # ------------------------------------------------------------------
    # parent-cache mirror + seeds
    # ------------------------------------------------------------------
    def _seed_payload(self, key: CacheKey):
        """The re-seed message for a family this worker has never held."""
        if self.cache is None:
            return None
        entry = self.cache.get(key)
        if isinstance(entry, ProgressiveEntry):
            views = entry.views
            if views:
                return ("progressive", views, entry.exhausted)
        elif isinstance(entry, StaticEntry) and entry.views:
            return ("static", entry.views, entry.complete)
        return None

    def _mirror(
        self, key: CacheKey, handle: GraphHandle, result: QueryResult
    ) -> None:
        """Fold a worker result into the parent cache as frozen views."""
        cache = self.cache
        if cache is None:
            return
        if result.graph_version != key.version:
            # The worker answered on a newer generation than the handle
            # this dispatch was keyed under (a mutation flip raced the
            # dispatch and _ensure_attached refused to downgrade).
            # Folding those views in under the stale key would serve a
            # mixed-version answer to the next stale-handle reader.
            return
        views = result.communities
        entry = cache.get(key)
        if key.algorithm == "localsearch-p":
            if (
                isinstance(entry, ProgressiveEntry)
                and entry.materialized >= len(views)
            ):
                pass  # the mirror already knows at least this much
            else:
                cache.put(
                    key,
                    ProgressiveEntry(
                        cursor_factory=progressive_cursor_factory(
                            handle.graph, key.gamma, key.delta
                        ),
                        views=views,
                        exhausted=result.complete,
                        max_cached_k=cache.max_cached_k,
                    ),
                )
        else:
            if not (
                isinstance(entry, StaticEntry)
                and (entry.complete or len(entry.views) >= len(views))
            ):
                cache.put(
                    key,
                    StaticEntry.capped(
                        views, result.complete, cache.max_cached_k
                    ),
                )
        cache.record(result.source)
