"""Cluster worker — a long-lived process executing QuerySpec jobs.

One worker is one OS process holding the *stateful* half of the serving
contract: for every :class:`~repro.api.spec.FamilyKey` routed to it, the
live :class:`~repro.core.progressive.ProgressiveCursor` sits **here**,
inside a worker-local :class:`~repro.service.cache.ResultCache` driven
by a worker-local :class:`~repro.service.engine.QueryEngine`.  That is
what keeps coalesced progressive advances one-pass under the process
backend: a family's ``extend_to`` continuation lands on the worker that
already peeled its prefix and resumes the cursor — never a re-peel.

The protocol over the duplex pipe is a tagged tuple per message:

* ``("attach_shm", SegmentHandle)`` — map a published segment and
  rebuild the graph from it (:func:`~repro.cluster.segment.
  attach_graph`);
* ``("attach_pickle", name, version, graph)`` — the fallback path for
  platforms without shared memory: the whole graph travels through the
  pipe once per worker;
* ``("apply_delta", name, target_version, batches)`` — catch an
  attached graph up to ``target_version`` by replaying the registry's
  delta chain over the worker's current generation (``repro.live``):
  the new generation shares every untouched row with the attached
  one, so a mutation batch costs O(touched) per worker instead of a
  full re-attach; the first replay builds the worker's own core order
  from one decomposition, and every generation after it has exact
  core numbers (:mod:`repro.graph.delta`);
* ``("query", spec, seed[, trace_ref])`` — execute one spec; ``seed``
  optionally carries parent-cache views to pre-populate a family this
  worker has never seen (the restart re-seed path), and is ignored when
  the worker already holds the family; ``trace_ref`` is an optional
  ``(trace_id, span_id)`` pair — when present, the worker roots a
  remote ``worker`` span under it and ships its finished spans back as
  plain dicts so the parent trace stitches across the process edge
  (both sides are length-tolerant: a 3-tuple query message and a
  2-tuple result reply remain valid);
* ``("ping",)`` — health probe, answers worker statistics;
* ``("stop",)`` — graceful exit.

Replies are ``("ok", payload)`` / ``("result", QueryResult[, spans])``
/ ``("pong", stats)`` / ``("error", kind, message)``.  Errors are
flattened to strings — exception objects with custom constructors do
not survive pickling reliably, and the parent re-raises them as
:class:`~repro.errors.ClusterWorkerError` anyway.

Spawn safety: :func:`worker_main` is a plain module-level function and
the module imports nothing platform-conditional at import time, so the
``spawn`` start method (macOS/Windows default, ``REPRO_MP_START=spawn``
in CI) re-imports it cleanly in a fresh interpreter.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple

from ..api.spec import QuerySpec
from ..errors import ReproError, UnknownGraphError
from ..graph.delta import apply_batch
from ..obs.trace import Tracer, use_span
from ..service.cache import CacheKey, ProgressiveEntry, ResultCache, StaticEntry
from ..service.engine import QueryEngine, progressive_cursor_factory
from ..service.registry import GraphHandle
from .segment import SegmentHandle, attach_graph

__all__ = ["worker_main", "WorkerConfig"]


class WorkerConfig:
    """Plain picklable knobs shipped to :func:`worker_main` at start.

    ``cache_size`` is the capacity of the parent's result cache, so a
    server's ``--cache-size`` bounds every worker's cache too; ``None``
    (a parent without a cache) gives the worker no cache either.
    ``kernel_env`` pins ``REPRO_KERNEL`` in the child, so the worker's
    engine resolves the same peel kernel as the parent even under
    ``spawn``, where the child would otherwise re-read a possibly
    changed environment.
    """

    __slots__ = ("worker_id", "cache_size", "max_cached_k", "kernel_env")

    def __init__(
        self,
        worker_id: int,
        cache_size: Optional[int],
        max_cached_k: Optional[int] = None,
        kernel_env: Optional[str] = None,
    ) -> None:
        self.worker_id = worker_id
        self.cache_size = cache_size
        self.max_cached_k = max_cached_k
        self.kernel_env = kernel_env

    def __getstate__(self):
        return {slot: getattr(self, slot) for slot in self.__slots__}

    def __setstate__(self, state):
        for slot, value in state.items():
            setattr(self, slot, value)


class _WorkerRegistry:
    """The worker's view of the graph registry: attached graphs only.

    Versions are the *parent's* registry versions (carried by the
    attach message), so the worker's cache keys — and the
    ``graph_version`` provenance on every result — are identical to
    what the in-process engine would have produced.
    """

    def __init__(self) -> None:
        self._handles: Dict[str, GraphHandle] = {}

    def install(self, name: str, version: int, graph) -> None:
        self._handles[name] = GraphHandle(name, version, graph)

    def replace_graph(self, name: str, version: int, graph) -> None:
        """Swap the handle to a delta-derived generation."""
        if name not in self._handles:
            raise UnknownGraphError(name, available=self._handles)
        self._handles[name] = GraphHandle(name, version, graph)

    def drop(self, name: str) -> None:
        self._handles.pop(name, None)

    def get(self, name: str) -> GraphHandle:
        handle = self._handles.get(name)
        if handle is None:
            raise UnknownGraphError(name, available=self._handles)
        return handle

    def names(self):
        return list(self._handles)


def _install_seed(
    cache: ResultCache, registry: _WorkerRegistry, spec: QuerySpec, seed
) -> bool:
    """Pre-populate a family from parent-cache views (restart re-seed).

    ``seed`` is ``("progressive", views, exhausted)`` or
    ``("static", views, complete)``.  Ignored when the worker already
    holds an entry for the key — the live cursor always wins over a
    snapshot of it.
    """
    try:
        handle = registry.get(spec.graph)
    except UnknownGraphError:
        return False
    key = CacheKey.for_spec(spec, handle.version)
    if cache.get(key) is not None:
        return False
    kind, views, flag = seed
    if kind == "progressive":
        cache.put(
            key,
            ProgressiveEntry(
                cursor_factory=progressive_cursor_factory(
                    handle.graph, key.gamma, key.delta
                ),
                views=views,
                exhausted=bool(flag),
                max_cached_k=cache.max_cached_k,
            ),
        )
    elif kind == "static":
        cache.put(
            key, StaticEntry.capped(tuple(views), bool(flag), cache.max_cached_k)
        )
    else:
        return False
    return True


def worker_main(conn, config: WorkerConfig) -> None:
    """The worker process entry point: serve jobs until ``stop``/EOF."""
    if config.kernel_env is not None:
        os.environ["REPRO_KERNEL"] = config.kernel_env
    registry = _WorkerRegistry()
    cache = (
        ResultCache(config.cache_size, max_cached_k=config.max_cached_k)
        if config.cache_size is not None
        else None
    )
    # sample=0: the worker never originates traces — it only roots
    # remote spans under a parent-supplied trace_ref, and those are
    # shipped back rather than stored locally.
    tracer = Tracer(sample=0.0)
    engine = QueryEngine(registry, cache=cache, metrics=None, tracer=tracer)
    jobs = attaches = 0
    try:
        while True:
            try:
                message: Tuple = conn.recv()
            except (EOFError, OSError):
                break  # parent went away: exit quietly
            try:
                tag = message[0]
                if tag == "query":
                    spec, seed = message[1], message[2]
                    trace_ref = message[3] if len(message) > 3 else None
                    if seed is not None:
                        _install_seed(cache, registry, spec, seed)
                    if trace_ref is None:
                        result = engine.execute(spec)
                        jobs += 1
                        conn.send(("result", result))
                    else:
                        wspan = tracer.start_remote(
                            trace_ref[0],
                            trace_ref[1],
                            "worker",
                            worker=config.worker_id,
                            pid=os.getpid(),
                        )
                        try:
                            with use_span(wspan):
                                result = engine.execute(spec)
                        except BaseException as exc:
                            tracer.finish_remote(
                                wspan, error=type(exc).__name__
                            )
                            raise
                        jobs += 1
                        payload = tracer.finish_remote(
                            wspan, source=result.source
                        )
                        conn.send(("result", result, payload))
                elif tag == "attach_shm":
                    segment: SegmentHandle = message[1]
                    registry.install(
                        segment.graph, segment.version, attach_graph(segment)
                    )
                    attaches += 1
                    conn.send(("ok", segment.graph))
                elif tag == "attach_pickle":
                    name, version, graph = message[1], message[2], message[3]
                    registry.install(name, version, graph)
                    attaches += 1
                    conn.send(("ok", name))
                elif tag == "apply_delta":
                    name, target_version, batches = (
                        message[1],
                        message[2],
                        message[3],
                    )
                    handle = registry.get(name)
                    graph = handle.graph
                    for batch in batches:
                        graph, _, _ = apply_batch(graph, batch)
                    registry.replace_graph(name, target_version, graph)
                    # Cursors walk the old generation; the parent
                    # re-seeds affected families from its scope-migrated
                    # mirror on the next dispatch.
                    if cache is not None:
                        cache.invalidate_graph(name)
                    attaches += 1
                    conn.send(("ok", (name, target_version)))
                elif tag == "detach":
                    registry.drop(message[1])
                    conn.send(("ok", message[1]))
                elif tag == "ping":
                    conn.send(
                        (
                            "pong",
                            {
                                "worker_id": config.worker_id,
                                "pid": os.getpid(),
                                "graphs": registry.names(),
                                "families": len(cache or ()),
                                "cache_size": config.cache_size,
                                "jobs": jobs,
                                "attaches": attaches,
                            },
                        )
                    )
                elif tag == "stop":
                    conn.send(("ok", "bye"))
                    break
                else:
                    conn.send(("error", "protocol", f"unknown tag {tag!r}"))
            except ReproError as exc:
                conn.send(("error", type(exc).__name__, str(exc)))
            except Exception as exc:  # noqa: BLE001 — keep the worker alive
                conn.send(("error", type(exc).__name__, str(exc)))
    finally:
        conn.close()
