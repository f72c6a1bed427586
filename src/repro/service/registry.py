"""GraphRegistry — long-lived, versioned, thread-safe graph handles.

The CLI's one-shot ``query`` rebuilds its graph on every invocation; a
serving layer must pay graph construction **once** and share the built
graph across many concurrent queries.  The registry maps names to lazy
loaders (the Table-1 stand-in datasets are pre-registered; edge-list
files can be added at runtime), builds each graph at most once under a
per-entry lock — two registry clients asking for *different* graphs
build concurrently, two asking for the *same* graph share one build —
and hands out immutable :class:`GraphHandle` objects.

Every (re)build bumps the entry's **version**.  Handles carry the
version, and the result cache keys on it, so ``reload``/``evict``
invalidate stale cached answers for free: the old version's keys simply
stop being generated.

``repro.live`` extends the same versioning to **streaming mutations**:
:meth:`GraphRegistry.apply` runs an
:class:`~repro.graph.delta.EdgeBatch` through
:func:`~repro.graph.delta.apply_batch`, producing a new overlay
generation and atomically flipping the handle (one reference write —
readers still never see a mixed graph/version pair).  The registry
counts the batches applied since the last build or compaction; a
background **compactor** resets that count once it reaches
``compact_after`` and bumps the version, so every cached family
migrates warm onto a fresh generation number.  It runs no core
decomposition: every generation's core numbers are already exact, kept
by the order-based core maintenance (Zhang, Yu, Zhang & Qin, ICDE
2017) that :func:`~repro.graph.delta.apply_batch` runs per flip.
``describe()`` reports why the last background compaction failed, if
it did.  Mutation hooks let the service layer migrate caches
scope-invalidated by the batch's barrier weight, scoped per γ by each
op's core level, instead of dropping them wholesale.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..errors import UnknownGraphError
from ..graph.delta import EdgeBatch, MutationStats, apply_batch
from ..graph.io import load_snap_graph
from ..graph.weighted_graph import WeightedGraph
from ..workloads.datasets import dataset_names, load_dataset

__all__ = ["GraphHandle", "GraphRegistry", "MutationEvent"]


@dataclass(frozen=True)
class GraphHandle:
    """An immutable, pinned reference to one built graph."""

    name: str
    version: int
    graph: WeightedGraph

    @property
    def num_vertices(self) -> int:
        return self.graph.num_vertices

    @property
    def num_edges(self) -> int:
        return self.graph.num_edges


@dataclass
class MutationEvent:
    """What one :meth:`GraphRegistry.apply` (or compaction) did.

    Mutation hooks receive the event *mutably*: the cache-migration
    hook adds its ``preserved``/``invalidated`` counts so the caller
    (shell, CLI, bench) can report the full outcome of the flip.
    """

    graph: str
    old_version: int
    new_version: int
    #: ``"mutate"`` for an applied batch, ``"compact"`` for a compaction.
    kind: str
    #: Largest weight whose threshold subgraph may have changed
    #: (``-inf`` for no-ops and compactions: content is identical).
    barrier: float
    handle: GraphHandle
    stats: Optional[MutationStats] = None
    #: Batches applied since the last build or compaction, after this
    #: event.
    pending_deltas: int = 0
    #: Filled in by the cache-migration mutation hook.
    invalidated: int = 0
    preserved: int = 0


@dataclass
class _Entry:
    loader: Callable[[], WeightedGraph]
    description: str = ""
    #: The current (graph, version) pair as ONE immutable reference, so
    #: lock-free readers can never observe a graph/version mismatch
    #: across a concurrent reload.
    handle: Optional[GraphHandle] = None
    version: int = 0
    build_seconds: float = 0.0
    lock: threading.Lock = field(default_factory=threading.Lock)
    #: Batches applied since the last build or compaction.
    pending: int = 0
    #: Guards against stacking background compaction threads.
    compacting: bool = False
    #: Why the last background compaction failed (``None`` once one
    #: succeeds).
    compaction_error: Optional[str] = None


class GraphRegistry:
    """Named graphs behind lazy, versioned, thread-safe handles.

    Parameters
    ----------
    preload_datasets:
        When true (the default) every stand-in dataset of
        :mod:`repro.workloads.datasets` is registered (lazily — nothing
        is built until first use).
    compact_after:
        Compact (:meth:`compact`, in a background thread) once this
        many mutation batches have accumulated on one graph.  ``None``
        disables automatic compaction; :meth:`compact` stays available
        for explicit use.

    Every generation is a plain :class:`WeightedGraph` whose rows the
    kernels read directly: a mutated one shares its parent's untouched
    rows, so no generation carries a second copy of the adjacency.
    """

    def __init__(
        self,
        preload_datasets: bool = True,
        compact_after: Optional[int] = 8,
    ) -> None:
        self._entries: Dict[str, _Entry] = {}
        self._lock = threading.RLock()
        self._builds = 0
        self._mutations = 0
        self._compactions = 0
        self._compact_after = compact_after
        self._mutation_hooks: List[Callable[[MutationEvent], None]] = []
        if preload_datasets:
            for name in dataset_names():
                self.register(
                    name,
                    (lambda n=name: load_dataset(n)),
                    description=f"stand-in dataset {name!r}",
                )

    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        loader: Callable[[], WeightedGraph],
        description: str = "",
        replace: bool = False,
    ) -> None:
        """Register a lazy loader under ``name``.

        Re-registering an existing name requires ``replace=True`` and
        keeps the version counter monotone (cached results for the old
        definition stay invalid).
        """
        with self._lock:
            existing = self._entries.get(name)
            if existing is not None and not replace:
                raise ValueError(
                    f"graph {name!r} is already registered "
                    "(pass replace=True to overwrite)"
                )
            entry = _Entry(loader=loader, description=description)
            if existing is not None:
                entry.version = existing.version
            self._entries[name] = entry

    def load(
        self,
        name: str,
        loader: Callable[[], WeightedGraph],
        description: str = "",
    ) -> GraphHandle:
        """Build ``loader()`` now, then register it under ``name``.

        Any existing entry is replaced only once the build succeeds: a
        loader that raises leaves the old entry, its graph and its
        version as they were.
        """
        started = time.perf_counter()
        graph = loader()
        seconds = time.perf_counter() - started
        self.register(name, loader, description=description, replace=True)
        entry = self._entry(name)
        with entry.lock:
            return self._publish(name, entry, graph, seconds)

    def register_edge_list(
        self,
        name: str,
        edges_path: str,
        weights_path: Optional[str] = None,
        replace: bool = False,
    ) -> None:
        """Register a SNAP-style edge-list file (PageRank weights if none)."""
        self.register(
            name,
            lambda: load_snap_graph(edges_path, weights_path),
            description=f"edge list {edges_path!r}",
            replace=replace,
        )

    # ------------------------------------------------------------------
    def _entry(self, name: str) -> _Entry:
        with self._lock:
            entry = self._entries.get(name)
            if entry is None:
                raise UnknownGraphError(name, available=self._entries)
            return entry

    def _build(self, name: str, entry: _Entry) -> GraphHandle:
        """Run the loader and publish a fresh handle (entry.lock held)."""
        started = time.perf_counter()
        graph = entry.loader()
        return self._publish(
            name, entry, graph, time.perf_counter() - started
        )

    def _publish(
        self, name: str, entry: _Entry, graph: WeightedGraph, seconds: float
    ) -> GraphHandle:
        """Install a built graph as a new version (entry.lock held)."""
        entry.build_seconds = seconds
        entry.version += 1
        entry.pending = 0  # a loader build starts the count afresh
        entry.handle = GraphHandle(name, entry.version, graph)
        with self._lock:
            self._builds += 1
        return entry.handle

    # ------------------------------------------------------------------
    def add_mutation_hook(
        self, hook: Callable[[MutationEvent], None]
    ) -> None:
        """Call ``hook(event)`` after every mutation *and* compaction.

        The service layer registers its scoped cache migration here.
        Hooks are best-effort: a failing hook never fails the flip.
        """
        with self._lock:
            self._mutation_hooks.append(hook)

    def remove_mutation_hook(
        self, hook: Callable[[MutationEvent], None]
    ) -> None:
        """Deregister a mutation hook (no-op when absent)."""
        with self._lock:
            if hook in self._mutation_hooks:
                self._mutation_hooks.remove(hook)

    def _fire_mutation_hooks(self, event: MutationEvent) -> None:
        with self._lock:
            hooks = list(self._mutation_hooks)
        for hook in hooks:
            try:
                hook(event)
            except Exception:  # noqa: BLE001 — hooks are best-effort
                pass

    # ------------------------------------------------------------------
    # streaming mutations (repro.live)
    # ------------------------------------------------------------------
    def apply(self, name: str, batch) -> MutationEvent:
        """Apply an edge batch and atomically flip to the new generation.

        ``batch`` is an :class:`~repro.graph.delta.EdgeBatch` (or a
        plain iterable of op tuples).  The version bumps even for a
        no-op batch — version monotonicity is what the result cache
        keys on, and a no-op flip migrates everything
        (barrier ``-inf``) so it costs nothing warm.
        """
        if not isinstance(batch, EdgeBatch):
            batch = EdgeBatch(tuple(batch))
        entry = self._entry(name)
        with entry.lock:
            handle = entry.handle
            if handle is None:
                handle = self._build(name, entry)
            new_graph, barrier, stats = apply_batch(handle.graph, batch)
            old_version = entry.version
            entry.version += 1
            new_handle = GraphHandle(name, entry.version, new_graph)
            # The atomic flip: one reference write, same as a rebuild.
            entry.handle = new_handle
            entry.pending += 1
            pending = entry.pending
        with self._lock:
            self._mutations += 1
        event = MutationEvent(
            graph=name,
            old_version=old_version,
            new_version=new_handle.version,
            kind="mutate",
            barrier=barrier,
            handle=new_handle,
            stats=stats,
            pending_deltas=pending,
        )
        self._fire_mutation_hooks(event)
        self._maybe_compact(name, entry)
        return event

    def pending_deltas(self, name: str) -> int:
        """Batches applied since the last build or compaction."""
        entry = self._entry(name)
        with entry.lock:
            return entry.pending

    def compact(self, name: str) -> Optional[MutationEvent]:
        """Reset the pending-batch count and bump the version.

        Returns ``None`` when no batch is pending.  The graph and its
        exact core table are unchanged.  The event carries barrier
        ``-inf``, so every cached family migrates warm.
        """
        entry = self._entry(name)
        with entry.lock:
            handle = entry.handle
            if handle is None or not entry.pending:
                return None
            old_version = entry.version
            entry.version += 1
            new_handle = GraphHandle(name, entry.version, handle.graph)
            entry.handle = new_handle
            entry.pending = 0
            entry.compaction_error = None
        with self._lock:
            self._compactions += 1
        event = MutationEvent(
            graph=name,
            old_version=old_version,
            new_version=new_handle.version,
            kind="compact",
            barrier=float("-inf"),
            handle=new_handle,
        )
        self._fire_mutation_hooks(event)
        return event

    def _maybe_compact(self, name: str, entry: _Entry) -> None:
        threshold = self._compact_after
        if threshold is None:
            return
        with entry.lock:
            if entry.compacting or entry.pending < threshold:
                return
            entry.compacting = True
        thread = threading.Thread(
            target=self._compact_entry,
            args=(name, entry),
            daemon=True,
            name=f"repro-compact-{name}",
        )
        thread.start()

    def _compact_entry(self, name: str, entry: _Entry) -> None:
        try:
            self.compact(name)
        except Exception as exc:  # noqa: BLE001 — reported by describe()
            with entry.lock:
                entry.compaction_error = f"{type(exc).__name__}: {exc}"
        finally:
            entry.compacting = False

    def get(self, name: str) -> GraphHandle:
        """A handle to the built graph, building it (once) if needed."""
        entry = self._entry(name)
        # Single reference read: a concurrent reload can never yield a
        # mismatched (graph, version) pair.
        handle = entry.handle
        if handle is not None:
            return handle
        # Build outside the registry lock, under the entry's own lock, so
        # concurrent loads of different graphs do not serialise.
        with entry.lock:
            if entry.handle is None:
                return self._build(name, entry)
            return entry.handle

    def peek(self, name: str) -> Optional[GraphHandle]:
        """The built handle for ``name``, or ``None`` when it is unknown
        or not built yet.

        Never builds and never blocks (one GIL-atomic dict read and one
        reference read), so an event loop can call it; ``get`` stays the
        way to build, and raises for unknown names.
        """
        entry = self._entries.get(name)
        return entry.handle if entry is not None else None

    def reload(self, name: str) -> GraphHandle:
        """Force a rebuild and bump the version (invalidates caches)."""
        entry = self._entry(name)
        with entry.lock:
            return self._build(name, entry)

    def evict(self, name: str) -> None:
        """Drop the built graph (the loader stays; next get() rebuilds)."""
        entry = self._entry(name)
        with entry.lock:
            entry.handle = None

    def unregister(self, name: str) -> None:
        """Remove ``name`` entirely."""
        with self._lock:
            if name not in self._entries:
                raise UnknownGraphError(name, available=self._entries)
            del self._entries[name]

    # ------------------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._entries

    def names(self) -> List[str]:
        """All registered names, in registration order."""
        with self._lock:
            return list(self._entries)

    def is_loaded(self, name: str) -> bool:
        """True when the graph is currently built and pinned in memory."""
        return self._entry(name).handle is not None

    def version(self, name: str) -> int:
        """Current version (0 = never built)."""
        return self._entry(name).version

    @property
    def builds(self) -> int:
        """Total number of graph builds performed (load + reload)."""
        with self._lock:
            return self._builds

    @property
    def mutations(self) -> int:
        """Total number of mutation batches applied."""
        with self._lock:
            return self._mutations

    @property
    def compactions(self) -> int:
        """Total number of compactions performed."""
        with self._lock:
            return self._compactions

    def describe(self) -> List[Dict[str, object]]:
        """One status row per registered graph (for `graphs` in the shell)."""
        rows: List[Dict[str, object]] = []
        with self._lock:
            items = list(self._entries.items())
        for name, entry in items:
            handle = entry.handle
            row: Dict[str, object] = {
                "name": name,
                "description": entry.description,
                "loaded": handle is not None,
                "version": entry.version,
                "compaction_error": entry.compaction_error,
            }
            if handle is not None:
                row["vertices"] = handle.num_vertices
                row["edges"] = handle.num_edges
                row["build_seconds"] = entry.build_seconds
                row["pending_deltas"] = entry.pending
            rows.append(row)
        return rows
