"""Warm-start persistence — ResultCache snapshots that survive restarts.

A long-lived server's value is its warm state: progressive prefixes
already peeled, static answers already computed.  CommunityViews are
frozen and JSON-stable by design (the cache's byte-identity contract
rests on that), so the cache contents — *views*, not live cursors — can
be written to disk on shutdown and rehydrated on boot.

Restored progressive entries carry no live cursor; they serve any
``k <= len(views)`` as a pure slice ("cache"), and a larger ``k``
rebuilds a cursor from the registry's graph and re-peels (the stream is
deterministic, so the recomputed prefix matches the restored views).

Staleness is handled two ways.  Each snapshot entry records the graph
*version* it was computed against (in-process reloads invalidate, same
as the live cache), plus a content fingerprint (vertex/edge counts) —
the version counter is process-local, so the fingerprint is what
catches the underlying *data* changing between runs.  A mismatch on
either simply boots cold for that graph.  (A data change that preserves
both counts exactly would still slip through; snapshots are a cache, so
delete the file after any such in-place edit.)
"""

from __future__ import annotations

import json
import os
import threading
from typing import Any, Dict, List, Optional

from ..errors import ReproError
from ..service.cache import CacheKey, ProgressiveEntry, ResultCache, StaticEntry
from ..service.engine import progressive_cursor_factory
from ..service.model import CommunityView
from ..service.registry import GraphHandle, GraphRegistry

__all__ = ["WarmStart", "SNAPSHOT_FORMAT"]

#: Bump when the snapshot schema changes; mismatched files boot cold.
#: v2 entries may carry a ``kernel`` field from when the peel kernel was
#: part of the cache identity; it is ignored on load, and when several
#: kernel rows share one family the first one restored wins.
SNAPSHOT_FORMAT = 2


class WarmStart:
    """Snapshot/restore a :class:`ResultCache` at ``path`` (JSON).

    Parameters
    ----------
    path:
        Snapshot file location (written atomically).
    snapshot_interval:
        When set, :meth:`start_periodic` runs a background thread that
        re-snapshots every this-many seconds, so a crash — not just a
        clean shutdown — leaves a recent snapshot behind.  ``None``
        (the default) keeps the original save-on-shutdown-only
        behaviour.
    """

    def __init__(
        self, path: str, snapshot_interval: Optional[float] = None
    ) -> None:
        if snapshot_interval is not None and snapshot_interval <= 0:
            raise ValueError("snapshot_interval must be positive")
        self.path = str(path)
        self.snapshot_interval = snapshot_interval
        self.periodic_snapshots = 0
        self.periodic_errors = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    def start_periodic(
        self, cache: ResultCache, registry: GraphRegistry
    ) -> bool:
        """Start the background snapshot thread (no-op without an
        interval, or when already running).  Returns True if started."""
        if self.snapshot_interval is None or self._thread is not None:
            return False
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._periodic_loop,
            args=(cache, registry),
            name="repro-warmstart",
            daemon=True,
        )
        self._thread.start()
        return True

    def _periodic_loop(
        self, cache: ResultCache, registry: GraphRegistry
    ) -> None:
        assert self.snapshot_interval is not None
        while not self._stop.wait(self.snapshot_interval):
            try:
                self.save(cache, registry)
                self.periodic_snapshots += 1
            except Exception:  # noqa: BLE001 — a failed snapshot must
                # never take the serving process down; the next tick
                # (or the shutdown save) retries.
                self.periodic_errors += 1

    def stop_periodic(self) -> None:
        """Stop the background thread (idempotent; joins briefly)."""
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout=5.0)
        self._thread = None

    # ------------------------------------------------------------------
    def save(self, cache: ResultCache, registry: GraphRegistry) -> int:
        """Write every serialisable cache entry to disk; returns the count.

        The write is atomic (temp file + rename), so a crash mid-save
        leaves the previous snapshot intact.
        """
        entries: List[Dict[str, Any]] = []
        # One handle read per graph, memoized.  A GraphHandle is one
        # immutable (version, graph) pair swapped atomically by the
        # registry, so every entry saved below is checked, versioned,
        # and fingerprinted against a single consistent generation —
        # a live-mutation flip racing this loop can never interleave
        # two generations inside one graph's snapshot rows (entries
        # keyed under any other version are simply skipped as stale).
        handles: Dict[str, Optional[GraphHandle]] = {}
        for key in cache.keys():
            entry = cache.get(key)
            if key.graph not in handles:
                handles[key.graph] = self._build(registry, key.graph)
            handle = handles[key.graph]
            if handle is None or handle.version != key.version:
                continue  # the entry is already stale in this process
            payload: Dict[str, Any]
            if isinstance(entry, ProgressiveEntry):
                views = entry.views
                payload = {"kind": "progressive", "exhausted": entry.exhausted}
            elif isinstance(entry, StaticEntry):
                views = entry.views
                payload = {"kind": "static", "complete": entry.complete}
            else:
                continue
            payload.update(
                graph=key.graph,
                version=key.version,
                # Content fingerprint: the version counter is process-
                # local (every fresh boot builds version 1), so shape
                # guards against the *data* changing between runs.
                vertices=handle.num_vertices,
                edges=handle.num_edges,
                gamma=key.gamma,
                algorithm=key.algorithm,
                delta=key.delta,
                views=[view.to_dict() for view in views],
            )
            entries.append(payload)
        document = {"format": SNAPSHOT_FORMAT, "entries": entries}
        tmp_path = self.path + ".tmp"
        with open(tmp_path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        os.replace(tmp_path, self.path)
        return len(entries)

    # ------------------------------------------------------------------
    def load(self, cache: ResultCache, registry: GraphRegistry) -> int:
        """Rehydrate snapshot entries into ``cache``; returns the count.

        Entries are skipped (never errored) when the snapshot is missing
        or unreadable, the graph is no longer registered, the freshly
        built graph's version differs from the snapshot's, or a live
        cache entry already exists for the key.
        """
        document = self._read()
        if document is None:
            return 0
        restored = 0
        # Same single-read-per-graph discipline as save(): every entry
        # restored for a graph is validated against one atomically-read
        # handle, so a mutation flip mid-load cannot mix generations.
        handles: Dict[str, Optional[GraphHandle]] = {}
        for raw in document.get("entries", ()):
            try:
                name = raw["graph"]
                kind = raw["kind"]
                version = raw["version"]
                views = tuple(
                    CommunityView.from_dict(view) for view in raw["views"]
                )
                gamma, delta = int(raw["gamma"]), float(raw["delta"])
                algorithm = raw["algorithm"]
            except (KeyError, TypeError, ValueError):
                continue  # one malformed entry must not spoil the rest
            if name not in handles:
                handles[name] = self._build(registry, name)
            handle = handles[name]
            if handle is None or handle.version != version:
                continue
            if (
                raw.get("vertices") != handle.num_vertices
                or raw.get("edges") != handle.num_edges
            ):
                continue  # same version counter but different data
            key = CacheKey(
                graph=name,
                version=handle.version,
                gamma=gamma,
                algorithm=algorithm,
                delta=delta,
            )
            if cache.get(key) is not None:
                continue  # never clobber state computed since boot
            if kind == "progressive":
                entry: object = ProgressiveEntry(
                    cursor_factory=progressive_cursor_factory(
                        handle.graph, gamma, delta
                    ),
                    views=views,
                    exhausted=bool(raw.get("exhausted", False)),
                    max_cached_k=cache.max_cached_k,
                )
            elif kind == "static":
                entry = StaticEntry.capped(
                    views,
                    bool(raw.get("complete", False)),
                    cache.max_cached_k,
                )
            else:
                continue
            cache.put(key, entry)
            restored += 1
        return restored

    # ------------------------------------------------------------------
    def _read(self) -> Optional[Dict[str, Any]]:
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None
        if (
            not isinstance(document, dict)
            or document.get("format") != SNAPSHOT_FORMAT
        ):
            return None
        return document

    @staticmethod
    def _build(registry: GraphRegistry, name: str) -> Optional[GraphHandle]:
        """Build ``name``'s graph to learn its current version (or None)."""
        if name not in registry:
            return None
        try:
            return registry.get(name)
        except ReproError:
            return None
