"""Shared-memory CSR segments — publish a graph once, attach everywhere.

A :class:`~repro.cluster.pool.ClusterPool` worker is a separate process:
it cannot see the parent's :class:`~repro.graph.weighted_graph.
WeightedGraph`.  What it *can* see, at zero marginal cost per worker, is
a ``multiprocessing.shared_memory`` segment — and PR 3 made the graph's
hot substrate exactly the shape such a segment wants: the
:class:`~repro.graph.csr.CSRAdjacency` buffers are contiguous, immutable
and typed (int32 ``N>=``/``N<`` neighbour targets, int64 row offsets).

:func:`publish_graph` lays the six canonical buffers (both offset
arrays, both target arrays, the float64 vertex weights and the int32
per-rank core numbers) out in one segment, 8-byte-aligned region by
region, and returns a small picklable :class:`SegmentHandle`
describing the layout.  :func:`attach_graph`
(worker side) maps the segment, casts typed ``memoryview`` windows over
the regions and rebuilds a
:class:`~repro.graph.weighted_graph.WeightedGraph` via
:meth:`~repro.graph.weighted_graph.WeightedGraph.from_csr`, which
slices the windows into the graph's own rows: one copy per worker,
read straight out of the mapping instead of through a pipe.  The
worker's mapping is closed as soon as the rows are copied.

Lifecycle is refcounted in the parent through :class:`SegmentStore`:
one publish per ``(graph name, registry version)`` however many pools
or workers attach, unlink when the last reference is released (and
unconditionally on :meth:`SegmentStore.release_all` at pool shutdown —
a leaked ``/dev/shm`` entry outlives the process, unlike leaked memory).
Version tagging comes from the :class:`~repro.service.registry.
GraphRegistry`: a ``reload`` bumps the version, the pool publishes a
fresh segment and releases the stale one.

Platforms without POSIX/Windows shared memory fall back to
**pickle-per-worker** (:func:`shared_memory_available` gates it): the
same buffers travel through the worker pipe once per worker instead of
being mapped — more startup copying, identical semantics.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Hashable, List, Optional, Tuple

from ..graph.csr import CSRAdjacency
from ..graph.weighted_graph import WeightedGraph
from ..service.registry import GraphHandle

__all__ = [
    "SegmentHandle",
    "SegmentStore",
    "attach_graph",
    "publish_graph",
    "shared_memory_available",
    "mp_start_method",
]

#: Environment override for the worker start method (the CI spawn job
#: sets ``REPRO_MP_START=spawn`` so macOS/Windows semantics — no
#: inherited interpreter state, workers re-import everything — are
#: exercised on Linux runners).  Empty/unset defers to the platform
#: default (fork on Linux).
START_METHOD_ENV_VAR = "REPRO_MP_START"

#: Segment name prefix; includes the publishing pid so concurrent test
#: processes can never collide and leaked segments are attributable.
_NAME_PREFIX = "repro-csr"

#: ``(attribute, typecode, itemsize)`` of each published region, in
#: layout order.  8-byte regions first, so every region stays aligned
#: for its typed memoryview cast without padding bookkeeping.
_REGIONS: Tuple[Tuple[str, str, int], ...] = (
    ("up_offsets", "q", 8),
    ("down_offsets", "q", 8),
    ("weights", "d", 8),
    ("up_targets", "i", 4),
    ("down_targets", "i", 4),
    ("core_numbers", "i", 4),
)


def mp_start_method() -> Optional[str]:
    """The configured multiprocessing start method (``None`` = default)."""
    return os.environ.get(START_METHOD_ENV_VAR) or None


def shared_memory_available() -> bool:
    """True when ``multiprocessing.shared_memory`` actually works here."""
    try:
        from multiprocessing import shared_memory

        probe = shared_memory.SharedMemory(create=True, size=8)
    except (ImportError, OSError, FileNotFoundError):
        return False
    probe.close()
    try:
        probe.unlink()
    except (OSError, FileNotFoundError):  # pragma: no cover - racing cleanup
        pass
    return True


@dataclass(frozen=True)
class SegmentHandle:
    """Picklable description of one published graph segment.

    ``lengths`` are element counts per region in :data:`_REGIONS` order;
    byte offsets are derived, so the handle stays tiny on the worker
    pipe.  ``labels`` is ``None`` when the graph's labels are the
    identity ``0..n-1`` (the common generated-dataset case) — otherwise
    the label list rides along in the handle, pickled once per attach;
    the big adjacency never does.  The graph's exact per-rank core
    numbers ride in the segment, so an attached graph answers
    ``core_stop``, and re-ranks, without a decomposition of its own.
    """

    graph: str
    version: int
    shm_name: str
    num_vertices: int
    num_edges: int
    lengths: Tuple[int, ...]
    labels: Optional[Tuple[Hashable, ...]]

    @property
    def nbytes(self) -> int:
        return sum(
            length * itemsize
            for length, (_, _, itemsize) in zip(self.lengths, _REGIONS)
        )

    def region_windows(self, buf) -> List[memoryview]:
        """Typed memoryview windows over ``buf``, one per region."""
        windows: List[memoryview] = []
        start = 0
        for length, (_, typecode, itemsize) in zip(self.lengths, _REGIONS):
            end = start + length * itemsize
            windows.append(memoryview(buf)[start:end].cast(typecode))
            start = end
        return windows


def _graph_regions(graph: WeightedGraph):
    """The six canonical buffers of ``graph`` in :data:`_REGIONS` order."""
    from array import array

    csr = graph.csr()
    weights = array("d", (graph.weight(r) for r in range(graph.num_vertices)))
    return (
        csr.up_offsets,
        csr.down_offsets,
        weights,
        csr.up_targets,
        csr.down_targets,
        array("i", graph.core_numbers()),
    )


def _labels_payload(graph: WeightedGraph) -> Optional[Tuple[Hashable, ...]]:
    labels = tuple(graph.label(r) for r in range(graph.num_vertices))
    if all(label == rank for rank, label in enumerate(labels)):
        return None  # identity labels: rebuild as range(n), ship nothing
    return labels


def publish_graph(handle: GraphHandle):
    """Copy ``handle``'s CSR + weights into a fresh shared segment.

    The graph's core numbers ride along in the segment; building them
    here, if the graph has none yet, is one decomposition in the
    publisher instead of one in every worker.

    Returns ``(segment, shm)``.  The caller owns the creator's mapping:
    keep ``shm`` open for the segment's whole life (Windows named
    memory vanishes when its last handle closes) and ``unlink`` it when
    done — :class:`SegmentStore` does both.
    """
    from multiprocessing import shared_memory

    regions = _graph_regions(handle.graph)
    lengths = tuple(len(region) for region in regions)
    nbytes = sum(
        len(region) * itemsize
        for region, (_, _, itemsize) in zip(regions, _REGIONS)
    )
    shm = shared_memory.SharedMemory(
        create=True,
        size=max(nbytes, 1),
        name=f"{_NAME_PREFIX}-{os.getpid()}-{os.urandom(4).hex()}",
    )
    try:
        start = 0
        for region, (_, _, itemsize) in zip(regions, _REGIONS):
            end = start + len(region) * itemsize
            shm.buf[start:end] = memoryview(region).cast("B")
            start = end
        segment = SegmentHandle(
            graph=handle.name,
            version=handle.version,
            shm_name=shm.name,
            num_vertices=handle.graph.num_vertices,
            num_edges=handle.graph.num_edges,
            lengths=lengths,
            labels=_labels_payload(handle.graph),
        )
    except BaseException:
        shm.close()
        shm.unlink()
        raise
    return segment, shm


def _attach_untracked(name: str):
    """Open an existing segment WITHOUT resource-tracker registration.

    Before Python 3.13 every ``SharedMemory`` open — attach included —
    registers with the per-process resource tracker, which unlinks
    whatever it still tracks when its process exits.  A worker exiting
    must never unlink a segment the parent (and its sibling workers)
    still map; and under ``fork`` the tracker process is *shared*, so a
    register/unregister pair from one worker would also knock out the
    publisher's legitimate registration.  Suppressing the registration
    at attach time (rather than undoing it afterwards) keeps the
    tracker's view exactly one-owner: the publishing
    :class:`SegmentStore`.
    """
    from multiprocessing import resource_tracker, shared_memory

    original = resource_tracker.register

    def _skip_shared_memory(target, rtype):  # pragma: no cover - trivial
        if rtype != "shared_memory":
            original(target, rtype)

    resource_tracker.register = _skip_shared_memory
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


def attach_graph(segment: SegmentHandle) -> WeightedGraph:
    """Map ``segment``, rebuild its graph from the shared buffers, unmap.

    The graph holds its own rows, so the region windows are released
    and the mapping closed (never unlinked — the publisher does that)
    before this returns.
    """
    shm = _attach_untracked(segment.shm_name)
    try:
        windows = segment.region_windows(shm.buf)
        try:
            up_off, down_off, weights, up_tgt, down_tgt, cores = windows
            graph = WeightedGraph.from_csr(
                CSRAdjacency(
                    segment.num_vertices, up_off, up_tgt, down_off, down_tgt
                ),
                weights,
                list(segment.labels) if segment.labels is not None else None,
                cores.tolist(),
            )
        finally:
            for window in windows:
                window.release()
    finally:
        shm.close()
    return graph


class SegmentStore:
    """Refcounted registry of published segments (parent side).

    ``acquire`` publishes at most once per ``(graph, version)`` and
    bumps the refcount; ``release`` unlinks when the count reaches zero.
    Publishing a *newer* version of a name does not auto-release older
    ones — in-flight queries may still resolve against them — but
    :meth:`release_all` (pool shutdown) unlinks everything regardless of
    counts: segment files outlive processes, so shutdown is the hard
    backstop against ``/dev/shm`` leaks.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._segments: dict = {}  # (graph, version) -> [SegmentHandle, refs, shm]

    def acquire(self, handle: GraphHandle) -> SegmentHandle:
        key = (handle.name, handle.version)
        with self._lock:
            slot = self._segments.get(key)
            if slot is None:
                segment, shm = publish_graph(handle)
                slot = [segment, 0, shm]
                self._segments[key] = slot
            slot[1] += 1
            return slot[0]

    def release(self, graph: str, version: int) -> bool:
        """Drop one reference; returns True when the segment was unlinked."""
        key = (graph, version)
        with self._lock:
            slot = self._segments.get(key)
            if slot is None:
                return False
            slot[1] -= 1
            if slot[1] > 0:
                return False
            del self._segments[key]
            self._unlink(slot)
            return True

    def release_all(self) -> int:
        """Unlink every published segment (pool shutdown); returns count."""
        with self._lock:
            slots = list(self._segments.values())
            self._segments.clear()
        for slot in slots:
            self._unlink(slot)
        return len(slots)

    def published(self) -> List[SegmentHandle]:
        with self._lock:
            return [slot[0] for slot in self._segments.values()]

    def __len__(self) -> int:
        with self._lock:
            return len(self._segments)

    @staticmethod
    def _unlink(slot) -> None:
        shm = slot[2]
        try:
            shm.close()
            shm.unlink()
        except (OSError, FileNotFoundError):  # pragma: no cover - already gone
            pass
