"""Multi-process shard execution over shared-memory CSR segments.

The GIL ceiling: since PR 3 the hot peel is allocation-free and flat,
but :class:`~repro.server.shards.ShardPool`'s shards are threads — N
CPU-bound cursor advances still execute one bytecode at a time.  This
package is the scale-out step the ROADMAP marked **unblocked** by the
CSR layer (contiguous, immutable, picklable buffers):

* :mod:`~repro.cluster.segment` — publish a registered graph's CSR
  buffers + weights into one ``multiprocessing.shared_memory`` segment
  (refcounted, version-tagged by the
  :class:`~repro.service.registry.GraphRegistry`), which each worker
  copies into its graph's rows at attach and then unmaps;
  pickle-per-worker fallback where shared memory is missing;
* :mod:`~repro.cluster.worker` — long-lived worker processes owning the
  per-:class:`~repro.api.spec.FamilyKey` progressive cursor state (a
  worker-local engine + result cache), executing QuerySpec jobs
  including ``extend_to`` continuations one-pass;
* :mod:`~repro.cluster.pool` — :class:`ClusterPool`: the ShardPool
  routing/replication surface over processes, with family-affine sticky
  dispatch, health checks + restart with cursor re-seed from the parent
  :class:`~repro.service.cache.ResultCache`, and graceful drain that
  unlinks every segment.

Select it with ``repro serve --tcp PORT --workers N`` (threads remain
the default, and the automatic fallback when multiprocessing is
unavailable), or in code via
:func:`repro.server.shards.create_pool`.
"""

from .pool import ClusterPool
from .segment import (
    SegmentHandle,
    SegmentStore,
    attach_graph,
    publish_graph,
    shared_memory_available,
)
from .worker import WorkerConfig, worker_main

__all__ = [
    "ClusterPool",
    "SegmentHandle",
    "SegmentStore",
    "WorkerConfig",
    "attach_graph",
    "publish_graph",
    "shared_memory_available",
    "worker_main",
]
