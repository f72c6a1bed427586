"""Flat-array CSR form of a :class:`WeightedGraph` (the cluster buffer format).

:class:`~repro.graph.weighted_graph.WeightedGraph` stores adjacency as
its ``N>=`` / ``N<`` rows, one sorted Python list per vertex, and every
kernel reads those rows directly.  A worker *process* cannot see them,
so the cluster tier (:mod:`repro.cluster.segment`) publishes each graph
as one **compressed-sparse-row** copy of the same partition:

* ``up_targets`` — every ``adj_up`` row concatenated, each row sorted
  ascending; ``up_offsets[u] : up_offsets[u + 1]`` bounds row ``u``;
* ``down_targets`` / ``down_offsets`` — the same for ``adj_down``.

The buffers are :class:`array.array` (``'i'`` targets, ``'q'`` offsets)
when built by :meth:`CSRAdjacency.from_graph`: contiguous, typed and
shareable, which is what a ``multiprocessing.shared_memory`` segment
wants.  On the attach side they are typed ``memoryview`` casts over the
segment, and :meth:`~repro.graph.weighted_graph.WeightedGraph.from_csr`
slices them back into rows.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from .weighted_graph import WeightedGraph

__all__ = ["CSRAdjacency"]


class CSRAdjacency:
    """Immutable flat-array (CSR) form of a graph's up/down adjacency.

    The four buffers may be :class:`array.array` objects or typed
    ``memoryview`` windows over foreign memory; consumers need only
    ``len()``, ``.itemsize``, slicing and the buffer protocol.
    """

    __slots__ = (
        "num_vertices",
        "num_edges",
        "up_offsets",
        "up_targets",
        "down_offsets",
        "down_targets",
    )

    def __init__(
        self,
        num_vertices: int,
        up_offsets,
        up_targets,
        down_offsets,
        down_targets,
    ) -> None:
        self.num_vertices = num_vertices
        self.num_edges = len(up_targets)
        self.up_offsets = up_offsets
        self.up_targets = up_targets
        self.down_offsets = down_offsets
        self.down_targets = down_targets

    @classmethod
    def from_graph(cls, graph: "WeightedGraph") -> "CSRAdjacency":
        """Flatten ``graph``'s adjacency into contiguous buffers (O(n + m))."""
        n = graph.num_vertices
        up_offsets = array("q", [0])
        down_offsets = array("q", [0])
        up_targets = array("i")
        down_targets = array("i")
        up_total = down_total = 0
        for u in range(n):
            row = graph.neighbors_up(u)
            up_targets.extend(row)
            up_total += len(row)
            up_offsets.append(up_total)
            row = graph.neighbors_down(u)
            down_targets.extend(row)
            down_total += len(row)
            down_offsets.append(down_total)
        return cls(n, up_offsets, up_targets, down_offsets, down_targets)

    @property
    def nbytes(self) -> int:
        """Size of the four buffers in bytes."""
        return (
            self.up_offsets.itemsize * len(self.up_offsets)
            + self.up_targets.itemsize * len(self.up_targets)
            + self.down_offsets.itemsize * len(self.down_offsets)
            + self.down_targets.itemsize * len(self.down_targets)
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"CSRAdjacency(n={self.num_vertices}, m={self.num_edges}, "
            f"{self.nbytes / 1e6:.2f} MB)"
        )
