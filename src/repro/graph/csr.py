"""Flat-array CSR mirror of a :class:`WeightedGraph` (the kernel substrate).

:class:`~repro.graph.weighted_graph.WeightedGraph` stores adjacency as a
Python list of lists — ideal for incremental construction and for the
bisect-based prefix queries, but with a pointer-chasing memory layout
that dominates the constant factor of the hot peel
(:mod:`repro.core.fastpeel`).  :class:`CSRAdjacency` is an immutable
**compressed-sparse-row** mirror of the same ``N>=`` / ``N<`` partition:

* ``up_targets`` — every ``adj_up`` row concatenated, each row sorted
  ascending; ``up_offsets[u] : up_offsets[u + 1]`` bounds row ``u``;
* ``down_targets`` / ``down_offsets`` — the same for ``adj_down``.

The canonical buffers are :class:`array.array` (``'i'`` targets, ``'q'``
offsets): contiguous, picklable, and shareable across processes — the
prerequisite for promoting the thread-based
:class:`~repro.server.shards.ShardPool` to a process pool (dict/list
graphs cannot be shared without a serialise-and-copy per worker).  The
``array`` kernel's inner loops run on a derived view built lazily and
cached, :meth:`lists`: plain Python-list mirrors, because CPython
iterates a list of (cached small) ints faster than it can box values
out of an ``array``.

Because every threshold subgraph ``G>=tau`` is a rank prefix, the CSR
needs no per-view rebuild: a prefix is fully described by the shared
buffers plus one *down-cut* per vertex (the end of the row's in-prefix
part — rows are sorted, so it is a single bound).  :class:`PrefixAdjacency`
packages exactly that as a read-only sequence of neighbour rows, which
is what the fast peel records as :attr:`CVSRecord.nbrs` in place of the
materialised list-of-lists.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from .weighted_graph import WeightedGraph

__all__ = ["CSRAdjacency", "DeltaCSR", "PrefixAdjacency"]


class CSRAdjacency:
    """Immutable flat-array (CSR) form of a graph's up/down adjacency."""

    __slots__ = (
        "num_vertices",
        "num_edges",
        "up_offsets",
        "up_targets",
        "down_offsets",
        "down_targets",
        "_lists",
    )

    def __init__(
        self,
        num_vertices: int,
        up_offsets: array,
        up_targets: array,
        down_offsets: array,
        down_targets: array,
    ) -> None:
        self.num_vertices = num_vertices
        self.num_edges = len(up_targets)
        self.up_offsets = up_offsets
        self.up_targets = up_targets
        self.down_offsets = down_offsets
        self.down_targets = down_targets
        self._lists: Optional[
            Tuple[List[int], List[int], List[int], List[int]]
        ] = None

    # ------------------------------------------------------------------
    @classmethod
    def from_buffers(
        cls,
        num_vertices: int,
        up_offsets,
        up_targets,
        down_offsets,
        down_targets,
    ) -> "CSRAdjacency":
        """Wrap pre-existing canonical buffers **without copying**.

        The buffers may be :class:`array.array` objects or typed
        ``memoryview`` casts over foreign memory — in particular over a
        ``multiprocessing.shared_memory`` segment, which is how
        :mod:`repro.cluster` rebuilds a graph's CSR inside a worker
        process with zero per-worker copies of the canonical buffers.
        Every consumer only needs ``len()``, ``.itemsize``, iteration
        (:meth:`lists`) and the buffer protocol, all of which both types
        provide.
        """
        return cls(
            num_vertices, up_offsets, up_targets, down_offsets, down_targets
        )

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

    # ------------------------------------------------------------------
    @property
    def nbytes(self) -> int:
        """Size of the canonical buffers in bytes (derived views excluded)."""
        return (
            self.up_offsets.itemsize * len(self.up_offsets)
            + self.up_targets.itemsize * len(self.up_targets)
            + self.down_offsets.itemsize * len(self.down_offsets)
            + self.down_targets.itemsize * len(self.down_targets)
        )

    def lists(self) -> Tuple[List[int], List[int], List[int], List[int]]:
        """Python-list mirrors ``(up_off, up_tgt, down_off, down_tgt)``.

        Built once (C-level ``list(array)``) and cached: CPython's inner
        loops iterate and subscript lists measurably faster than
        ``array`` objects, which must box every element on access.
        """
        mirrors = self._lists
        if mirrors is None:
            mirrors = (
                list(self.up_offsets),
                list(self.up_targets),
                list(self.down_offsets),
                list(self.down_targets),
            )
            self._lists = mirrors
        return mirrors

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"CSRAdjacency(n={self.num_vertices}, m={self.num_edges}, "
            f"{self.nbytes / 1e6:.2f} MB)"
        )

    # ------------------------------------------------------------------
    # pickling: drop the derived list mirrors (cheap to rebuild).
    # Memoryview-backed instances (shared-memory attach, from_buffers)
    # materialise real arrays first: a memoryview cannot be pickled, and
    # the receiving process has no claim on our segment lifetime anyway.
    def __reduce__(self):
        def _own(buffer, typecode):
            return buffer if isinstance(buffer, array) else array(typecode, buffer)

        return (
            self.__class__,
            (
                self.num_vertices,
                _own(self.up_offsets, "q"),
                _own(self.up_targets, "i"),
                _own(self.down_offsets, "q"),
                _own(self.down_targets, "i"),
            ),
        )


class DeltaCSR:
    """A CSR with a small set of replaced adjacency rows (``repro.live``).

    Mutated generations produced by :func:`repro.graph.delta.apply_batch`
    install one of these instead of re-flattening the whole graph: the
    overlay holds only the **touched rows** (already sorted, rank space
    unchanged) and answers the full :class:`CSRAdjacency` interface by
    merging base and overlay **at the adjacency-row boundary** — row
    ``v`` comes from the overlay when touched, from the base otherwise.
    Kernels consume :meth:`lists` exactly as they do on a flat CSR, so
    peel/enumerate results are byte-identical to a full rebuild.

    The merge is lazy and cached: constructing the overlay is O(touched
    rows); the first kernel access folds the row mirrors by splicing
    whole untouched *runs* of the base mirrors (C-level list slices)
    around the overlay rows.  The canonical ``array`` buffers (needed
    for shared-memory publication and pickling) materialise from the
    folded mirrors on first request — that is what the background
    compactor calls :meth:`materialize` for, after which the generation
    is an ordinary flat :class:`CSRAdjacency` again.

    Overlays chain (a ``DeltaCSR`` over a ``DeltaCSR``): only the
    base's :meth:`lists` is consulted, which any generation provides.
    The compactor bounds chain depth.
    """

    __slots__ = (
        "base",
        "num_vertices",
        "num_edges",
        "_up_rows",
        "_down_rows",
        "_lists",
        "_arrays",
    )

    def __init__(
        self,
        base,
        up_rows,
        down_rows,
        num_edges: int,
    ) -> None:
        self.base = base
        self.num_vertices = base.num_vertices
        #: Edge count of the *merged* adjacency — passed in by the
        #: overlay constructor (which knows the insert/delete balance)
        #: so creating the overlay never touches the base buffers.
        self.num_edges = num_edges
        self._up_rows = dict(up_rows)
        self._down_rows = dict(down_rows)
        self._lists = None
        self._arrays = None

    # ------------------------------------------------------------------
    @staticmethod
    def _fold(base_off, base_tgt, rows, n):
        """Splice overlay rows into the base mirrors (row-boundary merge)."""
        if not rows:
            return base_off, base_tgt  # untouched side: share the base
        off: List[int] = []
        tgt: List[int] = []
        shift = 0
        prev = 0
        for v in sorted(rows):
            if v > prev:
                if shift:
                    off.extend(o + shift for o in base_off[prev:v])
                else:
                    off.extend(base_off[prev:v])
                tgt.extend(base_tgt[base_off[prev]:base_off[v]])
            row = rows[v]
            off.append(base_off[v] + shift)
            tgt.extend(row)
            shift += len(row) - (base_off[v + 1] - base_off[v])
            prev = v + 1
        if shift:
            off.extend(o + shift for o in base_off[prev:])
        else:
            off.extend(base_off[prev:])
        tgt.extend(base_tgt[base_off[prev]:])
        return off, tgt

    def lists(self) -> Tuple[List[int], List[int], List[int], List[int]]:
        """Merged Python-list mirrors (same contract as the flat CSR)."""
        mirrors = self._lists
        if mirrors is None:
            b_up_off, b_up_tgt, b_down_off, b_down_tgt = self.base.lists()
            n = self.num_vertices
            up_off, up_tgt = self._fold(b_up_off, b_up_tgt, self._up_rows, n)
            down_off, down_tgt = self._fold(
                b_down_off, b_down_tgt, self._down_rows, n
            )
            mirrors = (up_off, up_tgt, down_off, down_tgt)
            self._lists = mirrors
        return mirrors

    def _canonical(self) -> Tuple[array, array, array, array]:
        buffers = self._arrays
        if buffers is None:
            up_off, up_tgt, down_off, down_tgt = self.lists()
            buffers = (
                array("q", up_off),
                array("i", up_tgt),
                array("q", down_off),
                array("i", down_tgt),
            )
            self._arrays = buffers
        return buffers

    @property
    def up_offsets(self) -> array:
        return self._canonical()[0]

    @property
    def up_targets(self) -> array:
        return self._canonical()[1]

    @property
    def down_offsets(self) -> array:
        return self._canonical()[2]

    @property
    def down_targets(self) -> array:
        return self._canonical()[3]

    @property
    def overlay_rows(self) -> int:
        """How many adjacency rows the overlay replaces (both sides)."""
        return len(self._up_rows) + len(self._down_rows)

    @property
    def depth(self) -> int:
        """Overlay chain depth above the nearest flat generation."""
        return 1 + getattr(self.base, "depth", 0)

    @property
    def nbytes(self) -> int:
        """Approximate footprint: base plus the overlay rows."""
        overlay = sum(
            4 * len(r)
            for rows in (self._up_rows, self._down_rows)
            for r in rows.values()
        )
        return self.base.nbytes + overlay

    def materialize(self) -> CSRAdjacency:
        """Fold into a flat :class:`CSRAdjacency` (the compaction step)."""
        up_off, up_tgt, down_off, down_tgt = self._canonical()
        flat = CSRAdjacency(
            self.num_vertices, up_off, up_tgt, down_off, down_tgt
        )
        # The folded mirrors ARE the flat CSR's list mirrors — seed the
        # cache so compaction does not rebuild them from the arrays.
        flat._lists = self.lists()
        return flat

    # Pickling ships the merged flat form: the receiving process has no
    # use for our base/overlay split (and the base may alias a
    # shared-memory segment it cannot reach).
    def __reduce__(self):
        csr = self.materialize()
        return (
            CSRAdjacency,
            (
                csr.num_vertices,
                csr.up_offsets,
                csr.up_targets,
                csr.down_offsets,
                csr.down_targets,
            ),
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"DeltaCSR(n={self.num_vertices}, m={self.num_edges}, "
            f"overlay_rows={self.overlay_rows}, depth={self.depth})"
        )


class PrefixAdjacency(Sequence):
    """Read-only neighbour rows of a rank prefix, backed by shared CSR.

    ``rows[v]`` is the list of ``v``'s neighbours inside the prefix, in
    the same order the materialised
    :meth:`~repro.graph.subgraph.PrefixView.neighbor_lists` produces
    (up-neighbours ascending, then in-prefix down-neighbours ascending),
    so :mod:`repro.core.enumerate` consumes either representation
    interchangeably.  Rows are assembled on access from two C-level list
    slices — no O(size) materialisation ever happens.
    """

    __slots__ = (
        "p",
        "_up_off",
        "_up_tgt",
        "_down_off",
        "_down_tgt",
        "_cuts",
    )

    def __init__(
        self,
        csr: CSRAdjacency,
        p: int,
        cuts: List[int],
    ) -> None:
        up_off, up_tgt, down_off, down_tgt = csr.lists()
        self.p = p
        self._up_off = up_off
        self._up_tgt = up_tgt
        self._down_off = down_off
        self._down_tgt = down_tgt
        #: Absolute end index of each vertex's in-prefix down-row part.
        self._cuts = cuts

    def __len__(self) -> int:
        return self.p

    def __getitem__(self, v: int) -> List[int]:
        if isinstance(v, slice):  # pragma: no cover - sequence protocol
            return [self[i] for i in range(*v.indices(self.p))]
        if v < 0:
            v += self.p
        if not 0 <= v < self.p:
            raise IndexError(f"vertex {v} outside prefix [0, {self.p})")
        up_off = self._up_off
        return (
            self._up_tgt[up_off[v]:up_off[v + 1]]
            + self._down_tgt[self._down_off[v]:self._cuts[v]]
        )

    def flat(
        self,
    ) -> Tuple[List[int], List[int], List[int], List[int], List[int]]:
        """The raw row machinery ``(up_off, up_tgt, down_off, down_tgt, cuts)``.

        Kernel loops (:mod:`repro.core.fastenum`) iterate the two row
        parts directly off these shared lists, skipping the per-row
        concatenation :meth:`__getitem__` performs.
        """
        return (
            self._up_off,
            self._up_tgt,
            self._down_off,
            self._down_tgt,
            self._cuts,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"PrefixAdjacency(p={self.p})"
