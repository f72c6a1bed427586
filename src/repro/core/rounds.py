"""The prefix-round loop shared by every local search (Algorithms 1, 4, 6).

LocalSearch, LocalSearch-P, the non-containment search, the general
framework and the truss search all run one loop: count the communities
of a small rank prefix, and while the count is short of ``k``, grow the
prefix until its size is ``δ`` times the last one.  :class:`PrefixRounds`
is that loop; a searcher supplies its count step and enumerates the
records the rounds yield.

A search also ends at the first round whose prefix holds the ``c``-core
of ``G`` (:meth:`~repro.graph.weighted_graph.WeightedGraph.core_stop`),
for a ``c`` whose core holds all of its communities: γ for minimum
degree and edge connectivity, γ − 1 for the γ-truss, 1 for any other
measure (:meth:`~repro.core.general.CohesivenessMeasure.holding_core`).
So an answer short of ``k`` costs the prefix that reaches the core's
last rank, and an empty core costs no round.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple, TypeVar

from ..graph.subgraph import PrefixView
from ..graph.weighted_graph import WeightedGraph
from .count import CVSRecord, construct_cvs
from .fastpeel import PeelScratch, resolve_kernel

__all__ = ["SearchStats", "PrefixRounds"]

R = TypeVar("R")


@dataclass
class SearchStats:
    """Instrumentation of one LocalSearch run.

    ``total_work`` is the sum of the sizes of all peeled prefixes — the
    quantity the time-complexity analysis bounds.  ``accessed_size`` is the
    size of the largest (final) prefix — the quantity instance-optimality
    compares against ``size(G>=tau*)``.
    """

    gamma: int = 0
    k: int = 0
    delta: float = 2.0
    prefixes: List[int] = field(default_factory=list)
    prefix_sizes: List[int] = field(default_factory=list)
    counts: List[int] = field(default_factory=list)
    graph_size: int = 0
    elapsed_seconds: float = 0.0
    #: Which kernel served the run (resolved name, never "auto").  One
    #: resolution covers both halves of the query: the peel
    #: (:mod:`repro.core.fastpeel`) and the enumeration
    #: (:mod:`repro.core.fastenum`) dispatch on the same name.
    kernel: Optional[str] = None
    #: Accumulated per-phase wall time in **milliseconds** (CSR build,
    #: gamma-core, peel, enumeration, cursor resume) — written through
    #: :func:`repro.obs.trace.record_phase`, so an active trace span
    #: receives the same increments.  For a cached progressive cursor
    #: the dict accumulates over the family's lifetime (each resume adds
    #: to it), while span phases stay per-query.
    phases: Dict[str, float] = field(default_factory=dict)

    @property
    def rounds(self) -> int:
        """Number of CountIC invocations."""
        return len(self.prefixes)

    @property
    def accessed_size(self) -> int:
        """Size of the largest subgraph accessed (the final prefix)."""
        return self.prefix_sizes[-1] if self.prefix_sizes else 0

    @property
    def total_work(self) -> int:
        """Sum of the sizes of all peeled prefixes."""
        return sum(self.prefix_sizes)

    @property
    def accessed_fraction(self) -> float:
        """``size(accessed) / size(G)`` — the locality claim of Section 3.1."""
        if not self.graph_size:
            return 0.0
        return self.accessed_size / self.graph_size


#: A round's count step: ``(view, p_prev) -> (count, record)``.
CountStep = Callable[[PrefixView, int], Tuple[int, R]]


class PrefixRounds:
    """One query's doubling rounds over ``graph``.

    Built once per query: it resolves the kernel, opens the query's
    :class:`SearchStats` (or adopts ``stats``, which a progressive
    searcher owns for its lifetime), reads the stop of the ``core``-core
    (``core`` defaults to ``gamma``) and holds the peel scratch that
    every round of the query reuses (``None`` for the python kernel).
    The rounds end once a count reaches ``k``; a progressive stream
    (``k=None``) runs them to the stop.
    """

    def __init__(
        self,
        graph: WeightedGraph,
        gamma: int,
        delta: float = 2.0,
        kernel: Optional[str] = None,
        k: Optional[int] = None,
        core: Optional[int] = None,
        stats: Optional[SearchStats] = None,
    ) -> None:
        self.started = time.perf_counter()
        self.graph = graph
        self.delta = delta
        self.k = k
        self.kernel = resolve_kernel(kernel)
        if stats is None:
            stats = SearchStats(
                gamma=gamma, k=k or 0, delta=delta, graph_size=graph.size
            )
        stats.kernel = self.kernel
        self.stats = stats
        self.stop = graph.core_stop(gamma if core is None else core)
        self.scratch = PeelScratch() if self.kernel != "python" else None

    def peel(self, view: PrefixView, gamma: int, **options) -> CVSRecord:
        """ConstructCVS of ``view`` on the query's kernel and scratch,
        timed into its phases (``options`` go to :func:`construct_cvs`)."""
        return construct_cvs(
            view,
            gamma,
            kernel=self.kernel,
            scratch=self.scratch,
            phases=self.stats.phases,
            **options,
        )

    def run(
        self,
        first: int,
        step: CountStep,
        increment: Optional[int] = None,
    ) -> Iterator[R]:
        """Run the rounds from prefix ``first``, yielding each record.

        ``step(view, p_prev)`` counts the communities of the round's
        view, given the previous round's prefix length (0 in the first
        round), and returns ``(count, record)``.  Each view extends the
        last one, so no down-cut is searched twice.  The round is logged
        in :attr:`stats` before its record is yielded; the rounds end
        after the one whose count reaches ``k`` or whose prefix reaches
        the core stop (``stop <= n``, so at the whole graph at the
        latest).  ``increment`` swaps the δ-fold growth for a fixed
        size increment: the linear strawman of Section 3.3's Remark.
        """
        graph, stats, stop, k = self.graph, self.stats, self.stop, self.k
        if stop == 0:
            return
        n = graph.num_vertices
        p_prev, p = 0, min(first, n)
        view: Optional[PrefixView] = None
        while True:
            view = PrefixView(graph, p) if view is None else view.extend(p)
            count, record = step(view, p_prev)
            stats.prefixes.append(p)
            stats.prefix_sizes.append(view.size)
            stats.counts.append(count)
            yield record
            if p >= stop or (k is not None and count >= k):
                return
            if increment is None:
                target = int(math.ceil(self.delta * view.size))
            else:
                target = view.size + increment
            # Guarantee progress even for degenerate targets.
            p_prev, p = p, max(graph.grow_prefix(p, target), min(p + 1, n))

    def last(
        self, first: int, step: CountStep, increment: Optional[int] = None
    ) -> Optional[R]:
        """The final round's record, or ``None`` when no round ran."""
        record = None
        for record in self.run(first, step, increment):
            pass
        return record

    def finish(self) -> SearchStats:
        """The stats, with the time since this object was built."""
        self.stats.elapsed_seconds = time.perf_counter() - self.started
        return self.stats
