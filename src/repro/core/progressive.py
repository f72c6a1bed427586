"""LocalSearch-P — progressive top-k search (Algorithm 4, Section 4).

LocalSearch (Algorithm 1) only reports communities after its final round;
global algorithms (OnlineAll, Forward) only at the very end.  The
progressive variant exploits the *suffix property* (the ``keys``/``cvs`` of
``G>=tau_i`` is a suffix of those of ``G>=tau_{i+1}``, Lemma 3.1/3.2) to

* peel each round only down to the previous round's threshold
  (ConstructCVS, Algorithm 5 — our ``stop_rank``), and
* enumerate incrementally with a *shared* ``v2key`` union-find
  (EnumIC-P), so each community is built exactly once,

yielding communities in **strictly decreasing influence order** as soon as
they are known.  The user needs no ``k``: iterate :meth:`LocalSearchP.stream`
and stop whenever enough communities have been seen.  Terminating after the
``k``-th community costs ``O(size(G>=tau*_k))`` — the instance-optimality
of LocalSearch carries over (Section 4, "Time Complexity of
LocalSearch-P").

The rounds run on the shared prefix-round loop (:mod:`repro.core.rounds`),
so the stream ends at the first round whose prefix holds the γ-core of
``G``, where Algorithm 4 would go on to the whole graph.
"""

from __future__ import annotations

import threading
import time
from typing import Iterator, List, Optional, Tuple

from ..errors import QueryParameterError, check_delta
from ..graph.subgraph import PrefixView
from ..graph.weighted_graph import WeightedGraph
from ..obs.trace import record_phase
from .community import Community
from .count import CVSRecord
from .enumerate import EnumerationState, enumerate_progressive
from .fastenum import EnumScratch
from .local_search import TopKResult
from .noncontainment import iter_noncontainment_communities
from .rounds import PrefixRounds, SearchStats

__all__ = [
    "LocalSearchP",
    "ProgressiveCursor",
    "progressive_influential_communities",
]


class LocalSearchP:
    """Progressive influential γ-community searcher (Algorithm 4).

    Parameters
    ----------
    graph:
        The weighted graph to query.
    gamma:
        Minimum-degree cohesiveness parameter (γ >= 1).
    delta:
        Geometric growth ratio between rounds (the paper fixes 2 in
        Algorithm 4; configurable here for the δ ablation of Eval-IV).
    noncontainment:
        When true, only *non-containment* communities are yielded
        (Section 5.1): communities containing no other influential
        γ-community; each is exactly its keynode's ``cvs`` group.
    kernel:
        Peel kernel (any name in :data:`~repro.core.fastpeel.KERNELS`);
        ``None`` defers to ``REPRO_KERNEL`` / ``auto``.
    """

    def __init__(
        self,
        graph: WeightedGraph,
        gamma: int,
        delta: float = 2.0,
        noncontainment: bool = False,
        kernel: Optional[str] = None,
    ) -> None:
        if gamma < 1:
            raise QueryParameterError("gamma must be at least 1")
        check_delta(delta)
        self.graph = graph
        self.gamma = gamma
        self.delta = delta
        self.noncontainment = noncontainment
        self.kernel = kernel
        self.stats = SearchStats(gamma=gamma, delta=delta, graph_size=graph.size)

    # ------------------------------------------------------------------
    def initial_prefix(self) -> int:
        """Line 1: smallest prefix that could hold one community (γ+1)."""
        return min(self.graph.num_vertices, self.gamma + 1)

    def records(self) -> Iterator[CVSRecord]:
        """The peel record of each round of :meth:`stream`, in order.

        Round i+1 reuses round i's peel buffers and down-cuts, and peels
        only down to round i's prefix.
        """
        gamma = self.gamma
        rounds = PrefixRounds(
            self.graph, gamma, self.delta, self.kernel, stats=self.stats
        )

        def count(view: PrefixView, p_prev: int):
            record = rounds.peel(
                view,
                gamma,
                stop_rank=p_prev,
                track_noncontainment=self.noncontainment,
            )
            return record.num_communities, record

        return rounds.run(self.initial_prefix(), count)

    def stream(self) -> Iterator[Community]:
        """Yield communities in decreasing influence order, progressively.

        The generator may be abandoned at any time ("the user can terminate
        the algorithm once having seen enough results"); the work done is
        proportional to the largest prefix peeled so far.  It ends by
        itself after the round whose prefix reaches ``core_stop(gamma)``.
        """
        graph, phases = self.graph, self.stats.phases
        records = self.records()
        # The enumeration state — the oracle's EnumerationState or the
        # flat kernels' EnumScratch — is EnumIC-P's shared ``v2key``: it
        # must persist across every round of this stream (and only this
        # stream).
        kernel = self.stats.kernel
        state = EnumerationState() if kernel == "python" else None
        enum_scratch = EnumScratch() if kernel != "python" else None
        for record in records:
            if self.noncontainment:
                yield from iter_noncontainment_communities(graph, record)
                continue
            # An explicit next() loop (not yield-from) so the timed
            # window covers only generator-internal enumeration work
            # — never the consumer's time between pulls.
            enum = enumerate_progressive(
                graph, record, state, kernel=kernel, scratch=enum_scratch
            )
            while True:
                t0 = time.perf_counter()
                community = next(enum, None)
                record_phase("enumerate", time.perf_counter() - t0, phases)
                if community is None:
                    break
                yield community

    def stream_with_timestamps(
        self,
    ) -> Iterator[Tuple[Community, float]]:
        """Like :meth:`stream`, yielding ``(community, seconds_since_start)``.

        The latency series of Eval-V (Figure 14): the elapsed time from
        query start until the top-``i`` community is reported.
        """
        started = time.perf_counter()
        for community in self.stream():
            yield community, time.perf_counter() - started

    def cursor(self) -> "ProgressiveCursor":
        """A resumable handle over :meth:`stream` (see ProgressiveCursor)."""
        return ProgressiveCursor(self)

    # ------------------------------------------------------------------
    def run(self, k: Optional[int] = None) -> TopKResult:
        """Collect the first ``k`` communities (all of them if ``None``)."""
        started = time.perf_counter()
        communities: List[Community] = []
        for community in self.stream():
            communities.append(community)
            if k is not None and len(communities) >= k:
                break
        self.stats.k = k or len(communities)
        self.stats.elapsed_seconds = time.perf_counter() - started
        return TopKResult(communities=communities, stats=self.stats)


class ProgressiveCursor:
    """Resumable, thread-safe cursor over :meth:`LocalSearchP.stream`.

    The progressive stream yields communities in strictly decreasing
    influence order, and the sequence does not depend on any ``k`` — a
    ``k`` only truncates it.  The cursor exploits that: it materialises
    communities as they are pulled and keeps them, so

    * ``take(k')`` with ``k' <=`` what has been seen is a slice (no
      recomputation at all), and
    * ``take(k')`` with a larger ``k'`` **resumes** the underlying
      generator exactly where the previous call stopped — the suffix
      property (Lemma 3.1/3.2) means no prefix is ever re-peeled.

    This is the primitive behind the service layer's result cache: one
    cursor, held by the family's
    :class:`~repro.service.cache.ProgressiveEntry`, amortises a whole
    family of ``(gamma, k)`` queries and progressive sessions over the
    same graph.
    """

    def __init__(self, searcher: LocalSearchP) -> None:
        self.searcher = searcher
        self._stream = searcher.stream()
        self._seen: List[Community] = []
        self._exhausted = False
        self._lock = threading.Lock()

    @property
    def materialized(self) -> int:
        """Number of communities pulled from the stream so far."""
        return len(self._seen)

    @property
    def exhausted(self) -> bool:
        """True once the stream has ended (all communities are known)."""
        return self._exhausted

    def _advance_to(self, k: int) -> None:
        if self._exhausted or len(self._seen) >= k:
            return
        # cursor_resume brackets the whole stream advance, so it
        # *overlaps* the gamma_core/peel/enumerate phases the
        # advance triggers — it measures "time spent resuming a cached
        # cursor", not a disjoint slice of the total.
        t0 = time.perf_counter()
        while not self._exhausted and len(self._seen) < k:
            try:
                self._seen.append(next(self._stream))
            except StopIteration:
                self._exhausted = True
        record_phase(
            "cursor_resume",
            time.perf_counter() - t0,
            self.searcher.stats.phases,
        )

    def take(self, k: int) -> Tuple[Community, ...]:
        """The top-``k`` communities, resuming the stream if needed.

        Returns an immutable tuple.  The stream is append-only, so the
        returned slice can never change once ``k`` communities are
        materialised; the serving tier's repeat-hit path memoises these
        answers per ``k`` one level up, in
        :class:`~repro.service.cache.ProgressiveEntry`, which is where
        repeated same-``k`` requests actually land.
        """
        with self._lock:
            self._advance_to(k)
            return tuple(self._seen[:k])


def progressive_influential_communities(
    graph: WeightedGraph,
    gamma: int,
    delta: float = 2.0,
    kernel: Optional[str] = None,
) -> Iterator[Community]:
    """Convenience generator over :meth:`LocalSearchP.stream`.

    >>> from repro.graph.builder import graph_from_arrays
    >>> g = graph_from_arrays(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    >>> influences = [c.influence for c in
    ...               progressive_influential_communities(g, gamma=2)]
    >>> influences == sorted(influences, reverse=True)
    True
    """
    return LocalSearchP(graph, gamma=gamma, delta=delta, kernel=kernel).stream()
