"""LocalSearch — the instance-optimal top-k search (Algorithm 1).

The framework rests on Theorem 3.1: if ``G>=tau`` contains at least ``k``
influential γ-communities, its top-k are the global top-k.  LocalSearch
therefore looks for the *largest* such threshold by growing a rank prefix
geometrically:

1. start from the ``(k + γ)``-th largest weight (any k communities span at
   least ``k + γ`` distinct vertices — Line 1's heuristic);
2. while ``CountIC`` reports fewer than ``k`` communities and the prefix is
   not the whole graph, grow the prefix until its ``size`` (vertices +
   edges) is at least ``δ`` times the current one (Line 4);
3. run ``EnumIC`` on the final prefix and return its top-k.

With the doubling growth the total work is a geometric series dominated by
the final prefix, which itself is at most ``2δ`` times ``size(G>=tau*)``
(Lemma 3.8) — hence the ``O((2δ²/(δ−1)) · size(G>=tau*))`` bound of
Theorem 3.3, minimised at ``δ = 2``, and instance-optimality within the
class of index-free algorithms (Theorem 3.4).

The module also exposes the *linear growth* alternative discussed in the
Remark of Section 3.3 (used by the growth-strategy ablation benchmark:
fixed increments make the total work quadratic in the accessed subgraph)
and the **LocalSearch-OA** counting variant of Eval-III, which swaps
CountIC for an OnlineAll-based counter.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..errors import QueryParameterError, check_delta
from ..obs.trace import record_phase
from ..graph.subgraph import PrefixView
from ..graph.weighted_graph import WeightedGraph
from .community import Community
from .count import CVSRecord, construct_cvs
from .enumerate import enumerate_top_k
from .fastenum import EnumScratch
from .fastpeel import PeelScratch, resolve_kernel

__all__ = [
    "SearchStats",
    "TopKResult",
    "LocalSearch",
    "top_k_influential_communities",
]


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


@dataclass
class TopKResult:
    """Result of a top-k query: communities plus instrumentation."""

    communities: List[Community]
    stats: SearchStats
    record: Optional[CVSRecord] = None

    @property
    def influences(self) -> List[float]:
        """Influence values in reported (decreasing) order."""
        return [c.influence for c in self.communities]

    def __iter__(self):
        return iter(self.communities)

    def __len__(self) -> int:
        return len(self.communities)


CountFunction = Callable[[PrefixView, int], int]


class LocalSearch:
    """Configured top-k influential γ-community searcher (Algorithm 1).

    Parameters
    ----------
    graph:
        The weighted graph to query.
    gamma:
        Minimum-degree cohesiveness parameter (γ >= 1).
    delta:
        Geometric growth ratio (> 1); the paper shows δ = 2 minimises the
        worst-case constant ``2δ²/(δ−1)`` (Section 3.3).
    growth:
        ``"exponential"`` (the paper's choice) or ``"linear"`` (the
        quadratic strawman of the Remark in Section 3.3, for ablations).
    linear_increment:
        Size increment per round under linear growth (defaults to the
        initial prefix size).
    counting:
        ``"countic"`` (Algorithm 2) or ``"onlineall"`` — the LocalSearch-OA
        variant of Eval-III that counts by running the OnlineAll peel
        (with its per-iteration component computation) on each prefix.
    """

    def __init__(
        self,
        graph: WeightedGraph,
        gamma: int,
        delta: float = 2.0,
        growth: str = "exponential",
        linear_increment: Optional[int] = None,
        counting: str = "countic",
        kernel: Optional[str] = None,
    ) -> None:
        if gamma < 1:
            raise QueryParameterError("gamma must be at least 1")
        check_delta(delta)
        if growth not in ("exponential", "linear"):
            raise QueryParameterError(f"unknown growth strategy {growth!r}")
        if counting not in ("countic", "onlineall"):
            raise QueryParameterError(f"unknown counting mode {counting!r}")
        self.graph = graph
        self.gamma = gamma
        self.delta = delta
        self.growth = growth
        self.linear_increment = linear_increment
        self.counting = counting
        self.kernel = kernel

    # ------------------------------------------------------------------
    def initial_prefix(self, k: int) -> int:
        """Line 1 heuristic: the ``(k + γ)``-th largest weight's prefix."""
        return min(self.graph.num_vertices, k + self.gamma)

    def _next_prefix(self, p: int, current_size: int, initial_size: int) -> int:
        """Line 4: the next (larger) prefix according to the growth policy."""
        if self.growth == "exponential":
            target = int(math.ceil(self.delta * current_size))
        else:
            increment = self.linear_increment or max(initial_size, 1)
            target = current_size + increment
        q = self.graph.grow_prefix(p, target)
        # Guarantee progress even for degenerate targets.
        return max(q, min(p + 1, self.graph.num_vertices))

    def _count(self, view: PrefixView, gamma: int) -> int:
        if self.counting == "onlineall":
            from ..baselines.online_all import online_all_count

            return online_all_count(view, gamma)
        return construct_cvs(view, gamma).num_communities

    # ------------------------------------------------------------------
    def search(self, k: int) -> TopKResult:
        """Run Algorithm 1 and return the top-``k`` communities.

        If the whole graph contains fewer than ``k`` influential
        γ-communities, all of them are returned (the paper's Theorem 3.1
        presumes at least ``k`` exist; we degrade gracefully).
        """
        if k < 1:
            raise QueryParameterError("k must be at least 1")
        graph, gamma = self.graph, self.gamma
        started = time.perf_counter()
        kernel = resolve_kernel(self.kernel)
        stats = SearchStats(
            gamma=gamma, k=k, delta=self.delta, graph_size=graph.size,
            kernel=kernel,
        )

        # The round whose prefix reaches ``stop`` holds every community
        # (see LocalSearchP.stream); an empty γ-core needs no round.
        stop = graph.core_stop(gamma)
        if stop == 0:
            stats.elapsed_seconds = time.perf_counter() - started
            return TopKResult(communities=[], stats=stats)
        p = self.initial_prefix(k)
        initial_size = graph.prefix_size(p)
        record: Optional[CVSRecord] = None
        # One scratch pair and one chained view family per search: every
        # growth round reuses the previous round's buffers and down-cuts,
        # and the final enumeration runs on the query's enum scratch.
        scratch = PeelScratch() if kernel != "python" else None
        enum_scratch = EnumScratch() if kernel != "python" else None
        view: Optional[PrefixView] = None
        while True:
            view = PrefixView(graph, p) if view is None else view.extend(p)
            if self.counting == "countic":
                record = construct_cvs(
                    view,
                    gamma,
                    kernel=kernel,
                    scratch=scratch,
                    phases=stats.phases,
                )
                count = record.num_communities
            else:
                record = None
                count = self._count(view, gamma)
            stats.prefixes.append(p)
            stats.prefix_sizes.append(view.size)
            stats.counts.append(count)
            if count >= k or p >= stop:
                break
            p = self._next_prefix(p, view.size, initial_size)

        if record is None:
            # LocalSearch-OA still enumerates through keys/cvs at the end.
            record = construct_cvs(
                PrefixView(graph, p),
                gamma,
                kernel=kernel,
                scratch=scratch,
                phases=stats.phases,
            )
        enum_started = time.perf_counter()
        communities = enumerate_top_k(
            graph, record, k, kernel=kernel, scratch=enum_scratch
        )
        record_phase(
            "enumerate", time.perf_counter() - enum_started, stats.phases
        )
        stats.elapsed_seconds = time.perf_counter() - started
        return TopKResult(communities=communities, stats=stats, record=record)


def top_k_influential_communities(
    graph: WeightedGraph,
    k: int,
    gamma: int,
    delta: float = 2.0,
    kernel: Optional[str] = None,
) -> TopKResult:
    """Top-``k`` influential γ-communities of ``graph`` via LocalSearch.

    The primary public entry point of the library.

    >>> from repro.graph.builder import graph_from_arrays
    >>> g = graph_from_arrays(
    ...     5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4), (2, 4)]
    ... )
    >>> result = top_k_influential_communities(g, k=1, gamma=2)
    >>> result.communities[0].influence > 0
    True
    """
    return LocalSearch(graph, gamma=gamma, delta=delta, kernel=kernel).search(k)
