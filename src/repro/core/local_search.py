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

import time
from dataclasses import dataclass
from typing import List, Optional

from ..errors import QueryParameterError, check_delta
from ..obs.trace import record_phase
from ..graph.subgraph import PrefixView
from ..graph.weighted_graph import WeightedGraph
from .community import Community
from .count import CVSRecord
from .enumerate import enumerate_top_k
from .fastenum import EnumScratch
from .rounds import PrefixRounds, SearchStats

__all__ = [
    "SearchStats",
    "TopKResult",
    "LocalSearch",
    "top_k_influential_communities",
]


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
        rounds = PrefixRounds(graph, gamma, self.delta, self.kernel, k=k)
        first = self.initial_prefix(k)
        increment = None
        if self.growth == "linear":
            increment = self.linear_increment or graph.prefix_size(first) or 1

        def count(view: PrefixView, _p_prev: int):
            if self.counting == "onlineall":
                from ..baselines.online_all import online_all_count

                return online_all_count(view, gamma), view
            record = rounds.peel(view, gamma)
            return record.num_communities, record

        record = rounds.last(first, count, increment)
        if record is None:
            return TopKResult(communities=[], stats=rounds.finish())
        if self.counting == "onlineall":
            # LocalSearch-OA still enumerates through keys/cvs at the end.
            record = rounds.peel(record, gamma)
        kernel, phases = rounds.kernel, rounds.stats.phases
        enum_scratch = EnumScratch() if kernel != "python" else None
        started = time.perf_counter()
        communities = enumerate_top_k(
            graph, record, k, kernel=kernel, scratch=enum_scratch
        )
        record_phase("enumerate", time.perf_counter() - started, phases)
        return TopKResult(communities, rounds.finish(), record)


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
