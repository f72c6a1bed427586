"""The paper's primary contribution (DESIGN.md S6–S11, S17).

* :mod:`~repro.core.count` — CountIC / ConstructCVS (Algorithms 2, 5);
* :mod:`~repro.core.enumerate` — EnumIC / EnumIC-P (Algorithm 3);
* :mod:`~repro.core.local_search` — LocalSearch (Algorithm 1), the
  instance-optimal top-k search;
* :mod:`~repro.core.progressive` — LocalSearch-P (Algorithm 4);
* :mod:`~repro.core.noncontainment` — non-containment search (§5.1);
* :mod:`~repro.core.truss_search` — the γ-truss instantiation of the
  general framework (Algorithms 6, 7; §5.2);
* :mod:`~repro.core.community` — the linked community-forest result
  objects;
* :mod:`~repro.core.reference` — definition-level correctness oracles.
"""

from .community import Community, GroupView, TrussCommunity
from .count import CVSRecord, construct_cvs, count_communities, peel_cvs
from .enumerate import (
    EnumerationState,
    enumerate_progressive,
    enumerate_top_k,
)
from .fastenum import EnumScratch, fast_build_community
from .fastpeel import (
    KERNELS,
    PeelScratch,
    fast_construct_cvs,
    resolve_kernel,
)
from .general import (
    CohesivenessMeasure,
    EdgeConnectivityMeasure,
    GeneralLocalSearch,
    MinDegreeMeasure,
    TrussMeasure,
)
from .local_search import (
    LocalSearch,
    SearchStats,
    TopKResult,
    top_k_influential_communities,
)
from .noncontainment import (
    noncontainment_communities_from_record,
    top_k_noncontainment_communities,
)
from .progressive import (
    LocalSearchP,
    ProgressiveCursor,
    progressive_influential_communities,
)
from .query_weighted import (
    closeness_weights,
    reweight,
    top_k_closest_communities,
)
from .truss_search import (
    LocalSearchTruss,
    TrussCVSRecord,
    TrussResult,
    construct_cvs_truss,
    enumerate_truss_top_k,
    global_search_truss,
    top_k_truss_communities,
)

__all__ = [
    "Community",
    "GroupView",
    "TrussCommunity",
    "CVSRecord",
    "construct_cvs",
    "count_communities",
    "peel_cvs",
    "EnumerationState",
    "enumerate_top_k",
    "enumerate_progressive",
    "KERNELS",
    "PeelScratch",
    "EnumScratch",
    "fast_build_community",
    "fast_construct_cvs",
    "resolve_kernel",
    "CohesivenessMeasure",
    "MinDegreeMeasure",
    "TrussMeasure",
    "EdgeConnectivityMeasure",
    "GeneralLocalSearch",
    "LocalSearch",
    "SearchStats",
    "TopKResult",
    "top_k_influential_communities",
    "LocalSearchP",
    "ProgressiveCursor",
    "progressive_influential_communities",
    "closeness_weights",
    "reweight",
    "top_k_closest_communities",
    "top_k_noncontainment_communities",
    "noncontainment_communities_from_record",
    "LocalSearchTruss",
    "TrussCVSRecord",
    "TrussResult",
    "construct_cvs_truss",
    "enumerate_truss_top_k",
    "global_search_truss",
    "top_k_truss_communities",
]
