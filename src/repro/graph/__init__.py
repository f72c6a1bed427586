"""Graph substrate: weighted graphs, prefix views, cores, trusses, storage.

This subpackage implements every structural dependency of the paper's
algorithms (DESIGN.md systems S1–S5 and S15-storage):

* :class:`~repro.graph.weighted_graph.WeightedGraph` — the rank-ordered,
  ``N>=``/``N<``-partitioned graph of Section 3.1;
* :class:`~repro.graph.subgraph.PrefixView` — O(1) windows onto ``G>=tau``;
* :mod:`~repro.graph.core_decomposition` / :mod:`~repro.graph.truss_decomposition`
  — cohesiveness machinery;
* :mod:`~repro.graph.connectivity` and
  :mod:`~repro.graph.disjoint_set` — traversal and union-find;
* :mod:`~repro.graph.pagerank` — influence weights;
* :mod:`~repro.graph.storage` — the disk-resident edge store for the
  semi-external algorithms;
* :mod:`~repro.graph.io` / :mod:`~repro.graph.metrics` — interchange and
  statistics.
"""

from .builder import GraphBuilder, graph_from_arrays
from .connectivity import component_of, connected_components, is_connected_subset
from .core_decomposition import degeneracy, gamma_core, gamma_core_members
from .disjoint_set import DisjointSet, KeyedDisjointSet
from .metrics import GraphStatistics, degree_histogram, graph_statistics
from .pagerank import pagerank_from_edges, pagerank_weights
from .storage import FileEdgeStore, IOCounter, InMemoryEdgeStore
from .subgraph import PrefixAdjacency, PrefixView
from .truss_decomposition import (
    edge_supports,
    gamma_truss,
    max_truss,
    truss_decomposition,
)
from .weighted_graph import WeightedGraph

__all__ = [
    "WeightedGraph",
    "GraphBuilder",
    "graph_from_arrays",
    "PrefixView",
    "PrefixAdjacency",
    "DisjointSet",
    "KeyedDisjointSet",
    "gamma_core",
    "gamma_core_members",
    "degeneracy",
    "gamma_truss",
    "edge_supports",
    "truss_decomposition",
    "max_truss",
    "component_of",
    "connected_components",
    "is_connected_subset",
    "pagerank_from_edges",
    "pagerank_weights",
    "GraphStatistics",
    "graph_statistics",
    "degree_histogram",
    "IOCounter",
    "InMemoryEdgeStore",
    "FileEdgeStore",
]
