"""Symbol-snapshot of the curated public surface.

If a re-export is added, renamed, or dropped, these tests fail until
the snapshot below is updated deliberately — the public surface can
never change silently.
"""

from __future__ import annotations

import repro
import repro.api


#: The curated top-level surface, alphabetised.  Update ON PURPOSE only.
PUBLIC_SURFACE = sorted(
    [
        "__version__",
        # graph substrate
        "WeightedGraph",
        "GraphBuilder",
        "graph_from_arrays",
        "PrefixView",
        # core search API
        "top_k_influential_communities",
        "progressive_influential_communities",
        "top_k_noncontainment_communities",
        "top_k_truss_communities",
        "global_search_truss",
        "construct_cvs",
        "LocalSearch",
        "LocalSearchP",
        "LocalSearchTruss",
        "Community",
        "TrussCommunity",
        "TopKResult",
        "TrussResult",
        "SearchStats",
        # public query API (repro.api)
        "QuerySpec",
        "ResultSet",
        "Repro",
        "Graph",
        "open",
        "connect",
        # service layer
        "GraphRegistry",
        "QueryEngine",
        "ResultCache",
        "SessionManager",
        "ServiceMetrics",
        "QueryResult",
        "CommunityView",
        # errors
        "ReproError",
        "GraphConstructionError",
        "DuplicateWeightError",
        "SelfLoopError",
        "UnknownVertexError",
        "QueryParameterError",
        "StorageError",
        "DatasetError",
    ]
)

API_SURFACE = sorted(
    [
        "ALGORITHMS",
        "AUTO",
        "COHESIONS",
        "KERNEL_ALGORITHMS",
        "MODES",
        "WIRE_VERSION",
        "FamilyKey",
        "Graph",
        "QuerySpec",
        "Repro",
        "ResultSet",
        "connect",
        "open",
        "parse_spec_tokens",
        "parse_wire_query",
    ]
)


def test_top_level_all_matches_snapshot():
    assert sorted(repro.__all__) == PUBLIC_SURFACE


def test_api_all_matches_snapshot():
    assert sorted(repro.api.__all__) == API_SURFACE


def test_every_exported_symbol_resolves():
    for name in repro.__all__:
        assert getattr(repro, name) is not None, name
    for name in repro.api.__all__:
        assert getattr(repro.api, name) is not None, name


def test_all_has_no_duplicates():
    assert len(repro.__all__) == len(set(repro.__all__))
    assert len(repro.api.__all__) == len(set(repro.api.__all__))


def test_curated_entry_points_are_the_facade():
    from repro.api.facade import connect, open

    assert repro.open is open
    assert repro.connect is connect
    assert repro.api.open is open
    assert repro.api.connect is connect


def test_lazy_api_dir_includes_facade_symbols():
    listing = dir(repro.api)
    for name in ("open", "connect", "Repro", "Graph"):
        assert name in listing
