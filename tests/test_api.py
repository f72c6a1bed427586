"""repro.api — QuerySpec, ResultSet, and the open()/connect() facade.

The tentpole contract under test: one typed spec crosses every layer
boundary, the ResultSet is lazy and cache-backed, and the facade gives
the identical surface over an in-process engine and a remote server.
"""

from __future__ import annotations

import asyncio
import dataclasses
import threading

import pytest

import repro
from repro.api import (
    QuerySpec,
    ResultSet,
    parse_spec_tokens,
    parse_wire_query,
)
from repro.errors import QueryParameterError, ServiceError
from repro.graph.builder import graph_from_arrays
from repro.service import GraphRegistry, QueryEngine, ResultCache


def layered_cliques(num_cliques=6):
    """Disjoint K4s with strictly decreasing weights: many communities."""
    edges = []
    for c in range(num_cliques):
        base = 4 * c
        for i in range(4):
            for j in range(i + 1, 4):
                edges.append((base + i, base + j))
    return graph_from_arrays(4 * num_cliques, edges)


@pytest.fixture()
def registry():
    registry = GraphRegistry(preload_datasets=False)
    registry.register("cliques", layered_cliques)
    return registry


@pytest.fixture()
def facade(registry):
    return repro.open(registry=registry)


class TestQuerySpecValidation:
    def test_defaults_are_valid(self):
        spec = QuerySpec(graph="g")
        assert (spec.gamma, spec.k, spec.algorithm) == (10, 10, "auto")
        assert spec.containment and spec.cohesion == "core"
        assert spec.mode == "text"

    @pytest.mark.parametrize(
        "params",
        [
            dict(graph=""),
            dict(graph="g", k=0),
            dict(graph="g", gamma=0),
            dict(graph="g", delta=1.0),
            dict(graph="g", algorithm="quantum"),
            dict(graph="g", tenant=""),
            dict(graph="g", cohesion="clique"),
            dict(graph="g", mode="xml"),
            dict(graph="g", cohesion="truss", algorithm="localsearch"),
            dict(graph="g", cohesion="truss", containment=False),
            dict(graph="g", containment=False, algorithm="backward"),
        ],
    )
    def test_invalid_specs_raise(self, params):
        with pytest.raises(QueryParameterError):
            QuerySpec(**params)


class TestResolution:
    def test_auto_resolves_to_localsearch_p(self):
        assert QuerySpec(graph="g").resolved_algorithm() == "localsearch-p"

    def test_auto_with_truss_cohesion_resolves_to_truss(self):
        spec = QuerySpec(graph="g", cohesion="truss")
        assert spec.resolved_algorithm() == "truss"

    def test_auto_without_containment_resolves_to_noncontainment(self):
        spec = QuerySpec(graph="g", containment=False)
        assert spec.resolved_algorithm() == "noncontainment"

    def test_explicit_algorithm_wins(self):
        spec = QuerySpec(graph="g", algorithm="backward")
        assert spec.resolved_algorithm() == "backward"


class TestCacheKey:
    def test_k_and_mode_are_not_part_of_the_family(self):
        a = QuerySpec(graph="g", gamma=3, k=2)
        b = QuerySpec(graph="g", gamma=3, k=50, mode="json")
        assert a.cache_key() == b.cache_key()

    def test_default_kernel_matches_explicit_resolved(self, monkeypatch):
        # The kernel is process configuration: an explicit kernel=array
        # argument is checked and dropped, so it names the same spec and
        # family as no kernel at all, and the engine runs array.
        monkeypatch.setenv("REPRO_KERNEL", "array")
        explicit, _ = parse_spec_tokens(["g", "gamma=3", "kernel=array"])
        default = QuerySpec(graph="g", gamma=3)
        assert explicit == default
        assert explicit.cache_key() == default.cache_key()
        engine = QueryEngine(GraphRegistry(preload_datasets=False))
        assert engine.kernel == "array"

    def test_equivalent_nc_spellings_share_a_family(self):
        explicit = QuerySpec(graph="g", algorithm="noncontainment")
        via_flag = QuerySpec(graph="g", containment=False)
        assert explicit.cache_key() == via_flag.cache_key()


class TestWireCodec:
    def test_round_trip_is_identity_and_byte_stable(self):
        spec = QuerySpec(
            graph="email", gamma=5, k=3, algorithm="localsearch-p",
            delta=3.0, mode="json",
        )
        wire = spec.to_wire()
        again = QuerySpec.from_wire(wire)
        assert again == spec
        assert again.to_wire() == wire

    def test_versioned_payload_with_unknown_keys_is_tolerated(self):
        spec = QuerySpec.from_wire(
            {"v": 1, "graph": "g", "k": 2, "future_field": 123}
        )
        assert (spec.graph, spec.k) == ("g", 2)

    def test_unsupported_version_is_rejected(self):
        with pytest.raises(QueryParameterError):
            QuerySpec.from_wire({"v": 99, "graph": "g"})

    def test_legacy_unversioned_payload_decodes(self):
        # The pre-PR-4 shape: QueryResult.to_dict()'s query parameters.
        legacy = {
            "graph": "email", "graph_version": 1, "gamma": 5, "k": 3,
            "delta": 2.0, "algorithm": "localsearch-p", "source": "cold",
            "elapsed_ms": 1.0, "complete": False, "kernel": None,
            "communities": [],
        }
        spec = QuerySpec.from_wire(legacy)
        assert spec == QuerySpec(
            graph="email", gamma=5, k=3, algorithm="localsearch-p"
        )

    def test_missing_graph_and_malformed_payloads_raise(self):
        for bad in ({"v": 1}, "not json {", "[1,2]", {"graph": "g", "k": "x"}):
            with pytest.raises(QueryParameterError):
                QuerySpec.from_wire(bad)


class TestTokenGrammar:
    def test_classic_tokens_still_parse(self):
        spec, members = parse_spec_tokens(
            ["g", "k=3", "gamma=5", "algorithm=forward", "delta=2.5", "members"]
        )
        assert spec == QuerySpec(
            graph="g", k=3, gamma=5, algorithm="forward", delta=2.5
        )
        assert members

    def test_new_keys_parse(self):
        spec, _ = parse_spec_tokens(
            ["g", "cohesion=core", "containment=false", "json"]
        )
        assert not spec.containment
        assert spec.mode == "json"

    def test_nc_flag_is_containment_shorthand(self):
        spec, _ = parse_spec_tokens(["g", "nc"])
        assert not spec.containment
        assert spec.resolved_algorithm() == "noncontainment"

    def test_unknown_arguments_are_reported(self):
        with pytest.raises(QueryParameterError, match="unknown query argument"):
            parse_spec_tokens(["g", "frobnicate=1"])
        with pytest.raises(QueryParameterError, match="unknown query argument"):
            parse_spec_tokens(["g", "wat"])

    def test_bad_boolean_is_reported(self):
        with pytest.raises(QueryParameterError, match="not a boolean"):
            parse_spec_tokens(["g", "containment=maybe"])

    def test_wire_request_carries_members_next_to_the_spec(self):
        spec, members = parse_wire_query(
            {"v": 1, "graph": "g", "k": 2, "members": True}
        )
        assert spec.k == 2 and members


class TestResultSet:
    def test_nothing_runs_until_touched(self, facade):
        calls = []

        def fetch(spec):
            calls.append(spec.k)
            return facade.engine.execute(spec)

        rs = ResultSet(QuerySpec(graph="cliques", gamma=3, k=4), fetch)
        assert not rs.fetched
        assert calls == []
        assert len(rs) == 4
        assert calls == [4]
        assert len(rs) == 4  # repeat access: no refetch
        assert calls == [4]

    def test_small_slice_fetches_only_that_much(self, facade):
        rs = facade.topk(QuerySpec(graph="cliques", gamma=3, k=6))
        top2 = rs[:2]
        assert len(top2) == 2
        # Only 2 communities were materialised by the backend so far
        # (.result would force the full k=6, so peek at the buffer).
        assert len(rs._result.communities) == 2
        assert rs[0] == top2[0]

    def test_slices_match_fresh_queries_exactly(self, facade, registry):
        rs = facade.topk(QuerySpec(graph="cliques", gamma=3, k=6))
        fresh = QueryEngine(registry, cache=None).execute(
            QuerySpec(graph="cliques", gamma=3, k=4)
        )
        assert rs[:4] == fresh.communities

    def test_extend_to_resumes_from_cache(self, facade):
        rs = facade.topk(QuerySpec(graph="cliques", gamma=3, k=2))
        assert len(rs) == 2
        assert rs.source == "cold"
        rs.extend_to(5)
        assert len(rs) == 5
        assert rs.source == "extended"  # cursor resumed, not recomputed
        assert rs.spec.k == 5

    def test_iteration_and_negative_indexing(self, facade):
        rs = facade.topk(QuerySpec(graph="cliques", gamma=3, k=3))
        views = list(rs)
        assert len(views) == 3
        assert rs[-1] == views[-1]
        with pytest.raises(IndexError):
            rs[99]

    def test_stream_doubles_until_exhausted(self, facade):
        rs = facade.topk(QuerySpec(graph="cliques", gamma=3, k=1))
        streamed = list(rs.stream(prefetch=1))
        assert len(streamed) == 6  # all communities, past spec.k
        influences = [v.influence for v in streamed]
        assert influences == sorted(influences, reverse=True)

    def test_stats_and_kernel_provenance(self, registry, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "python")
        rs = repro.open(registry=registry).topk(
            QuerySpec(graph="cliques", gamma=3, k=2)
        )
        assert rs.kernel == "python"
        stats = rs.stats
        assert stats["source"] == "cold"
        assert stats["algorithm"] == "localsearch-p"
        assert stats["served"] == 2
        assert stats["graph"] == "cliques"

    def test_to_dict_matches_engine_result(self, facade):
        spec = QuerySpec(graph="cliques", gamma=3, k=2)
        rs = facade.topk(spec)
        assert rs.to_dict() == rs.result.to_dict()


class TestLocalFacade:
    def test_graph_topk_kwargs_and_spec_agree(self, facade):
        a = facade.graph("cliques").topk(k=2, gamma=3)
        b = facade.graph("cliques").topk(QuerySpec(graph="cliques", k=2, gamma=3))
        assert a.communities == b.communities

    def test_graph_repoints_foreign_specs(self, facade):
        spec = QuerySpec(graph="elsewhere", k=2, gamma=3)
        rs = facade.graph("cliques").topk(spec)
        assert rs.spec.graph == "cliques"
        assert len(rs) == 2

    def test_repeat_queries_hit_the_shared_cache(self, facade):
        spec = QuerySpec(graph="cliques", gamma=3, k=2)
        assert facade.topk(spec).source == "cold"
        assert facade.topk(spec).source == "cache"

    def test_open_edge_list_sets_default_graph(self, tmp_path):
        from repro.graph.io import write_edge_list

        path = tmp_path / "tiny.txt"
        write_edge_list(
            path, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (0, 3)]
        )
        with repro.open(str(path)) as rp:
            graph = rp.graph()
            assert graph.name == "tiny"
            assert len(graph.topk(k=1, gamma=3)) == 1

    def test_graphs_lists_registry_names(self, facade):
        assert facade.graphs() == ["cliques"]

    def test_no_default_graph_raises(self, facade):
        with pytest.raises(ServiceError):
            facade.graph()

    def test_spec_and_kwargs_are_mutually_exclusive(self, facade):
        with pytest.raises(TypeError):
            facade.graph("cliques").topk(
                QuerySpec(graph="cliques"), k=2
            )


class TestRemoteFacade:
    """connect(): the same surface over a live ReproServer."""

    @pytest.fixture()
    def server_port(self, registry):
        from repro.server import ReproServer

        server = ReproServer(registry=registry, shards=1)
        started = threading.Event()
        box = {}

        def run():
            async def main():
                await server.start(tcp=("127.0.0.1", 0))
                box["port"] = server.tcp_address[1]
                started.set()
                await server.serve_until_shutdown()

            asyncio.run(main())

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        assert started.wait(10)
        yield box["port"]
        server.request_shutdown()
        thread.join(timeout=10)

    def test_connect_matches_open(self, facade, server_port):
        spec = QuerySpec(graph="cliques", gamma=3, k=3)
        local = facade.topk(spec)
        with repro.connect(port=server_port) as remote:
            rs = remote.graph("cliques").topk(spec)
            assert isinstance(rs, ResultSet)
            assert rs.communities == local.communities
            assert rs.kernel == local.kernel
            assert [v.members for v in rs] == [v.members for v in local]

    def test_remote_extend_and_slice(self, facade, server_port):
        with repro.connect(port=server_port) as remote:
            rs = remote.graph("cliques").topk(k=2, gamma=3)
            assert len(rs) == 2
            rs.extend_to(5)
            assert len(rs) == 5
            reference = facade.topk(QuerySpec(graph="cliques", gamma=3, k=5))
            assert rs.communities == reference.communities

    def test_remote_graphs_listing(self, server_port):
        with repro.connect(port=server_port) as remote:
            assert "cliques" in remote.graphs()

    def test_remote_has_no_local_engine(self, server_port):
        with repro.connect(port=server_port) as remote:
            with pytest.raises(ServiceError):
                remote.engine


class TestSpecHelpers:
    def test_with_k_is_identity_when_unchanged(self):
        spec = QuerySpec(graph="g", k=5)
        assert spec.with_k(5) is spec
        assert spec.with_k(9) == dataclasses.replace(spec, k=9)


class TestReviewRegressions:
    """Sequence contract, provenance laziness, and whitespace dispatch."""

    def test_integer_index_past_k_raises_without_extending(self, facade):
        calls = []

        def fetch(spec):
            calls.append(spec.k)
            return facade.engine.execute(spec)

        rs = ResultSet(QuerySpec(graph="cliques", gamma=3, k=2), fetch)
        assert len(rs) == 2
        with pytest.raises(IndexError):
            rs[2]  # == len(rs): must NOT silently grow the query
        assert calls == [2]  # no hidden extend fetch happened

    def test_slice_past_k_is_clamped_to_the_spec(self, facade):
        rs = facade.topk(QuerySpec(graph="cliques", gamma=3, k=2))
        assert len(rs[:10]) == 2  # bounded by spec.k; extend_to grows

    def test_provenance_reads_do_not_force_full_k(self, facade):
        calls = []

        def fetch(spec):
            calls.append(spec.k)
            return facade.engine.execute(spec)

        rs = ResultSet(QuerySpec(graph="cliques", gamma=3, k=6), fetch)
        rs[:2]
        assert calls == [2]
        # .source/.stats report the partial fetch instead of forcing k=6.
        assert rs.source in ("cold", "cache", "extended")
        assert rs.stats["served"] == 2
        assert calls == [2]

    def test_tab_separated_query_lines_parse(self, registry, facade):
        import io

        from repro.service import ServiceShell, SessionManager

        out = io.StringIO()
        shell = ServiceShell(
            facade.engine, SessionManager(registry), out
        )
        assert shell.execute_line("query\tcliques k=1 gamma=3")
        text = out.getvalue()
        assert "top-1:" in text and "error" not in text

    def test_tab_separated_query_over_the_wire(self, registry):
        import asyncio

        from repro.server import ReproClient, ReproServer

        async def main():
            server = ReproServer(registry=registry, shards=1)
            await server.start(tcp=("127.0.0.1", 0))
            client = await ReproClient.connect(port=server.tcp_address[1])
            lines = await client.request("query\tcliques k=1 gamma=3")
            await client.close()
            await server.stop()
            return lines

        lines = asyncio.run(main())
        assert any(line.startswith("top-1:") for line in lines)
        assert not any(line.startswith("error") for line in lines)


# ----------------------------------------------------------------------
# wire: the optional tenant field (accepted and validated, inert)
# ----------------------------------------------------------------------
def test_tenant_is_absent_from_wire_unless_set():
    spec = QuerySpec(graph="g", gamma=3, k=5)
    assert "tenant" not in spec.to_wire_dict()
    tagged = QuerySpec(graph="g", gamma=3, k=5, tenant="acme")
    wire = tagged.to_wire_dict()
    assert wire["tenant"] == "acme"
    assert QuerySpec.from_wire(wire).tenant == "acme"
    assert QuerySpec.from_wire(spec.to_wire_dict()).tenant is None
    # Identity is unchanged: tenant never reaches the cache key.
    assert tagged.cache_key() == spec.cache_key()


def test_tenant_parses_from_query_tokens_and_validates():
    spec, _ = parse_spec_tokens(["g", "k=3", "gamma=3", "tenant=acme"])
    assert spec.tenant == "acme"
    with pytest.raises(QueryParameterError):
        QuerySpec(graph="g", gamma=3, k=5, tenant="")
