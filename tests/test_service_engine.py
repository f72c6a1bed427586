"""QueryEngine planner/dispatch, ServiceMetrics, and the serve CLI loop."""

from __future__ import annotations

import io
import json

import pytest

from repro.api import QuerySpec
from repro.cli import main
from repro.core.reference import (
    reference_noncontainment_communities,
    reference_top_k,
    reference_truss_top_k,
)
from repro.errors import QueryParameterError
from repro.graph.builder import graph_from_arrays
from repro.graph.io import write_edge_list, write_weights
from repro.service import (
    GraphRegistry,
    QueryEngine,
    ResultCache,
    ServiceMetrics,
)
from repro.service.metrics import percentile

from tests.conftest import random_graph


def two_k4s():
    return graph_from_arrays(
        8,
        [
            (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
            (4, 5), (4, 6), (4, 7), (5, 6), (5, 7), (6, 7),
            (3, 4),
        ],
    )


@pytest.fixture()
def registry():
    registry = GraphRegistry(preload_datasets=False)
    registry.register("g", two_k4s)
    return registry


@pytest.fixture()
def edge_file(tmp_path):
    path = tmp_path / "g.txt"
    write_edge_list(
        path,
        [
            (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
            (4, 5), (4, 6), (4, 7), (5, 6), (5, 7), (6, 7),
            (3, 4),
        ],
    )
    weights = tmp_path / "w.txt"
    write_weights(weights, {i: float(10 - i) for i in range(8)})
    return str(path), str(weights)


class TestPlanner:
    def test_auto_resolves_to_progressive(self, registry):
        engine = QueryEngine(registry)
        plan = engine.plan(QuerySpec(graph="g"))
        assert plan.algorithm == "localsearch-p"
        assert plan.progressive

    def test_explicit_algorithms_pass_through(self, registry):
        engine = QueryEngine(registry)
        for algorithm, progressive in [
            ("localsearch-p", True),
            ("localsearch", False),
            ("forward", False),
            ("backward", False),
            ("onlineall", False),
            ("truss", False),
            ("noncontainment", False),
        ]:
            plan = engine.plan(QuerySpec(graph="g", algorithm=algorithm))
            assert plan.algorithm == algorithm
            assert plan.progressive is progressive

    def test_invalid_query_parameters_raise(self):
        with pytest.raises(QueryParameterError):
            QuerySpec(graph="g", k=0)
        with pytest.raises(QueryParameterError):
            QuerySpec(graph="g", gamma=0)
        with pytest.raises(QueryParameterError):
            QuerySpec(graph="g", delta=1.0)
        with pytest.raises(QueryParameterError):
            QuerySpec(graph="g", algorithm="quantum")


class TestDispatch:
    @pytest.mark.parametrize(
        "algorithm",
        ["auto", "localsearch", "localsearch-p", "forward", "onlineall",
         "backward"],
    )
    def test_all_min_degree_algorithms_agree(self, registry, algorithm):
        engine = QueryEngine(registry, cache=ResultCache())
        result = engine.execute(
            QuerySpec(graph="g", gamma=3, k=2, algorithm=algorithm)
        )
        assert len(result) == 2
        assert list(result.influences) == sorted(
            result.influences, reverse=True
        )
        # The heavy K4 {0..3} has keynode weight rank 4 under default
        # rank weights; both K4s appear.
        assert result.communities[0].size in (4, 8)

    def test_truss_and_noncontainment_dispatch(self, registry):
        engine = QueryEngine(registry)
        truss = engine.execute(
            QuerySpec(graph="g", gamma=4, k=1, algorithm="truss")
        )
        assert truss.communities[0].size == 4
        nc = engine.execute(
            QuerySpec(graph="g", gamma=3, k=2, algorithm="noncontainment")
        )
        assert len(nc) >= 1

    def test_random_graph_noncontainment_and_static_paths_match(self):
        """The engine's non-containment, onlineall and truss answers on
        a random graph equal the definitions in core/reference.py."""
        graph = random_graph(60, 0.12, seed=9, weights="shuffled")
        registry = GraphRegistry(preload_datasets=False)
        registry.register("g", lambda: graph)
        engine = QueryEngine(registry, cache=ResultCache(8))
        k, gamma = 6, 2

        def labels(ranks):
            return frozenset(graph.label(u) for u in ranks)

        def truss_labels(edges):
            return labels(u for edge in edges for u in edge)

        cases = (
            (
                QuerySpec(graph="g", gamma=gamma, k=k, containment=False),
                [
                    (influence, labels(members))
                    for influence, members in
                    reference_noncontainment_communities(graph, gamma)[:k]
                ],
            ),
            (
                QuerySpec(graph="g", gamma=gamma, k=k, algorithm="onlineall"),
                [
                    (influence, labels(members))
                    for influence, members in
                    reference_top_k(graph, k, gamma)
                ],
            ),
            (
                QuerySpec(graph="g", gamma=gamma, k=k, algorithm="truss"),
                [
                    (influence, truss_labels(edges))
                    for influence, edges in
                    reference_truss_top_k(graph, k, gamma)
                ],
            ),
        )
        for spec, want in cases:
            result = engine.execute(spec)
            got = [
                (view.influence, frozenset(view.members))
                for view in result.communities
            ]
            assert got == want, spec
            assert got, spec  # a non-empty answer, not a vacuous match

    def test_result_serialises_deterministically(self, registry):
        engine = QueryEngine(registry)
        a = engine.execute(QuerySpec(graph="g", gamma=3, k=2))
        b = engine.execute(QuerySpec(graph="g", gamma=3, k=2))
        dump = lambda r: json.dumps(
            [v.to_dict() for v in r.communities], sort_keys=True
        )
        assert dump(a) == dump(b)
        payload = json.loads(a.to_json())
        assert payload["graph"] == "g"
        assert payload["algorithm"] == "localsearch-p"
        assert len(payload["communities"]) == 2
        assert all("members" in c for c in payload["communities"])


class TestMetrics:
    def test_percentile_nearest_rank(self):
        assert percentile([], 50) is None
        assert percentile([1.0], 99) == 1.0
        values = list(map(float, range(1, 101)))
        assert percentile(values, 50) == 50.0
        assert percentile(values, 90) == 90.0
        assert percentile(values, 99) == 99.0

    def test_engine_records_metrics(self, registry):
        metrics = ServiceMetrics()
        engine = QueryEngine(registry, cache=ResultCache(), metrics=metrics)
        engine.execute(QuerySpec(graph="g", gamma=3, k=2))
        engine.execute(QuerySpec(graph="g", gamma=3, k=2))
        engine.execute(QuerySpec(graph="g", gamma=3, k=1))
        snap = metrics.snapshot()
        assert snap["queries_served"] == 3
        assert snap["by_source"] == {"cold": 1, "cache": 2}
        assert snap["by_algorithm"] == {"localsearch-p": 3}
        assert metrics.cache_hit_rate == pytest.approx(2 / 3)
        pcts = metrics.latency_percentiles("localsearch-p")
        assert pcts["p50"] is not None and pcts["p99"] is not None
        assert pcts["p50"] <= pcts["p99"]

    def test_engine_threads_phase_breakdown_to_family_rows(self, registry):
        metrics = ServiceMetrics()
        engine = QueryEngine(registry, cache=ResultCache(), metrics=metrics)
        engine.execute(QuerySpec(graph="g", gamma=3, k=2))
        [row] = metrics.by_family().values()
        # The progressive searcher peeled and enumerated: both halves of
        # the kernel show up in the family's breakdown.
        assert row["phases_ms"].get("peel", 0.0) >= 0.0
        assert "enumerate" in row["phases_ms"]
        # A pure cache hit does no kernel work but must not erase the
        # breakdown already recorded for the family.
        engine.execute(QuerySpec(graph="g", gamma=3, k=1))
        [row] = metrics.by_family().values()
        assert "enumerate" in row["phases_ms"]
        # Static algorithms thread their SearchStats phases too.
        engine.execute(
            QuerySpec(graph="g", gamma=3, k=2, algorithm="localsearch")
        )
        static_rows = [
            r for label, r in metrics.by_family().items()
            if "|localsearch|" in label
        ]
        assert static_rows and "enumerate" in static_rows[0]["phases_ms"]

    def test_session_counters(self, registry):
        metrics = ServiceMetrics()
        metrics.session_opened()
        metrics.session_closed()
        metrics.session_closed(expired=True)
        snap = metrics.snapshot()
        assert snap["sessions_opened"] == 1
        assert snap["sessions_closed"] == 2
        assert snap["sessions_expired"] == 1


def run_serve(script: str, extra_args=()):
    out = io.StringIO()
    code = main(
        ["serve", "--no-datasets", *extra_args],
        out=out,
        in_stream=io.StringIO(script),
    )
    return code, out.getvalue()


class TestServeCLI:
    def test_serve_loads_queries_and_reuses_graph(self, edge_file):
        edges, weights = edge_file
        script = "\n".join(
            [
                f"load toy {edges} {weights}",
                "query toy k=2 gamma=3",
                "query toy k=1 gamma=3",
                "query toy k=2 gamma=3 algorithm=localsearch",
                "graphs",
                "metrics",
                "quit",
            ]
        )
        code, text = run_serve(script)
        assert code == 0
        assert "loaded 'toy' v1: 8 vertices, 13 edges" in text
        # Same graph version throughout: never rebuilt.
        assert "v2" not in text
        assert "localsearch-p[cold]: 2 communities" in text
        assert "localsearch-p[cache]: 1 communities" in text
        assert "localsearch[cold]: 2 communities" in text
        assert "influence=7" in text
        assert "queries_served: 3" in text

    def test_serve_sessions_stream_without_repeats(self, edge_file):
        edges, weights = edge_file
        script = "\n".join(
            [
                f"load toy {edges} {weights}",
                "session open toy gamma=3",
                "session next s1 1",
                "session next s1 5",
                "sessions",
                "session close s1",
                "quit",
            ]
        )
        code, text = run_serve(script)
        assert code == 0
        assert "session s1 open" in text
        assert "top-1: influence=7" in text
        assert "top-2: influence=3" in text
        assert "(session s1 exhausted)" in text
        assert "session s1 closed" in text
        # top-1 printed exactly once: batches never repeat communities.
        assert text.count("top-1:") == 1

    def test_serve_handles_errors_and_continues(self, edge_file):
        edges, _ = edge_file
        script = "\n".join(
            [
                "query missing k=2",
                "wibble",
                "session next s99",
                f"load toy {edges}",
                "query toy k=1 gamma=3",
                "quit",
            ]
        )
        code, text = run_serve(script)
        assert code == 0
        assert "error: graph 'missing' is not registered" in text
        assert "error: unknown command 'wibble'" in text
        assert "error: session 's99' does not exist" in text
        assert "localsearch-p[cold]: 1 communities" in text

    def test_serve_script_flag(self, edge_file, tmp_path):
        edges, weights = edge_file
        script_path = tmp_path / "cmds.txt"
        script_path.write_text(
            f"load toy {edges} {weights}\nquery toy k=1 gamma=3\n"
        )
        out = io.StringIO()
        code = main(
            ["serve", "--no-datasets", "--script", str(script_path)], out=out
        )
        assert code == 0
        assert "localsearch-p[cold]: 1 communities" in out.getvalue()

    def test_serve_help_and_eof_exit(self):
        code, text = run_serve("help\n")
        assert code == 0
        assert "commands:" in text

    def test_serve_on_dataset_registry(self):
        out = io.StringIO()
        code = main(
            ["serve"], out=out, in_stream=io.StringIO("graphs\nquit\n")
        )
        assert code == 0
        assert "8 graphs registered" in out.getvalue()
