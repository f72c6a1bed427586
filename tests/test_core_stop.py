"""The core stop table: a search ends once its prefix holds the γ-core.

``WeightedGraph.core_stop(gamma)`` is 1 + the highest rank whose core
number is >= γ (0 for an empty γ-core).  Every influential γ-community
lies inside the γ-core of ``G`` (a γ-truss inside the (γ−1)-core), so
every local search ends at the first round whose prefix reaches the
stop of its core instead of peeling the whole graph.  Covered here:

* the table itself (:func:`core_stops`) and its generation rules — it
  is exact on every generation: an overlay's inserts and deletes go
  through the order-based core maintenance (a chain whose first graph
  is not the tip of an order builds one from a single decomposition),
  a re-rank carries the core numbers moved to the new ranks, and
  compaction leaves the table as it is;
* the registry's report of a failed background compaction
  (``compaction_error`` in ``describe()``);
* a hypothesis property: on every generation (base, each overlay, one
  compacted mid-chain and the overlays after it, a final compacted one)
  the core numbers equal a fresh decomposition's,
  every γ's stop equals :func:`core_stops`, and LocalSearch-P and
  truss answers equal the reference oracles on a fresh rebuild of the
  same model;
* short answers on every surface: email γ=50 (degeneracy 22) answers
  nothing without a round, and email γ=20 ends at its stop with its
  communities, through all five searchers, the engine (which records
  their kernel phases) and the wire — and again after 30 inserts and a
  compaction.
"""

from __future__ import annotations

import asyncio
import json
import threading
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.graph.core_decomposition as core_module
from repro.api.spec import QuerySpec
from repro.core.count import construct_cvs
from repro.core.fastpeel import PeelScratch
from repro.core.general import (
    EdgeConnectivityMeasure,
    GeneralLocalSearch,
    MinDegreeMeasure,
    TrussMeasure,
)
from repro.core.local_search import LocalSearch
from repro.core.noncontainment import top_k_noncontainment_communities
from repro.core.progressive import LocalSearchP
from repro.core.reference import reference_top_k, reference_truss_top_k
from repro.core.truss_search import LocalSearchTruss
from repro.graph.builder import graph_from_arrays
from repro.graph.core_decomposition import (
    core_decomposition,
    core_stops,
    gamma_core,
)
from repro.graph.delta import EdgeBatch, apply_batch, apply_ops_to_model
from repro.graph.subgraph import PrefixView
from repro.graph.weighted_graph import WeightedGraph
from repro.server import ReproClient, ReproServer
from repro.service.cache import CacheKey, ResultCache
from repro.service.engine import QueryEngine
from repro.service.metrics import ServiceMetrics, family_label
from repro.service.registry import GraphRegistry
from tests.conftest import random_graph


def _exact_core(graph: WeightedGraph, gamma: int):
    alive, _ = gamma_core(PrefixView(graph, graph.num_vertices), gamma)
    return [u for u, keep in enumerate(alive) if keep]


def _model(graph):
    """``graph`` as a plain (label edge set, label -> weight) model."""
    edges = {
        tuple(sorted(graph.labels((u, v)))) for u, v in graph.iter_edges()
    }
    weights = {
        graph.label(r): graph.weight(r) for r in range(graph.num_vertices)
    }
    return edges, weights


def _insert_ops(n, edges, count):
    """``count`` single-edge inserts of label pairs not in ``edges``."""
    missing = (
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if (u, v) not in edges
    )
    return [("insert", u, v) for u, v in islice(missing, count)]


def _label_pairs(graph, communities):
    return [
        (c.influence, frozenset(graph.labels(_ranks(c)))) for c in communities
    ]


def _ranks(community):
    """Member ranks of any searcher's community."""
    members = getattr(community, "members", None)  # a GeneralCommunity
    return community.vertex_ranks if members is None else members


def _edge_labels(graph, edges):
    return frozenset(tuple(sorted(graph.labels(edge))) for edge in edges)


# ----------------------------------------------------------------------
# the table
# ----------------------------------------------------------------------
class TestCoreStops:
    def test_two_cliques(self, two_cliques):
        # Two K4s: every vertex has core number 3.
        assert core_stops(two_cliques) == [8, 8, 8, 8]
        assert two_cliques.core_stop(3) == 8
        assert two_cliques.core_stop(4) == 0

    def test_heavy_clique_light_path(self):
        # K4 on ranks 0-3, then a path 3-4-5-6 of lighter vertices.
        edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        edges += [(3, 4), (4, 5), (5, 6)]
        graph = graph_from_arrays(7, edges)
        assert core_decomposition(graph) == [3, 3, 3, 3, 1, 1, 1]
        assert core_stops(graph) == [7, 7, 4, 4]
        assert [graph.core_stop(g) for g in (1, 2, 3, 4, 9)] == [7, 4, 4, 0, 0]

    def test_empty_graph(self):
        graph = WeightedGraph([], [], [])
        assert core_stops(graph) == []
        assert graph.core_stop(1) == 0
        assert LocalSearchP(graph, 1).run().communities == []

    @pytest.mark.parametrize("seed", range(4))
    def test_stop_is_one_past_the_last_core_rank(self, seed):
        graph = random_graph(30, 0.2, seed, weights="shuffled")
        for gamma in range(1, 8):
            core = _exact_core(graph, gamma)
            assert graph.core_stop(gamma) == (max(core) + 1 if core else 0)


class TestGenerations:
    def _base(self):
        # A triangle on the heavy ranks 0-2 and a light path 3-4-5.
        return graph_from_arrays(
            6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5)]
        )

    def test_overlay_cores_are_exact_after_inserts(self):
        base = self._base()
        assert base.core_stop(2) == 3
        # Two inserts make ranks 3-5 a triangle: their cores rise to 2,
        # and no vertex reaches 3 (ranks 1 and 4 keep degree 2).
        overlay, _, stats = apply_batch(
            base, EdgeBatch((("insert", 3, 5), ("insert", 0, 5)))
        )
        assert stats.inserted == 2 and not stats.rank_shuffle
        assert overlay.core_numbers() == [2] * 6
        assert overlay.core_numbers() == core_decomposition(overlay)
        assert overlay.core_table() == core_stops(overlay) == [6, 6, 6]
        assert [overlay.core_stop(g) for g in (1, 2, 3)] == [6, 6, 0]

    def test_deletes_and_rank_preserving_reweights_stay_exact(self):
        base = self._base()
        assert [base.core_stop(g) for g in range(1, 4)] == [6, 3, 0]
        overlay, _, stats = apply_batch(
            base, EdgeBatch((("delete", 0, 1), ("reweight", 4, 1.5)))
        )
        assert stats.deleted == 1 and stats.reweighted == 1
        assert not stats.rank_shuffle
        # The triangle is gone: every core number falls to 1.
        assert overlay.core_numbers() == [1] * 6
        assert overlay.core_table() == core_stops(overlay)
        assert [overlay.core_stop(g) for g in range(1, 4)] == [6, 0, 0]

    def _rerank_batch(self):
        # A triangle on 0-2, a path 2-3-4 and an isolated, lightest 5.
        # The reweight moves vertex 0 below vertex 4 (5 stays last) and
        # the insert closes the cycle 0-2-3-4: every vertex but 5 now
        # has core number 2.
        base = graph_from_arrays(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)])
        return base, EdgeBatch((("insert", 0, 4), ("reweight", 0, 1.5)))

    def test_rerank_carries_exact_cores(self, monkeypatch):
        base, batch = self._rerank_batch()
        insert, reweight = (EdgeBatch((op,)) for op in batch.ops)
        # A first batch builds the order that later batches maintain.
        tip, _, _ = apply_batch(base, EdgeBatch((("insert", 4, 5),)))
        assert tip._core_numbers == [2, 2, 2, 1, 1, 1]

        def forbidden(graph):
            raise AssertionError("a re-rank ran a core decomposition")

        monkeypatch.setattr(core_module, "peel_order", forbidden)
        reranked, _, stats = apply_batch(tip, reweight)
        assert stats.rank_shuffle
        assert reranked.labels(range(6)) == [1, 2, 3, 4, 0, 5]
        # Vertex 0 takes its core number 2 to rank 4 and the stops are
        # refolded.
        assert reranked._core_numbers == [2, 2, 1, 1, 2, 1]
        assert reranked._core_stops == [6, 6, 5]
        # The insert closes the cycle 0-2-3-4 in the new rank space:
        # every vertex but 5 now has core number 2.
        closed, _, stats = apply_batch(reranked, insert)
        assert stats.inserted == 1 and not stats.rank_shuffle
        assert closed._core_numbers == [2, 2, 2, 2, 2, 1]
        assert closed._core_stops == [6, 6, 5]
        monkeypatch.undo()
        for graph in (reranked, closed):
            assert graph._core_numbers == core_decomposition(graph)
            assert graph._core_stops == core_stops(graph)

    def test_compaction_retightens_the_table(self, monkeypatch):
        # Every generation's table is already tight: a compaction runs
        # no decomposition and writes no new table.
        registry = GraphRegistry(preload_datasets=False, compact_after=None)
        base = self._base()
        registry.register("g", lambda: base)
        base.core_stop(1)
        registry.apply("g", [("insert", 3, 5)])
        overlay = registry.get("g").graph
        table = overlay._core_stops
        # Ranks 3-5 are a triangle now, so no core number reaches 3.
        assert table == core_stops(overlay) == [6, 6, 6]

        def forbidden(graph):
            raise AssertionError("a compaction ran a core decomposition")

        monkeypatch.setattr(core_module, "peel_order", forbidden)
        registry.compact("g")
        compacted = registry.get("g").graph
        assert compacted is overlay and compacted._core_stops is table
        assert [compacted.core_stop(g) for g in range(1, 4)] == [6, 6, 0]

    def test_compaction_of_a_rerank_makes_the_table_exact(self):
        # The re-rank and its insert leave an exact table; the
        # compaction keeps the graph and the table.
        registry = GraphRegistry(preload_datasets=False, compact_after=None)
        base, batch = self._rerank_batch()
        registry.register("g", lambda: base)
        event = registry.apply("g", batch)
        assert event.stats.rank_shuffle
        reranked = registry.get("g").graph
        assert reranked._core_stops == core_stops(reranked) == [6, 5, 5]
        registry.compact("g")
        compacted = registry.get("g").graph
        assert compacted is reranked
        assert compacted._core_stops == core_stops(compacted)
        assert compacted._core_numbers == core_decomposition(compacted)
        assert [compacted.core_stop(g) for g in (1, 2, 3)] == [5, 5, 0]

    def test_describe_reports_a_failed_fold(self, monkeypatch):
        registry = GraphRegistry(preload_datasets=False, compact_after=2)
        registry.register("g", self._base)

        def row():
            (only,) = registry.describe()
            return only

        def join_compactor():
            for thread in threading.enumerate():
                if thread.name == "repro-compact-g":
                    thread.join(10.0)
                    assert not thread.is_alive()

        assert row()["compaction_error"] is None
        assert "core_slack" not in row()
        registry.get("g")
        registry.apply("g", [("insert", 3, 5)])
        assert registry.get("g").graph.core_table() == [6, 6, 6]

        def broken(name):
            raise RuntimeError("compaction failed")

        monkeypatch.setattr(registry, "compact", broken)
        registry.apply("g", [("insert", 0, 5)])
        join_compactor()
        failed = row()
        assert failed["compaction_error"] == "RuntimeError: compaction failed"
        assert failed["pending_deltas"] == 2
        assert registry.compactions == 0
        # The table stays exact whether or not the chain is cut.
        graph = registry.get("g").graph
        assert graph.core_table() == core_stops(graph) == [6, 6, 6]

        monkeypatch.undo()
        registry.apply("g", [("delete", 0, 1)])  # the next apply retries
        join_compactor()
        healed = row()
        assert healed["compaction_error"] is None
        assert healed["pending_deltas"] == 0
        assert registry.compactions == 1
        graph = registry.get("g").graph
        assert graph.core_table() == core_stops(graph) == [6, 6, 6]


# ----------------------------------------------------------------------
# the bound is sound on every generation (hypothesis)
# ----------------------------------------------------------------------
_SPACING = 8.0  # weights are multiples of this; reweights land between


@st.composite
def _mutated_models(draw):
    """A random graph, 1-4 batches of mixed mutations and the batch
    after which the chain is compacted."""
    n = draw(st.integers(3, 12))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(
        st.lists(st.sampled_from(possible), unique=True, max_size=len(possible))
    )
    perm = draw(st.permutations(range(1, n + 1)))
    weights = {v: _SPACING * w for v, w in enumerate(perm)}
    model = dict(weights)
    batches = []
    for _ in range(draw(st.integers(1, 4))):
        ops = []
        for _ in range(draw(st.integers(1, 5))):
            kind = draw(
                st.sampled_from(["insert", "delete", "keep", "reorder"])
            )
            if kind in ("insert", "delete"):
                u, v = draw(st.sampled_from(possible))
                ops.append((kind, u, v))
                continue
            v = draw(st.integers(0, n - 1))
            taken = set(model.values())
            if kind == "keep":
                # Strictly between v's weight and the next lighter one:
                # the rank order is unchanged.
                lower = max(
                    (w for w in taken if w < model[v]), default=0.0
                )
                new = (model[v] + lower) / 2
            else:
                new = draw(st.integers(1, 4 * n)) * _SPACING / 3 + 0.25
                if new in taken:
                    continue
            model[v] = new
            ops.append(("reweight", v, new))
        batches.append(EdgeBatch(tuple(ops)))
    compact_at = draw(st.integers(1, len(batches)))
    return n, edges, weights, batches, compact_at


def _records(graph, gamma, kernel):
    """ConstructCVS of every prefix, smallest first; the array kernel's
    rounds share one scratch, as a progressive query's do."""
    scratch = PeelScratch() if kernel == "array" else None
    records = []
    for p in range(graph.num_vertices + 1):
        record = construct_cvs(
            PrefixView(graph, p),
            gamma,
            stop_rank=p // 3,
            track_noncontainment=True,
            kernel=kernel,
            scratch=scratch,
        )
        records.append(
            (
                record.keys,
                record.cvs,
                record.starts,
                record.noncontainment,
                [list(record.nbrs[v]) for v in range(p)],
            )
        )
    return records


def _check_generation(
    graph, n, model_edges, model_weights, kernels=("array", "python")
):
    """One generation against a fresh rebuild of its model: the core
    stop, LocalSearch-P and truss answers against the reference
    oracles, and the peel records of each of ``kernels`` against the
    array kernel's on the rebuild (same weights, so the same ranks)."""
    fresh = graph_from_arrays(
        n, sorted(model_edges), weights=[model_weights[v] for v in range(n)]
    )
    for gamma in range(1, 4):
        want = _records(fresh, gamma, "array")
        for kernel in kernels:
            assert _records(graph, gamma, kernel) == want, (kernel, gamma)
    assert graph.core_numbers() == core_decomposition(fresh)
    stops = core_stops(fresh)
    assert [graph.core_stop(g) for g in range(1, len(stops) + 1)] == (
        stops[1:] + [0]
    )
    for gamma in range(1, 6):
        got = _label_pairs(graph, LocalSearchP(graph, gamma).run().communities)
        want = [
            (influence, frozenset(fresh.labels(members)))
            for influence, members in reference_top_k(fresh, n, gamma)
        ]
        assert got == want, gamma
        if gamma == 1:  # truss parameters start at 2
            continue
        got = [
            (c.influence, _edge_labels(graph, c.edge_list))
            for c in LocalSearchTruss(graph, gamma).search(n).communities
        ]
        want = [
            (influence, _edge_labels(fresh, edges))
            for influence, edges in reference_truss_top_k(fresh, n, gamma)
        ]
        assert got == want, gamma


@given(_mutated_models())
@settings(max_examples=100, deadline=None)
def test_core_stop_bound_is_sound_on_every_generation(case):
    """The bound is exact: every generation's core numbers equal a
    fresh decomposition's and every stop equals ``core_stops``."""
    n, edges, weights, batches, compact_at = case
    base = graph_from_arrays(n, edges, weights=[weights[v] for v in range(n)])
    registry = GraphRegistry(preload_datasets=False, compact_after=None)
    registry.register("g", lambda: base)
    model_edges, model_weights = set(edges), dict(weights)
    _check_generation(base, n, model_edges, model_weights)
    for index, batch in enumerate(batches, 1):
        registry.apply("g", batch)
        apply_ops_to_model(model_edges, model_weights, batch.ops)
        _check_generation(registry.get("g").graph, n, model_edges, model_weights)
        if index == compact_at:
            # Mid-chain compaction: the chain is cut, and the overlays
            # after it go on from the same order.
            registry.compact("g")
            graph = registry.get("g").graph
            assert graph._core_stops == core_stops(graph)
            _check_generation(graph, n, model_edges, model_weights)
    registry.compact("g")
    graph = registry.get("g").graph
    assert graph._core_stops == core_stops(graph)
    _check_generation(graph, n, model_edges, model_weights)


# ----------------------------------------------------------------------
# short answers end early on every surface
# ----------------------------------------------------------------------
def _ends_at_stop(prefixes, stop):
    """The search's last round is its first to reach ``stop``."""
    return prefixes and prefixes[-1] >= stop and all(
        p < stop for p in prefixes[:-1]
    )


def _general(measure):
    def search(g, gamma, _kernel):
        return GeneralLocalSearch(g, gamma, measure).search(10)

    return search


#: name -> (search, offset of its core below γ, its number of γ=20
#: communities on email).  The counts come from core/reference.py:
#: reference_top_k finds 4, reference_noncontainment_communities 1 and
#: reference_truss_top_k 1; the 4 γ-core communities have minimum cuts
#: 20, 20, 21 and 21, so they are the 20-edge-connected ones too.
_SEARCHES = {
    "localsearch-p": (
        lambda g, gamma, kern: LocalSearchP(g, gamma, kernel=kern).run(10),
        0,
        4,
    ),
    "localsearch": (
        lambda g, gamma, kern: LocalSearch(g, gamma, kernel=kern).search(10),
        0,
        4,
    ),
    "noncontainment": (
        lambda g, gamma, kern: (
            top_k_noncontainment_communities(g, 10, gamma, kernel=kern)
        ),
        0,
        1,
    ),
    "truss": (
        lambda g, gamma, kern: LocalSearchTruss(
            g, gamma, kernel=kern
        ).search(10),
        1,
        1,
    ),
    "general-min-degree": (_general(MinDegreeMeasure()), 0, 4),
    "general-truss": (_general(TrussMeasure()), 1, 1),
    "general-edge-connectivity": (_general(EdgeConnectivityMeasure()), 0, 4),
}


class TestShortAnswers:
    @pytest.mark.parametrize("algorithm", sorted(_SEARCHES))
    def test_empty_core_runs_no_round(self, email_graph, algorithm):
        search, offset, _ = _SEARCHES[algorithm]
        assert email_graph.core_stop(50 - offset) == 0
        for kernel in ("python", "array"):
            result = search(email_graph, 50, kernel)
            assert result.communities == []
            assert result.stats.prefixes == []

    @pytest.mark.parametrize("algorithm", sorted(_SEARCHES))
    def test_short_answer_ends_at_the_stop(self, email_graph, algorithm):
        search, offset, want = _SEARCHES[algorithm]
        stop = email_graph.core_stop(20 - offset)
        assert 0 < stop < email_graph.num_vertices
        answers = []
        for kernel in ("python", "array"):
            result = search(email_graph, 20, kernel)
            assert _ends_at_stop(result.stats.prefixes, stop)
            assert result.stats.prefixes[-1] < email_graph.num_vertices
            answers.append(_label_pairs(email_graph, result.communities))
        assert answers[0] == answers[1]
        assert len(answers[0]) == want

    @pytest.mark.parametrize(
        "extra", [{}, {"algorithm": "localsearch"}, {"containment": False}]
    )
    def test_engine_answers_and_matches_the_python_kernel(
        self, email_graph, monkeypatch, extra
    ):
        served = []
        for kernel in ("python", "array"):
            monkeypatch.setenv("REPRO_KERNEL", kernel)
            registry = GraphRegistry(preload_datasets=False)
            registry.register("email", lambda: email_graph)
            cache = ResultCache(8)
            metrics = ServiceMetrics()
            engine = QueryEngine(registry, cache=cache, metrics=metrics)
            empty = engine.execute(
                QuerySpec(graph="email", k=10, gamma=50, **extra)
            )
            assert empty.communities == ()
            assert empty.complete and empty.source == "cold"
            short = engine.execute(
                QuerySpec(graph="email", k=10, gamma=20, **extra)
            )
            assert short.complete and short.source == "cold"
            served.append(
                [(v.keynode, v.influence, v.members) for v in short.communities]
            )
            # Every cold search reports its kernel phases to the engine.
            phases = metrics.by_family()[
                family_label(short.query.cache_key())
            ]["phases_ms"]
            assert "peel" in phases and "enumerate" in phases
            if not extra:
                for gamma in (50, 20):
                    spec = QuerySpec(graph="email", gamma=gamma)
                    entry = cache.get(CacheKey.for_spec(spec, version=1))
                    stats = entry.cursor.searcher.stats
                    stop = email_graph.core_stop(gamma)
                    assert (
                        stats.prefixes == []
                        if stop == 0
                        else _ends_at_stop(stats.prefixes, stop)
                    )
        assert served[0] == served[1]
        assert len(served[0]) == (1 if extra.get("containment") is False else 4)

    def test_wire_answers_at_once(self, email_graph):
        async def main():
            registry = GraphRegistry(preload_datasets=False)
            registry.register("email", lambda: email_graph)
            server = ReproServer(registry, shards=1)
            await server.start(tcp=("127.0.0.1", 0))
            host, port = server.tcp_address
            client = await ReproClient.connect(host, port=port)
            try:
                for suffix in ("", " algorithm=localsearch", " nc"):
                    lines = await client.request(
                        f"query email k=10 gamma=50{suffix} json"
                    )
                    doc = json.loads(lines[0])
                    assert doc["communities"] == []
                    assert doc["complete"] is True
                    assert doc["source"] == "cold"
                    lines = await client.request(
                        f"query email k=10 gamma=20{suffix} json"
                    )
                    doc = json.loads(lines[0])
                    assert doc["complete"] is True
                    assert len(doc["communities"]) == (
                        1 if suffix == " nc" else 4
                    )
                text = await client.request("query email k=10 gamma=49")
                assert text[0].startswith("localsearch-p[cold]: 0 communities")
            finally:
                await client.close()
                await server.stop()

        asyncio.run(main())


class TestChurnedStop:
    """Inserts keep the stop exact, and so does a compaction."""

    def test_compaction_restores_the_empty_core_answer(self, email_graph):
        n = email_graph.num_vertices
        edges, weights = _model(email_graph)
        registry = GraphRegistry(preload_datasets=False, compact_after=None)
        registry.register("email", lambda: email_graph)
        engine = QueryEngine(registry, cache=ResultCache(8))
        email_graph.core_stop(1)
        for op in _insert_ops(n, edges, 30):
            event = registry.apply("email", [op])
            assert event.stats.inserted == 1
            apply_ops_to_model(edges, weights, [op])
        churned = registry.get("email").graph
        # 30 inserts cannot lift the degeneracy of 22 to 50.
        assert churned._core_stops == core_stops(churned)
        assert churned.core_stop(50) == 0

        registry.compact("email")
        graph = registry.get("email").graph
        assert graph is churned
        assert graph._core_stops == core_stops(graph)
        assert graph.core_stop(50) == 0
        assert LocalSearchP(graph, gamma=50).run(10).stats.prefixes == []
        assert engine.execute(
            QuerySpec(graph="email", k=10, gamma=50)
        ).communities == ()

        fresh = graph_from_arrays(
            n, sorted(edges), weights=[weights[v] for v in range(n)]
        )
        oracle = LocalSearchP(fresh, 20, kernel="python").run(10)
        served = engine.execute(QuerySpec(graph="email", k=10, gamma=20))
        assert [
            (view.influence, frozenset(view.members))
            for view in served.communities
        ] == _label_pairs(fresh, oracle.communities)
        assert served.communities
