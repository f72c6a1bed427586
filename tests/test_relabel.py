"""A rank-reordering reweight applies as a relabel of the rows.

``apply_batch`` moves the ranks of a batch's reweighted vertices inside
one window and maps the rows through the permutation instead of
rebuilding the graph; the batch's edge flips then apply as an overlay
in the new rank space.  Covered here:

* a hypothesis differential test over chained batches (1-3 reweights
  per batch: to the top, to the bottom, an adjacent swap, anywhere;
  flips, some on a reweighted vertex; labels ``1`` and ``"1"``, which
  tie on ``str``): every generation equals a scratch build of the
  ``apply_ops_to_model`` model in weights, rows, labels, ranks, edge
  count, label order and prefix sizes, and its core numbers and core
  stops equal a fresh decomposition's, before and after a compaction;
* the work a relabel does: no ``GraphBuilder`` build and no core
  decomposition, and every row outside the window is shared;
* the prefix-size memo kept across overlay and relabel generations.
"""

from __future__ import annotations

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.graph.core_decomposition as core_module
from repro.graph.builder import GraphBuilder, graph_from_arrays
from repro.graph.core_decomposition import core_decomposition, core_stops
from repro.graph.delta import EdgeBatch, apply_batch, apply_ops_to_model
from repro.graph.weighted_graph import WeightedGraph
from repro.service.registry import GraphRegistry
from tests.conftest import random_graph


def _fresh(labels, edges, weights) -> WeightedGraph:
    """A scratch build of the model over vertex ids ``0..n-1``."""
    return WeightedGraph.from_edges(
        [(labels[u], labels[v]) for u, v in edges],
        {labels[v]: w for v, w in weights.items()},
    )


def _assert_same_graph(graph: WeightedGraph, fresh: WeightedGraph) -> None:
    n = fresh.num_vertices
    assert graph._weights == fresh._weights
    assert graph._labels == fresh._labels
    assert graph._rank_of == fresh._rank_of
    assert graph.num_edges == fresh.num_edges
    assert graph._adj_up == fresh._adj_up
    assert graph._adj_down == fresh._adj_down
    assert graph.label_order().key() == fresh.label_order().key()
    assert [graph.prefix_size(p) for p in range(n + 1)] == [
        fresh.prefix_size(p) for p in range(n + 1)
    ]


@st.composite
def _chains(draw):
    """Vertex labels, a model, and 1-4 batches over vertex ids, each
    with the ranks to warm (prefix-size memo) before it applies."""
    n = draw(st.integers(3, 12))
    labels = list(range(n))
    if draw(st.booleans()):
        labels[-1] = "1"  # ties with the label 1 on str
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(
        st.lists(st.sampled_from(possible), unique=True, max_size=len(possible))
    )
    perm = draw(st.permutations(range(1, n + 1)))
    weights = {v: 4.0 * w for v, w in enumerate(perm)}
    model = dict(weights)
    batches = []
    for _ in range(draw(st.integers(1, 4))):
        ops = []
        moved = []
        for _ in range(draw(st.integers(1, 3))):
            v = draw(st.integers(0, n - 1))
            kind = draw(st.sampled_from(["top", "bottom", "swap", "any"]))
            by_weight = sorted(model, key=model.__getitem__, reverse=True)
            if kind == "top":
                new = model[by_weight[0]] + 1.5
            elif kind == "bottom":
                new = model[by_weight[-1]] - 1.5
            elif kind == "swap":  # just below the next lighter vertex
                at = by_weight.index(v)
                if at + 1 == n:
                    continue
                lighter = model[by_weight[at + 1]]
                below = model[by_weight[at + 2]] if at + 2 < n else lighter - 2
                new = (lighter + below) / 2
            else:
                new = draw(st.integers(1, 8 * n)) / 2 + 0.25
            if new in model.values():
                continue
            model[v] = new
            moved.append(v)
            ops.append(("reweight", v, new))
        for _ in range(draw(st.integers(0, 2))):
            kind = draw(st.sampled_from(["insert", "delete"]))
            if moved and draw(st.booleans()):  # flip at a moved vertex
                u = draw(st.sampled_from(moved))
                v = draw(st.integers(0, n - 1).filter(lambda x: x != u))
                u, v = min(u, v), max(u, v)
            else:
                u, v = draw(st.sampled_from(possible))
            ops.append((kind, u, v))
        warm = draw(st.integers(0, n))
        batches.append((ops, warm))
    compact_at = draw(st.integers(0, len(batches)))
    prime = draw(st.booleans())
    return labels, edges, weights, batches, compact_at, prime


@given(_chains())
@settings(max_examples=150, deadline=None)
def test_every_relabelled_generation_equals_a_scratch_build(case):
    labels, edges, weights, batches, compact_at, prime = case
    edges, weights = set(edges), dict(weights)
    base = _fresh(labels, edges, weights)
    if prime:  # a table, a label order and tokens to carry
        base.core_table()
        base.label_order().json_tokens()
    registry = GraphRegistry(preload_datasets=False, compact_after=None)
    registry.register("g", lambda: base)
    for index, (ops, warm) in enumerate(batches, 1):
        registry.get("g").graph.prefix_size(warm)
        registry.apply(
            "g",
            [
                (op[0], labels[op[1]], op[2])
                if op[0] == "reweight"
                else (op[0], labels[op[1]], labels[op[2]])
                for op in ops
            ],
        )
        apply_ops_to_model(edges, weights, ops)
        graph = registry.get("g").graph
        fresh = _fresh(labels, edges, weights)
        _assert_same_graph(graph, fresh)
        assert graph.core_numbers() == core_decomposition(fresh)
        assert graph.core_table() == core_stops(fresh)
        if index == compact_at:
            registry.compact("g")
            graph = registry.get("g").graph
            assert graph._core_numbers == core_decomposition(fresh)
            assert graph._core_stops == core_stops(fresh)


def _forbid_rebuilds(monkeypatch):
    def forbidden(*_args, **_kwargs):
        raise AssertionError("a re-rank rebuilt or decomposed the graph")

    monkeypatch.setattr(GraphBuilder, "build", forbidden)
    monkeypatch.setattr(core_module, "peel_order", forbidden)


def test_a_rerank_builds_nothing_and_shares_rows_outside_the_window(
    monkeypatch,
):
    n = 200
    base = random_graph(n, 0.05, 11, weights="shuffled")
    base.core_table()
    # Move the vertex at rank 120 up to just below rank 80: the window
    # is ranks 80..120 and every other rank keeps its vertex.
    mover = base.label(120)
    new_weight = (base.weight(79) + base.weight(80)) / 2
    _forbid_rebuilds(monkeypatch)
    reranked, _, stats = apply_batch(
        base, EdgeBatch((("reweight", mover, new_weight),))
    )
    assert stats.rank_shuffle
    assert reranked.rank_of(mover) == 80
    assert reranked.labels(range(80)) == base.labels(range(80))
    assert reranked.labels(range(121, n)) == base.labels(range(121, n))
    monkeypatch.undo()

    shared = 0
    for u in [*range(80), *range(121, n)]:
        for old, new in (
            (base.neighbors_up(u), reranked.neighbors_up(u)),
            (base.neighbors_down(u), reranked.neighbors_down(u)),
        ):
            if not any(80 <= v <= 120 for v in old):
                assert new is old
                shared += 1
    # Each vertex outside the window has a row on the far side of it.
    assert shared >= n - 41
    edges = {
        tuple(sorted(base.labels(edge))) for edge in base.iter_edges()
    }
    weights = base.weights_by_label()
    apply_ops_to_model(edges, weights, [("reweight", mover, new_weight)])
    fresh = graph_from_arrays(
        n, sorted(edges), weights=[weights[v] for v in range(n)]
    )
    _assert_same_graph(reranked, fresh)
    assert reranked._core_numbers == core_decomposition(fresh)
    assert reranked._core_stops == core_stops(fresh)


def test_a_pickled_copy_reranks_without_a_decomposition(monkeypatch):
    base = random_graph(40, 0.2, 5, weights="shuffled")
    base.core_numbers()
    copy = pickle.loads(pickle.dumps(base))
    assert copy._core_stops == base._core_stops
    _forbid_rebuilds(monkeypatch)
    reranked, _, stats = apply_batch(
        copy, EdgeBatch((("reweight", copy.label(39), 100.0),))
    )
    assert stats.rank_shuffle and reranked.rank_of(copy.label(39)) == 0
    monkeypatch.undo()
    assert reranked._core_numbers == core_decomposition(reranked)
    assert reranked._core_stops == core_stops(reranked)


class TestPrefixSizeMemo:
    def _base(self):
        graph = random_graph(30, 0.2, 7, weights="shuffled")
        graph.prefix_size(30)
        return graph

    def test_an_overlay_keeps_the_memo_below_its_lowest_flip(self):
        base = self._base()
        u, v = 12, 20  # ranks
        op = "delete" if base.has_edge_ranks(u, v) else "insert"
        overlay, _, _ = apply_batch(
            base, EdgeBatch(((op, base.label(u), base.label(v)),))
        )
        assert overlay._prefix_sizes == base._prefix_sizes[:21]
        fresh = WeightedGraph(
            overlay._weights, overlay._adj_up, overlay._adj_down
        )
        assert [overlay.prefix_size(p) for p in range(31)] == [
            fresh.prefix_size(p) for p in range(31)
        ]

    def test_a_relabel_keeps_the_memo_below_its_window(self):
        base = self._base()
        label = base.label(25)
        reranked, _, stats = apply_batch(
            base,
            EdgeBatch((("reweight", label, base.weight(9) + 0.5),)),
        )
        assert stats.rank_shuffle and reranked.rank_of(label) == 9
        assert reranked._prefix_sizes == base._prefix_sizes[:10]
        fresh = WeightedGraph(
            reranked._weights, reranked._adj_up, reranked._adj_down
        )
        assert [reranked.prefix_size(p) for p in range(31)] == [
            fresh.prefix_size(p) for p in range(31)
        ]
