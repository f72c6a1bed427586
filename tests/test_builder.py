"""Unit tests for GraphBuilder: tie policies, loops, parallel edges,
and the rejection of non-finite vertex weights on every load path."""

from __future__ import annotations

import io
import math

import pytest

from repro.errors import (
    DuplicateWeightError,
    GraphConstructionError,
    SelfLoopError,
)
from repro.graph.builder import GraphBuilder, graph_from_arrays
from repro.graph.io import load_npz, load_snap_graph
from repro.graph.weighted_graph import WeightedGraph
from repro.service import GraphRegistry, QueryEngine, ServiceShell, SessionManager


class TestBasics:
    def test_empty_graph_rejected(self):
        with pytest.raises(GraphConstructionError):
            GraphBuilder().build()

    def test_single_vertex(self):
        b = GraphBuilder()
        b.add_vertex("only", 1.0)
        g = b.build()
        assert g.num_vertices == 1
        assert g.num_edges == 0

    def test_rank_order_follows_weights(self):
        b = GraphBuilder()
        b.add_vertex("low", 1.0)
        b.add_vertex("high", 9.0)
        b.add_vertex("mid", 5.0)
        g = b.build()
        assert [g.label(r) for r in range(3)] == ["high", "mid", "low"]

    def test_edge_creates_endpoints(self):
        b = GraphBuilder()
        b.add_edge("a", "b")
        g = b.build()
        assert g.num_vertices == 2
        assert g.num_edges == 1

    def test_set_weights_bulk(self):
        b = GraphBuilder()
        b.add_edge("a", "b")
        b.set_weights({"a": 1.0, "b": 2.0})
        g = b.build()
        assert g.rank_of("b") == 0


class TestSelfLoops:
    def test_rejected_by_default(self):
        b = GraphBuilder()
        with pytest.raises(SelfLoopError):
            b.add_edge("a", "a")

    def test_dropped_when_configured(self):
        b = GraphBuilder(drop_self_loops=True)
        b.add_edge("a", "a")
        b.add_edge("a", "b")
        g = b.build()
        assert g.num_edges == 1
        assert b.dropped_self_loops == 1


class TestParallelEdges:
    def test_merged(self):
        b = GraphBuilder()
        b.add_edge("a", "b")
        b.add_edge("b", "a")
        b.add_edge("a", "b")
        g = b.build()
        assert g.num_edges == 1
        assert b.merged_parallel_edges == 2


class TestTiePolicies:
    def test_error_policy(self):
        b = GraphBuilder(ties="error")
        b.add_vertex("a", 1.0)
        b.add_vertex("b", 1.0)
        with pytest.raises(DuplicateWeightError):
            b.build()

    def test_rank_policy_breaks_ties_deterministically(self):
        b = GraphBuilder(ties="rank")
        b.add_vertex("a", 1.0)
        b.add_vertex("b", 1.0)
        b.add_vertex("c", 2.0)
        g = b.build()
        # c first (weight 2), then a before b (insertion order).
        assert [g.label(r) for r in range(3)] == ["c", "a", "b"]
        weights = [g.weight(r) for r in range(3)]
        assert weights == sorted(weights, reverse=True)
        assert len(set(weights)) == 3  # strictly distinct after de-tie

    def test_jitter_policy_produces_distinct_weights(self):
        b = GraphBuilder(ties="jitter")
        for name in "abcd":
            b.add_vertex(name, 7.0)
        g = b.build()
        weights = [g.weight(r) for r in range(4)]
        assert len(set(weights)) == 4

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            GraphBuilder(ties="whatever")

    def test_implicit_weight_vertices_rank_last(self):
        b = GraphBuilder()
        b.add_vertex("heavy", 10.0)
        b.add_edge("heavy", "anon")  # anon has no weight
        g = b.build()
        assert g.rank_of("heavy") == 0
        assert g.rank_of("anon") == 1


class TestGraphFromArrays:
    def test_identity_weights(self):
        g = graph_from_arrays(3, [(0, 1), (1, 2)])
        assert g.rank_of(0) == 0
        assert g.weight(0) == 3.0

    def test_explicit_weights(self):
        g = graph_from_arrays(3, [(0, 1)], weights=[1.0, 3.0, 2.0])
        assert g.rank_of(1) == 0

    def test_weight_length_mismatch(self):
        with pytest.raises(GraphConstructionError):
            graph_from_arrays(3, [], weights=[1.0])

    def test_adjacency_is_sorted_and_mirrored(self):
        g = graph_from_arrays(5, [(0, 4), (1, 4), (2, 4), (3, 4)])
        assert g.neighbors_up(4) == [0, 1, 2, 3]
        for u in range(4):
            assert g.neighbors_down(u) == [4]


def _edges_and_weights_files(tmp_path, value):
    edges = tmp_path / "g.edges"
    edges.write_text("0 1\n1 2\n")
    weights = tmp_path / "g.weights"
    weights.write_text(f"0 3.0\n1 {value!r}\n2 1.0\n")
    return str(edges), str(weights)


def _via_builder(tmp_path, value):
    graph_from_arrays(3, [(0, 1), (1, 2)], weights=[3.0, value, 1.0])


def _via_weights_file(tmp_path, value):
    load_snap_graph(*_edges_and_weights_files(tmp_path, value))


def _via_npz_file(tmp_path, value):
    np = pytest.importorskip("numpy")
    path = tmp_path / "g.npz"
    np.savez_compressed(
        path,
        edges=np.array([[0, 1], [1, 2]]),
        weights=np.array([3.0, value, 1.0]),
        labels=np.array([0, 1, 2]),
    )
    load_npz(path)


def _via_rank_ordered(tmp_path, value):
    WeightedGraph([value], [[]], [[]])


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "load",
    [
        _via_builder,
        _via_weights_file,
        _via_npz_file,
        _via_rank_ordered,
    ],
    ids=["builder", "weights-file", "npz-file", "rank-ordered"],
)
def test_non_finite_vertex_weights_are_rejected(tmp_path, load, value):
    with pytest.raises(GraphConstructionError, match="finite"):
        load(tmp_path, value)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_shell_load_answers_non_finite_weights_with_a_typed_error(
    tmp_path, value
):
    registry = GraphRegistry(preload_datasets=False)
    out = io.StringIO()
    shell = ServiceShell(QueryEngine(registry), SessionManager(registry), out)
    edges, weights = _edges_and_weights_files(tmp_path, value)
    assert shell.execute_line(f"load g {edges} {weights}")
    (line,) = out.getvalue().splitlines()
    assert line.startswith("error: ") and "non-finite" in line
