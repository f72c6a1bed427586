"""Exact core numbers across edge flips: order-based core maintenance.

:class:`~repro.graph.core_decomposition.KOrder` keeps a graph's core
numbers exact under edge insertions and deletions (Zhang, Yu, Zhang &
Qin, ICDE 2017), and :func:`~repro.graph.delta.apply_batch` drives it
one flip at a time, handing it from each generation to the next.
Covered here:

* a differential fuzz over small random graphs and random
  insert/delete sequences, op by op on the order itself: after every op
  the core numbers equal :func:`core_decomposition` and the shells walk
  as a k-order — every vertex's ``deg+`` is its count of neighbours
  later in the order and at most its core, cores do not decrease along
  the order, and keys increase along each shell; again over 200 flips
  on 40-vertex graphs, and with keys spaced so tightly that the shells
  relabel all the time;
* the same through ``apply_batch`` chains with re-ranks, where the order
  moves with the ranks and the stops are refolded from the moved ranks
  only: every generation's numbers and stops equal a fresh
  decomposition's;
* branching: two different batches applied to one parent are both
  exact, and a graph that is never mutated never builds an order;
* the work count ``MutationStats.core_visited`` over a seeded
  livejournal stream, pinned, so a fall back to a traversal that visits
  whole subcores fails.
"""

from __future__ import annotations

import pickle
import random
import sys
import threading
from bisect import bisect_left, insort
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.graph.core_decomposition as core_module
from repro.graph.builder import graph_from_arrays
from repro.graph.core_decomposition import (
    KOrder,
    core_decomposition,
    core_stops,
)
from repro.graph.delta import EdgeBatch, apply_batch, apply_ops_to_model
from repro.graph.weighted_graph import WeightedGraph
from repro.service.registry import GraphRegistry
from repro.workloads.datasets import load_dataset
from repro.workloads.generators import delta_stream


def _walk(order: KOrder):
    """The vertices along the k-order, checking each shell's links."""
    walked = []
    for core, first in enumerate(order.head):
        v, before, last_key = first, -1, None
        while v != -1:
            assert order.core[v] == core  # so cores never decrease
            assert order.prv[v] == before
            assert last_key is None or order.key[v] > last_key
            last_key = order.key[v]
            walked.append(v)
            before, v = v, order.nxt[v]
        assert order.tail[core] == before
    return walked


def _check(order: KOrder, up, down) -> None:
    n = len(up)
    graph = WeightedGraph(
        [float(n - r) for r in range(n)], up, down, validate=False
    )
    assert list(order.core) == core_decomposition(graph)
    walked = _walk(order)
    assert sorted(walked) == list(range(n))
    place = {v: i for i, v in enumerate(walked)}
    for v in range(n):
        later = sum(1 for w in up[v] + down[v] if place[w] > place[v])
        assert order.deg[v] == later, v
        assert later <= order.core[v], v


@st.composite
def _flip_sequences(draw):
    """A random graph and 1-40 flips of vertex pairs (each an insert
    when the edge is absent, a delete when present)."""
    n = draw(st.integers(2, 12))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(
        st.lists(st.sampled_from(possible), unique=True, max_size=len(possible))
    )
    flips = draw(st.lists(st.sampled_from(possible), min_size=1, max_size=40))
    return n, edges, flips


def _replay_flips(n, edges, flips):
    graph = graph_from_arrays(n, edges)
    up = [list(row) for row in graph._adj_up]
    down = [list(row) for row in graph._adj_down]
    order = KOrder.of(graph)
    _check(order, up, down)
    for u, v in flips:  # u < v: v's up-row, u's down-row
        at = bisect_left(up[v], u)
        if at < len(up[v]) and up[v][at] == u:
            up[v].pop(at)
            down[u].pop(bisect_left(down[u], v))
            order.remove(v, u, up, down)
        else:
            insort(up[v], u)
            insort(down[u], v)
            order.insert(v, u, up, down)
        _check(order, up, down)


@given(_flip_sequences())
@settings(max_examples=300, deadline=None)
def test_every_flip_keeps_the_cores_exact_and_the_order_a_k_order(case):
    _replay_flips(*case)


@pytest.mark.parametrize("seed", range(12))
def test_longer_flip_sequences_on_larger_graphs(seed):
    # Forty vertices of average degree 4 and 200 flips: long enough for
    # candidates freed in a cascade to have neighbours not yet visited.
    rng = random.Random(seed)
    n = 40
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < 4 / n
    ]
    flips = [tuple(sorted(rng.sample(range(n), 2))) for _ in range(200)]
    _replay_flips(n, edges, flips)


@given(_flip_sequences())
@settings(max_examples=100, deadline=None)
def test_shell_relabels_keep_the_order(case):
    # Gaps of 2 run out on the first insert between two keys, and the
    # limit makes appends and prepends relabel too.
    with mock.patch.object(core_module, "_GAP", 2), mock.patch.object(
        core_module, "_KEY_LIMIT", 16
    ):
        _replay_flips(*case)


# ----------------------------------------------------------------------
# through apply_batch
# ----------------------------------------------------------------------
_SPACING = 8.0


@st.composite
def _batches(draw):
    """A random weighted graph and 1-6 batches of inserts, deletes and
    rank-reordering reweights."""
    n = draw(st.integers(2, 12))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(
        st.lists(st.sampled_from(possible), unique=True, max_size=len(possible))
    )
    perm = draw(st.permutations(range(1, n + 1)))
    weights = {v: _SPACING * w for v, w in enumerate(perm)}
    taken = set(weights.values())
    batches = []
    for _ in range(draw(st.integers(1, 6))):
        ops = []
        for _ in range(draw(st.integers(1, 5))):
            kind = draw(st.sampled_from(["insert", "delete", "reweight"]))
            if kind == "reweight":
                new = draw(st.integers(1, 4 * n)) * _SPACING / 3 + 0.25
                if new not in taken:
                    taken.add(new)
                    ops.append(("reweight", draw(st.integers(0, n - 1)), new))
                continue
            u, v = draw(st.sampled_from(possible))
            ops.append((kind, u, v))
        batches.append(EdgeBatch(tuple(ops)))
    return n, edges, weights, batches


def _assert_exact(graph: WeightedGraph) -> None:
    assert graph._core_numbers == core_decomposition(graph)
    assert graph._core_stops == core_stops(graph)
    order = graph._core_order
    if order is not None:
        _check(order, graph._adj_up, graph._adj_down)


@given(_batches())
@settings(max_examples=150, deadline=None)
def test_every_generation_of_a_chain_is_exact(case):
    n, edges, weights, batches = case
    graph = graph_from_arrays(n, edges, weights=[weights[v] for v in range(n)])
    graph.core_table()
    model_edges, model_weights = set(edges), dict(weights)
    for batch in batches:
        parent = graph
        graph, _, stats = apply_batch(graph, batch)
        apply_ops_to_model(model_edges, model_weights, batch.ops)
        fresh = graph_from_arrays(
            n, sorted(model_edges), weights=[model_weights[v] for v in range(n)]
        )
        assert graph._adj_up == fresh._adj_up
        _assert_exact(graph)
        if stats.inserted or stats.deleted:
            assert graph._core_order is not None
        if graph is not parent and graph._core_order is not None:
            assert parent._core_order is None  # handed over, not shared


class TestBranches:
    def _parent(self):
        graph = graph_from_arrays(
            8,
            [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)],
        )
        parent, _, _ = apply_batch(graph, EdgeBatch((("insert", 3, 5),)))
        assert parent._core_order is not None
        return parent

    def test_two_batches_on_one_parent_are_both_exact(self):
        parent = self._parent()
        first, _, _ = apply_batch(
            parent, EdgeBatch((("insert", 1, 3), ("insert", 0, 3)))
        )
        assert parent._core_order is None and first._core_order is not None
        # The parent is no longer a tip: this batch builds its own order.
        second, _, _ = apply_batch(
            parent, EdgeBatch((("delete", 2, 3), ("insert", 5, 7)))
        )
        assert second._core_order is not first._core_order
        for graph in (parent, first, second):
            _assert_exact(graph)
        assert first.core_stop(3) == 4  # ranks 0-3 became a K4
        assert second.core_stop(2) == 8  # three triangles
        # Both branches go on exact.
        for graph in (first, second):
            child, _, _ = apply_batch(graph, EdgeBatch((("delete", 4, 5),)))
            _assert_exact(child)

    def test_a_reweight_only_batch_hands_the_order_over(self):
        parent = self._parent()
        order = parent._core_order
        child, _, stats = apply_batch(
            parent, EdgeBatch((("reweight", 7, 100.0),))
        )
        assert stats.rank_shuffle and child._core_order is order
        _assert_exact(child)

    def test_a_collision_keeps_the_order_on_the_parent(self):
        parent = self._parent()
        order = parent._core_order
        with pytest.raises(Exception, match="collide"):
            apply_batch(parent, EdgeBatch((("reweight", 7, parent.weight(0)),)))
        assert parent._core_order is order


def test_concurrent_batches_on_one_parent_never_share_an_order():
    # Eight threads on two CPUs apply different batches to one tip at
    # once, with a short switch interval: at most one child may take
    # the parent's order, and every child must be exact.
    graph = graph_from_arrays(
        30, [(u, (u * 7 + 3) % 30) for u in range(30) if u != (u * 7 + 3) % 30]
    )
    parent, _, _ = apply_batch(graph, EdgeBatch((("insert", 0, 1),)))
    batches = [
        EdgeBatch((("insert", i, i + 10), ("insert", i + 1, i + 20)))
        for i in range(8)
    ]
    children = [None] * len(batches)
    start = threading.Barrier(len(batches))

    def apply(i):
        start.wait(10.0)
        children[i] = apply_batch(parent, batches[i])[0]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=apply, args=(i,))
            for i in range(len(batches))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30.0)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    orders = {id(child._core_order) for child in children}
    assert len(orders) == len(children)
    for child in children:
        _assert_exact(child)


def test_an_unmutated_graph_builds_no_order(email_graph):
    registry = GraphRegistry(preload_datasets=False)
    registry.register("email", lambda: email_graph)
    graph = registry.get("email").graph
    assert graph.core_stop(20) > 0
    assert graph._core_order is None


def test_a_pickled_generation_keeps_its_numbers_not_its_order():
    graph = graph_from_arrays(5, [(0, 1), (1, 2), (2, 0), (3, 4)])
    child, _, _ = apply_batch(graph, EdgeBatch((("insert", 2, 3),)))
    clone = pickle.loads(pickle.dumps(child))
    assert clone._core_order is None
    assert clone._core_numbers == child._core_numbers == [2, 2, 2, 1, 1]
    assert clone._core_stops == child._core_stops
    grandchild, _, _ = apply_batch(clone, EdgeBatch((("insert", 1, 3),)))
    _assert_exact(grandchild)


# ----------------------------------------------------------------------
# the work count
# ----------------------------------------------------------------------
#: ``core_visited`` summed over the first 200 batches of
#: ``delta_stream(random.Random(9001), ...)`` on the livejournal
#: stand-in (2 edge ops per batch, half inserts, half deletes, as
#: live-churn draws them).  The order-based maintenance visits a few
#: vertices per flip; a subcore traversal would visit thousands (the
#: 8- and 9-shells hold most of the graph).
LIVEJOURNAL_VISITS = 2235


def test_core_visited_is_pinned_on_a_livejournal_stream():
    graph = load_dataset("livejournal")
    edges = [tuple(sorted(graph.labels(edge))) for edge in graph.iter_edges()]
    weights = [graph.weight_of_label(v) for v in range(graph.num_vertices)]
    stream = delta_stream(
        random.Random(9001),
        graph.num_vertices,
        edges,
        weights,
        ops_per_batch=2,
        mix=(0.5, 0.5, 0.0),
    )
    visited = flips = 0
    for _ in range(200):
        graph, _, stats = apply_batch(graph, next(stream))
        visited += stats.core_visited
        flips += stats.inserted + stats.deleted
    assert flips == 400
    assert visited == LIVEJOURNAL_VISITS
    assert graph._core_numbers == core_decomposition(graph)
