"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random
from typing import List, Tuple

import pytest

from repro.core.progressive import LocalSearchP
from repro.graph.builder import graph_from_arrays
from repro.graph.weighted_graph import WeightedGraph
from repro.workloads.paper_examples import figure1_graph, figure3_graph


def random_graph(
    n: int, edge_prob: float, seed: int, weights: str = "identity"
) -> WeightedGraph:
    """A deterministic random graph for cross-validation tests."""
    rng = random.Random(seed)
    edges: List[Tuple[int, int]] = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < edge_prob:
                edges.append((u, v))
    if weights == "shuffled":
        values = list(range(1, n + 1))
        rng.shuffle(values)
        weight_list = [float(w) for w in values]
    else:
        weight_list = None  # identity: vertex 0 is heaviest
    return graph_from_arrays(n, edges, weights=weight_list)


@pytest.fixture()
def started_streams(monkeypatch) -> list:
    """Every LocalSearch-P stream started while the test runs."""
    started: list = []
    stream = LocalSearchP.stream

    def counting(self):
        started.append(self)
        return stream(self)

    monkeypatch.setattr(LocalSearchP, "stream", counting)
    return started


@pytest.fixture(scope="session")
def fig1() -> WeightedGraph:
    """The paper's Figure-1 example graph."""
    return figure1_graph()


@pytest.fixture(scope="session")
def fig3() -> WeightedGraph:
    """The paper's Figure-3 example graph."""
    return figure3_graph()


@pytest.fixture(scope="session")
def email_graph() -> WeightedGraph:
    """The smallest Table-1 stand-in (for integration tests)."""
    from repro.workloads.datasets import load_dataset

    return load_dataset("email")


@pytest.fixture()
def triangle() -> WeightedGraph:
    """K3 with weights 3 > 2 > 1."""
    return graph_from_arrays(3, [(0, 1), (0, 2), (1, 2)])


@pytest.fixture()
def two_cliques() -> WeightedGraph:
    """Two disjoint K4s: ranks 0-3 (heavy) and 4-7 (light)."""
    edges = []
    for base in (0, 4):
        for i in range(4):
            for j in range(i + 1, 4):
                edges.append((base + i, base + j))
    return graph_from_arrays(8, edges)
