"""Shared fixtures for the benchmark suite.

Each benchmark file regenerates one table/figure of the paper.  The
served-path benchmark (whole-request throughput, latency and per-layer
spans) is separate; see ``perfbench/NOTES.md``.  Datasets are the synthetic Table-1
stand-ins, built once per session.  Benchmarks measure *query* time only;
graph construction happens in fixtures.

Run with::

    pytest benchmarks/ --benchmark-only

Use ``--benchmark-group-by=group`` for paper-figure-shaped output.
"""

from __future__ import annotations

import pytest

from repro.graph.storage import FileEdgeStore, IOCounter
from repro.workloads.datasets import load_dataset
from repro.workloads.dblp import synthetic_dblp


@pytest.fixture(scope="session")
def email():
    return load_dataset("email")


@pytest.fixture(scope="session")
def youtube():
    return load_dataset("youtube")


@pytest.fixture(scope="session")
def wiki():
    return load_dataset("wiki")


@pytest.fixture(scope="session")
def livejournal():
    return load_dataset("livejournal")


@pytest.fixture(scope="session")
def arabic():
    return load_dataset("arabic")


@pytest.fixture(scope="session")
def uk():
    return load_dataset("uk")


@pytest.fixture(scope="session")
def twitter():
    return load_dataset("twitter")


@pytest.fixture(scope="session")
def dblp():
    graph, _ = synthetic_dblp()
    return graph


@pytest.fixture(scope="session")
def youtube_store_path(youtube, tmp_path_factory):
    """A file-backed, weight-ordered edge store of the youtube stand-in."""
    path = tmp_path_factory.mktemp("stores") / "youtube.edges"
    FileEdgeStore.create(path, youtube)
    return path


def fresh_store(path):
    """A new store handle with a fresh I/O counter."""
    return FileEdgeStore(path, IOCounter())
